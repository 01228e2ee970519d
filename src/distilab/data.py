"""Synthetic classification tasks: Gaussian mixtures, corruptions, OOD shifts.

Class means sit evenly on a ring of radius 2 in the first two input
dimensions; all splits are standardized with statistics of the train split
only. Corruption adds Gaussian noise scaled by the per-dimension data
standard deviation, and the OOD generator places fresh clusters far from
every in-distribution class mean in the same standardized coordinates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import rng_stream

RING_RADIUS = 1.4


class DataFormatError(ValueError):
    """A data file is missing, ragged, or contains invalid fields."""


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    num_classes: int
    split: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise DataFormatError("dataset arrays must be (N,D) features and (N,) labels")
        if len(self.x) == 0:
            raise DataFormatError("dataset is empty")
        if self.y.min() < 0 or self.y.max() >= self.num_classes:
            raise DataFormatError("labels out of range")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def digest(self) -> str:
        """16 hex characters of BLAKE2b over the serialized content; stable
        across runs."""
        blob = (self.split.encode() +
                np.int64(self.num_classes).tobytes() +
                np.asarray(self.x.shape, dtype=np.int64).tobytes() +
                np.ascontiguousarray(self.x).tobytes() +
                np.ascontiguousarray(self.y).tobytes())
        return hashlib.blake2b(blob, digest_size=8).hexdigest()


def _split_sizes(n: int) -> tuple[int, int, int]:
    # 70/10/20 with any rounding surplus assigned to the earlier split
    n_train = math.ceil(n * 7 / 10)
    n_val = math.ceil((n - n_train) / 3)
    return n_train, n_val, n - n_train - n_val


def _ring_means(num_classes: int, dim: int) -> np.ndarray:
    means = np.zeros((num_classes, dim))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means[:, 0] = RING_RADIUS * np.cos(angles)
    means[:, 1] = RING_RADIUS * np.sin(angles)
    return means


def make_mixture(num_classes: int, dim: int, n_per_class: int, spread: float,
                 seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Gaussian mixture task split 70/10/20 and train-standardized."""
    if num_classes < 2 or dim < 2:
        raise ValueError("need num_classes >= 2 and dim >= 2")
    if spread <= 0:
        raise ValueError("spread must be positive")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    means = _ring_means(num_classes, dim)
    sample = rng_stream(seed, "mixture-sample")
    y = np.repeat(np.arange(num_classes), n_per_class)
    x = means[y] + spread * sample.standard_normal((len(y), dim))
    order = rng_stream(seed, "mixture-split").permutation(len(y))
    x, y = x[order], y[order]

    n_train, n_val, n_test = _split_sizes(len(y))
    mu = x[:n_train].mean(axis=0)
    sigma = x[:n_train].std(axis=0)
    sigma = np.maximum(sigma, 1e-12)
    x = (x - mu) / sigma

    provenance = {
        "generator": "mixture", "num_classes": num_classes, "dim": dim,
        "n_per_class": n_per_class, "spread": spread, "seed": seed,
        "train_mean": mu.tolist(), "train_std": sigma.tolist(),
        "std_class_means": ((means - mu) / sigma).tolist(),
        "std_class_spread": (spread / sigma).tolist(),
    }
    bounds = (0, n_train, n_train + n_val, len(y))
    names = ("train", "val", "test")
    out = []
    for name, lo, hi in zip(names, bounds[:-1], bounds[1:]):
        out.append(Dataset(x[lo:hi], y[lo:hi], num_classes, name, dict(provenance)))
    return out[0], out[1], out[2]


def corrupt(dataset: Dataset, intensity: int, seed: int) -> Dataset:
    """Additive Gaussian noise with sigma = 0.1 * intensity * per-dim std."""
    if intensity not in (1, 2, 3, 4, 5):
        raise ValueError(f"corruption intensity must be in 1..5, got {intensity}")
    rng = rng_stream(seed, "corrupt")
    sigma = dataset.x.std(axis=0)
    noisy = dataset.x + rng.standard_normal(dataset.x.shape) * (0.1 * intensity * sigma)
    provenance = dict(dataset.provenance)
    provenance["corruption"] = {"intensity": intensity, "seed": seed}
    return Dataset(noisy, dataset.y.copy(), dataset.num_classes,
                   dataset.split, provenance)


def make_ood(reference: Dataset, shift: float, seed: int) -> Dataset:
    """Clusters displaced by shift * data std away from every reference mean.

    Placement directions are drawn at random subject to being disjoint from
    the reference class structure in two senses: a candidate must clear
    every class mean by three cluster widths, and its two nearest
    class-mean directions must be nearly equidistant (top-two cosine
    similarities within 0.05). The second condition matters at desk scale:
    a far-away cluster aligned with one class direction is
    indistinguishable from an extreme in-class sample, so genuinely
    held-out data has to occupy the ambiguous regions that no single class
    claims.

    Labels index the generated clusters but the split tag marks the set as
    out-of-distribution; entropy histograms never consume them.
    """
    if shift <= 0:
        raise ValueError("shift must be positive")
    rng = rng_stream(seed, "ood")
    dim = reference.dim
    k = reference.num_classes
    sigma = reference.x.std(axis=0)
    ref_means = np.asarray(reference.provenance.get(
        "std_class_means", np.zeros((k, dim))), dtype=np.float64)
    cluster_spread = np.asarray(reference.provenance.get(
        "std_class_spread", np.ones(dim)), dtype=np.float64)
    clearance = 3.0 * float(np.mean(cluster_spread))
    mean_dirs = ref_means / np.maximum(
        np.linalg.norm(ref_means, axis=1, keepdims=True), 1e-12)

    means = np.zeros((k, dim))
    for i in range(k):
        for _ in range(10_000):
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            candidate = shift * sigma * direction
            if np.min(np.linalg.norm(ref_means - candidate, axis=1)) < clearance:
                continue
            cosines = np.sort(mean_dirs @ direction)
            if cosines[-1] - cosines[-2] > 0.05:
                continue
            means[i] = candidate
            break
        else:
            raise ValueError("could not place OOD cluster away from class means")

    n = len(reference)
    y = np.arange(n) % k
    x = means[y] + cluster_spread * rng.standard_normal((n, dim))
    provenance = dict(reference.provenance)
    provenance["ood"] = {"shift": shift, "seed": seed}
    return Dataset(x, y, k, "ood", provenance)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    dim = dataset.dim
    lines = [",".join([f"x{d}" for d in range(dim)] + ["y"])]
    for row, label in zip(dataset.x, dataset.y):
        lines.append(",".join(format(v, ".17g") for v in row) + f",{label}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path: str | Path, num_classes: int | None = None) -> Dataset:
    """A "test" split from a CSV file with header x0,...,x<D-1>,y."""
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"data file not found: {p}")
    lines = [ln for ln in p.read_text().splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"{p}: file is empty")
    header = lines[0].split(",")
    dim = len(header) - 1
    if dim < 1 or header[-1] != "y" or header[:-1] != [f"x{d}" for d in range(dim)]:
        raise DataFormatError(f"{p}: line 1: bad header '{lines[0]}'")
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise DataFormatError(f"{p}: line {lineno}: expected {dim + 1} fields, "
                                  f"got {len(cells)}")
        try:
            row = [float(c) for c in cells[:-1]]
        except ValueError as e:
            raise DataFormatError(f"{p}: line {lineno}: bad float: {e}") from e
        for cell, value in zip(cells, row):
            if not math.isfinite(value):
                raise DataFormatError(f"{p}: line {lineno}: non-finite feature '{cell}'")
        xs.append(row)
        try:
            label = int(cells[-1])
        except ValueError as e:
            raise DataFormatError(f"{p}: line {lineno}: non-integer label "
                                  f"'{cells[-1]}'") from e
        if label < 0:
            raise DataFormatError(f"{p}: line {lineno}: negative label {label}")
        ys.append(label)
    if not xs:
        raise DataFormatError(f"{p}: no data rows")
    y = np.array(ys, dtype=np.int64)
    k = num_classes if num_classes is not None else int(y.max()) + 1
    bad = np.nonzero(y >= k)[0]
    if bad.size:
        raise DataFormatError(f"{p}: line {bad[0] + 2}: label {y[bad[0]]} >= K={k}")
    return Dataset(np.array(xs), y, k, "test", {"generator": "csv", "path": str(p)})
