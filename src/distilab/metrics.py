"""Classification evaluation: accuracy, NLL, ECE, temperature fitting,
calibrated metrics, functional diversity, and predictive-entropy histograms.

NLL is reported both summed over the dataset and as the per-sample mean.
ECE uses L right-closed confidence bins ((l-1)/L, l/L]; a confidence of
exactly zero lands in the first bin. Temperature fitting minimizes
validation NLL over a log-spaced grid followed by golden-section refinement,
widening the bracket when the optimum hits an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import row_max, row_sum
from .nets import MLP

PROB_FLOOR = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class MetricsReport:
    """The metrics of one model on one test split.

    ``probs`` holds the (N, K) mean test probabilities at unit temperature
    that ``evaluate_model`` computed the metrics from, for further readouts
    of the same split (the evaluate CLI's entropy histogram). It is set after
    construction, left out of repr and equality, and not carried over by
    ``dataclasses.replace``."""
    acc: float
    nll_sum: float
    nll_mean: float
    ece: float
    tau_star: float
    cnll_mean: float
    cece: float
    n: int
    bins: int
    mean_div: float | None = None
    clamp_events: int = 0
    probs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class EntropyHistogram:
    edges: np.ndarray       # bins + 1 edges covering [0, ln K]
    counts: np.ndarray      # non-negative ints summing to the sample count
    tag: str                # "in" or "ood"


def softmax_np(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax over the last axis, max-stabilized."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = logits / tau
    z -= row_max(z)
    e = np.exp(z, out=z)
    return e / row_sum(e)


def _check_probs(probs: np.ndarray) -> None:
    if probs.ndim != 2:
        raise ValueError(f"expected (N, K) probabilities, got shape {probs.shape}")
    if probs.shape[0] == 0:
        raise ValueError("empty dataset")
    if np.abs(row_sum(probs) - 1.0).max() > 1e-9:
        raise ValueError("probability rows must sum to 1")


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax hits; ties resolve to the lowest class index."""
    _check_probs(probs)
    return float((probs.argmax(axis=1) == labels).mean())


def nll_with_stats(probs: np.ndarray, labels: np.ndarray) -> tuple[float, float, int]:
    """(summed NLL, per-sample mean, number of floor-clamped probabilities)."""
    _check_probs(probs)
    picked = probs[np.arange(len(labels)), labels]
    clamped = int((picked < PROB_FLOOR).sum())
    total = float(-np.log(np.maximum(picked, PROB_FLOOR)).sum())
    return total, total / len(labels), clamped


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Negative log-likelihood summed over the dataset."""
    return nll_with_stats(probs, labels)[0]


def _bin_index(conf: np.ndarray, bins: int) -> np.ndarray:
    # bin l covers ((l-1)/L, l/L]; exact zeros go to bin 1
    idx = np.ceil(conf * bins).astype(np.int64)
    return np.clip(idx, 1, bins)


def ece(probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """Expected calibration error over right-closed confidence bins."""
    _check_probs(probs)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    idx = _bin_index(conf, bins)
    n = len(labels)
    total = 0.0
    for l in range(1, bins + 1):
        mask = idx == l
        count = int(mask.sum())
        if count == 0:
            continue
        gap = abs(correct[mask].mean() - conf[mask].mean())
        total += (count / n) * gap
    return float(total)


def _member_mean(probs: np.ndarray) -> np.ndarray:
    """Mean of (M, N, K) member probabilities; a single member is its own
    mean, taken without a reduction pass."""
    return probs[0] if len(probs) == 1 else probs.mean(axis=0)


def _mean_probs(logits: np.ndarray, tau: float) -> np.ndarray:
    """Probabilities at temperature tau; member axis (M, N, K) is averaged."""
    probs = softmax_np(logits, tau)
    return _member_mean(probs) if probs.ndim == 3 else probs


# elements in the largest (T, M, N, K) temporary of one block of the grid
_GRID_BLOCK = 1 << 17


def _grid_nll(logits: np.ndarray, labels: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Summed NLL at every temperature in taus: per temperature the same float
    operations as ``nll(_mean_probs(logits, tau), labels)``, computed for a
    block of temperatures at a time over a leading temperature axis. The
    temperature search's only NLL, for its grid and its refinement alike."""
    if logits.ndim not in (2, 3):
        raise ValueError(f"expected (N, K) or (M, N, K) logits, got shape {logits.shape}")
    rows = np.arange(len(labels))
    # division by a positive tau is monotone under rounding, so the row max
    # of logits / tau is exactly the row max of the logits divided by tau
    top = row_max(logits)
    step = max(1, _GRID_BLOCK // logits.size)
    out = np.empty(len(taus))
    for s in range(0, len(taus), step):
        t = taus[s:s + step].reshape((-1,) + (1,) * logits.ndim)
        z = logits / t
        z -= top / t
        np.exp(z, out=z)
        z /= row_sum(z)
        if logits.ndim == 3:
            z = z[:, 0] if len(logits) == 1 else z.mean(axis=1)
        # C order, so each temperature's row sums in the order nll's 1-D sum does
        picked = np.ascontiguousarray(z[:, rows, labels])
        out[s:s + step] = -np.log(np.maximum(picked, PROB_FLOOR)).sum(axis=1)
    return out


def fit_temperature(val_logits: np.ndarray, val_labels: np.ndarray) -> float:
    """Temperature minimizing validation NLL.

    Coarse pass over 100 log-spaced points in [0.05, 10], scored in one
    array pass, then golden-section refinement to |delta tau| < 1e-4 that
    scores one point at a time with the same NLL. If the coarse argmin lands
    on a bracket edge the bracket is widened (factor 2 on that side), at
    most three times.
    """
    if len(val_labels) == 0:
        raise ValueError("empty validation set")

    def objective(tau: float) -> float:
        return float(_grid_nll(val_logits, val_labels, np.array([tau]))[0])

    lo, hi = 0.05, 10.0
    for _ in range(4):
        grid = np.geomspace(lo, hi, 100)
        values = _grid_nll(val_logits, val_labels, grid)
        best = int(values.argmin())
        if best == 0:
            lo = lo / 2.0
        elif best == len(grid) - 1:
            hi = hi * 2.0
        else:
            break
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while abs(b - a) > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
    return float((a + b) / 2.0)


def calibrated_metrics(test_logits: np.ndarray, test_labels: np.ndarray,
                       tau_star: float, bins: int = 15) -> tuple[float, float]:
    """(summed cNLL, cECE) on temperature-scaled test probabilities."""
    if tau_star <= 0:
        raise ValueError("tau_star must be positive")
    probs = _mean_probs(test_logits, tau_star)
    return nll(probs, test_labels), ece(probs, test_labels, bins)


def pairwise_divergence_values(probs: np.ndarray) -> np.ndarray:
    """Per-sample mean pairwise KL across the member axis.

    probs has shape (M, N, K); returns (N,) with
    sum_{i != j} KL(p_i || p_j) / (M (M - 1)).
    """
    m = probs.shape[0]
    if m < 2:
        raise ValueError("need at least two members for diversity")
    logs = np.log(np.maximum(probs, PROB_FLOOR))
    out = np.zeros(probs.shape[1])
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            out += row_sum(probs[i] * (logs[i] - logs[j]))[:, 0]
    return out / (m * (m - 1))


def diversity_from_probs(probs: np.ndarray) -> float:
    """Mean over samples of the pairwise-KL diversity; (M, K) means one sample."""
    if probs.ndim == 2:
        probs = probs[:, None, :]
    return float(pairwise_divergence_values(probs).mean())


def member_probs(ensemble: MLP, x: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """(M, N, K) member probabilities of an ensemble net at inputs x."""
    return softmax_np(batched_logits(ensemble, x), tau)


def diversity(ensemble: MLP, x: np.ndarray) -> float:
    """Functional diversity of an ensemble net at inputs x."""
    return diversity_from_probs(member_probs(ensemble, x))


def entropy_values(probs: np.ndarray) -> np.ndarray:
    p = np.maximum(probs, PROB_FLOOR)
    return -row_sum(probs * np.log(p))[..., 0]


def entropy_histogram(probs: np.ndarray, bins: int = 30, tag: str = "in") -> EntropyHistogram:
    """Shannon entropies binned uniformly over [0, ln K]."""
    _check_probs(probs)
    k = probs.shape[1]
    edges = np.linspace(0.0, math.log(k), bins + 1)
    ent = np.clip(entropy_values(probs), 0.0, math.log(k))
    counts, _ = np.histogram(ent, bins=edges)
    return EntropyHistogram(edges, counts, tag)


def batched_logits(model, x: np.ndarray) -> np.ndarray:
    """(M, N, K) logits of every member of a net, in input order, one forward
    per chunk of 1024 // M rows, which bounds each stacked temporary at 1024
    rows (512 // M and 2048 // M evaluate no faster). A row's bytes depend on
    the rows it shares a chunk with: BLAS handles the last rows of a chunk of
    2 mod 4 rows apart (rows 1048-1049 of a 1,050-row call differ from the
    same rows in a 1,350-row call), so callers keep each split in a call of
    its own; ``distill.train_student``'s one-pass teacher table for an
    unperturbed plain student is one call over the training split."""
    chunk = max(1, 1024 // len(model))
    return np.concatenate([model.forward(x[s:s + chunk])
                           for s in range(0, len(x), chunk)], axis=1)


def _model_eval_logits(model, x: np.ndarray) -> np.ndarray:
    """(M, N, K) member logits with any dirichlet head already folded in."""
    logits = batched_logits(model, x)
    if model.head == "dirichlet":
        # predictive probabilities are normalized shifted concentrations;
        # log(exp(z) + 1) turns that into an ordinary softmax readout
        logits = np.log1p(np.exp(logits))
    return logits


def evaluate_model(model, test, val, bins: int = 15) -> MetricsReport:
    """Full metric set for one model on one (test, val) dataset pair.

    A model is evaluated as the mean of its member probabilities; one with
    several members additionally reports the member diversity averaged over
    the test split, from the same member probabilities. The report keeps the
    mean test probabilities in ``probs``.
    """
    test_logits = _model_eval_logits(model, test.x)
    val_logits = _model_eval_logits(model, val.x)
    member = softmax_np(test_logits, 1.0)
    probs = _member_mean(member)
    acc = accuracy(probs, test.y)
    nll_sum, nll_mean, clamped = nll_with_stats(probs, test.y)
    raw_ece = ece(probs, test.y, bins)
    tau_star = fit_temperature(val_logits, val.y)
    cnll_sum, cece = calibrated_metrics(test_logits, test.y, tau_star, bins)
    mean_div = diversity_from_probs(member) if len(member) > 1 else None
    report = MetricsReport(acc=acc, nll_sum=nll_sum, nll_mean=nll_mean, ece=raw_ece,
                           tau_star=tau_star, cnll_mean=cnll_sum / len(test.y),
                           cece=cece, n=len(test.y), bins=bins,
                           mean_div=mean_div, clamp_events=clamped)
    report.probs = probs
    return report
