"""Reference computations made apart from distilab.

The correctness checks compare the program's outputs against what this
module computes with plain numpy: the synthetic task, the corruption noise,
checkpoint parsing, forward passes, probabilities, accuracy, NLL and entropy
histograms. Nothing here imports distilab, so a fault in the program cannot
hide by being reproduced on both sides of a comparison.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Probabilities are floored at this value before taking logs; it is part of
# the definition of the NLL the program reports.
PROB_FLOOR = 1e-12
RING_RADIUS = 1.4
ENTROPY_BINS = 30


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def stream(seed: int, label: str) -> np.random.Generator:
    """The labelled random stream of the task specification."""
    key = fnv1a64(label.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=seed & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=(key & 0xFFFFFFFF, key >> 32))
    return np.random.default_rng(ss)


def mixture(num_classes: int, dim: int, n_per_class: int, spread: float,
            seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Gaussian classes on a ring of radius 1.4 in the first two dimensions,
    split 70/10/20 and standardized with the train split's statistics."""
    means = np.zeros((num_classes, dim))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means[:, 0] = RING_RADIUS * np.cos(angles)
    means[:, 1] = RING_RADIUS * np.sin(angles)
    y = np.repeat(np.arange(num_classes), n_per_class)
    x = means[y] + spread * stream(seed, "mixture-sample").standard_normal((len(y), dim))
    order = stream(seed, "mixture-split").permutation(len(y))
    x, y = x[order], y[order]
    n = len(y)
    n_train = math.ceil(n * 7 / 10)
    n_val = math.ceil((n - n_train) / 3)
    mu = x[:n_train].mean(axis=0)
    sigma = np.maximum(x[:n_train].std(axis=0), 1e-12)
    x = (x - mu) / sigma
    cut = (0, n_train, n_train + n_val, n)
    return {name: (x[lo:hi], y[lo:hi])
            for name, lo, hi in zip(("train", "val", "test"), cut[:-1], cut[1:])}


def corrupt(x: np.ndarray, intensity: int, seed: int) -> np.ndarray:
    """Gaussian noise with sigma 0.1 * intensity * per-dimension std."""
    noise = stream(seed, "corrupt").standard_normal(x.shape)
    return x + noise * (0.1 * intensity * x.std(axis=0))


# -- checkpoints ----------------------------------------------------------------

def load_checkpoint(path: str | Path) -> dict:
    """Parse a checkpoint file into {"kind", "M", "head", "tensors"}."""
    doc = json.loads(Path(path).read_text())
    tensors = {name: np.array(rec["values"].split(), dtype=np.float64).reshape(rec["shape"])
               for name, rec in doc["tensors"].items()}
    return {"kind": doc["kind"], "M": doc["M"], "head": doc["head"], "tensors": tensors}


def num_layers(ck: dict) -> int:
    return sum(1 for name in ck["tensors"] if name.endswith((".W", ".shared")))


def member_params(ck: dict) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per member, the (weight, bias) of every layer; a plain model has one."""
    t = ck["tensors"]
    layers = range(num_layers(ck))
    if ck["kind"] == "plain":
        return [[(t[f"layer{i}.W"], t[f"layer{i}.b"]) for i in layers]]
    return [[(t[f"layer{i}.shared"] * t[f"layer{i}.r{m}"][:, None] * t[f"layer{i}.s{m}"][None, :],
              t[f"layer{i}.b{m}"]) for i in layers]
            for m in range(ck["M"])]


def rank_one_average(ck: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """shared ∘ mean_m(r_m s_m^T) and the member-mean bias, per layer."""
    t = ck["tensors"]
    out = []
    for i in range(num_layers(ck)):
        r = np.stack([t[f"layer{i}.r{m}"] for m in range(ck["M"])])
        s = np.stack([t[f"layer{i}.s{m}"] for m in range(ck["M"])])
        b = np.stack([t[f"layer{i}.b{m}"] for m in range(ck["M"])])
        out.append((t[f"layer{i}.shared"] * np.einsum("mo,mi->oi", r, s) / ck["M"],
                    b.mean(axis=0)))
    return out


def forward(params: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    h = x
    for i, (w, b) in enumerate(params):
        h = h @ w.T + b
        if i < len(params) - 1:
            h = np.maximum(h, 0.0)
    return h


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def readout(logits: np.ndarray, head: str) -> np.ndarray:
    """Class probabilities from logits; the Dirichlet head reads out the
    normalized shifted concentrations exp(z) + 1."""
    if head == "dirichlet":
        conc = np.exp(logits) + 1.0
        return conc / conc.sum(axis=-1, keepdims=True)
    return softmax(logits)


def predict_probs(ck: dict, x: np.ndarray) -> np.ndarray:
    """Predictive probabilities; factored models average member probabilities."""
    members = [readout(forward(p, x), ck["head"]) for p in member_params(ck)]
    return np.mean(members, axis=0)


def accuracy(probs: np.ndarray, y: np.ndarray) -> float:
    return float((probs.argmax(axis=1) == y).mean())


def nll_mean(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def entropy_counts(probs: np.ndarray) -> np.ndarray:
    k = probs.shape[1]
    ent = -(probs * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=1)
    edges = np.linspace(0.0, math.log(k), ENTROPY_BINS + 1)
    counts, _ = np.histogram(np.clip(ent, 0.0, math.log(k)), bins=edges)
    return counts


def default_gamma(x_train: np.ndarray) -> float:
    """Perturbation step 0.15 sqrt(D) times the mean per-dimension std."""
    return float(0.15 * np.sqrt(x_train.shape[1]) * x_train.std(axis=0).mean())


def line_losses(ck: dict, i: int, j: int, ts: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy along (1-t) theta_i + t theta_j for each t."""
    members = member_params(ck)
    out = []
    for t in ts:
        params = [((1.0 - t) * wi + t * wj, (1.0 - t) * bi + t * bj)
                  for (wi, bi), (wj, bj) in zip(members[i], members[j])]
        out.append(nll_mean(softmax(forward(params, x)), y))
    return np.array(out)


def barrier(ts: np.ndarray, losses: np.ndarray) -> float:
    """Worst excess of the loss on [0, 1] over the endpoint losses, floored at 0."""
    inside = (ts >= 0.0) & (ts <= 1.0)
    ends = max(losses[ts == 0.0][0], losses[ts == 1.0][0])
    return max(0.0, float(losses[inside].max() - ends))


def aekd_objective(w: np.ndarray, teacher_probs: np.ndarray,
                   student_probs: np.ndarray, tau: float) -> float:
    """||p_S - sum_m w_m p_Tm||^2 / (2 tau^2) for one sample."""
    resid = student_probs - teacher_probs.T @ w
    return float(resid @ resid) / (2.0 * tau * tau)


def aekd_reference_solve(teacher_probs: np.ndarray, student_probs: np.ndarray,
                         tau: float, c: float) -> float:
    """Best objective scipy's SLSQP finds over {sum w = 1, 0 <= w <= c},
    started from the uniform point and from each capped corner."""
    from scipy.optimize import minimize

    m = teacher_probs.shape[0]
    starts = [np.full(m, 1.0 / m)]
    for k in range(m):
        w0 = np.full(m, (1.0 - c) / (m - 1))
        w0[k] = c
        starts.append(w0)
    best = math.inf
    for w0 in starts:
        res = minimize(aekd_objective, w0, args=(teacher_probs, student_probs, tau),
                       method="SLSQP", bounds=[(0.0, c)] * m,
                       constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                       options={"ftol": 1e-16, "maxiter": 1000})
        w = np.clip(res.x, 0.0, c)
        if abs(w.sum() - 1.0) <= 1e-9:
            best = min(best, aekd_objective(w, teacher_probs, student_probs, tau))
    return best
