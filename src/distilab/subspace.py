"""Loss-landscape analysis along the line through two subnetwork parameters.

For a two-member net the line is theta_t = (1-t) theta_1 + t theta_2 over
the members' effective weights, e.g. (1-t) (shared ∘ s1 r1^T) +
t (shared ∘ s2 r2^T), biases likewise.
The scan reports train/test error and test NLL over a t grid and the train
loss barrier: the worst excess of the interpolated train cross-entropy over
the endpoint losses, floored at zero. Cross-entropy to labels stands in for
the (unavailable post hoc) distillation objective when quantifying barriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .metrics import accuracy, batched_logits, nll_with_stats, softmax_np
from .nets import Layer, MLP, join


def default_grid() -> np.ndarray:
    """41 nominal points over [-0.25, 1.25] with 0, 0.5 and 1 forced exact.

    Nominal linspace points landing within 1e-9 of a forced value are
    replaced by it; the others are inserted, so the grid stays strictly
    increasing and contains the three anchors bit-exactly.
    """
    base = list(np.linspace(-0.25, 1.25, 41))
    for anchor in (0.0, 0.5, 1.0):
        base = [t for t in base if abs(t - anchor) > 1e-9]
        base.append(anchor)
    return np.array(sorted(base))


@dataclass
class LineScan:
    ts: np.ndarray
    train_err: np.ndarray
    test_err: np.ndarray
    test_nll: np.ndarray     # per-sample mean
    train_loss: np.ndarray   # mean cross-entropy, used for the barrier
    barrier: float


def _require_two_members(model: MLP) -> None:
    if len(model) != 2:
        raise ValueError(f"line analysis requires exactly two members, got {len(model)}")


def interpolate(model: MLP, t: float) -> MLP:
    """Plain network at position t on the member-1 / member-2 line."""
    _require_two_members(model)
    layers = []
    for l in model.layers:
        w = ad.member_weights(l.weight, l.r, l.s)
        w = (1.0 - t) * w[0] + t * w[1]
        b = (1.0 - t) * l.bias[0] + t * l.bias[1]
        layers.append(Layer(w[None], b[None]))
    return MLP(model.spec, layers)


def _eval_point(net: MLP, train: Dataset, test: Dataset) -> tuple[float, float, float, float]:
    train_probs = softmax_np(batched_logits(net, train.x)[0])
    test_probs = softmax_np(batched_logits(net, test.x)[0])
    train_err = 1.0 - accuracy(train_probs, train.y)
    test_err = 1.0 - accuracy(test_probs, test.y)
    test_nll_mean = nll_with_stats(test_probs, test.y)[1]
    train_loss = nll_with_stats(train_probs, train.y)[1]
    return train_err, test_err, test_nll_mean, train_loss


def line_scan(model: MLP, train: Dataset, test: Dataset,
              grid: np.ndarray | None = None) -> LineScan:
    """Evaluate the member line on a t grid and quantify the train barrier."""
    _require_two_members(model)
    ts = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("grid must be strictly increasing")
    for anchor in (0.0, 0.5, 1.0):
        if not np.any(ts == anchor):
            raise ValueError(f"grid must contain t={anchor} exactly")
    plain = join([model])   # the two members' weights, formed once for every point
    rows = [_eval_point(interpolate(plain, float(t)), train, test) for t in ts]
    arr = np.array(rows)
    train_loss = arr[:, 3]
    inside = (ts >= 0.0) & (ts <= 1.0)
    end_losses = max(train_loss[ts == 0.0][0], train_loss[ts == 1.0][0])
    barrier = max(0.0, float(train_loss[inside].max() - end_losses))
    return LineScan(ts=ts, train_err=arr[:, 0], test_err=arr[:, 1],
                    test_nll=arr[:, 2], train_loss=train_loss, barrier=barrier)


def pairwise_barriers(model: MLP, train: Dataset, test: Dataset) -> dict:
    """Barriers of every member pair for M > 2; reports the max.

    This extends the two-member line picture to all M(M-1)/2 pairs and is
    labeled as such in the returned record.
    """
    members = len(model)
    out: dict = {"pairs": {}, "note": "max over member-pair barriers (M>2 extension)"}
    worst = 0.0
    for i in range(members):
        for j in range(i + 1, members):
            b = line_scan(model[[i, j]], train, test).barrier
            out["pairs"][f"{i}-{j}"] = b
            worst = max(worst, b)
    out["max_barrier"] = worst
    return out
