"""SGD with Nesterov momentum, cosine schedule with linear warmup, weight decay.

The schedule ramps linearly from 0.01 * base_lr to base_lr over the warmup
epochs and then follows a single cosine half-cycle down over the remaining
epochs. Weight decay is folded into the gradient before the momentum update.
``fit`` is the one training loop: every student, and all M teachers at once
as one M-member plain net. Training is bit-reproducible given a seed: weight
init, batch shuffling and any perturbation randomness each consume their own
labeled RNG stream; a plain net's member m shuffles by the stream of seed + m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError, ShapeError
from .nets import MLP, ModelSpec, build_plain, is_int, is_real
from .seeding import rng_stream


@dataclass(frozen=True)
class OptimConfig:
    base_lr: float = 0.1
    momentum: float = 0.9
    epochs: int = 200
    warmup_epochs: int = 5
    weight_decay: float = 5e-4
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "warmup_epochs", "batch_size", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("base_lr", "momentum", "weight_decay"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        # each range check is written so that NaN fails it too
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must satisfy 0 <= warmup < epochs")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")


def lr_at(config: OptimConfig, step: int, steps_per_epoch: int) -> float:
    """Learning rate for a global step index.

    Warmup covers warmup_epochs * steps_per_epoch steps; the first step after
    it sits exactly at base_lr (cosine progress zero), so the schedule is
    continuous at the junction.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    warm = config.warmup_epochs * steps_per_epoch
    total = config.epochs * steps_per_epoch
    if step < warm:
        frac = step / warm
        return config.base_lr * (0.01 + 0.99 * frac)
    progress = (step - warm) / max(total - warm, 1)
    return config.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def sgd_update(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               lr: float, momentum: float, weight_decay: float) -> None:
    """One Nesterov step, in place.

    g_eff = g + wd * p
    v     = momentum * v - lr * g_eff
    p     = p + momentum * v - lr * g_eff      (v already updated)
    """
    if not (param.shape == grad.shape == velocity.shape):
        raise ShapeError(f"param/grad/velocity shapes disagree: "
                         f"{param.shape}/{grad.shape}/{velocity.shape}")
    g_eff = grad if weight_decay == 0.0 else grad + weight_decay * param
    velocity *= momentum
    velocity -= lr * g_eff
    param += momentum * velocity - lr * g_eff


class SGD:
    """Holds one velocity buffer per parameter; decay_mask[i] says whether
    weight decay applies to params[i]."""

    def __init__(self, params: list[np.ndarray], momentum: float, weight_decay: float,
                 decay_mask: list[bool]):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask
        if len(decay_mask) != len(params):
            raise ValueError("decay_mask length must match params")
        self.velocities = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """Update each parameter in place from its gradient in grads."""
        for p, g, v, decayed in zip(self.params, grads, self.velocities, self.decay_mask):
            sgd_update(p, g, v, lr, self.momentum, self.weight_decay if decayed else 0.0)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes)[labels]


def steps_per_epoch(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """-sum_m mean_b log p_m(labels_mb | x_b) of (M, B, K) logits against (M, B)
    or (B,) labels, and its logits gradient.

    The gradient is in closed form: -1/B times the one-hot labels, as the
    gradient of log p, taken back through the log-softmax; each step a first
    arrival (see ``autodiff.first_arrival``). The log-probabilities and the
    value are checked finite as 'cross_entropy'.
    """
    log_p, p = ad.log_softmax_values(logits, 1.0)
    ad.ensure_finite(log_p, "cross_entropy")
    y_hot = one_hot(labels, logits.shape[-1]).reshape(log_p.shape)
    c = -1.0 / labels.shape[-1]
    value = np.array((y_hot * log_p).sum()) * c
    ad.ensure_finite(value, "cross_entropy")
    grad = ad.log_softmax_grad(ad.first_arrival(c * y_hot), p, 1.0)
    return float(value), ad.first_arrival(grad)


def fit(net: MLP, data, config: OptimConfig,
        batch_loss: Callable[[np.ndarray], tuple[list, np.ndarray]],
        rank_decay: float = 0.0, step_hook=None) -> MLP:
    """Train net in place by SGD on batch_loss over shuffled minibatches of
    the rows of data; returns net.

    batch_loss(rows) gets the batch's row indices into data, reads the rows
    itself (data.x[rows], data.y[rows], or anything else kept per row), runs
    net on them, or on inputs formed from them, by ``net.forward_kept``, and
    returns what that kept and the gradient of the loss with respect to the
    (M, B, K) logits; ``fit`` takes that gradient back with ``net.backward``,
    which returns the gradient of each parameter.
    A plain net of M > 1 members is M independent trainings: member m draws
    its batches from the stream of seed + m, so rows is (M, B). Any other net
    draws from the seed's stream and rows is (B,).
    Weights take weight decay, and a factored net's shared weight follows
    the member-mean gradient; rank factors follow their own gradient plus,
    when rank_decay > 0, a pull toward ones, and never decay; biases decay
    only in a plain net.
    step_hook(step, net) runs after each update, step counting from 1; a
    NumericsError raised by a step's batch_loss names that step.
    """
    n = len(data)
    shuffles = [rng_stream(config.seed + m, "batch-shuffle")
                for m in range(1 if net.factored else len(net))]
    shared, rank = len(net.shared_parameters()), len(net.rank_parameters())
    params = net.parameters()
    mask = [True] * shared + [False] * rank + [not net.factored] * len(net.layers)
    opt = SGD(params, config.momentum, config.weight_decay, decay_mask=mask)
    spe = steps_per_epoch(n, config.batch_size)
    step = 0
    for _ in range(config.epochs):
        orders = [s.permutation(n) for s in shuffles]
        order = orders[0] if len(orders) == 1 else np.stack(orders)
        for start in range(0, n, config.batch_size):
            rows = order[..., start:start + config.batch_size]
            try:
                # no name holds the kept layers, so they are freed after the backward
                grads = net.backward(*batch_loss(rows), True)
            except NumericsError as e:
                raise NumericsError(f"{e} at step {step + 1}") from e
            if net.factored:
                for g in grads[:shared]:
                    g /= len(net)
            if rank_decay > 0.0:
                for g, p in zip(grads[shared:shared + rank], params[shared:shared + rank]):
                    g += rank_decay * (p - 1.0)
            opt.step(grads, lr_at(config, step, spe))
            del grads   # freed before the next step's forward
            step += 1
            if step_hook is not None:
                step_hook(step, net)
    return net


def train_teachers(spec: ModelSpec, data, m: int, config: OptimConfig) -> MLP:
    """Train M cross-entropy models as one M-member plain net in one ``fit``,
    member m's init and batches from seed + m."""
    if m < 1:
        raise ValueError("teacher count must be >= 1")
    net = build_plain(spec, [rng_stream(config.seed + i, "init") for i in range(m)])

    def batch_loss(rows):
        kept = net.forward_kept(data.x[rows])
        return kept, cross_entropy(kept[-1][2], data.y[rows])[1]

    return fit(net, data, config, batch_loss)
