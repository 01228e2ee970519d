"""SGD with Nesterov momentum, cosine schedule with linear warmup, weight decay.

The schedule ramps linearly from 0.01 * base_lr to base_lr over the warmup
epochs and then follows a single cosine half-cycle down over the remaining
epochs. Weight decay is folded into the gradient before the momentum update.
``fit`` is the one training loop, run by teachers and every student.
Training is bit-reproducible given a seed: weight init, batch shuffling and
any perturbation randomness each consume their own labeled RNG stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .nets import MLP, ModelSpec, build_plain
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
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.warmup_epochs < 0 or self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must satisfy 0 <= warmup < epochs")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


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

    def __init__(self, params: list[Tensor], momentum: float, weight_decay: float,
                 decay_mask: list[bool]):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask
        if len(decay_mask) != len(params):
            raise ValueError("decay_mask length must match params")
        self.velocities = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        for p, v, decayed in zip(self.params, self.velocities, self.decay_mask):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            sgd_update(p.data, g, v, lr, self.momentum,
                       self.weight_decay if decayed else 0.0)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def minibatches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def steps_per_epoch(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def fit(net: MLP, data, config: OptimConfig,
        batch_loss: Callable[[np.ndarray, np.ndarray], Tensor],
        rank_decay: float = 0.0, step_hook=None) -> MLP:
    """Train net in place by SGD on batch_loss(x_batch, y_batch) over shuffled
    minibatches of data; returns net.

    Shared weights follow the member-mean gradient and take weight decay;
    rank factors follow their own gradient plus, when rank_decay > 0, a pull
    toward ones, and never decay; biases decay only in a plain net.
    step_hook(step, net) runs after each update.
    """
    n = len(data)
    shuffle = rng_stream(config.seed, "batch-shuffle")
    shared = net.shared_parameters()
    rank = net.rank_parameters()
    biases = net.member_bias_parameters()
    mask = [True] * len(shared) + [False] * len(rank) + [not net.factored] * len(biases)
    opt = SGD(shared + rank + biases, config.momentum, config.weight_decay, decay_mask=mask)
    spe = steps_per_epoch(n, config.batch_size)
    step = 0
    for _ in range(config.epochs):
        order = shuffle.permutation(n)
        for idx in minibatches(n, config.batch_size, order):
            # Hold the loss, and with it the graph, until the next batch's graph
            # is built: releasing it before the SGD step made teacher training
            # ~20% slower at two BLAS threads, a slowdown that goes away when
            # glibc's trim and mmap thresholds are raised.
            loss = batch_loss(data.x[idx], data.y[idx])
            loss.backward()
            if len(net) > 1:
                for t in shared:
                    t.grad /= len(net)
            if rank_decay > 0.0:
                for t in rank:
                    t.grad += rank_decay * (t.data - 1.0)
            opt.step(lr_at(config, step, spe))
            opt.zero_grad()
            step += 1
            if step_hook is not None:
                step_hook(step, net)
    return net


def train_teachers(spec: ModelSpec, data, m: int,
                   config: OptimConfig) -> list[MLP]:
    """Train M independent cross-entropy models, sub-seeded seed + index."""
    if m < 1:
        raise ValueError("teacher count must be >= 1")
    teachers = []
    for i in range(m):
        sub = replace(config, seed=config.seed + i)
        model = build_plain(spec, rng_stream(sub.seed, "init"))

        def cross_entropy(xb, yb, model=model):
            log_probs = ad.log_softmax_temp(model.forward(Tensor(xb)), 1.0)
            y_hot = Tensor(one_hot(yb, spec.num_classes))
            return ad.scale(ad.sum(ad.mul(y_hot, log_probs)), -1.0 / len(yb))

        teachers.append(fit(model, data, sub, cross_entropy))
    return teachers
