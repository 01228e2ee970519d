"""SGD with Nesterov momentum, cosine schedule with linear warmup, weight decay.

The schedule ramps linearly from 0.01 * base_lr to base_lr over the warmup
epochs and then follows a single cosine half-cycle down over the remaining
epochs. Weight decay is folded into the gradient before the momentum update.
Training is bit-reproducible given a seed: weight init, batch shuffling and
any perturbation randomness each consume their own labeled RNG stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """Holds one velocity buffer per parameter; weight decay maskable per-param."""

    def __init__(self, params: list[Tensor], momentum: float, weight_decay: float,
                 decay_mask: list[bool] | None = None):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_mask = decay_mask if decay_mask is not None else [True] * len(params)
        if len(self.decay_mask) != len(params):
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


def train_classifier(model: MLP, data, config: OptimConfig) -> list[tuple[float, float]]:
    """Cross-entropy training; returns per-epoch (mean loss, train accuracy)."""
    x, y = data.x, data.y
    n, num_classes = x.shape[0], model.spec.num_classes
    y_hot = one_hot(y, num_classes)
    shuffle = rng_stream(config.seed, "batch-shuffle")
    opt = SGD(model.parameters(), config.momentum, config.weight_decay)
    spe = steps_per_epoch(n, config.batch_size)
    history: list[tuple[float, float]] = []
    step = 0
    for _ in range(config.epochs):
        order = shuffle.permutation(n)
        epoch_loss = 0.0
        for idx in minibatches(n, config.batch_size, order):
            xb = Tensor(x[idx])
            yb = Tensor(y_hot[idx])
            logits = model.forward(xb)
            log_probs = ad.log_softmax_temp(logits, 1.0)
            loss = ad.scale(ad.sum(ad.mul(yb, log_probs)), -1.0 / len(idx))
            loss.backward()
            opt.step(lr_at(config, step, spe))
            opt.zero_grad()
            epoch_loss += loss.item() * len(idx)
            step += 1
        preds = model.predict_logits(x).argmax(axis=1)
        history.append((epoch_loss / n, float((preds == y).mean())))
    return history


def train_teachers(spec: ModelSpec, data, m: int,
                   config: OptimConfig) -> list[MLP]:
    """Train M independent cross-entropy models, sub-seeded seed + index."""
    if m < 1:
        raise ValueError("teacher count must be >= 1")
    teachers = []
    for i in range(m):
        sub = replace(config, seed=config.seed + i)
        model = build_plain(spec, rng_stream(sub.seed, "init"))
        train_classifier(model, data, sub)
        teachers.append(model)
    return teachers
