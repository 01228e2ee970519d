"""Distillation objectives and training loops.

Five ways to compress an ensemble of teachers into a student:

* ``distill_kd``          -- match the mean teacher distribution (plus an
                             optional label cross-entropy term),
* ``distill_aekd``        -- per-sample teacher weights from a small box-
                             constrained quadratic program,
* ``distill_proxy_end2``  -- reverse KL between Dirichlet distributions whose
                             concentrations come from teacher disagreement,
* ``distill_be``          -- one-to-one distillation into a factored student:
                             member m mimics teacher m, rank-one factors learn
                             from their own loss, the shared weight from the
                             member mean,
* ``distill_latentbe``    -- one-to-one distillation from all-ones factors
                             with a decay pulling the factors back toward
                             ones, optional input perturbation each step, and
                             a final rank-one weight average that collapses
                             the student to single-network inference cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset
from .metrics import PROB_FLOOR, softmax_np
from .nets import MLP, ModelSpec, average_rank_one, build_be, build_plain
from .optim import SGD, OptimConfig, lr_at, minibatches, one_hot, steps_per_epoch
from .perturb import KINDS, build_perturbation, default_gamma
from .seeding import rng_stream


class DegenerateEnsembleError(ValueError):
    """Teacher outputs are numerically identical where disagreement is required."""


@dataclass(frozen=True)
class DistillConfig:
    tau: float = 4.0
    alpha: float = 1.0
    rank_decay: float = 1e-3        # pull of rank-one factors toward ones
    gamma: float | None = None      # perturbation step; None = 0.15 sqrt(D) std
    perturbation: str = "none"
    num_teachers: int = 2
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.rank_decay < 0:
            raise ValueError("rank_decay must be non-negative")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.perturbation not in KINDS:
            raise ValueError(f"unknown perturbation kind '{self.perturbation}'")
        if self.num_teachers < 1:
            raise ValueError("num_teachers must be >= 1")


@dataclass(frozen=True)
class AEKDConfig:
    c: float = 0.6  # tolerance of disagreement among teachers, in [1/M, 1]


@dataclass
class ProxyDirichlet:
    """Concentration targets, already shifted by +1 (so strictly above 1)."""

    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if np.any(self.beta <= 1.0):
            raise ValueError("shifted concentrations must all exceed 1")


# -- losses -------------------------------------------------------------------

def kd_loss(teachers: Sequence[MLP], student_logits: Tensor, x: np.ndarray,
            y_onehot: np.ndarray, cfg: DistillConfig) -> Tensor:
    """(1 - alpha) H[y, p_S] + alpha tau^2 mean_m H[p_Tm, p_S], batch-averaged.

    Teacher probabilities are constants; both cross-entropies use the
    temperature-softened student distribution.
    """
    n = student_logits.shape[0] if student_logits.data.ndim == 2 else 1
    log_p = ad.log_softmax_temp(student_logits, cfg.tau)
    terms: Tensor | None = None
    if cfg.alpha > 0.0:
        for teacher in teachers:
            probs = softmax_np(teacher.predict_logits(x), cfg.tau)
            h = ad.scale(ad.sum(ad.mul(Tensor(probs), log_p)), -1.0 / n)
            terms = h if terms is None else ad.add(terms, h)
        kd = ad.scale(terms, cfg.alpha * cfg.tau ** 2 / len(teachers))
        if cfg.alpha == 1.0:
            return kd
    label_ce = ad.scale(ad.sum(ad.mul(Tensor(y_onehot), log_p)),
                        -(1.0 - cfg.alpha) / n)
    return label_ce if cfg.alpha == 0.0 else ad.add(label_ce, kd)


def _project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {w : sum w = 1, 0 <= w <= cap} by bisection."""
    lo, hi = v.min() - cap - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, cap).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, cap)


def _aekd_objective(w: np.ndarray, teacher_probs: np.ndarray,
                    student_probs: np.ndarray, tau: float) -> float:
    resid = student_probs - teacher_probs.T @ w
    return float(resid @ resid) / (2.0 * tau * tau)


def aekd_weights(teacher_probs: np.ndarray, student_probs: np.ndarray,
                 tau: float, c: float) -> np.ndarray:
    """Teacher weights minimizing ||p_S - sum_m w_m p_Tm||^2 / (2 tau^2)
    over the simplex intersected with the box [0, c].

    Solved exactly by active-set enumeration for M <= 3, otherwise by
    projected gradient descent to 1e-10 stationarity. c = 1/M forces the
    uniform weighting (the feasible set is a single point).
    """
    P = np.asarray(teacher_probs, dtype=np.float64)
    s = np.asarray(student_probs, dtype=np.float64)
    m = P.shape[0]
    if c < 1.0 / m - 1e-9 or c > 1.0 + 1e-9:
        raise ValueError(f"tolerance c={c} infeasible for M={m}")
    if c <= 1.0 / m + 1e-12:
        return np.full(m, 1.0 / m)
    if m <= 3:
        return _aekd_enumerate(P, s, tau, c)
    return _aekd_pgd(P, s, tau, c)


def _aekd_enumerate(P: np.ndarray, s: np.ndarray, tau: float, c: float) -> np.ndarray:
    m = P.shape[0]
    best_w, best_f = None, np.inf
    for statuses in product(("free", "zero", "cap"), repeat=m):
        w = np.zeros(m)
        free = [i for i, st in enumerate(statuses) if st == "free"]
        for i, st in enumerate(statuses):
            if st == "cap":
                w[i] = c
        budget = 1.0 - w.sum()
        if budget < -1e-12:
            continue
        if free:
            # equality-constrained least squares on the free block via KKT
            pf = P[free]
            size = len(free)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * (pf @ pf.T)
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[:size] = 2.0 * (pf @ (s - P.T @ w))
            rhs[size] = budget
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            if np.any(sol[:size] < -1e-10) or np.any(sol[:size] > c + 1e-10):
                continue
            w[free] = np.clip(sol[:size], 0.0, c)
        elif abs(budget) > 1e-12:
            continue
        f = _aekd_objective(w, P, s, tau)
        if f < best_f - 1e-15:
            best_f, best_w = f, w
    assert best_w is not None
    return best_w


def _aekd_pgd(P: np.ndarray, s: np.ndarray, tau: float, c: float) -> np.ndarray:
    m = P.shape[0]
    w = np.full(m, 1.0 / m)
    lipschitz = float(np.linalg.eigvalsh(P @ P.T).max()) / (tau * tau)
    step = 1.0 / max(lipschitz, 1e-12)
    for _ in range(200_000):
        grad = -(P @ (s - P.T @ w)) / (tau * tau)
        w_new = _project_capped_simplex(w - step * grad, c)
        if np.abs(w_new - w).max() < 1e-12:
            return w_new
        w = w_new
    return w


def _aekd_weights_batch(teacher_probs: np.ndarray, student_probs: np.ndarray,
                        tau: float, c: float) -> np.ndarray:
    """Per-sample weights; closed form for M=2, generic solver otherwise."""
    m, n = teacher_probs.shape[0], teacher_probs.shape[1]
    if c <= 1.0 / m + 1e-12:
        return np.full((n, m), 1.0 / m)
    if m == 2:
        diff = teacher_probs[0] - teacher_probs[1]
        denom = np.einsum("bk,bk->b", diff, diff)
        num = np.einsum("bk,bk->b", student_probs - teacher_probs[1], diff)
        w0 = np.where(denom > 1e-18, num / np.maximum(denom, 1e-18), 0.5)
        w0 = np.clip(w0, max(0.0, 1.0 - c), min(c, 1.0))
        return np.stack([w0, 1.0 - w0], axis=1)
    return np.stack([aekd_weights(teacher_probs[:, b], student_probs[b], tau, c)
                     for b in range(n)])


def proxy_dirichlet_target(teacher_probs: np.ndarray) -> ProxyDirichlet:
    """Concentration parameters from teacher probabilities, +1 shifted.

    beta_k is the mean teacher probability scaled by (K-1)/2 over the mean
    pointwise disagreement sum_j pbar_j (log pbar_j - mean_m log p_mj).
    Numerically identical teachers make that denominator vanish.
    """
    P = np.asarray(teacher_probs, dtype=np.float64)
    squeeze = P.ndim == 2
    if squeeze:
        P = P[:, None, :]
    if P.shape[0] < 2:
        raise ValueError("need at least two teachers to estimate concentrations")
    k = P.shape[-1]
    pbar = P.mean(axis=0)
    logs = np.log(np.maximum(P, PROB_FLOOR))
    denom = (pbar * (np.log(np.maximum(pbar, PROB_FLOOR)) - logs.mean(axis=0))).sum(axis=-1)
    if np.any(denom <= 1e-12):
        raise DegenerateEnsembleError(
            "teachers numerically identical; concentration estimate undefined")
    beta = pbar * ((k - 1) / 2.0) / denom[:, None] + 1.0
    return ProxyDirichlet(beta[0] if squeeze else beta)


def dirichlet_kl_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KL(Dir(a) || Dir(b)) along the last axis, closed form."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a0, b0 = a.sum(axis=-1), b.sum(axis=-1)
    return (ad.lgamma(a0) - np.asarray(ad.lgamma(a)).sum(axis=-1)
            - ad.lgamma(b0) + np.asarray(ad.lgamma(b)).sum(axis=-1)
            + ((a - b) * ad.digamma(a)).sum(axis=-1)
            - ad.digamma(a0) * (a0 - b0))


def dirichlet_kl(conc: Tensor, target_beta: np.ndarray) -> Tensor:
    """Differentiable KL(Dir(conc) || Dir(target)) per sample.

    Rearranged so the digamma of the concentration total multiplies the
    total-vs-target gap, avoiding any broadcast against the class axis.
    """
    beta = np.asarray(target_beta, dtype=np.float64)
    a0 = ad.sum(conc, axis=-1)
    const = (np.asarray(ad.lgamma(beta)).sum(axis=-1) - ad.lgamma(beta.sum(axis=-1)))
    out = ad.sub(ad.lgamma(a0), ad.sum(ad.lgamma(conc), axis=-1))
    out = ad.add(out, Tensor(np.asarray(const)))
    out = ad.add(out, ad.sum(ad.mul(ad.sub(conc, Tensor(beta)), ad.digamma(conc)),
                             axis=-1))
    return ad.sub(out, ad.mul(ad.digamma(a0),
                              ad.sub(a0, Tensor(beta.sum(axis=-1)))))


def proxy_end2_loss(student_logits: Tensor, target: ProxyDirichlet) -> Tensor:
    """Reverse Dirichlet KL with student concentrations exp(logits) + 1,
    divided per sample by the target concentration total, batch-averaged."""
    conc = ad.add_scalar(ad.exp(student_logits), 1.0)
    kl = dirichlet_kl(conc, target.beta)
    weights = Tensor(1.0 / target.beta.sum(axis=-1))
    return ad.mean(ad.mul(kl, weights))


# -- training loops -----------------------------------------------------------

def _streams(seed: int):
    return (rng_stream(seed, "batch-shuffle"),
            rng_stream(seed, "guidance-vectors"),
            rng_stream(seed, "pair-sampling"))


def _perturbed(kind: str, teachers, student, xb: np.ndarray, gamma: float,
               tau: float, noise_rng, index_rng) -> np.ndarray:
    if kind == "none":
        return xb
    pert = build_perturbation(kind, teachers, student, xb, gamma, tau,
                              noise_rng, index_rng)
    return pert.apply(xb)


def _plain_distill_loop(teachers: Sequence[MLP], student: MLP, train: Dataset,
                        cfg: DistillConfig,
                        loss_fn: Callable[[np.ndarray, np.ndarray, Tensor], Tensor],
                        step_hook=None) -> MLP:
    if cfg.perturbation == "tdiv_sdiv":
        raise ValueError("tdiv_sdiv perturbation requires a factored student")
    n = len(train)
    shuffle, noise_rng, index_rng = _streams(cfg.optim.seed)
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(train.x)
    opt = SGD(student.parameters(), cfg.optim.momentum, cfg.optim.weight_decay)
    spe = steps_per_epoch(n, cfg.optim.batch_size)
    step = 0
    for _ in range(cfg.optim.epochs):
        order = shuffle.permutation(n)
        for idx in minibatches(n, cfg.optim.batch_size, order):
            xb = _perturbed(cfg.perturbation, teachers, None, train.x[idx],
                            gamma, cfg.tau, noise_rng, index_rng)
            logits = student.forward(Tensor(xb))
            loss = loss_fn(xb, train.y[idx], logits)
            loss.backward()
            opt.step(lr_at(cfg.optim, step, spe))
            opt.zero_grad()
            step += 1
            if step_hook is not None:
                step_hook(step, student)
    return student


def distill_kd(teachers: Sequence[MLP], spec: ModelSpec, train: Dataset,
               cfg: DistillConfig, step_hook=None) -> MLP:
    """Vanilla ensemble distillation into a plain student."""
    _check_teacher_count(teachers, cfg)
    student = build_plain(spec, rng_stream(cfg.optim.seed, "init"))
    k = spec.num_classes

    def loss_fn(xb, yb, logits):
        return kd_loss(teachers, logits, xb, one_hot(yb, k), cfg)

    return _plain_distill_loop(teachers, student, train, cfg, loss_fn, step_hook)


def distill_aekd(teachers: Sequence[MLP], spec: ModelSpec, train: Dataset,
                 cfg: DistillConfig, aekd: AEKDConfig, step_hook=None) -> MLP:
    """Distillation with per-sample adaptive teacher weights.

    The weights solve the box-constrained matching problem on untempered
    probabilities and are treated as constants; the distillation term
    replaces the uniform teacher mean of ``kd_loss``.
    """
    _check_teacher_count(teachers, cfg)
    m = len(teachers)
    if aekd.c < 1.0 / m - 1e-9 or aekd.c > 1.0 + 1e-9:
        raise ValueError(f"aekd tolerance must lie in [1/M, 1], got {aekd.c}")
    student = build_plain(spec, rng_stream(cfg.optim.seed, "init"))
    k = spec.num_classes

    def loss_fn(xb, yb, logits):
        n = len(yb)
        log_p = ad.log_softmax_temp(logits, cfg.tau)
        probs1 = np.stack([softmax_np(t.predict_logits(xb), 1.0) for t in teachers])
        weights = _aekd_weights_batch(probs1, softmax_np(logits.data, 1.0),
                                      cfg.tau, aekd.c)
        terms: Tensor | None = None
        for i, teacher in enumerate(teachers):
            probs_tau = softmax_np(teacher.predict_logits(xb), cfg.tau)
            weighted = probs_tau * weights[:, i][:, None]
            h = ad.scale(ad.sum(ad.mul(Tensor(weighted), log_p)), -1.0 / n)
            terms = h if terms is None else ad.add(terms, h)
        kd = ad.scale(terms, cfg.alpha * cfg.tau ** 2)
        if cfg.alpha == 1.0:
            return kd
        label_ce = ad.scale(ad.sum(ad.mul(Tensor(one_hot(yb, k)), log_p)),
                            -(1.0 - cfg.alpha) / n)
        return label_ce if cfg.alpha == 0.0 else ad.add(label_ce, kd)

    return _plain_distill_loop(teachers, student, train, cfg, loss_fn, step_hook)


def distill_proxy_end2(teachers: Sequence[MLP], spec: ModelSpec, train: Dataset,
                       cfg: DistillConfig, step_hook=None) -> MLP:
    """Dirichlet distribution distillation against the teacher proxy target."""
    _check_teacher_count(teachers, cfg)
    if len(teachers) < 2:
        raise ValueError("proxy distillation needs at least two teachers")
    student = build_plain(spec, rng_stream(cfg.optim.seed, "init"),
                          head="dirichlet")

    def loss_fn(xb, yb, logits):
        probs = np.stack([softmax_np(t.predict_logits(xb), 1.0) for t in teachers])
        return proxy_end2_loss(logits, proxy_dirichlet_target(probs))

    return _plain_distill_loop(teachers, student, train, cfg, loss_fn, step_hook)


def _check_teacher_count(teachers, cfg: DistillConfig) -> None:
    if len(teachers) != cfg.num_teachers:
        raise ValueError(f"config expects {cfg.num_teachers} teachers, "
                         f"got {len(teachers)}")


def _one_to_one_loop(teachers: Sequence[MLP], student: MLP, train: Dataset,
                     cfg: DistillConfig, rank_decay: float,
                     step_hook=None) -> MLP:
    """One-to-one member losses; rank factors follow their own gradient,
    the shared weight follows the member mean, plus an optional pull of the
    rank factors toward ones and an optional input perturbation per step."""
    m_count = len(student)
    if len(teachers) != m_count:
        raise ValueError(f"student has {m_count} members but {len(teachers)} "
                         "teachers were given")
    n = len(train)
    shuffle, noise_rng, index_rng = _streams(cfg.optim.seed)
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(train.x)
    shared = student.shared_parameters()
    rank = student.rank_parameters()
    biases = student.member_bias_parameters()
    params = shared + rank + biases
    mask = [True] * len(shared) + [False] * (len(rank) + len(biases))
    opt = SGD(params, cfg.optim.momentum, cfg.optim.weight_decay, decay_mask=mask)
    spe = steps_per_epoch(n, cfg.optim.batch_size)
    tau_sq = cfg.tau ** 2
    step = 0
    for _ in range(cfg.optim.epochs):
        order = shuffle.permutation(n)
        for idx in minibatches(n, cfg.optim.batch_size, order):
            xb = _perturbed(cfg.perturbation, teachers, student, train.x[idx],
                            gamma, cfg.tau, noise_rng, index_rng)
            x_in = Tensor(xb)
            batch = len(idx)
            total: Tensor | None = None
            for m in range(m_count):
                probs = softmax_np(teachers[m].predict_logits(xb), cfg.tau)
                log_p = ad.log_softmax_temp(student[m].forward(x_in), cfg.tau)
                member_loss = ad.scale(ad.sum(ad.mul(Tensor(probs), log_p)),
                                       -tau_sq / batch)
                total = member_loss if total is None else ad.add(total, member_loss)
            total.backward()
            for t in shared:
                t.grad /= m_count
            if rank_decay > 0.0:
                for t in rank:
                    t.grad += rank_decay * (t.data - 1.0)
            opt.step(lr_at(cfg.optim, step, spe))
            opt.zero_grad()
            step += 1
            if step_hook is not None:
                step_hook(step, student)
    return student


def distill_be(teachers: Sequence[MLP], student: MLP, train: Dataset,
               cfg: DistillConfig, step_hook=None) -> MLP:
    """One-to-one distillation into a pre-built factored student.

    No pull toward ones is applied (rank_decay in the config is ignored
    here); the perturbation kind from the config is honored.
    """
    return _one_to_one_loop(teachers, student, train, cfg, 0.0, step_hook)


def distill_latentbe(teachers: Sequence[MLP], spec: ModelSpec, train: Dataset,
                     cfg: DistillConfig, step_hook=None) -> tuple[MLP, MLP]:
    """One-to-one distillation from all-ones factors, then weight averaging.

    Returns (averaged plain student, factored student). With perturbation
    "none" and rank_decay 0 the factored student's trajectory is
    bit-identical to ``distill_be`` started from ones under the same seed.
    """
    student = build_be(spec, rng_stream(cfg.optim.seed, "init"),
                       rank_init="ones", members=len(teachers))
    _one_to_one_loop(teachers, student, train, cfg, cfg.rank_decay, step_hook)
    return average_rank_one(student), student
