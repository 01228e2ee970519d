"""Distillation objectives and ``train_student``, the one distiller.

``train_student`` compresses an ensemble of teachers into a student trained
with ``optim.fit``; ``DistillConfig.method`` names one of five ways:

* ``kd``          -- match the mean teacher distribution (plus an optional
                     label cross-entropy term),
* ``aekd``        -- per-sample teacher weights from a small box-constrained
                     quadratic program, solved exactly for the whole batch at
                     any number of teachers: each candidate split into free,
                     zero and capped weights becomes least squares once the
                     simplex constraint eliminates a free weight, solved by
                     Gram-Schmidt and back-substitution elementwise over the
                     batch (an affinely dependent free teacher gets weight
                     0); the candidates, and so the work, grow as 3^M,
* ``proxy_end2``  -- reverse KL between Dirichlet distributions whose
                     concentrations come from teacher disagreement,
* ``be``          -- one-to-one distillation into a factored student: member
                     m mimics teacher m, rank-one factors learn from their
                     own loss, the shared weight from the member mean,
* ``latentbe``    -- ``be`` from all-ones factors with a decay pulling the
                     factors back toward ones; ``nets.average_rank_one`` then
                     collapses the student to single-network inference cost.

Any method may perturb each batch's inputs first (``DistillConfig.perturbation``);
``tdiv_sdiv`` needs a factored student. Unperturbed, a plain student's
teachers run once over the training split; else with the student as one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .metrics import PROB_FLOOR, batched_logits, pairwise_divergence_values, softmax_np
from .nets import (RANK_INITS, MLP, ModelSpec, build_be, build_plain, is_int, is_real, restack,
                   stack)
from .optim import OptimConfig, fit, one_hot
from .perturb import KINDS, build_perturbation, default_gamma
from .seeding import rng_stream

METHODS = ("kd", "aekd", "proxy_end2", "be", "latentbe")
FACTORED = ("be", "latentbe")


class DegenerateEnsembleError(ValueError):
    """Teacher outputs are numerically identical where disagreement is required."""


@dataclass(frozen=True)
class DistillConfig:
    tau: float = 4.0
    alpha: float = 1.0
    rank_decay: float = 1e-3        # latentbe's pull of rank-one factors toward ones
    gamma: float | None = None      # perturbation step; None = 0.15 sqrt(D) std
    perturbation: str = "none"
    num_teachers: int = 2
    method: str = "kd"
    student_init: str = "random_sign" # rank factors of a be student
    aekd_c: float = 0.6             # AE-KD's weight cap, in [1/M, 1]
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        for name in ("tau", "alpha", "rank_decay", "gamma", "aekd_c"):
            value = getattr(self, name)
            if not (is_real(value) or (name == "gamma" and value is None)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        # each range check is written so that NaN fails it too
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.rank_decay < math.inf:
            raise ValueError("rank_decay must be non-negative and finite")
        if self.gamma is not None and not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")
        if self.perturbation not in KINDS:
            raise ValueError(f"unknown perturbation kind '{self.perturbation}'")
        if not is_int(self.num_teachers):
            raise ValueError(f"num_teachers must be an integer, got {self.num_teachers!r}")
        if self.num_teachers < 1:
            raise ValueError("num_teachers must be >= 1")
        if (self.method == "aekd"
                and not 1.0 / self.num_teachers - 1e-9 <= self.aekd_c <= 1.0 + 1e-9):
            raise ValueError(f"aekd_c must lie in [1/M, 1] for M={self.num_teachers} "
                             f"teachers, got {self.aekd_c}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        if self.student_init not in RANK_INITS:
            raise ValueError(f"unknown student_init '{self.student_init}'")
        if self.method in FACTORED and self.num_teachers < 2:
            raise ValueError("factored students need num_teachers >= 2")
        if self.perturbation == "tdiv_sdiv" and self.method not in FACTORED:
            raise ValueError("tdiv_sdiv perturbation requires a factored student")


@dataclass
class ProxyDirichlet:
    """Concentration targets, already shifted by +1 (so strictly above 1).

    ``defined`` marks the samples whose target exists; the others carry a
    placeholder and get no weight in ``proxy_end2_loss``.
    """

    beta: np.ndarray
    defined: np.ndarray | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if np.any(self.beta <= 1.0):
            raise ValueError("shifted concentrations must all exceed 1")
        if self.defined is None:
            self.defined = np.ones(self.beta.shape[:-1], dtype=bool)


# -- losses -------------------------------------------------------------------

def kd_loss(teacher_logits: np.ndarray, student_logits: np.ndarray,
            y_onehot: np.ndarray, cfg: DistillConfig,
            weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(1 - alpha) H[y, p_S] + alpha tau^2 sum_m w_m H[p_Tm, p_S], batch-averaged,
    and its gradient with respect to student_logits.

    teacher_logits is (M, N, K) and student_logits holds the N rows of a
    plain student, (1, N, K) or (N, K). Without weights every teacher counts
    1/M (KD); (N, M) per-sample weights give AE-KD. Teacher probabilities
    are constants; both cross-entropies use the temperature-softened
    student distribution. The gradient of log p_S sums the label term's
    -(1 - alpha) y / N first, then each teacher's -alpha tau^2 w_m p_Tm / N in
    order 0..M-1; the log-softmax takes it to the logits. The
    log-probabilities and the value are checked finite as 'kd_loss'.
    """
    log_p, p = ad.log_softmax_values(student_logits, cfg.tau)
    ad.ensure_finite(log_p, "kd_loss")
    n = log_p.size // log_p.shape[-1]
    value = grad = None
    if cfg.alpha < 1.0:
        c = -(1.0 - cfg.alpha) / n
        y = y_onehot.reshape(log_p.shape)
        value = np.array((y * log_p).sum()) * c
        grad = ad.first_arrival(c * y)
    if cfg.alpha > 0.0:
        scale = cfg.alpha * cfg.tau ** 2
        if weights is None:
            scale /= len(teacher_logits)
        terms = None
        for m, logits in enumerate(teacher_logits):
            probs = softmax_np(logits, cfg.tau)
            if weights is not None:
                probs = probs * weights[:, m][:, None]
            probs = probs.reshape(log_p.shape)
            h = np.array((probs * log_p).sum()) * (-1.0 / n)
            terms = h if terms is None else terms + h
            g = (scale * (-1.0 / n)) * probs
            grad = ad.first_arrival(g) if grad is None else np.add(grad, g, out=grad)
        value = terms * scale if value is None else value + terms * scale
    ad.ensure_finite(value, "kd_loss")
    return float(value), ad.first_arrival(ad.log_softmax_grad(grad, p, cfg.tau))


def aekd_weights(teacher_probs: np.ndarray, student_probs: np.ndarray,
                 tau: float, c: float) -> np.ndarray:
    """Teacher weights minimizing ||p_S - sum_m w_m p_Tm||^2 / (2 tau^2)
    over the simplex intersected with the box [0, c], for one sample:
    ``_aekd_weights_batch`` on a single row. teacher_probs is (M, K) and
    student_probs (K,).
    """
    P = np.asarray(teacher_probs, dtype=np.float64)
    s = np.asarray(student_probs, dtype=np.float64)
    return _aekd_weights_batch(P[:, None, :], s[None, :], tau, c)[0]


@lru_cache(maxsize=None)
def _aekd_candidates(m: int, c: float) -> tuple:
    """AE-KD's candidates at M=m weights and cap c: one (free, rest, caps,
    budget) table per free-set size f, and the candidates' tie-break order.

    free (F, f) lists the free sets and rest (F, M - f) the other weights;
    caps (S, M - f) holds their zero/cap splits that fit the budget (all of
    it when none is free) and budget (S,) what each leaves to the free ones.
    order reads each candidate's statuses (0 free, 1 zero, 2 capped) as
    base-3 digits, weight 0 first, in the nesting size, free set, split.
    """
    tables, order = [], []
    for size in range(m + 1):
        splits = list(product((0.0, c), repeat=m - size))
        caps = np.array(splits).reshape(len(splits), m - size)
        budget = 1.0 - caps.sum(axis=1)
        fits = budget >= -1e-12 if size else np.abs(budget) <= 1e-12
        caps, budget = caps[fits], budget[fits]
        if not len(caps):
            continue
        subsets = list(combinations(range(m), size))
        free = np.array(subsets, dtype=np.intp).reshape(len(subsets), size)
        rest = np.array([[i for i in range(m) if i not in f] for f in subsets],
                        dtype=np.intp).reshape(len(subsets), m - size)
        status = np.zeros((len(subsets), len(caps), m))
        np.put_along_axis(status, rest[:, None], 1.0 + (caps > 0.0), axis=-1)
        order.append(status.reshape(-1, m) @ 3.0 ** np.arange(m - 1, -1, -1))
        tables.append((free, rest, caps, budget))
    order = np.concatenate(order)
    for a in (order, *(a for t in tables for a in t)):
        a.flags.writeable = False
    return tuple(tables), order


def _aekd_weights_batch(teacher_probs: np.ndarray, student_probs: np.ndarray,
                        tau: float, c: float) -> np.ndarray:
    """Exact per-sample AE-KD weights, (N, M), from (M, N, K) teacher and
    (N, K) student probabilities, at any M.

    At the optimum each weight is free, at 0 or at c. Every such candidate
    is solved on all rows at once, one free-set size at a time, from tables
    built once per (M, c). The capped weights leave a budget b to the free
    ones; substituting w_0 = b - sum_{k>0} w_k for the first of them turns
    the rest into least squares on the differences p_k - p_0, which
    ``_aekd_free_weights`` solves by Gram-Schmidt (one free weight is b).
    Where the free teachers are affinely dependent the optimum is not
    unique: the dependent teacher gets weight 0, one of the optimal
    weightings. Of its feasible candidates (within 1e-10 of the box, then
    clipped) within 1e-15 of the lowest objective, each row keeps the first
    in the order free < zero < capped, weight by weight. Time and memory
    grow as 3^M. c = 1/M forces the uniform weighting (the feasible set is
    a single point).
    """
    P = np.asarray(teacher_probs, dtype=np.float64)
    s = np.asarray(student_probs, dtype=np.float64)
    m, n = P.shape[:2]
    if c < 1.0 / m - 1e-9 or c > 1.0 + 1e-9:
        raise ValueError(f"tolerance c={c} infeasible for M={m}")
    if c <= 1.0 / m + 1e-12:
        return np.full((n, m), 1.0 / m)
    tables, order = _aekd_candidates(m, float(c))
    weights, objective = [], []
    for free, rest, caps, budget in tables:
        # the student's residual after the capped weights, (F, N, S, K)
        resid = s[None, :, None, :]
        for j in range(rest.shape[1]):
            resid = resid - caps[:, j, None] * P[rest[:, j]][:, :, None, :]
        pf = P[free.T]  # (f, F, N, K)
        sol = _aekd_free_weights(pf, resid, budget) if len(pf) else []
        feasible = np.ones(resid.shape[:3], dtype=bool)
        for k, w in enumerate(sol):
            feasible &= (w >= -1e-10) & (w <= c + 1e-10)
            sol[k] = np.clip(w, 0.0, c)
            resid = resid - sol[k][..., None] * pf[k][:, :, None, :]
        f = np.where(feasible, (resid * resid).sum(axis=-1) / (2.0 * tau * tau), np.inf)
        w = np.empty(resid.shape[:3] + (m,))
        for col, value in zip((*free.T, *rest.T), (*sol, *caps.T)):
            w[np.arange(len(free)), :, :, col] = value
        weights.append(w.transpose(0, 2, 1, 3).reshape(-1, n, m))
        objective.append(f.transpose(0, 2, 1).reshape(-1, n))
    weights, objective = np.concatenate(weights), np.concatenate(objective)
    near_best = objective <= objective.min(axis=0) + 1e-15
    pick = np.where(near_best, order[:, None], np.inf).argmin(axis=0)
    return weights[pick, np.arange(n)]


def _aekd_free_weights(pf: np.ndarray, resid: np.ndarray,
                       budget: np.ndarray) -> list[np.ndarray]:
    """The free weights w_k, each (F, N, S), minimizing
    ||resid - sum_k w_k p_k|| subject to sum_k w_k = budget, for (f, F, N, K)
    free teacher probabilities pf, (F, N, S, K) residuals and (S,) budgets.

    Substituting w_0 = budget - sum_{k>0} w_k leaves least squares on the
    differences d_k = p_k - p_0 (a single free weight is the budget). Modified
    Gram-Schmidt runs twice over the d_k, elementwise over free sets, rows
    and classes, then back-substitution gives the w_k. A d_k that keeps
    under 1e-10 of its norm after its projection on the earlier ones is
    affinely dependent on them, and its teacher gets weight 0.
    """
    q, r, kept = [], {}, []
    for j, d in enumerate(pf[1:] - pf[0]):
        v = d
        for again in (False, True):
            for i in range(j):
                h = (q[i] * v).sum(axis=-1)
                v = v - h[..., None] * q[i]
                r[i, j] = r[i, j] + h if again else h
        norm = np.sqrt((v * v).sum(axis=-1))
        keep = norm > 1e-10 * np.sqrt((d * d).sum(axis=-1))
        r[j, j] = np.where(keep, norm, 1.0)
        q.append(np.where(keep[..., None], v / r[j, j][..., None], 0.0))
        kept.append(keep)
    y = resid - budget[:, None] * pf[0][:, :, None, :]
    x = [None] * len(q)
    for j in reversed(range(len(q))):
        acc = (y * q[j][:, :, None, :]).sum(axis=-1)
        for i in range(j + 1, len(q)):
            acc = acc - r[j, i][..., None] * x[i]
        x[j] = np.where(kept[j][..., None], acc / r[j, j][..., None], 0.0)
    w0 = np.broadcast_to(budget, resid.shape[:3])
    for w in x:
        w0 = w0 - w
    return [w0, *x]


def proxy_dirichlet_target(teacher_probs: np.ndarray) -> ProxyDirichlet:
    """Concentration parameters from teacher probabilities, +1 shifted.

    beta_k is the mean teacher probability scaled by (K-1)/2 over the mean
    pointwise disagreement sum_j pbar_j (log pbar_j - mean_m log p_mj).
    Numerically identical teachers make that denominator vanish; such
    samples are marked undefined and get the placeholder beta = 2. Raises
    DegenerateEnsembleError when no sample is defined.
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
    defined = denom > 1e-12
    if not defined.any():
        raise DegenerateEnsembleError(
            "teachers numerically identical; concentration estimate undefined")
    beta = pbar * ((k - 1) / 2.0) / np.where(defined, denom, 1.0)[:, None] + 1.0
    beta[~defined] = 2.0
    return ProxyDirichlet(beta[0], defined[0]) if squeeze else ProxyDirichlet(beta, defined)


def dirichlet_kl_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KL(Dir(a) || Dir(b)) along the last axis, closed form."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a0, b0 = a.sum(axis=-1), b.sum(axis=-1)
    return (ad.lgamma(a0) - np.asarray(ad.lgamma(a)).sum(axis=-1)
            - ad.lgamma(b0) + np.asarray(ad.lgamma(b)).sum(axis=-1)
            + ((a - b) * ad.digamma(a)).sum(axis=-1)
            - ad.digamma(a0) * (a0 - b0))


def proxy_end2_loss(student_logits: np.ndarray,
                    target: ProxyDirichlet) -> tuple[float, np.ndarray]:
    """Reverse Dirichlet KL with student concentrations exp(logits) + 1,
    divided per sample by the target concentration total, batch-averaged,
    and its gradient with respect to student_logits. Samples without a
    defined target count as zero. student_logits holds the rows of a plain
    student, (1, N, K) or (N, K).

    The value is ``dirichlet_kl_np``'s. The gradient is in closed form, in
    the order of a reverse sweep over the KL's terms: each concentration a
    collects -digamma(a) from -lgamma(a), digamma(a) and (a - beta)
    trigamma(a) from (a - beta) digamma(a), then the gradient of the total
    a0, which collects digamma(a0) from lgamma(a0), then -(a0 - beta0)
    trigamma(a0) and -digamma(a0) from -digamma(a0) (a0 - beta0). Each term
    is a first arrival. The exponentiated logits and the value are checked
    finite as 'proxy_end2_loss'.
    """
    with np.errstate(over="ignore"):
        e = np.exp(student_logits)
    ad.ensure_finite(e, "proxy_end2_loss")
    conc = e + 1.0
    beta = target.beta.reshape(conc.shape)
    kl = dirichlet_kl_np(conc, beta)
    w = np.where(target.defined, 1.0 / target.beta.sum(axis=-1), 0.0).reshape(kl.shape)
    c = 1.0 / kl.size
    value = np.array((kl * w).sum()) * c
    ad.ensure_finite(value, "proxy_end2_loss")
    a0 = np.array(conc.sum(axis=-1))
    dig, dig0 = ad._digamma_arr(conc), ad._digamma_arr(a0)
    g_kl = ad.first_arrival(c * w)
    g_neg = ad.first_arrival(-g_kl)
    g_a0 = ad.first_arrival(g_kl * dig0)
    g = ad.first_arrival(g_neg[..., None] * dig)
    g += ad.first_arrival(g_kl[..., None] * dig)
    g += ad.first_arrival(g_kl[..., None] * (conc - beta)) * ad._trigamma_arr(conc)
    g_a0 += ad.first_arrival(g_neg * (a0 - beta.sum(axis=-1))) * ad._trigamma_arr(a0)
    g_a0 += ad.first_arrival(g_neg * dig0)
    g += g_a0[..., None]
    # through conc = exp(logits) + 1
    return float(value), ad.first_arrival(ad.first_arrival(g) * e)


# -- training -----------------------------------------------------------------

def one_to_one_loss(teacher_logits: np.ndarray, student_logits: np.ndarray,
                    tau: float) -> tuple[float, np.ndarray]:
    """-tau^2 sum_m mean_b sum_k p_Tm log p_Sm of (M, B, K) teacher and
    student logits at temperature tau, member m mimicking teacher m, and its
    gradient with respect to student_logits: -tau^2 / B times the teacher
    probabilities, as the gradient of log p_S, through the log-softmax. The
    sum over all members rounds unlike a member-by-member sum, but its
    gradients are the same bits. The log-probabilities and the value are
    checked finite as 'one_to_one'.
    """
    log_p, p = ad.log_softmax_values(student_logits, tau)
    ad.ensure_finite(log_p, "one_to_one")
    targets = softmax_np(teacher_logits, tau)
    c = -tau ** 2 / student_logits.shape[1]
    value = np.array((targets * log_p).sum()) * c
    ad.ensure_finite(value, "one_to_one")
    grad = ad.log_softmax_grad(ad.first_arrival(c * targets), p, tau)
    return float(value), ad.first_arrival(grad)


def _student_loss(cfg: DistillConfig, logits: np.ndarray, yb: np.ndarray,
                  t_logits: np.ndarray) -> tuple[float, np.ndarray]:
    """cfg.method's loss of the student logits against the (M, B, K) teacher
    logits, and its logits gradient. AE-KD's per-sample teacher weights
    solve the box-constrained matching problem on untempered probabilities
    and are constants in ``kd_loss``; proxy_end2's target, checked for
    degenerate teachers, is formed batch by batch."""
    if cfg.method in FACTORED:
        return one_to_one_loss(t_logits, logits, cfg.tau)
    if cfg.method == "proxy_end2":
        return proxy_end2_loss(logits, proxy_dirichlet_target(softmax_np(t_logits, 1.0)))
    weights = None
    if cfg.method == "aekd":
        weights = _aekd_weights_batch(softmax_np(t_logits, 1.0),
                                      softmax_np(logits[0], 1.0), cfg.tau, cfg.aekd_c)
    return kd_loss(t_logits, logits, one_hot(yb, logits.shape[-1]), cfg, weights)


# Steps whose logits wait for one pass that forms their trace rows. A row
# formed in its own step cost about twice as much, mostly numpy's per-call
# work on a few hundred rows; at 64 steps the pass raised the process's
# peak memory.
_TRACE_BLOCK = 16


def _add_trace_rows(trace: list, held: list) -> None:
    """Append to trace one (step, loss, div_teachers, div_student) row per
    held (loss, teacher logits, student logits) step of ``train_student``,
    and empty held. One pass over every held step's logits forms all their
    rows; each row's divergence, and so the mean over one step's rows, has
    the bits of ``metrics.diversity`` on that step's logits alone."""
    div = pairwise_divergence_values(softmax_np(
        np.concatenate([a for _, t, s in held for a in (t, s)], axis=1), 1.0))
    start = 0
    for loss, t_logits, _ in held:
        n = t_logits.shape[1]
        trace.append((len(trace) + 1, loss, float(div[start:start + n].mean()),
                      float(div[start + n:start + 2 * n].mean())))
        start += 2 * n
    held.clear()


def train_student(teachers: MLP, spec: ModelSpec, train: Dataset,
                  cfg: DistillConfig, step_hook=None, trace: list | None = None) -> MLP:
    """Distill the teachers into a new student by cfg.method; returns it.

    The student is built from the seed's "init" stream: a factored net of
    one member per teacher (all-ones factors for latentbe, cfg.student_init
    for be) or a plain net (with the Dirichlet head for proxy_end2). Each
    batch is first perturbed by cfg.perturbation, with guidance/noise and
    index/pair draws from their own streams; only latentbe pulls the factors
    toward ones, by cfg.rank_decay, so with perturbation "none" and
    rank_decay 0 it trains bit-identically to be from student_init "ones".
    A plain student (kd, aekd, proxy_end2) with perturbation "none" sees the
    teachers' own inputs at every epoch, so the teachers run once, in one
    ``batched_logits`` call over train.x, and each step reads its rows of
    that (M, N, K) table. Every other run (a factored student even
    unperturbed) runs them with the student as one ``nets.stack`` pass at
    x + eps, forms the student's weights once per step, also for tdiv_sdiv,
    and makes one ``_student_loss`` call for the value and logits gradient.
    step_hook(step, student) runs after each update. A trace list, which
    needs a factored student, gets one (step, loss, div_teachers,
    div_student) row per step: the step's batch loss and the member
    diversities of the teacher and student logits that loss read at the
    step's inputs x + eps, before its update. Collapse a latentbe student
    with ``nets.average_rank_one``.
    """
    if trace is not None and cfg.method not in FACTORED:
        raise ValueError(f"only a factored student is traced, not {cfg.method}")
    if len(teachers) != cfg.num_teachers:
        raise ValueError(f"config expects {cfg.num_teachers} teachers, "
                         f"got {len(teachers)}")
    rng = rng_stream(cfg.optim.seed, "init")
    if cfg.method in FACTORED:
        init = "ones" if cfg.method == "latentbe" else cfg.student_init
        student = build_be(spec, rng, init, members=len(teachers))
    elif cfg.method == "proxy_end2":
        if len(teachers) < 2:
            raise ValueError("proxy distillation needs at least two teachers")
        student = build_plain(spec, rng, head="dirichlet")
    else:
        student = build_plain(spec, rng)
    held = None if trace is None else []
    table = (batched_logits(teachers, train.x)
             if cfg.perturbation == "none" and cfg.method not in FACTORED else None)
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(train.x)
    noise_rng = rng_stream(cfg.optim.seed, "guidance-vectors")
    index_rng = rng_stream(cfg.optim.seed, "pair-sampling")

    frozen = stack([teachers])
    nets = stack([student] if table is not None else [*frozen, student])

    def batch_loss(rows):
        xb = train.x[rows]
        restack(nets, student)
        if cfg.perturbation != "none":
            pair = nets if cfg.perturbation == "tdiv_sdiv" else frozen
            xb = xb + build_perturbation(cfg.perturbation, teachers, student, xb, gamma,
                                         cfg.tau, noise_rng, index_rng, pair).epsilon
        passes = [net.forward_kept(xb) for net in nets]
        kept = [(x if x.ndim == 2 else x[-len(student):], w[-len(student):],
                 out[-len(student):]) for x, w, out in passes[-1]]
        logits = kept[-1][2]
        t_logits = passes[0][-1][2][:len(teachers)] if table is None else table[:, rows]
        value, grad = _student_loss(cfg, logits, train.y[rows], t_logits)
        if held is not None:
            held.append((value, t_logits, logits))
            if len(held) == _TRACE_BLOCK:
                _add_trace_rows(trace, held)
        return kept, grad

    rank_decay = cfg.rank_decay if cfg.method == "latentbe" else 0.0
    fit(student, train, cfg.optim, batch_loss, rank_decay, step_hook)
    if held:
        _add_trace_rows(trace, held)
    return student
