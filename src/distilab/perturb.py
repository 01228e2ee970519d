"""Input-space perturbation strategies for ensemble distillation.

All directional kinds are normalized per sample to an exact step length
gamma (rows with a vanishing gradient stay at zero). The pair-based kinds
draw one ordered member pair per sample, shared between the teacher and
student divergence terms, and block the gradient through the first KL
argument so that only the second distribution steers the input gradient.

An ensemble is anything with ``len()`` and ``[m]`` returning one-member nets:
a list of teachers or a factored student.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .metrics import member_probs, pairwise_divergence_values, softmax_np
from .nets import MLP

DEGENERATE_NORM = 1e-12
KINDS = ("none", "gaussian", "ods", "conf_ods", "tdiv", "tdiv_sdiv")


@dataclass
class Perturbation:
    epsilon: np.ndarray          # (B, D) additive input offsets
    kind: str
    gamma: float
    members: np.ndarray | None = None   # per-sample teacher index (ods kinds)
    pairs: np.ndarray | None = None     # per-sample ordered (i, j) draws

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x + self.epsilon


def default_gamma(x: np.ndarray, scale: float = 0.15) -> float:
    """Step budget scale * sqrt(D) * mean per-dimension std of the data.

    Keeps a constant per-dimension budget on standardized inputs; 0.15 is
    large enough that perturbed points probe the off-manifold shell where
    ensemble members actually disagree.
    """
    return float(scale * np.sqrt(x.shape[1]) * x.std(axis=0).mean())


def _normalize_rows(grad: np.ndarray, gamma: float) -> np.ndarray:
    norms = np.linalg.norm(grad, axis=1, keepdims=True)
    out = np.zeros_like(grad)
    ok = norms[:, 0] >= DEGENERATE_NORM
    out[ok] = gamma * grad[ok] / norms[ok]
    return out


def draw_pairs(rng: np.random.Generator, members: int, n: int) -> np.ndarray:
    """n ordered (i, j) pairs with i != j, uniform over the off-diagonal."""
    if members < 2:
        raise ValueError("pair sampling needs at least two members")
    i = rng.integers(0, members, size=n)
    # shift by 1..M-1 so j is uniform over the remaining indices
    j = (i + rng.integers(1, members, size=n)) % members
    return np.stack([i, j], axis=1)


def gaussian_perturb(x: np.ndarray, gamma: float,
                     rng: np.random.Generator) -> Perturbation:
    """Isotropic noise x + gamma * z with z ~ N(0, I); not normalized."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    eps = gamma * rng.standard_normal(x.shape)
    return Perturbation(eps, "gaussian", gamma)


def _ods_gradients(teachers: Sequence[MLP], x: np.ndarray, tau: float,
                   guidance: np.ndarray, members: np.ndarray) -> np.ndarray:
    """d/dx of w^T p_teacher(x; tau), rows grouped by the selected teacher."""
    grads = np.zeros_like(x)
    for m in np.unique(members):
        rows = np.nonzero(members == m)[0]
        xt = Tensor(x[rows], requires_grad=True)
        probs = ad.softmax_temp(teachers[int(m)].forward(xt), tau)
        objective = ad.sum(ad.mul(Tensor(guidance[rows]), probs))
        objective.backward()
        grads[rows] = xt.grad
    return grads


def ods_perturb(teachers: Sequence[MLP], x: np.ndarray, tau: float, gamma: float,
                rng: np.random.Generator,
                members: np.ndarray | None = None) -> Perturbation:
    """Output-diversified step: follow the gradient of a random linear
    functional of one teacher's probabilities, normalized to length gamma.

    The guidance vector is uniform on [-1, 1]^K per sample; the teacher
    index is drawn uniformly per sample when not supplied.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    k = teachers[0].spec.num_classes
    guidance = rng.uniform(-1.0, 1.0, size=(len(x), k))
    if members is None:
        members = rng.integers(0, len(teachers), size=len(x))
    grads = _ods_gradients(teachers, x, tau, guidance, members)
    return Perturbation(_normalize_rows(grads, gamma), "ods", gamma, members=members)


def conf_ods_perturb(teachers: Sequence[MLP], x: np.ndarray, tau: float, gamma: float,
                     rng: np.random.Generator,
                     members: np.ndarray | None = None) -> Perturbation:
    """ODS step with each row scaled by the selected teacher's confidence
    max_k p^(k)(x; tau)."""
    ods = ods_perturb(teachers, x, tau, gamma, rng, members)
    conf = np.zeros(len(x))
    for m in np.unique(ods.members):
        rows = np.nonzero(ods.members == m)[0]
        probs = softmax_np(teachers[int(m)].predict_logits(x[rows]), tau)
        conf[rows] = probs.max(axis=1)
    return Perturbation(ods.epsilon * conf[:, None], "conf_ods", gamma, members=ods.members)


def div_estimate(model_i: Callable[[Tensor], Tensor],
                 model_j: Callable[[Tensor], Tensor],
                 x: Tensor, tau: float = 1.0, stop_first: bool = True) -> Tensor:
    """Per-sample KL(p_i || p_j) between two logit functions.

    With stop_first (the default) the first argument is wrapped in
    stop_grad, so gradients with respect to x flow only through p_j.
    """
    log_pi = ad.log_softmax_temp(model_i(x), tau)
    log_pj = ad.log_softmax_temp(model_j(x), tau)
    pi = ad.exp(log_pi)
    if stop_first:
        pi = ad.stop_grad(pi)
        log_pi = ad.stop_grad(log_pi)
    return ad.sum(ad.mul(pi, ad.sub(log_pi, log_pj)), axis=-1)


def _masked_pair_gap(teachers, student, x: Tensor, pairs: np.ndarray,
                     tau: float, stop_first: bool) -> Tensor:
    """sum_b [KL_T(i_b, j_b) - KL_S(i_b, j_b)] with the pair draw shared
    between the teacher and student terms of each sample."""
    total: Tensor | None = None
    for i, j in sorted({(int(a), int(b)) for a, b in pairs}):
        mask = Tensor(((pairs[:, 0] == i) & (pairs[:, 1] == j)).astype(np.float64))
        gap = div_estimate(teachers[i].forward, teachers[j].forward, x, tau,
                           stop_first=stop_first)
        if student is not None:
            gap = ad.sub(gap, div_estimate(student[i].forward, student[j].forward, x, tau,
                                           stop_first=stop_first))
        masked = ad.sum(ad.mul(mask, gap))
        total = masked if total is None else ad.add(total, masked)
    assert total is not None
    return total


def tdiv_perturb(teachers: Sequence[MLP], x: np.ndarray, tau: float, gamma: float,
                 rng: np.random.Generator, pairs: np.ndarray | None = None,
                 stop_first: bool = False) -> Perturbation:
    """Step along the gradient of the stochastic teacher diversity alone.

    The default differentiates the pair KL through both members, which makes
    the step a genuine first-order ascent direction of the divergence value;
    stop_first=True reproduces the gradient-blocked variant instead.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if len(teachers) < 2:
        raise ValueError("teacher diversity needs at least two teachers")
    if pairs is None:
        pairs = draw_pairs(rng, len(teachers), len(x))
    xt = Tensor(x, requires_grad=True)
    _masked_pair_gap(teachers, None, xt, pairs, tau, stop_first).backward()
    return Perturbation(_normalize_rows(xt.grad, gamma), "tdiv", gamma, pairs=pairs)


def tdiv_sdiv_perturb(teachers: Sequence[MLP], student: MLP, x: np.ndarray,
                      tau: float, gamma: float, rng: np.random.Generator,
                      pairs: np.ndarray | None = None,
                      stop_first: bool = False) -> Perturbation:
    """Step along the gradient of (teacher diversity - student diversity).

    One ordered pair is drawn per sample and reused for both ensembles, so
    the step seeks points where the teachers disagree but the corresponding
    student members still agree. The default differentiates each pair KL
    through both of its members (a true first-order ascent direction of the
    diversity gap); stop_first=True blocks the first argument instead.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if len(teachers) < 2 or len(student) < 2:
        raise ValueError("diversity gap needs at least two members on both sides")
    if len(teachers) != len(student):
        raise ValueError("teacher count and student member count must match")
    if pairs is None:
        pairs = draw_pairs(rng, len(teachers), len(x))
    xt = Tensor(x, requires_grad=True)
    _masked_pair_gap(teachers, student, xt, pairs, tau, stop_first).backward()
    return Perturbation(_normalize_rows(xt.grad, gamma), "tdiv_sdiv", gamma, pairs=pairs)


def pair_gap_values(teachers: Sequence[MLP], student: MLP | None, x: np.ndarray,
                    pairs: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Values (no gradients) of the per-sample stochastic diversity gap."""
    rows = np.arange(len(x))

    def pair_kl(ensemble) -> np.ndarray:
        logs = np.log(member_probs(ensemble, x, tau))
        log_i, log_j = logs[pairs[:, 0], rows], logs[pairs[:, 1], rows]
        return np.einsum("bk,bk->b", np.exp(log_i), log_i - log_j)

    out = pair_kl(teachers)
    return out if student is None else out - pair_kl(student)


def diversity_shift_values(teachers, students, x: np.ndarray,
                           eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample change of the full pairwise diversity under x -> x + eps."""
    x_new = x + eps
    d_t = (pairwise_divergence_values(member_probs(teachers, x_new))
           - pairwise_divergence_values(member_probs(teachers, x)))
    d_s = (pairwise_divergence_values(member_probs(students, x_new))
           - pairwise_divergence_values(member_probs(students, x)))
    return d_t, d_s


def diversity_shift(teachers, students, x: np.ndarray,
                    eps: np.ndarray) -> tuple[float, float]:
    """Mean teacher and student diversity change caused by a perturbation.

    Uses the full pairwise diversity, not the stochastic pair estimate;
    intended for diagnostics and plots.
    """
    d_t, d_s = diversity_shift_values(teachers, students, x, eps)
    return float(d_t.mean()), float(d_s.mean())


def build_perturbation(kind: str, teachers: Sequence[MLP], student: MLP | None,
                       x: np.ndarray, gamma: float, tau: float,
                       noise_rng: np.random.Generator,
                       index_rng: np.random.Generator) -> Perturbation:
    """Dispatch used by the training loops.

    ODS variants see the distillation temperature; the diversity-gap kinds
    measure divergences between untempered output distributions. Guidance
    vectors and Gaussian noise come from noise_rng, index and pair draws
    from index_rng, so switching kinds never perturbs unrelated streams.
    """
    if kind == "none":
        return Perturbation(np.zeros_like(x), "none", 0.0)
    if kind == "gaussian":
        return gaussian_perturb(x, gamma, noise_rng)
    if kind == "ods":
        members = index_rng.integers(0, len(teachers), size=len(x))
        return ods_perturb(teachers, x, tau, gamma, noise_rng, members=members)
    if kind == "conf_ods":
        members = index_rng.integers(0, len(teachers), size=len(x))
        return conf_ods_perturb(teachers, x, tau, gamma, noise_rng, members=members)
    if kind == "tdiv":
        pairs = draw_pairs(index_rng, len(teachers), len(x))
        return tdiv_perturb(teachers, x, 1.0, gamma, index_rng, pairs=pairs)
    if kind == "tdiv_sdiv":
        if student is None:
            raise ValueError("tdiv_sdiv requires a factored student")
        pairs = draw_pairs(index_rng, len(teachers), len(x))
        return tdiv_sdiv_perturb(teachers, student, x, 1.0, gamma, index_rng,
                                 pairs=pairs)
    raise ValueError(f"unknown perturbation kind '{kind}'")
