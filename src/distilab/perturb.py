"""Input-space perturbations for ensemble distillation.

``build_perturbation`` is the one way to build a step: training, the
``perturb-diag`` command and the tests all call it. It takes two generators
and keeps them apart, so switching kinds never moves an unrelated stream:
the teacher index of each row (ODS kinds) and each row's ordered member
pair (pair kinds) come from ``index_rng``; the ODS guidance vectors and the
Gaussian noise come from ``noise_rng``. ``none`` draws from neither,
``gaussian`` only from ``noise_rng``, the ODS kinds from both, and the pair
kinds only from ``index_rng``.

All directional kinds are normalized per sample to an exact step length
gamma (rows with a vanishing gradient stay at zero). The pair kinds draw one
ordered member pair per sample, shared between the teacher and student
divergence terms, and differentiate each pair KL through both of its
members, so the step is a first-order ascent direction of the diversity gap.
The teachers' and the student's members run as one member-stacked pass
(``nets.stack``): the pair-KL gradient of their stacked logits has a closed
form, and the pass's input-only backward takes it to the input, so no
parameter gradient is formed. Each row's gradient is summed in
the order teacher i, teacher j, student i, student j of its pair: that order
is kept on purpose, because it makes the step bit-equal to building the gap
one pair at a time.

An ensemble is one net with a member axis (``nets.join`` makes one of a list
of nets); ``build_perturbation`` alone still joins a list of teachers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .metrics import member_probs, pairwise_divergence_values, softmax_np
from .nets import MLP, join, stack

DEGENERATE_NORM = 1e-12
KINDS = ("none", "gaussian", "ods", "conf_ods", "tdiv", "tdiv_sdiv")


@dataclass
class Perturbation:
    epsilon: np.ndarray                 # (B, D) additive input offsets
    pairs: np.ndarray | None = None     # per-sample ordered (i, j) draws (pair kinds)


def default_gamma(x: np.ndarray) -> float:
    """Step budget 0.15 * sqrt(D) * mean per-dimension std of the data.

    Keeps a constant per-dimension budget on standardized inputs; 0.15 is
    large enough that perturbed points probe the off-manifold shell where
    ensemble members actually disagree.
    """
    return float(0.15 * np.sqrt(x.shape[1]) * x.std(axis=0).mean())


def _normalize_rows(grad: np.ndarray, gamma: float) -> np.ndarray:
    norms = np.sqrt(ad.row_sum(grad * grad))      # np.linalg.norm(grad, axis=1), bit for bit
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


def _ods_gradients(teachers: MLP, x: np.ndarray, tau: float,
                   guidance: np.ndarray, members: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """d/dx of w^T p_teacher(x; tau), and the confidence max_k p_teacher(x; tau),
    with the rows grouped by the selected teacher.

    The gradient of the probabilities is the guidance w itself; the softmax
    takes it to the logits in closed form, p (w - w^T p) / tau, and the
    teacher's backward to its input. The probabilities are checked finite
    as 'ods'.
    """
    grads = np.zeros_like(x)
    conf = np.zeros(len(x))
    for m in np.unique(members):
        rows = np.nonzero(members == m)[0]
        teacher = teachers[int(m)]
        kept = teacher.forward_kept(x[rows])
        probs = softmax_np(kept[-1][2], tau)
        ad.ensure_finite(probs, "ods")
        g = guidance[rows][None] + 0.0
        g = ad.first_arrival(probs * (g - ad.row_sum(g * probs)) / tau)
        grads[rows] = teacher.backward(kept, g, False)[0]
        conf[rows] = probs[0].max(axis=1)
    return grads, conf


def _pair_logits_grad(logits: np.ndarray, pairs: np.ndarray, members: int) -> np.ndarray:
    """d/d(logits) of sum_b [KL_T(i_b, j_b) - KL_S(i_b, j_b)] between the
    untempered distributions of (n M, B, K) stacked logits: the M teacher
    members, then for n = 2 the M student members (n = 1 drops KL_S).

    The closed form keeps the float operations of differentiating the pair
    KL sum_k e (log p_i - log p_j), e = p_i, on the tape: log p_i collects
    e + d e and log p_j collects -e, with d = log p_i - log p_j, signs flipped
    for the student; then the log-softmax backward, and the + 0.0 of a
    gradient's first arrival. Its rows are bit-equal to the tape's. The
    log-probabilities and the gradient are checked finite as op 'pair_gap'.
    """
    log_p, p = ad.log_softmax_values(logits, 1.0)
    ad.ensure_finite(log_p, "pair_gap")
    offsets = np.arange(0, len(logits), members)[:, None]
    i, j = offsets + pairs[:, 0], offsets + pairs[:, 1]          # (n, B)
    rows = np.arange(logits.shape[1])
    sign = np.array([1.0, -1.0])[:len(offsets), None, None]
    e = p[i, rows]
    d = log_p[i, rows] - log_p[j, rows]
    g = np.zeros_like(log_p)
    g[i, rows] = sign * (e + d * e)
    g[j, rows] = -sign * e
    grad = ad.log_softmax_grad(g, p, 1.0)
    ad.ensure_finite(grad, "pair_gap")
    return ad.first_arrival(grad)


def _pair_gap_grad(teachers: MLP, student: MLP | None, x: np.ndarray, pairs: np.ndarray,
                   nets: list[MLP] | None = None) -> np.ndarray:
    """d/dx of sum_b [KL_T(i_b, j_b) - KL_S(i_b, j_b)] between untempered
    distributions, with the pair draw shared between the teacher and student
    terms of each sample.

    The teachers' M members, then the student's, run one pass on the shared
    input as ``nets``, by default ``nets.stack`` of the teachers and the
    student (the teachers alone without one). Their logits stack into
    (2M, B, K) (M without a student); ``_pair_logits_grad`` gives the logits
    gradient in closed form, and the input-only backward takes it to each
    member's input. Row b's gradient is then summed as teacher i, teacher j,
    student i, student j for its pair (i, j): the order in which one shared
    input leaf accumulates the per-pair formulation (four forwards per
    ordered pair), so the result is bit-equal to it.
    """
    if nets is None:
        nets = stack([teachers] + ([] if student is None else [student]))
    passes = [net.forward_kept(x) for net in nets]
    g_logits = _pair_logits_grad(np.concatenate([kept[-1][2] for kept in passes]),
                                 pairs, len(teachers))
    g = np.concatenate([net.backward(kept, g_logits[end - len(net):end], False) for net, kept, end
                        in zip(nets, passes, np.cumsum([len(net) for net in nets]))])
    members = (np.arange(0, len(g), len(teachers))[:, None, None] + pairs.T).reshape(-1, len(x))
    return sum(g[members, np.arange(len(x))], np.zeros_like(x))


def diversity_shift_values(teachers: MLP, students: MLP, x: np.ndarray,
                           eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample change of the full pairwise diversity under x -> x + eps."""
    x_new = x + eps
    d_t = (pairwise_divergence_values(member_probs(teachers, x_new))
           - pairwise_divergence_values(member_probs(teachers, x)))
    d_s = (pairwise_divergence_values(member_probs(students, x_new))
           - pairwise_divergence_values(member_probs(students, x)))
    return d_t, d_s


def build_perturbation(kind: str, teachers: MLP | Sequence[MLP], student: MLP | None,
                       x: np.ndarray, gamma: float, tau: float,
                       noise_rng: np.random.Generator,
                       index_rng: np.random.Generator,
                       nets: list[MLP] | None = None) -> Perturbation:
    """The step of one kind at inputs x (see KINDS).

    * ``none``: zeros.
    * ``gaussian``: isotropic noise gamma * z, z ~ N(0, I); not normalized.
    * ``ods``: follow the gradient of a random linear functional of one
      teacher's probabilities at temperature tau; the teacher index is
      uniform per row (index_rng), the guidance vector uniform on
      [-1, 1]^K (noise_rng).
    * ``conf_ods``: the ODS step scaled per row by the selected teacher's
      confidence max_k p^(k)(x; tau).
    * ``tdiv``: ascend the stochastic teacher diversity alone.
    * ``tdiv_sdiv``: ascend teacher minus student diversity, one ordered
      pair per row (index_rng) shared by both ensembles, so the step seeks
      points where the teachers disagree but the matching student members
      still agree. It needs a factored student with one member per teacher.

    The pair kinds measure divergences between untempered distributions and
    ignore tau; their ``pairs`` are returned with the step. Streams: ``none``
    draws from neither generator, ``gaussian`` only from noise_rng, the ODS
    kinds from both, the pair kinds only from index_rng. The pair kinds run
    nets, a caller's ``nets.stack`` of the teachers and the student, if given.
    The teachers are one net; a list of loaded teachers is joined first, the
    one place an ensemble may still be a list.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown perturbation kind '{kind}'")
    if not gamma >= 0:
        raise ValueError("gamma must be non-negative")
    if kind == "none":
        return Perturbation(np.zeros_like(x))
    if kind == "gaussian":
        return Perturbation(gamma * noise_rng.standard_normal(x.shape))
    if not isinstance(teachers, MLP):
        teachers = join(teachers)
    if kind in ("ods", "conf_ods"):
        members = index_rng.integers(0, len(teachers), size=len(x))
        guidance = noise_rng.uniform(-1.0, 1.0, size=(len(x), teachers.spec.num_classes))
        grads, conf = _ods_gradients(teachers, x, tau, guidance, members)
        eps = _normalize_rows(grads, gamma)
        return Perturbation(eps * conf[:, None] if kind == "conf_ods" else eps)
    if kind == "tdiv":
        student = None
        if len(teachers) < 2:
            raise ValueError("teacher diversity needs at least two teachers")
    elif student is None:
        raise ValueError("tdiv_sdiv requires a factored student")
    elif len(teachers) < 2 or len(student) < 2:
        raise ValueError("diversity gap needs at least two members on both sides")
    elif len(teachers) != len(student):
        raise ValueError("teacher count and student member count must match")
    pairs = draw_pairs(index_rng, len(teachers), len(x))
    grad = _pair_gap_grad(teachers, student, x, pairs, nets)
    return Perturbation(_normalize_rows(grad, gamma), pairs)
