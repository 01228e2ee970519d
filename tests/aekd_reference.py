"""AE-KD's per-sample teacher weights by bordered KKT systems and batched
SVDs: the solver ``distilab.distill._aekd_weights_batch`` replaced, kept as
the oracle its optimality is tested against.

For each free-set size one batched ``np.linalg.svd`` factors the bordered
KKT matrices of every free set on every row; lstsq's cutoff for zero
singular values gives affinely dependent teachers the minimum-norm split.
The selection rule is the one ``distill`` keeps: feasible within 1e-10,
clipped, lowest objective within 1e-15, ties broken free < zero < capped,
weight by weight.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np


def aekd_weights_batch(teacher_probs: np.ndarray, student_probs: np.ndarray,
                        tau: float, c: float) -> np.ndarray:
    """Exact per-sample AE-KD weights, (N, M), from (M, N, K) teacher and
    (N, K) student probabilities, at any M.

    At the optimum each weight is free, at 0 or at c. Every such split is
    tried on all rows at once, one free-set size f at a time: one batched
    SVD factors the KKT matrices of the F free sets of that size, and the S
    zero/cap splits of the other weights whose caps fit the budget are
    solved from those factors, with lstsq's cutoff for zero singular values.
    Of its feasible candidates within 1e-15 of the lowest objective, each
    row keeps the first in the order free < zero < capped, weight by weight.
    Time and memory grow as 3^M. c = 1/M forces the uniform weighting (the
    feasible set is a single point).
    """
    P = np.asarray(teacher_probs, dtype=np.float64)
    s = np.asarray(student_probs, dtype=np.float64)
    m, n = P.shape[:2]
    if c < 1.0 / m - 1e-9 or c > 1.0 + 1e-9:
        raise ValueError(f"tolerance c={c} infeasible for M={m}")
    if c <= 1.0 / m + 1e-12:
        return np.full((n, m), 1.0 / m)
    rows = P.transpose(1, 0, 2)
    weights, objective, order = [], [], []
    for size in range(m + 1):
        # every free set of this size, and the zero/cap splits of the other
        # weights whose caps fit the budget (all of it when none is free)
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
        pf = rows[:, free].transpose(1, 0, 2, 3)                        # (F, N, f, K)
        resid = s[:, None] - caps @ rows[:, rest].transpose(1, 0, 2, 3)  # (F, N, S, K)
        kkt = np.ones((len(subsets), n, size + 1, size + 1))
        kkt[..., :size, :size] = 2.0 * (pf @ pf.transpose(0, 1, 3, 2))
        kkt[..., size, size] = 0.0
        u, sv, vt = np.linalg.svd(kkt)
        keep = sv > np.finfo(np.float64).eps * (size + 1) * sv[..., :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
        rhs = np.empty(resid.shape[:3] + (size + 1,))
        rhs[..., :size] = 2.0 * (resid @ pf.transpose(0, 1, 3, 2))
        rhs[..., size] = budget
        # Applying the factors to each right-hand side, not forming the
        # pseudo-inverse first, keeps nearly singular rows on the simplex.
        sol = ((rhs @ u) * inv[:, :, None]) @ vt[..., :size]           # (F, N, S, f)
        feasible = np.all((sol >= -1e-10) & (sol <= c + 1e-10), axis=-1)
        sol = np.clip(sol, 0.0, c)
        resid -= sol @ pf
        f = np.where(feasible, (resid * resid).sum(axis=-1) / (2.0 * tau * tau), np.inf)
        w = np.zeros(sol.shape[:3] + (m,))
        np.put_along_axis(w, free[:, None, None], sol, axis=-1)
        np.put_along_axis(w, rest[:, None, None], caps, axis=-1)
        # each weight's status (0 free, 1 zero, 2 capped) as a base-3 digit
        status = np.zeros((len(subsets), len(caps), m))
        np.put_along_axis(status, rest[:, None], 1.0 + (caps > 0.0), axis=-1)
        weights.append(w.transpose(0, 2, 1, 3).reshape(-1, n, m))
        objective.append(f.transpose(0, 2, 1).reshape(-1, n))
        order.append(status.reshape(-1, m) @ 3.0 ** np.arange(m - 1, -1, -1))
    weights, objective, order = (np.concatenate(a) for a in (weights, objective, order))
    near_best = objective <= objective.min(axis=0) + 1e-15
    pick = np.where(near_best, order[:, None], np.inf).argmin(axis=0)
    return weights[pick, np.arange(n)]
