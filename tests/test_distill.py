"""Distillation losses and loops.

The one-to-one update is checked against an independent single-step
reimplementation (explicit chain rule in plain numpy); the adaptive-weights
QP against a fine grid search, its KKT conditions, scipy's SLSQP and the
SVD/KKT solver of ``aekd_reference``; the Dirichlet reverse KL against
numerical integration over the simplex.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import aekd_reference
import per_net
import tape
from distilab import distill
from distilab.data import Dataset
from distilab.distill import (FACTORED, METHODS, DegenerateEnsembleError, DistillConfig,
                              ProxyDirichlet, _aekd_candidates, _aekd_weights_batch,
                              aekd_weights, dirichlet_kl_np, kd_loss, one_to_one_loss,
                              proxy_dirichlet_target, proxy_end2_loss, train_student)
from distilab.autodiff import NumericsError
from distilab.metrics import batched_logits, softmax_np
from distilab.nets import MLP, ModelSpec, average_rank_one, build_be, build_plain, join
from distilab.optim import OptimConfig, cross_entropy, one_hot, steps_per_epoch
from distilab.perturb import Perturbation, _ods_gradients
from distilab.seeding import rng_stream
from test_autodiff import check_value_grad


def stub_teacher(probs, tau=1.0):
    """Plain net whose tau-softened outputs equal probs exactly at any
    two-dimensional input: zero weights, and the logits as the last bias."""
    logits = tau * np.log(np.asarray(probs, dtype=np.float64))
    net = build_plain(ModelSpec(2, len(logits), (1,)), rng_stream(0, "init"))
    for l in net.layers:
        l.weight[:] = 0.0
    net.layers[-1].bias[0] = logits
    return net


def stub_logits(teacher_probs, n, tau=1.0):
    """(M, n, K) teacher logits whose tau-softened rows equal each teacher's probs."""
    return np.stack([np.tile(tau * np.log(np.asarray(p, dtype=np.float64)), (n, 1))
                     for p in teacher_probs])


class TestKdLoss:
    def _cfg(self, tau=1.0, alpha=1.0, m=2):
        return DistillConfig(tau=tau, alpha=alpha, num_teachers=m,
                             optim=OptimConfig(epochs=2, warmup_epochs=1))

    def test_self_match_hits_entropy_floor(self):
        p = np.array([0.7, 0.3])
        cfg = self._cfg(tau=2.0, m=1)
        student_logits = 2.0 * np.log(p)[None, :]
        loss = kd_loss(stub_logits([p], 1, tau=2.0), student_logits,
                       one_hot(np.array([0]), 2), cfg)[0]
        floor = 4.0 * -(p * np.log(p)).sum()
        assert loss == pytest.approx(floor, abs=1e-12)

    def test_alpha_zero_is_plain_cross_entropy(self):
        logits = np.array([[2.0, 0.0, -1.0]])
        cfg = self._cfg(alpha=0.0, m=1)
        loss = kd_loss(stub_logits([[0.2, 0.5, 0.3]], 1), logits,
                       one_hot(np.array([1]), 3), cfg)[0]
        expected = -math.log(softmax_np(logits)[0, 1])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_two_teacher_scalar_case(self):
        # direct evaluation of 0.5 * (H[p_T1, p_S] + H[p_T2, p_S])
        p_s = np.array([0.7, 0.3])
        h1 = -(0.9 * math.log(0.7) + 0.1 * math.log(0.3))
        h2 = -(0.5 * math.log(0.7) + 0.5 * math.log(0.3))
        expected = 0.5 * (h1 + h2)  # = 0.610864 (also H of the mean teacher)
        cfg = self._cfg()
        loss = kd_loss(stub_logits([[0.9, 0.1], [0.5, 0.5]], 1), np.log(p_s)[None, :],
                       one_hot(np.array([0]), 2), cfg)[0]
        assert loss == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.610864, abs=1e-6)

    def test_mean_teacher_equivalence(self):
        # linearity of cross-entropy: per-teacher mean equals mean-teacher target
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.1, 1.0, size=(3, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        student = rng.normal(size=(5, 4))
        cfg = self._cfg(tau=1.0, m=3)
        loss = kd_loss(stub_logits(probs, 5), student, one_hot(np.zeros(5, dtype=int), 4),
                       cfg)[0]
        log_q = np.log(softmax_np(student))
        expected = -(probs.mean(axis=0)[None, :] * log_q).sum(axis=1).mean()
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        teacher_logits = stub_logits([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]], 4)
        y = one_hot(rng.integers(0, 3, size=4), 3)
        cfg = DistillConfig(tau=3.0, alpha=0.7, num_teachers=2,
                            optim=OptimConfig(epochs=2, warmup_epochs=1))
        logits = rng.normal(size=(4, 3))
        check_value_grad(lambda a: kd_loss(teacher_logits, a, y, cfg), logits, rel_tol=1e-5)

    def test_explicit_uniform_weights_match_kd(self):
        rng = np.random.default_rng(2)
        teacher_logits = rng.normal(size=(3, 6, 4))
        student = rng.normal(size=(6, 4))
        y = one_hot(rng.integers(0, 4, size=6), 4)
        for alpha in (1.0, 0.4):
            cfg = DistillConfig(tau=2.5, alpha=alpha, num_teachers=3,
                                optim=OptimConfig(epochs=2, warmup_epochs=1))
            uniform = kd_loss(teacher_logits, student, y, cfg, np.full((6, 3), 1.0 / 3))
            plain = kd_loss(teacher_logits, student, y, cfg)
            assert uniform[0] == pytest.approx(plain[0], abs=1e-12)
            np.testing.assert_allclose(uniform[1], plain[1], atol=1e-15)


def hand_one_to_one_step(x, teacher_probs, layers, tau, lr):
    """Independent single-step oracle for the one-to-one update (momentum 0,
    weight decay 0): explicit chain rule through a 1-hidden-layer factored
    net, member losses tau^2 * batch-mean cross-entropy, shared gradient
    averaged over members."""
    (w0, r0, s0, b0), (w1, r1, s1, b1) = layers
    m_count = len(r0)
    n = len(x)
    g_shared0 = np.zeros_like(w0)
    g_shared1 = np.zeros_like(w1)
    updates = []
    for m in range(m_count):
        w0e = w0 * np.outer(r0[m], s0[m])
        w1e = w1 * np.outer(r1[m], s1[m])
        pre = x @ w0e.T + b0[m]
        h = np.maximum(pre, 0.0)
        logits = h @ w1e.T + b1[m]
        q = softmax_np(logits, tau)
        g_logits = tau / n * (q - teacher_probs[m])
        g_w1e = g_logits.T @ h
        g_b1 = g_logits.sum(axis=0)
        g_h = g_logits @ w1e
        g_pre = g_h * (pre > 0)
        g_w0e = g_pre.T @ x
        g_b0 = g_pre.sum(axis=0)
        g_shared0 += g_w0e * np.outer(r0[m], s0[m])
        g_shared1 += g_w1e * np.outer(r1[m], s1[m])
        updates.append({
            "r0": (g_w0e * w0) @ s0[m], "s0": (g_w0e * w0).T @ r0[m],
            "r1": (g_w1e * w1) @ s1[m], "s1": (g_w1e * w1).T @ r1[m],
            "b0": g_b0, "b1": g_b1,
        })
    out = {"w0": w0 - lr * g_shared0 / m_count, "w1": w1 - lr * g_shared1 / m_count}
    for m, upd in enumerate(updates):
        out[f"r0_{m}"] = r0[m] - lr * upd["r0"]
        out[f"s0_{m}"] = s0[m] - lr * upd["s0"]
        out[f"r1_{m}"] = r1[m] - lr * upd["r1"]
        out[f"s1_{m}"] = s1[m] - lr * upd["s1"]
        out[f"b0_{m}"] = b0[m] - lr * upd["b0"]
        out[f"b1_{m}"] = b1[m] - lr * upd["b1"]
    return out


class TestOneToOne:
    def _toy(self, m_count=2):
        spec = ModelSpec(2, 2, (2,))
        student = build_be(spec, rng_stream(42, "init"), "ones", members=m_count)
        rng = np.random.default_rng(3)
        for l in student.layers:
            for m in range(m_count):
                l.r[m] += 0.2 * rng.normal(size=l.r[m].shape)
                l.s[m] += 0.2 * rng.normal(size=l.s[m].shape)
                l.bias[m] = 0.1 * rng.normal(size=l.bias[m].shape)
        return spec, student

    def test_single_step_matches_hand_oracle(self):
        # the be student starts from the seed's "init" stream with random signs
        spec = ModelSpec(2, 2, (2,))
        student = build_be(spec, rng_stream(0, "init"), "random_sign", members=2)
        x = np.array([[0.3, -1.2], [0.8, 0.5]])
        train = Dataset(x, np.array([0, 1]), 2, "train")
        tau, lr = 2.0, 0.25
        t_probs = [np.tile([0.8, 0.2], (2, 1)), np.tile([0.35, 0.65], (2, 1))]
        teachers = join([stub_teacher([0.8, 0.2], tau), stub_teacher([0.35, 0.65], tau)])
        # the oracle takes (out, in) weights
        layers = [(l.weight[0].T.copy(), list(l.r.copy()),
                   list(l.s.copy()), list(l.bias.copy()))
                  for l in student.layers]
        expected = hand_one_to_one_step(
            x, t_probs,
            [(w, r, s, b) for (w, r, s, b) in layers], tau, lr)

        cfg = DistillConfig(tau=tau, num_teachers=2, method="be",
                            optim=OptimConfig(base_lr=lr, momentum=0.0,
                                              weight_decay=0.0, epochs=1,
                                              warmup_epochs=0, batch_size=4, seed=0))
        got0, got1 = train_student(teachers, spec, train, cfg).layers
        np.testing.assert_allclose(got0.weight[0].T, expected["w0"], atol=1e-10)
        np.testing.assert_allclose(got1.weight[0].T, expected["w1"], atol=1e-10)
        for m in range(2):
            np.testing.assert_allclose(got0.r[m], expected[f"r0_{m}"], atol=1e-10)
            np.testing.assert_allclose(got0.s[m], expected[f"s0_{m}"], atol=1e-10)
            np.testing.assert_allclose(got1.r[m], expected[f"r1_{m}"], atol=1e-10)
            np.testing.assert_allclose(got1.s[m], expected[f"s1_{m}"], atol=1e-10)
            np.testing.assert_allclose(got0.bias[m], expected[f"b0_{m}"], atol=1e-10)
            np.testing.assert_allclose(got1.bias[m], expected[f"b1_{m}"], atol=1e-10)

    def test_single_member_loss_is_kd_alpha_one(self):
        # with M=1 the member loss equals the temperature-scaled KD loss
        spec, student = self._toy(m_count=1)
        x = np.array([[0.4, -0.2]])
        tau = 3.0
        t_logits = stub_logits([[0.3, 0.7]], 1, tau)
        member_loss = one_to_one_loss(t_logits, student[0].forward(x), tau)
        cfg = DistillConfig(tau=tau, alpha=1.0, num_teachers=1,
                            optim=OptimConfig(epochs=2, warmup_epochs=1))
        plain = average_rank_one(student)  # a one-member average is that member
        kd = kd_loss(t_logits, plain.forward(x), one_hot(np.array([0]), 2), cfg)
        assert member_loss[0] == pytest.approx(kd[0], rel=1e-12)
        np.testing.assert_allclose(member_loss[1], kd[1], rtol=1e-12)


class TestLatentBE:
    def test_reduces_to_one_to_one_bit_exactly(self, tiny_task, tiny_teachers,
                                               tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, rank_decay=0.0, perturbation="none",
                            method="latentbe",
                            optim=OptimConfig(epochs=6, warmup_epochs=1,
                                              batch_size=32, seed=3))
        latent_student = train_student(tiny_teachers, tiny_spec, train, cfg)
        be_student = train_student(tiny_teachers, tiny_spec, train,
                                   replace(cfg, method="be", student_init="ones"))
        for la, lb in zip(latent_student.layers, be_student.layers):
            assert la.weight.tobytes() == lb.weight.tobytes()
            for m in range(2):
                assert la.r[m].tobytes() == lb.r[m].tobytes()
                assert la.s[m].tobytes() == lb.s[m].tobytes()
                assert la.bias[m].tobytes() == lb.bias[m].tobytes()

    def test_huge_rank_decay_pins_factors_at_ones(self, tiny_task, tiny_teachers,
                                                  tiny_spec):
        # contraction requires lr * decay < 1, hence the tiny learning rate
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, rank_decay=1e6, method="latentbe",
                            optim=OptimConfig(base_lr=1e-9, momentum=0.0,
                                              epochs=5, warmup_epochs=4,
                                              batch_size=16, seed=1))
        student = train_student(tiny_teachers, tiny_spec, train, cfg)
        for l in student.layers:
            for m in range(2):
                assert np.abs(l.r[m] - 1.0).max() < 1e-3
                assert np.abs(l.s[m] - 1.0).max() < 1e-3

    def test_be_ignores_rank_decay(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, method="be", student_init="ones",
                            optim=OptimConfig(epochs=2, warmup_epochs=1,
                                              batch_size=32, seed=2))
        pulled = train_student(tiny_teachers, tiny_spec, train, replace(cfg, rank_decay=1e3))
        free = train_student(tiny_teachers, tiny_spec, train, replace(cfg, rank_decay=0.0))
        for la, lb in zip(pulled.layers, free.layers):
            assert la.r.tobytes() == lb.r.tobytes()
            assert la.s.tobytes() == lb.s.tobytes()

    def test_zero_gamma_matches_no_perturbation_bit_exactly(self, tiny_task,
                                                            tiny_teachers,
                                                            tiny_spec):
        train, _, _ = tiny_task
        base = DistillConfig(num_teachers=2, method="latentbe",
                             optim=OptimConfig(epochs=4, warmup_epochs=1,
                                               batch_size=32, seed=5))
        cfg_none = replace(base, perturbation="none")
        cfg_zero = replace(base, perturbation="tdiv_sdiv", gamma=0.0)
        s_none = train_student(tiny_teachers, tiny_spec, train, cfg_none)
        s_zero = train_student(tiny_teachers, tiny_spec, train, cfg_zero)
        for la, lb in zip(s_none.layers, s_zero.layers):
            assert la.weight.tobytes() == lb.weight.tobytes()

    def test_returns_the_factored_student(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, method="latentbe",
                            optim=OptimConfig(epochs=2, warmup_epochs=1,
                                              batch_size=32, seed=0))
        student = train_student(tiny_teachers, tiny_spec, train, cfg)
        assert (len(student), student.factored) == (2, True)
        averaged = average_rank_one(student)
        assert (len(averaged), averaged.factored) == (1, False)

    def test_plain_methods_reject_tdiv_sdiv(self):
        for method in ("kd", "aekd", "proxy_end2"):
            with pytest.raises(ValueError, match="factored"):
                DistillConfig(num_teachers=2, perturbation="tdiv_sdiv", method=method)

    def test_unknown_perturbation_kind_rejected(self):
        with pytest.raises(ValueError, match="perturbation"):
            DistillConfig(perturbation="pgd")

    def test_a_trace_leaves_training_unchanged(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        cfg = replace(method_cfg("be"), perturbation="tdiv_sdiv")
        rows = []
        traced = train_student(tiny_teachers, tiny_spec, train, cfg, trace=rows)
        untraced = train_student(tiny_teachers, tiny_spec, train, cfg)
        for a, b in zip(traced.parameters(), untraced.parameters()):
            assert a.tobytes() == b.tobytes()
        steps = cfg.optim.epochs * steps_per_epoch(len(train), cfg.optim.batch_size)
        assert [row[0] for row in rows] == list(range(1, steps + 1))
        for method in ("kd", "aekd", "proxy_end2"):
            with pytest.raises(ValueError, match="factored"):
                train_student(tiny_teachers, tiny_spec, train, method_cfg(method), trace=[])


class TestDistillConfig:
    """The method rules a run config obeys, with the messages the CLI prints."""

    def test_defaults(self):
        cfg = DistillConfig()
        assert (cfg.method, cfg.student_init, cfg.aekd_c) == ("kd", "random_sign", 0.6)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown method 'alchemy'$"):
            DistillConfig(method="alchemy")

    def test_unknown_student_init_rejected(self):
        with pytest.raises(ValueError, match="^unknown student_init 'gaussian'$"):
            DistillConfig(method="be", student_init="gaussian")

    def test_factored_students_need_two_teachers(self):
        for method in FACTORED:
            with pytest.raises(ValueError,
                               match="^factored students need num_teachers >= 2$"):
                DistillConfig(method=method, num_teachers=1)
            assert DistillConfig(method=method, num_teachers=2).method == method

    def test_tdiv_sdiv_needs_a_factored_student(self):
        for method in METHODS:
            if method in FACTORED:
                DistillConfig(method=method, perturbation="tdiv_sdiv")
            else:
                with pytest.raises(ValueError, match="^tdiv_sdiv perturbation requires "
                                                     "a factored student$"):
                    DistillConfig(method=method, perturbation="tdiv_sdiv")

    def test_plain_methods_accept_one_teacher(self):
        # proxy_end2's need for two teachers is checked when it trains; one
        # teacher leaves AE-KD the single feasible weight cap 1
        for method in ("kd", "aekd", "proxy_end2"):
            assert DistillConfig(method=method, num_teachers=1, aekd_c=1.0).num_teachers == 1

    def test_aekd_c_range_checked_for_aekd_only(self):
        for m, c in ((2, 0.5), (2, 1.0), (3, 1.0 / 3.0), (4, 0.25 - 5e-10)):
            assert DistillConfig(method="aekd", num_teachers=m, aekd_c=c).aekd_c == c
        for m, c in ((1, 0.6), (2, 0.2), (3, 0.3), (2, 1.1), (2, float("nan"))):
            with pytest.raises(ValueError, match=f"^aekd_c must lie in \\[1/M, 1\\] "
                                                 f"for M={m} teachers"):
                DistillConfig(method="aekd", num_teachers=m, aekd_c=c)
        # the default cap is infeasible at M=1, but only aekd reads it
        assert DistillConfig(method="kd", num_teachers=1).aekd_c == 0.6
        assert DistillConfig(method="kd", num_teachers=2, aekd_c=0.2).aekd_c == 0.2

    @pytest.mark.parametrize("field, value", [
        ("tau", float("nan")), ("tau", float("inf")), ("tau", 0.0),
        ("alpha", float("nan")), ("rank_decay", float("nan")),
        ("rank_decay", float("inf")), ("gamma", float("nan")),
        ("gamma", float("inf")), ("gamma", -1.0), ("num_teachers", float("nan")),
        ("num_teachers", float("inf")), ("num_teachers", 2.5), ("num_teachers", True),
    ])
    def test_non_finite_and_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must "):
            DistillConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tau", "alpha", "rank_decay", "gamma", "aekd_c"])
    def test_real_fields_reject_bools_and_strings(self, field):
        for value in (True, "0.5"):
            with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
                DistillConfig(**{field: value})
        # numpy scalars and integers are real numbers
        assert getattr(DistillConfig(method="aekd", **{field: np.float64(1.0)}), field) == 1.0
        assert getattr(DistillConfig(method="aekd", **{field: 1}), field) == 1


class TestAekdWeights:
    def test_minimum_tolerance_forces_uniform(self):
        rng = np.random.default_rng(4)
        for m in (2, 3, 5):
            probs = rng.uniform(0.1, 1.0, size=(m, 4))
            probs /= probs.sum(axis=1, keepdims=True)
            s = rng.uniform(0.1, 1.0, size=4)
            s /= s.sum()
            w = aekd_weights(probs, s, tau=2.0, c=1.0 / m)
            np.testing.assert_array_equal(w, np.full(m, 1.0 / m))

    def test_exact_match_takes_full_weight(self):
        p1 = np.array([0.7, 0.2, 0.1])
        p2 = np.array([0.1, 0.3, 0.6])
        w = aekd_weights(np.stack([p1, p2]), p1, tau=1.0, c=1.0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-10)

    def test_box_constrained_case_against_grid_oracle(self):
        p1 = np.array([0.7, 0.2, 0.1])
        p2 = np.array([0.1, 0.3, 0.6])
        teacher = np.stack([p1, p2])
        c = 0.6
        grid = np.arange(0.0, c + 1e-12, 1e-5)
        objective = [np.sum((p1 - (w * p1 + (1 - w) * p2)) ** 2) for w in grid]
        w_grid = grid[int(np.argmin(objective))]
        w = aekd_weights(teacher, p1, tau=1.0, c=c)
        assert abs(w[0] - w_grid) < 1e-4
        np.testing.assert_allclose(w, [0.6, 0.4], atol=1e-10)

    def test_nearly_collinear_teachers_matched_exactly(self):
        # p2 - p0 is 0.33 degrees off the direction of p1 - p0: a student
        # inside the three teachers' hull needs all three free.
        probs = np.array([[0.2, 0.4, 0.4], [0.6, 0.2, 0.2], [0.4, 0.301, 0.299]])
        student = np.array([0.4, 0.3, 0.3]) @ probs
        w = aekd_weights(probs, student, tau=1.0, c=0.6)
        np.testing.assert_allclose(w, [0.4, 0.3, 0.3], atol=1e-12)

    def test_duplicate_teachers_follow_the_tie_rule(self):
        # Every weighting of two identical teachers is optimal. The free
        # pair gives the duplicate weight 0, which the cap 0.6 rejects;
        # then (free, capped) comes before (capped, free).
        p = np.array([0.7, 0.2, 0.1])
        s = np.array([0.2, 0.5, 0.3])
        np.testing.assert_array_equal(aekd_weights(np.stack([p, p]), s, 1.0, 0.6), [0.4, 0.6])
        np.testing.assert_array_equal(aekd_weights(np.stack([p, p]), s, 1.0, 1.0), [1.0, 0.0])

    def test_infeasible_tolerance_rejected(self):
        probs = np.full((4, 3), 1 / 3.0)
        with pytest.raises(ValueError):
            aekd_weights(probs, probs[0], tau=1.0, c=0.2)  # 1/M = 0.25 > 0.2

    @staticmethod
    def _kkt_ok(weights, teacher_probs, student_probs, tau, c, tol=1e-8):
        grad = -(teacher_probs @ (student_probs - teacher_probs.T @ weights)) / tau ** 2
        free = (weights > tol) & (weights < c - tol)
        if free.any():
            nu = grad[free].mean()
            if np.abs(grad[free] - nu).max() > tol:
                return False
        else:
            nu = grad.min()
        at_zero = weights <= tol
        at_cap = weights >= c - tol
        return bool(np.all(grad[at_zero] >= nu - tol)
                    and np.all(grad[at_cap] <= nu + tol))

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4, 5, 8):
            for _ in range(20):
                probs = rng.uniform(0.05, 1.0, size=(m, 4))
                probs /= probs.sum(axis=1, keepdims=True)
                s = rng.uniform(0.05, 1.0, size=4)
                s /= s.sum()
                c = float(rng.uniform(1.0 / m + 0.05, 1.0))
                w = aekd_weights(probs, s, tau=1.5, c=c)
                assert abs(w.sum() - 1.0) < 1e-9
                assert w.min() > -1e-10 and w.max() < c + 1e-10
                assert self._kkt_ok(w, probs, s, 1.5, c)

    def test_batch_path_matches_single(self):
        rng = np.random.default_rng(6)
        for m in (2, 3, 4):
            probs = rng.uniform(0.05, 1.0, size=(m, 10, 3))
            probs /= probs.sum(axis=-1, keepdims=True)
            student = rng.uniform(0.05, 1.0, size=(10, 3))
            student /= student.sum(axis=-1, keepdims=True)
            batch = _aekd_weights_batch(probs, student, tau=2.0, c=0.7)
            for b in range(10):
                single = aekd_weights(probs[:, b], student[b], tau=2.0, c=0.7)
                np.testing.assert_array_equal(batch[b], single)

    @staticmethod
    def _slsqp_best(probs, s, tau, c):
        """Best objective scipy's SLSQP reaches from the uniform point and
        from each capped corner."""
        from scipy.optimize import minimize

        def objective(w):
            resid = s - probs.T @ w
            return resid @ resid / (2.0 * tau * tau)

        m = len(probs)
        starts = [np.full(m, 1.0 / m)]
        for k in range(m):
            start = np.full(m, (1.0 - c) / (m - 1))
            start[k] = c
            starts.append(start)
        best = math.inf
        for start in starts:
            res = minimize(objective, start, method="SLSQP", bounds=[(0.0, c)] * m,
                           constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                           options={"ftol": 1e-16, "maxiter": 1000})
            w = np.clip(res.x, 0.0, c)
            if abs(w.sum() - 1.0) <= 1e-9:
                best = min(best, objective(w))
        return best

    def test_ill_conditioned_teachers(self):
        # Sharp teachers whose minor-class probabilities differ by orders of
        # magnitude below 1e-3 make the KKT matrices nearly singular, and the
        # last teacher duplicates the first exactly.
        rng = np.random.default_rng(9)
        tau, c = 4.0, 0.6
        for m in (3, 4):
            base = np.array([0.0, -9.0, -11.0])
            probs = softmax_np(base + rng.normal(size=(m, 16, 3)), 1.0)
            probs[-1] = probs[0]
            student = softmax_np(base + rng.normal(size=(16, 3)), 1.0)
            w = _aekd_weights_batch(probs, student, tau, c)
            assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
            assert w.min() > -1e-12 and w.max() < c + 1e-12
            for b in range(16):
                resid = student[b] - probs[:, b].T @ w[b]
                f = resid @ resid / (2.0 * tau * tau)
                assert f <= self._slsqp_best(probs[:, b], student[b], tau, c) + 1e-12

    def test_no_linalg_call_and_tables_built_once(self, monkeypatch):
        calls = []
        for name in ("svd", "lstsq", "solve", "eigh", "pinv", "qr", "inv"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        _aekd_candidates.cache_clear()
        rng = np.random.default_rng(10)
        for n in (4, 64):
            probs = rng.uniform(0.05, 1.0, size=(3, n, 3))
            probs /= probs.sum(axis=-1, keepdims=True)
            student = rng.uniform(0.05, 1.0, size=(n, 3))
            student /= student.sum(axis=-1, keepdims=True)
            for c in (0.6, 0.7, 0.6):
                _aekd_weights_batch(probs, student, tau=2.0, c=c)
        assert calls == []
        info = _aekd_candidates.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_never_worse_than_svd_oracle(self, m):
        # Sharp, ill-conditioned and exactly duplicated teachers; every row
        # must be feasible and reach the SVD/KKT solver's objective.
        rng = np.random.default_rng(20 + m)
        tau = 4.0
        for trial in range(50):
            k = int(rng.integers(2, 7))
            if trial % 3 == 0:
                probs = softmax_np(10.0 * rng.normal(size=(m, 32, k)), 1.0)
            elif trial % 3 == 1:
                base = np.concatenate([[0.0], -9.0 - 2.0 * np.arange(k - 1)])
                probs = softmax_np(base + rng.normal(size=(m, 32, k)), 1.0)
            else:
                probs = softmax_np(rng.normal(size=(m, 32, k)), 1.0)
                probs[-1] = probs[int(rng.integers(m - 1))]
            student = softmax_np(3.0 * rng.normal(size=(32, k)), 1.0)
            c = float(rng.uniform(1.0 / m, 1.0))
            w = _aekd_weights_batch(probs, student, tau, c)
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
            assert w.min() >= 0.0 and w.max() <= c
            oracle = aekd_reference.aekd_weights_batch(probs, student, tau, c)
            objective = [((student - np.einsum("nm,mnk->nk", v, probs)) ** 2).sum(axis=1)
                         / (2.0 * tau * tau) for v in (w, oracle)]
            assert np.all(objective[0] <= objective[1] + 1e-15)


def dirichlet_kl_quadrature(a, b, points=100_000):
    """Numerical KL(Dir(a) || Dir(b)) on the 1-simplex (K=2 only)."""
    t = (np.arange(points) + 0.5) / points
    log_beta_a = math.lgamma(a[0]) + math.lgamma(a[1]) - math.lgamma(sum(a))
    log_beta_b = math.lgamma(b[0]) + math.lgamma(b[1]) - math.lgamma(sum(b))
    log_fa = (a[0] - 1) * np.log(t) + (a[1] - 1) * np.log(1 - t) - log_beta_a
    log_fb = (b[0] - 1) * np.log(t) + (b[1] - 1) * np.log(1 - t) - log_beta_b
    return float(np.mean(np.exp(log_fa) * (log_fa - log_fb)))


def proxy_beta_loop(teacher_probs):
    """Independent loop oracle for the concentration estimate (pre-shift)."""
    m, k = teacher_probs.shape
    pbar = [sum(teacher_probs[i][j] for i in range(m)) / m for j in range(k)]
    den = 0.0
    for j in range(k):
        mean_log = sum(math.log(teacher_probs[i][j]) for i in range(m)) / m
        den += pbar[j] * (math.log(pbar[j]) - mean_log)
    return np.array([pbar[j] * ((k - 1) / 2.0) / den for j in range(k)])


class TestProxyDirichlet:
    def test_spot_case(self):
        target = proxy_dirichlet_target(np.array([[0.9, 0.1], [0.5, 0.5]]))
        np.testing.assert_allclose(target.beta - 1.0, [2.966776, 1.271476],
                                   atol=1e-5)

    def test_identical_teachers_rejected(self):
        probs = np.tile([0.4, 0.6], (3, 1))
        with pytest.raises(DegenerateEnsembleError):
            proxy_dirichlet_target(probs)
        with pytest.raises(DegenerateEnsembleError):
            proxy_dirichlet_target(np.tile([0.4, 0.6], (3, 5, 1)))

    def test_matches_loop_oracle_and_class_count_scaling(self):
        rng = np.random.default_rng(7)
        for k in (2, 3, 4, 6):
            probs = rng.uniform(0.05, 1.0, size=(3, k))
            probs /= probs.sum(axis=1, keepdims=True)
            target = proxy_dirichlet_target(probs)
            np.testing.assert_allclose(target.beta - 1.0, proxy_beta_loop(probs),
                                       rtol=1e-10)

    def test_shifted_entries_exceed_one(self):
        rng = np.random.default_rng(8)
        probs = rng.uniform(0.05, 1.0, size=(4, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        assert proxy_dirichlet_target(probs).beta.min() > 1.0
        with pytest.raises(ValueError):
            ProxyDirichlet(np.array([0.5, 2.0]))


class TestProxyEnd2Loss:
    def test_zero_at_equality(self):
        beta = np.array([[3.0, 1.5, 2.2]])
        loss = proxy_end2_loss(np.log(beta - 1.0), ProxyDirichlet(beta))[0]
        assert abs(loss) < 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            beta = rng.uniform(1.1, 6.0, size=(1, k))
            logits = rng.normal(size=(1, k))
            assert proxy_end2_loss(logits, ProxyDirichlet(beta))[0] > -1e-12

    def test_closed_form_matches_quadrature(self):
        a = (2.0, 2.0)
        b = (3.0, 1.0)
        closed = dirichlet_kl_np(np.array(a), np.array(b))
        quad = dirichlet_kl_quadrature(a, b)
        assert abs(closed - quad) < 1e-4
        assert closed == pytest.approx(math.log(2.0), abs=1e-12)

    def test_loss_is_kl_scaled_by_target_total(self):
        beta = np.array([[2.5, 3.5]])
        logits_np = np.array([[0.4, -0.3]])
        conc = np.exp(logits_np) + 1.0
        expected = dirichlet_kl_np(conc, beta)[0] / beta.sum()
        loss = proxy_end2_loss(logits_np, ProxyDirichlet(beta))[0]
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_degenerate_row_gets_no_weight(self):
        good = np.array([[0.9, 0.1], [0.5, 0.5]])   # two teachers that disagree
        agree = np.array([[0.4, 0.6], [0.4, 0.6]])  # two teachers that agree
        target = proxy_dirichlet_target(np.stack([good, agree], axis=1))
        assert target.defined.tolist() == [True, False]
        logits = np.array([[0.4, -0.3], [0.2, 0.1]])
        loss, grad = proxy_end2_loss(logits, target)
        good_loss = proxy_end2_loss(logits[:1], proxy_dirichlet_target(good[:, None, :]))[0]
        assert np.isfinite(loss)
        assert loss == pytest.approx(good_loss / 2, rel=1e-12)
        np.testing.assert_array_equal(grad[1], 0.0)
        assert np.all(grad[0] != 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        beta = rng.uniform(1.2, 4.0, size=(3, 3))
        target = ProxyDirichlet(beta)
        check_value_grad(lambda a: proxy_end2_loss(a, target), rng.normal(size=(3, 3)),
                         rel_tol=1e-5)

    def test_tensor_kl_matches_numpy_kl(self):
        # the tape's Dirichlet KL, which the closed-form gradient follows
        rng = np.random.default_rng(11)
        a = rng.uniform(1.1, 5.0, size=(4, 3))
        b = rng.uniform(1.1, 5.0, size=(4, 3))
        got = tape.dirichlet_kl(tape.Tensor(a, requires_grad=True), b)
        np.testing.assert_allclose(got.data, dirichlet_kl_np(a, b), atol=1e-12)


PLAIN = ("kd", "aekd", "proxy_end2")


def method_cfg(method, epochs=3):
    return DistillConfig(num_teachers=2, method=method,
                         optim=OptimConfig(epochs=epochs, warmup_epochs=1,
                                           batch_size=32, seed=0))


class TestPlainLoops:
    def test_kd_student_learns(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, test = tiny_task
        cfg = DistillConfig(num_teachers=2,
                            optim=OptimConfig(epochs=25, warmup_epochs=2,
                                              batch_size=32, seed=0))
        student = train_student(tiny_teachers, tiny_spec, train, cfg)
        preds = softmax_np(batched_logits(student, test.x)[0]).argmax(axis=1)
        assert (preds == test.y).mean() > 0.6

    def test_aekd_loop_runs(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        student = train_student(tiny_teachers, tiny_spec, train, method_cfg("aekd"))
        assert student.head == "softmax"

    @staticmethod
    def _forwards(monkeypatch):
        """(net, rows) of every ``MLP.forward_kept`` call from now on, net
        being "teachers" for a plain net of several members, else "student"."""
        calls = []
        forward_kept = MLP.forward_kept

        def record(net, x):
            teachers = len(net) > 1 and not net.factored
            calls.append(("teachers" if teachers else "student", x.shape[-2]))
            return forward_kept(net, x)

        monkeypatch.setattr(MLP, "forward_kept", record)
        return calls

    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("method", PLAIN)
    def test_unperturbed_teachers_run_once(self, tiny_task, tiny_teachers, tiny_spec,
                                           monkeypatch, method, epochs):
        # the stacked teachers see the training split once, in one forward of
        # its 126 rows, and the student every batch
        train, _, _ = tiny_task
        calls = self._forwards(monkeypatch)
        cfg = replace(method_cfg(method), optim=OptimConfig(
            epochs=epochs, warmup_epochs=epochs // 3, batch_size=32, seed=0))
        train_student(tiny_teachers, tiny_spec, train, cfg)
        assert [rows for net, rows in calls if net == "teachers"] == [len(train)]
        student = [rows for net, rows in calls if net == "student"]
        assert len(student) == epochs * steps_per_epoch(len(train), 32)
        assert sum(student) == epochs * len(train)

    @pytest.mark.parametrize("method,perturbation",
                             [(m, "gaussian") for m in PLAIN] + [(m, "none") for m in FACTORED]
                             + [("kd", "tdiv"), ("be", "tdiv"), ("be", "tdiv_sdiv"),
                                ("latentbe", "tdiv_sdiv")])
    def test_teachers_run_every_step_otherwise(self, tiny_task, tiny_teachers, tiny_spec,
                                               monkeypatch, method, perturbation):
        # perturbed plain students, and factored students even unperturbed: at
        # each step the teachers and the student run one joint pass at x + eps,
        # and for the pair kinds one more at x before it (the teachers alone
        # for tdiv); the teachers' member weights are formed once per distill,
        # the student's once when the pass is built and then once per step,
        # and a joint pass's forward forms none
        train, _, _ = tiny_task
        calls, formed, copied = [], [], []
        forward_kept, member_weights = MLP.forward_kept, distill.ad.member_weights

        def record(net, x):
            calls.append((len(net), x.shape[-2]))
            return forward_kept(net, x)

        def form(weight, r, s):
            w = member_weights(weight, r, s)
            formed.append(weight)
            if not np.shares_memory(w, weight):
                copied.append(weight)
            return w

        monkeypatch.setattr(MLP, "forward_kept", record)
        monkeypatch.setattr(distill.ad, "member_weights", form)
        cfg = replace(method_cfg(method, epochs=2), perturbation=perturbation)
        seen = []
        student = train_student(tiny_teachers, tiny_spec, train, cfg,
                                step_hook=lambda step, net: seen.append(net))
        assert all(net is student for net in seen)
        joint = len(tiny_teachers) + len(student)
        batches = [32, 32, 32, 30] * 2
        at_x = {"tdiv": [len(tiny_teachers)], "tdiv_sdiv": [joint]}.get(perturbation, [])
        assert calls == [(members, rows) for rows in batches for members in [*at_x, joint]]
        for net, times in ((tiny_teachers, 1), (student, 1 + len(batches))):
            for l in net.layers:
                assert sum(w is l.weight for w in formed) == times
        own = {id(l.weight) for net in (tiny_teachers, student) for l in net.layers}
        assert sum(id(w) in own for w in formed) == (2 + len(batches)) * len(tiny_spec.widths[1:])
        assert all(id(w) in own for w in copied)

    @pytest.mark.parametrize("method", PLAIN)
    def test_each_step_reads_its_rows_of_one_teacher_pass(self, tiny_task, tiny_teachers,
                                                          tiny_spec, monkeypatch, method):
        # each step's teacher logits are the one-pass table's rows of the
        # step's batch, bit for bit, the batches drawn from "batch-shuffle"
        train, _, _ = tiny_task
        cfg = method_cfg(method, epochs=2)
        seen = []
        if method == "proxy_end2":
            target = distill.proxy_dirichlet_target
            monkeypatch.setattr(distill, "proxy_dirichlet_target",
                                lambda probs: seen.append(probs) or target(probs))
        else:
            loss = distill.kd_loss
            monkeypatch.setattr(distill, "kd_loss",
                                lambda t, *rest: seen.append(t) or loss(t, *rest))
        train_student(tiny_teachers, tiny_spec, train, cfg)
        table = batched_logits(tiny_teachers, train.x)
        stream, n = rng_stream(cfg.optim.seed, "batch-shuffle"), len(train)
        want = []
        for _ in range(cfg.optim.epochs):
            order = stream.permutation(n)
            for start in range(0, n, cfg.optim.batch_size):
                t = table[:, order[start:start + cfg.optim.batch_size]]
                want.append(softmax_np(t, 1.0) if method == "proxy_end2" else t)
        assert len(seen) == len(want)
        for got, w in zip(seen, want):
            assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("perturbation", ["none", "gaussian"])
    def test_proxy_rejects_identical_teachers_in_training(self, tiny_task, tiny_teachers,
                                                          tiny_spec, perturbation):
        # with the one-pass table (none) and with a forward per step (gaussian)
        train, _, _ = tiny_task
        cfg = replace(method_cfg("proxy_end2"), perturbation=perturbation)
        twins = tiny_teachers[[0, 0]]
        with pytest.raises(DegenerateEnsembleError, match="teachers numerically identical"):
            train_student(twins, tiny_spec, train, cfg)

    def test_proxy_loop_produces_dirichlet_head(self, tiny_task, tiny_teachers,
                                                tiny_spec):
        train, _, _ = tiny_task
        student = train_student(tiny_teachers, tiny_spec, train, method_cfg("proxy_end2"))
        assert student.head == "dirichlet"

    def test_proxy_needs_two_teachers(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        cfg = replace(method_cfg("proxy_end2"), num_teachers=1)
        with pytest.raises(ValueError, match="two teachers"):
            train_student(tiny_teachers[0], tiny_spec, train, cfg)


class TestJointPass:
    """The teachers and the student at one input run as one member-stacked
    pass, bit-equal to each net run on its own layers (``per_net``)."""

    @staticmethod
    def _last_step(teachers, spec, train, cfg, batches, update, monkeypatch):
        """(eps, teacher logits, student logits, parameter gradients) that
        train_student forms in the last of its steps on the row arrays
        batches, update(student) standing in for each earlier step's update."""
        got = {}
        build = distill.build_perturbation

        def perturbation(*args):
            got["eps"] = build(*args).epsilon
            return Perturbation(got["eps"])

        def loss(name):
            inner = getattr(distill, name)
            return lambda t, s, *rest: got.update(t=t, s=s) or inner(t, s, *rest)

        def steps(net, data, config, batch_loss, *rest):
            for step, rows in enumerate(batches):
                if step:
                    update(net)
                kept, g = batch_loss(rows)
            got["grads"] = net.backward(kept, g, True)
            return net

        monkeypatch.setattr(distill, "build_perturbation", perturbation)
        for name in ("kd_loss", "one_to_one_loss"):
            monkeypatch.setattr(distill, name, loss(name))
        monkeypatch.setattr(distill, "fit", steps)
        train_student(teachers, spec, train, cfg)
        return got["eps"], got["t"], got["s"], got["grads"]

    @pytest.mark.parametrize("method,hidden,perturbation", [
        (method, hidden, kind)
        for method, hidden in [("kd", None), ("latentbe", None), ("be", None), ("latentbe", (8,))]
        for kind in ["tdiv_sdiv", "tdiv", "gaussian", "ods"]
        if not (kind == "tdiv_sdiv" and method == "kd")])
    def test_steps_bitwise_equal_per_net_passes(self, tiny_task, tiny_teachers, tiny_spec,
                                                monkeypatch, method, hidden, perturbation):
        # two steps, the student's parameters moved in between: the second
        # step's pass must see the moved student. (8,) is a student narrower
        # and shallower than the (16, 16) teachers, run in a pass of its own
        train, _, _ = tiny_task
        spec = tiny_spec if hidden is None else replace(tiny_spec, hidden=hidden)
        cfg = replace(method_cfg(method), perturbation=perturbation)
        order = rng_stream(cfg.optim.seed, "batch-shuffle").permutation(len(train))
        batches = [order[:32], order[32:62]]

        def update(student):
            for k, a in enumerate(student.parameters()):
                a += 0.01 * (k + 1) * np.cos(np.arange(a.size)).reshape(a.shape)

        got = self._last_step(tiny_teachers, spec, train, cfg, batches, update, monkeypatch)
        want = per_net.last_step(tiny_teachers, spec, train, cfg, batches, update)
        assert len(got[3]) == len(want[3])
        for g, w in zip([*got[:3], *got[3]], [*want[:3], *want[3]]):
            np.testing.assert_array_equal(g, w)
            assert g.tobytes() == w.tobytes()
        assert np.any(got[0])


class TestTrainStudent:
    def test_teacher_count_must_match_config(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        for method in METHODS:
            with pytest.raises(ValueError, match="^config expects 2 teachers, got 1$"):
                train_student(tiny_teachers[0], tiny_spec, train, method_cfg(method))

    def test_student_shape_follows_method(self, tiny_task, tiny_teachers, tiny_spec):
        # one factored member per teacher, built from the seed's "init" stream
        train, _, _ = tiny_task
        expected = {"kd": (1, False), "aekd": (1, False), "proxy_end2": (1, False),
                    "be": (2, True), "latentbe": (2, True)}
        steps = []
        for method in METHODS:
            student = train_student(tiny_teachers, tiny_spec, train,
                                    method_cfg(method, epochs=2),
                                    step_hook=lambda step, net: steps.append(step))
            assert (len(student), student.factored) == expected[method]
        total = 2 * steps_per_epoch(len(train), 32)
        assert steps == list(range(1, total + 1)) * len(METHODS)

    def test_latentbe_starts_from_ones_and_be_from_student_init(self, tiny_task,
                                                                 tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        first = {}

        def keep_first(step, net):
            if step == 1:
                first["r"] = net.layers[0].r.copy()

        # momentum 0 and a tiny rate keep the first update far below one sign flip
        optim = OptimConfig(base_lr=1e-8, momentum=0.0, epochs=1, warmup_epochs=0,
                            batch_size=32, seed=0)
        signs = build_be(tiny_spec, rng_stream(0, "init"), "random_sign",
                         members=2).layers[0].r
        for method, init, start in (("latentbe", "random_sign", np.ones_like(signs)),
                                    ("be", "random_sign", signs),
                                    ("be", "ones", np.ones_like(signs))):
            cfg = DistillConfig(num_teachers=2, method=method, student_init=init,
                                rank_decay=0.0, optim=optim)
            train_student(tiny_teachers, tiny_spec, train, cfg, step_hook=keep_first)
            np.testing.assert_allclose(first["r"], start, atol=1e-6)


def _loss_case(loss, rng, scale):
    """(program loss, tape loss, logits) for one random case of a closed-form
    loss: the program's maps logits to (value, gradient), the tape's a leaf
    to its value node."""
    m, b, k = int(rng.integers(1, 4)), int(rng.integers(1, 9)), int(rng.integers(2, 6))
    tau = float(rng.choice([1.0, 2.5, 4.0]))
    cfg = DistillConfig(tau=tau, alpha=float(rng.choice([0.0, 0.3, 1.0])), num_teachers=m,
                        optim=OptimConfig(epochs=2, warmup_epochs=1))
    t_logits = scale * rng.normal(size=(m, b, k))
    y = one_hot(rng.integers(0, k, size=b), k)
    shape = (1, b, k) if rng.integers(0, 2) else (b, k)
    if loss == "cross_entropy":
        labels = rng.integers(0, k, size=(m, b) if m > 1 else b)
        return (lambda z: cross_entropy(z, labels), lambda t: tape.cross_entropy(t, labels),
                scale * rng.normal(size=(m, b, k)))
    if loss in ("kd", "aekd"):
        w = rng.dirichlet(np.ones(m), size=b) if loss == "aekd" else None
        return (lambda z: kd_loss(t_logits, z, y, cfg, w),
                lambda t: tape.kd_loss(t_logits, t, y, cfg, w), scale * rng.normal(size=shape))
    if loss == "one_to_one":
        return (lambda z: one_to_one_loss(t_logits, z, tau),
                lambda t: tape.one_to_one_loss(t_logits, t, tau),
                scale * rng.normal(size=(m, b, k)))
    probs = rng.dirichlet(np.ones(k), size=(2, b))
    probs[1, ::3] = probs[0, ::3]           # rows without a defined target
    target = proxy_dirichlet_target(probs) if b % 3 != 1 else ProxyDirichlet(
        rng.uniform(1.1, 6.0, size=(b, k)), np.arange(b) % 2 == 0)
    return (lambda z: proxy_end2_loss(z, target), lambda t: tape.proxy_end2_loss(t, target),
            scale / 30.0 * rng.normal(size=shape))


class TestClosedForms:
    """Each loss's closed-form logits gradient, and the ODS step's, against
    the tape of ``tape.py``, bit for bit; and the NumericsError each raises."""

    @pytest.mark.parametrize("loss", ["cross_entropy", "kd", "aekd", "one_to_one",
                                      "proxy_end2"])
    def test_logits_gradient_bitwise_equals_tape(self, loss):
        # at logit scales 30 and 800 some probabilities underflow to zero,
        # and every sixth case has a row of zeros of both signs
        rng = np.random.default_rng(80)
        for trial in range(120):
            program, on_tape, logits = _loss_case(loss, rng, (1.0, 30.0, 800.0)[trial % 3])
            if trial % 6 == 5:
                logits[..., 0, :] = np.where(np.arange(logits.shape[-1]) % 2, 0.0, -0.0)
            leaf = tape.Tensor(logits, requires_grad=True)
            out = on_tape(leaf)
            out.backward()
            value, grad = program(logits)
            assert grad.tobytes() == leaf.grad.tobytes()
            if loss == "proxy_end2":   # its value is dirichlet_kl_np's
                assert value == pytest.approx(out.item(), rel=1e-9, abs=1e-12)
            else:
                assert value == out.item()

    @pytest.mark.parametrize("tau", [1.0, 4.0])
    def test_ods_gradient_bitwise_equals_tape(self, tau):
        spec = ModelSpec(2, 4, (16,))
        teachers = [build_plain(spec, rng_stream(s, "init")) for s in (81, 82)]
        teachers[1].layers[-1].weight *= 100.0      # saturated probabilities
        rng = np.random.default_rng(83)
        x = 2.0 * rng.normal(size=(30, 2))
        x[0] = -0.0
        guidance = rng.uniform(-1.0, 1.0, size=(30, 4))
        members = rng.integers(0, 2, size=30)
        got, conf = _ods_gradients(teachers, x, tau, guidance, members)
        for m, teacher in enumerate(teachers):
            rows = members == m
            leaf = tape.Tensor(x[rows], requires_grad=True)
            objective = tape.ods_objective(tape.forward(teacher, leaf)[0],
                                           guidance[rows][None], tau)
            objective.backward()
            assert got[rows].tobytes() == leaf.grad.tobytes()
            assert np.array_equal(conf[rows],
                                  tape.softmax_temp(tape.forward(teacher, x[rows])[0],
                                                    tau).data[0].max(axis=1))

    @pytest.mark.parametrize("op", ["cross_entropy", "kd_loss", "aekd", "one_to_one",
                                    "proxy_end2_loss", "ods"])
    def test_overflowing_logits_name_the_loss(self, op):
        # finite logits whose log-probabilities (or exponentials) are not
        wide = np.array([[-1e308, 1e308, 0.0]])
        cfg = DistillConfig(tau=1.0, alpha=0.5, num_teachers=2,
                            optim=OptimConfig(epochs=2, warmup_epochs=1))
        calls = {
            "cross_entropy": lambda: cross_entropy(wide[None], np.array([0])),
            "kd_loss": lambda: kd_loss(np.zeros((2, 1, 3)), wide, one_hot(np.array([0]), 3),
                                       cfg),
            "aekd": lambda: kd_loss(np.zeros((2, 1, 3)), wide, one_hot(np.array([0]), 3),
                                    cfg, np.full((1, 2), 0.5)),
            "one_to_one": lambda: one_to_one_loss(np.zeros((2, 1, 3)),
                                                  np.stack([wide, wide]), 1.0),
            "proxy_end2_loss": lambda: proxy_end2_loss(np.array([[1000.0, 0.0]]),
                                                       ProxyDirichlet(np.array([[2.0, 3.0]]))),
            # logits that overflow at temperature 0.5
            "ods": lambda: _ods_gradients([wide_teacher()], np.zeros((1, 2)), 0.5,
                                          np.ones((1, 3)), np.zeros(1, dtype=int)),
        }
        name = "kd_loss" if op == "aekd" else op
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"'{name}'"):
            calls[op]()


def wide_teacher():
    """A plain net whose logits are -1e308, 1e308 and 0 at any input."""
    net = build_plain(ModelSpec(2, 3, (1,)), rng_stream(0, "init"))
    for l in net.layers:
        l.weight[:] = 0.0
    net.layers[-1].bias[0] = [-1e308, 1e308, 0.0]
    return net
