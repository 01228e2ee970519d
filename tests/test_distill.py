"""Distillation losses and loops.

The one-to-one update is checked against an independent single-step
reimplementation (explicit chain rule in plain numpy); the adaptive-weights
QP against a fine grid search; the Dirichlet reverse KL against numerical
integration over the simplex.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import distilab.autodiff as ad
from distilab.autodiff import Tensor
from distilab.data import Dataset
from distilab.distill import (AEKDConfig, DegenerateEnsembleError, DistillConfig,
                              ProxyDirichlet, _aekd_weights_batch,
                              _project_capped_simplex, aekd_weights,
                              dirichlet_kl, dirichlet_kl_np, distill_aekd,
                              distill_be, distill_kd, distill_latentbe,
                              distill_proxy_end2, kd_loss,
                              proxy_dirichlet_target, proxy_end2_loss)
from distilab.metrics import softmax_np
from distilab.nets import ModelSpec, build_be
from distilab.optim import OptimConfig, one_hot
from distilab.seeding import rng_stream
from test_autodiff import check_grad


def stub_teacher(probs, tau=1.0):
    """Model-like object whose tau-softened outputs equal probs exactly."""
    logits = tau * np.log(np.asarray(probs, dtype=np.float64))

    def predict(x):
        return np.tile(logits, (len(x), 1))

    return SimpleNamespace(predict_logits=predict,
                           spec=SimpleNamespace(num_classes=logits.shape[-1]))


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
        student_logits = Tensor(2.0 * np.log(p)[None, :], requires_grad=True)
        loss = kd_loss(stub_logits([p], 1, tau=2.0), student_logits,
                       one_hot(np.array([0]), 2), cfg)
        floor = 4.0 * -(p * np.log(p)).sum()
        assert loss.item() == pytest.approx(floor, abs=1e-12)

    def test_alpha_zero_is_plain_cross_entropy(self):
        logits = Tensor(np.array([[2.0, 0.0, -1.0]]), requires_grad=True)
        cfg = self._cfg(alpha=0.0, m=1)
        loss = kd_loss(stub_logits([[0.2, 0.5, 0.3]], 1), logits,
                       one_hot(np.array([1]), 3), cfg)
        expected = -math.log(softmax_np(logits.data)[0, 1])
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_two_teacher_scalar_case(self):
        # direct evaluation of 0.5 * (H[p_T1, p_S] + H[p_T2, p_S])
        p_s = np.array([0.7, 0.3])
        h1 = -(0.9 * math.log(0.7) + 0.1 * math.log(0.3))
        h2 = -(0.5 * math.log(0.7) + 0.5 * math.log(0.3))
        expected = 0.5 * (h1 + h2)  # = 0.610864 (also H of the mean teacher)
        cfg = self._cfg()
        loss = kd_loss(stub_logits([[0.9, 0.1], [0.5, 0.5]], 1),
                       Tensor(np.log(p_s)[None, :], requires_grad=True),
                       one_hot(np.array([0]), 2), cfg)
        assert loss.item() == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.610864, abs=1e-6)

    def test_mean_teacher_equivalence(self):
        # linearity of cross-entropy: per-teacher mean equals mean-teacher target
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.1, 1.0, size=(3, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        student = rng.normal(size=(5, 4))
        cfg = self._cfg(tau=1.0, m=3)
        loss = kd_loss(stub_logits(probs, 5), Tensor(student, requires_grad=True),
                       one_hot(np.zeros(5, dtype=int), 4), cfg)
        log_q = np.log(softmax_np(student))
        expected = -(probs.mean(axis=0)[None, :] * log_q).sum(axis=1).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        teacher_logits = stub_logits([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]], 4)
        y = one_hot(rng.integers(0, 3, size=4), 3)
        cfg = DistillConfig(tau=3.0, alpha=0.7, num_teachers=2,
                            optim=OptimConfig(epochs=2, warmup_epochs=1))
        logits = rng.normal(size=(4, 3))
        check_grad(lambda t: kd_loss(teacher_logits, t, y, cfg), [logits], rel_tol=1e-5)

    def test_explicit_uniform_weights_match_kd(self):
        rng = np.random.default_rng(2)
        teacher_logits = rng.normal(size=(3, 6, 4))
        student = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        y = one_hot(rng.integers(0, 4, size=6), 4)
        for alpha in (1.0, 0.4):
            cfg = DistillConfig(tau=2.5, alpha=alpha, num_teachers=3,
                                optim=OptimConfig(epochs=2, warmup_epochs=1))
            uniform = kd_loss(teacher_logits, student, y, cfg, np.full((6, 3), 1.0 / 3))
            plain = kd_loss(teacher_logits, student, y, cfg)
            assert uniform.item() == pytest.approx(plain.item(), abs=1e-12)


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
                l.r[m].data[:] += 0.2 * rng.normal(size=l.r[m].data.shape)
                l.s[m].data[:] += 0.2 * rng.normal(size=l.s[m].data.shape)
                l.bias[m].data[:] = 0.1 * rng.normal(size=l.bias[m].data.shape)
        return spec, student

    def test_single_step_matches_hand_oracle(self, ):
        spec, student = self._toy()
        x = np.array([[0.3, -1.2], [0.8, 0.5]])
        train = Dataset(x, np.array([0, 1]), 2, "train")
        tau, lr = 2.0, 0.25
        t_probs = [np.tile([0.8, 0.2], (2, 1)), np.tile([0.35, 0.65], (2, 1))]
        teachers = [stub_teacher([0.8, 0.2], tau), stub_teacher([0.35, 0.65], tau)]
        layers = [(l.weight.data.copy(), [r.data.copy() for r in l.r],
                   [s.data.copy() for s in l.s], [b.data.copy() for b in l.bias])
                  for l in student.layers]
        expected = hand_one_to_one_step(
            x, t_probs,
            [(w, r, s, b) for (w, r, s, b) in layers], tau, lr)

        cfg = DistillConfig(tau=tau, num_teachers=2,
                            optim=OptimConfig(base_lr=lr, momentum=0.0,
                                              weight_decay=0.0, epochs=1,
                                              warmup_epochs=0, batch_size=4, seed=0))
        distill_be(teachers, student, train, cfg)
        got0, got1 = student.layers
        np.testing.assert_allclose(got0.weight.data, expected["w0"], atol=1e-10)
        np.testing.assert_allclose(got1.weight.data, expected["w1"], atol=1e-10)
        for m in range(2):
            np.testing.assert_allclose(got0.r[m].data, expected[f"r0_{m}"], atol=1e-10)
            np.testing.assert_allclose(got0.s[m].data, expected[f"s0_{m}"], atol=1e-10)
            np.testing.assert_allclose(got1.r[m].data, expected[f"r1_{m}"], atol=1e-10)
            np.testing.assert_allclose(got1.s[m].data, expected[f"s1_{m}"], atol=1e-10)
            np.testing.assert_allclose(got0.bias[m].data, expected[f"b0_{m}"], atol=1e-10)
            np.testing.assert_allclose(got1.bias[m].data, expected[f"b1_{m}"], atol=1e-10)

    def test_member_count_mismatch_rejected(self, tiny_task, tiny_teachers):
        train, _, _ = tiny_task
        spec = ModelSpec(2, 3, (16, 16))
        student = build_be(spec, rng_stream(0, "init"), "ones", members=3)
        cfg = DistillConfig(num_teachers=2, optim=OptimConfig(epochs=1, warmup_epochs=0))
        with pytest.raises(ValueError, match="members"):
            distill_be(tiny_teachers, student, train, cfg)

    def test_single_member_loss_is_kd_alpha_one(self):
        # with M=1 the member loss equals the temperature-scaled KD loss
        spec, student = self._toy(m_count=1)
        x = np.array([[0.4, -0.2]])
        tau = 3.0
        log_p = ad.log_softmax_temp(student[0].forward(Tensor(x)), tau)
        member_loss = ad.scale(ad.sum(ad.mul(Tensor(np.tile([0.3, 0.7], (1, 1))),
                                             log_p)), -tau * tau)
        cfg = DistillConfig(tau=tau, alpha=1.0, num_teachers=1,
                            optim=OptimConfig(epochs=2, warmup_epochs=1))
        from distilab.nets import average_rank_one
        plain = average_rank_one(student)  # a one-member average is that member
        kd = kd_loss(stub_logits([[0.3, 0.7]], 1, tau), plain.forward(Tensor(x)),
                     one_hot(np.array([0]), 2), cfg)
        assert member_loss.item() == pytest.approx(kd.item(), rel=1e-12)


class TestLatentBE:
    def test_reduces_to_one_to_one_bit_exactly(self, tiny_task, tiny_teachers,
                                               tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, rank_decay=0.0, perturbation="none",
                            optim=OptimConfig(epochs=6, warmup_epochs=1,
                                              batch_size=32, seed=3))
        _, latent_student = distill_latentbe(tiny_teachers, tiny_spec, train, cfg)
        be_student = build_be(tiny_spec, rng_stream(3, "init"), "ones", members=2)
        distill_be(tiny_teachers, be_student, train, cfg)
        for la, lb in zip(latent_student.layers, be_student.layers):
            assert la.weight.data.tobytes() == lb.weight.data.tobytes()
            for m in range(2):
                assert la.r[m].data.tobytes() == lb.r[m].data.tobytes()
                assert la.s[m].data.tobytes() == lb.s[m].data.tobytes()
                assert la.bias[m].data.tobytes() == lb.bias[m].data.tobytes()

    def test_huge_rank_decay_pins_factors_at_ones(self, tiny_task, tiny_teachers,
                                                  tiny_spec):
        # contraction requires lr * decay < 1, hence the tiny learning rate
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, rank_decay=1e6,
                            optim=OptimConfig(base_lr=1e-9, momentum=0.0,
                                              epochs=5, warmup_epochs=4,
                                              batch_size=16, seed=1))
        _, student = distill_latentbe(tiny_teachers, tiny_spec, train, cfg)
        for l in student.layers:
            for m in range(2):
                assert np.abs(l.r[m].data - 1.0).max() < 1e-3
                assert np.abs(l.s[m].data - 1.0).max() < 1e-3

    def test_zero_gamma_matches_no_perturbation_bit_exactly(self, tiny_task,
                                                            tiny_teachers,
                                                            tiny_spec):
        train, _, _ = tiny_task
        base = DistillConfig(num_teachers=2,
                             optim=OptimConfig(epochs=4, warmup_epochs=1,
                                               batch_size=32, seed=5))
        cfg_none = replace(base, perturbation="none")
        cfg_zero = replace(base, perturbation="tdiv_sdiv", gamma=0.0)
        _, s_none = distill_latentbe(tiny_teachers, tiny_spec, train, cfg_none)
        _, s_zero = distill_latentbe(tiny_teachers, tiny_spec, train, cfg_zero)
        for la, lb in zip(s_none.layers, s_zero.layers):
            assert la.weight.data.tobytes() == lb.weight.data.tobytes()

    def test_returns_average_and_factored_student(self, tiny_task, tiny_teachers,
                                                  tiny_spec):
        from distilab.nets import average_rank_one
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2,
                            optim=OptimConfig(epochs=2, warmup_epochs=1,
                                              batch_size=32, seed=0))
        averaged, student = distill_latentbe(tiny_teachers, tiny_spec, train, cfg)
        assert (len(averaged), averaged.factored) == (1, False)
        assert (len(student), student.factored) == (2, True)
        rebuilt = average_rank_one(student)
        x = train.x[:8]
        np.testing.assert_array_equal(averaged.predict_logits(x),
                                      rebuilt.predict_logits(x))

    def test_plain_methods_reject_tdiv_sdiv(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2, perturbation="tdiv_sdiv",
                            optim=OptimConfig(epochs=1, warmup_epochs=0, seed=0))
        with pytest.raises(ValueError, match="factored"):
            distill_kd(tiny_teachers, tiny_spec, train, cfg)

    def test_unknown_perturbation_kind_rejected(self):
        with pytest.raises(ValueError, match="perturbation"):
            DistillConfig(perturbation="pgd")


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
        for m in (2, 3, 5):  # m=5 exercises the projected-gradient path
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
        probs = rng.uniform(0.05, 1.0, size=(2, 10, 3))
        probs /= probs.sum(axis=-1, keepdims=True)
        student = rng.uniform(0.05, 1.0, size=(10, 3))
        student /= student.sum(axis=-1, keepdims=True)
        batch = _aekd_weights_batch(probs, student, tau=2.0, c=0.7)
        for b in range(10):
            single = aekd_weights(probs[:, b], student[b], tau=2.0, c=0.7)
            np.testing.assert_allclose(batch[b], single, atol=1e-8)

    def test_projection_operator(self):
        v = np.array([0.9, 0.4, -0.2, 0.1])
        w = _project_capped_simplex(v, 0.5)
        assert abs(w.sum() - 1.0) < 1e-12
        assert w.min() >= 0.0 and w.max() <= 0.5 + 1e-12


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
        logits = Tensor(np.log(beta - 1.0), requires_grad=True)
        loss = proxy_end2_loss(logits, ProxyDirichlet(beta))
        assert abs(loss.item()) < 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            beta = rng.uniform(1.1, 6.0, size=(1, k))
            logits = Tensor(rng.normal(size=(1, k)), requires_grad=True)
            assert proxy_end2_loss(logits, ProxyDirichlet(beta)).item() > -1e-12

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
        loss = proxy_end2_loss(Tensor(logits_np, requires_grad=True),
                               ProxyDirichlet(beta))
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_degenerate_row_gets_no_weight(self):
        good = np.array([[0.9, 0.1], [0.5, 0.5]])   # two teachers that disagree
        agree = np.array([[0.4, 0.6], [0.4, 0.6]])  # two teachers that agree
        target = proxy_dirichlet_target(np.stack([good, agree], axis=1))
        assert target.defined.tolist() == [True, False]
        logits = Tensor(np.array([[0.4, -0.3], [0.2, 0.1]]), requires_grad=True)
        loss = proxy_end2_loss(logits, target)
        good_loss = proxy_end2_loss(Tensor(logits.data[:1], requires_grad=True),
                                    proxy_dirichlet_target(good[:, None, :]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(good_loss.item() / 2, rel=1e-12)
        loss.backward()
        np.testing.assert_array_equal(logits.grad[1], 0.0)
        assert np.all(logits.grad[0] != 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        beta = rng.uniform(1.2, 4.0, size=(3, 3))
        target = ProxyDirichlet(beta)
        check_grad(lambda t: proxy_end2_loss(t, target),
                   [rng.normal(size=(3, 3))], rel_tol=1e-5)

    def test_tensor_kl_matches_numpy_kl(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(1.1, 5.0, size=(4, 3))
        b = rng.uniform(1.1, 5.0, size=(4, 3))
        got = dirichlet_kl(Tensor(a, requires_grad=True), b)
        np.testing.assert_allclose(got.data, dirichlet_kl_np(a, b), atol=1e-12)


class TestPlainLoops:
    def test_kd_student_learns(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, test = tiny_task
        cfg = DistillConfig(num_teachers=2,
                            optim=OptimConfig(epochs=25, warmup_epochs=2,
                                              batch_size=32, seed=0))
        student = distill_kd(tiny_teachers, tiny_spec, train, cfg)
        preds = softmax_np(student.predict_logits(test.x)).argmax(axis=1)
        assert (preds == test.y).mean() > 0.6

    def test_aekd_loop_runs(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2,
                            optim=OptimConfig(epochs=3, warmup_epochs=1,
                                              batch_size=32, seed=0))
        student = distill_aekd(tiny_teachers, tiny_spec, train, cfg, AEKDConfig(0.6))
        assert student.head == "softmax"

    def test_aekd_step_runs_each_teacher_once(self, tiny_task, tiny_teachers, tiny_spec):
        train, _, _ = tiny_task
        calls = []
        teachers = [t.copy() for t in tiny_teachers]
        for i, t in enumerate(teachers):
            def counted(x, _i=i, _predict=t.predict_logits):
                calls.append(_i)
                return _predict(x)
            t.predict_logits = counted
        cfg = DistillConfig(num_teachers=2,
                            optim=OptimConfig(epochs=1, warmup_epochs=0,
                                              batch_size=len(train), seed=0))
        distill_aekd(teachers, tiny_spec, train, cfg, AEKDConfig(0.6))
        assert sorted(calls) == [0, 1]

    def test_proxy_loop_produces_dirichlet_head(self, tiny_task, tiny_teachers,
                                                tiny_spec):
        train, _, _ = tiny_task
        cfg = DistillConfig(num_teachers=2,
                            optim=OptimConfig(epochs=3, warmup_epochs=1,
                                              batch_size=32, seed=0))
        student = distill_proxy_end2(tiny_teachers, tiny_spec, train, cfg)
        assert student.head == "dirichlet"
