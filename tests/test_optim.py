"""Schedule shape, Nesterov update semantics, and training determinism."""

import math

import numpy as np
import pytest

import distilab.autodiff as ad
from distilab.autodiff import ShapeError, Tensor
from distilab.metrics import softmax_np
from distilab.nets import build_be, build_plain, checkpoint_save
from distilab.optim import OptimConfig, fit, lr_at, one_hot, sgd_update, train_teachers
from distilab.seeding import rng_stream


def cross_entropy(model, num_classes):
    def loss(xb, yb):
        log_probs = ad.log_softmax_temp(model.forward(Tensor(xb)), 1.0)
        return ad.scale(ad.sum(ad.mul(Tensor(one_hot(yb, num_classes)), log_probs)),
                        -1.0 / len(yb))
    return loss


def train_ce_and_accuracy(model, data):
    probs = softmax_np(model.predict_logits(data.x))
    ce = -np.log(probs[np.arange(len(data)), data.y]).mean()
    return ce, (probs.argmax(axis=1) == data.y).mean()


class TestSchedule:
    CFG = OptimConfig(base_lr=0.4, epochs=20, warmup_epochs=5)

    def test_first_step_is_hundredth_of_base(self):
        assert lr_at(self.CFG, 0, 10) == pytest.approx(0.004, abs=1e-15)

    def test_first_post_warmup_step_hits_base(self):
        assert lr_at(self.CFG, 50, 10) == pytest.approx(0.4, abs=1e-15)

    def test_final_step_closed_form(self):
        spe = 10
        total = self.CFG.epochs * spe
        warm = self.CFG.warmup_epochs * spe
        t = total - warm
        expected = 0.4 * 0.5 * (1 + math.cos(math.pi * (t - 1) / t))
        assert lr_at(self.CFG, total - 1, spe) == pytest.approx(expected, abs=1e-15)

    def test_monotone_nonincreasing_after_warmup(self):
        cfg = OptimConfig(base_lr=0.1, epochs=100, warmup_epochs=5)
        values = [lr_at(cfg, s, 10) for s in range(50, 1000)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_continuous_at_junction(self):
        spe = 17
        warm = self.CFG.warmup_epochs * spe
        before = lr_at(self.CFG, warm - 1, spe)
        at = lr_at(self.CFG, warm, spe)
        gap_per_step = 0.99 * 0.4 / warm
        assert abs(at - before) <= gap_per_step + 1e-12
        assert at == pytest.approx(0.4, abs=1e-12)

    def test_zero_warmup_starts_at_base(self):
        cfg = OptimConfig(base_lr=0.2, epochs=10, warmup_epochs=0)
        assert lr_at(cfg, 0, 5) == pytest.approx(0.2, abs=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(warmup_epochs=10, epochs=10)
        with pytest.raises(ValueError):
            OptimConfig(momentum=1.0)
        with pytest.raises(ValueError):
            OptimConfig(base_lr=0.0)


class TestSgdUpdate:
    def test_plain_sgd_reduction(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, 0.5])
        v = np.zeros(2)
        sgd_update(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p, [0.95, -2.05], atol=1e-15)

    def test_velocity_decays_geometrically_without_gradient(self):
        p = np.zeros(3)
        v = np.array([1.0, 2.0, 3.0])
        for _ in range(4):
            sgd_update(p, np.zeros(3), v, lr=0.1, momentum=0.5, weight_decay=0.0)
        np.testing.assert_allclose(v, 0.5 ** 4 * np.array([1.0, 2.0, 3.0]), atol=1e-15)

    def test_two_step_hand_trace_on_quadratic(self):
        # f(p) = p^2 / 2, grad = p; lr=0.1, momentum=0.9, start p=1:
        #   v1 = -0.1,   p1 = 1 + 0.9 v1 - 0.1       = 0.81
        #   v2 = -0.171, p2 = 0.81 + 0.9 v2 - 0.081  = 0.5751
        p = np.array([1.0])
        v = np.zeros(1)
        sgd_update(p, p.copy(), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(p[0] - 0.81) < 1e-12
        sgd_update(p, p.copy(), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(p[0] - 0.5751) < 1e-12

    def test_weight_decay_shrinks_norm_with_zero_gradient(self):
        p = np.array([3.0, -4.0])
        v = np.zeros(2)
        norms = [np.linalg.norm(p)]
        for _ in range(100):
            sgd_update(p, np.zeros(2), v, lr=0.05, momentum=0.9, weight_decay=5e-4)
            norms.append(np.linalg.norm(p))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_update(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9, 0.0)


class TestTraining:
    def test_single_teacher_reduces_to_single_training(self, tiny_task, tiny_spec,
                                                       tiny_optim):
        train, _, _ = tiny_task
        teachers = train_teachers(tiny_spec, train, 1, tiny_optim)
        solo = build_plain(tiny_spec, rng_stream(tiny_optim.seed, "init"))
        fit(solo, train, tiny_optim, cross_entropy(solo, tiny_spec.num_classes))
        x = train.x[:10]
        np.testing.assert_array_equal(teachers[0].predict_logits(x),
                                      solo.predict_logits(x))

    def test_same_seed_bit_identical_checkpoints(self, tiny_task, tiny_spec,
                                                 tiny_optim, tmp_path):
        train, _, _ = tiny_task
        paths = []
        for name in ("a", "b"):
            model = train_teachers(tiny_spec, train, 1, tiny_optim)[0]
            path = tmp_path / f"{name}.json"
            checkpoint_save(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_distinct_subseeds_give_distinct_teachers(self, tiny_task, tiny_spec,
                                                      tiny_optim):
        train, _, _ = tiny_task
        t0, t1 = train_teachers(tiny_spec, train, 2, tiny_optim)
        x = train.x[:10]
        assert not np.array_equal(t0.predict_logits(x), t1.predict_logits(x))

    def test_loss_decreases(self, tiny_task, tiny_spec):
        train, _, _ = tiny_task
        cfg = OptimConfig(epochs=30, warmup_epochs=2, batch_size=32, seed=1)
        model = build_plain(tiny_spec, rng_stream(1, "init"))
        ce_before, acc_before = train_ce_and_accuracy(model, train)
        fit(model, train, cfg, cross_entropy(model, tiny_spec.num_classes))
        ce_after, acc_after = train_ce_and_accuracy(model, train)
        assert ce_after < ce_before
        assert acc_after > max(acc_before, 0.5)

    def test_zero_gradient_decays_plain_biases_only(self, tiny_task, tiny_spec):
        train, _, _ = tiny_task
        cfg = OptimConfig(epochs=2, warmup_epochs=1, batch_size=32, seed=0)
        plain = build_plain(tiny_spec, rng_stream(0, "init"))
        factored = build_be(tiny_spec, rng_stream(0, "init"), "random_sign", members=2)
        for net in (plain, factored):
            for b in net.member_bias_parameters():
                b.data[:] = 1.0
            shared = [t.data.copy() for t in net.shared_parameters()]
            rank = [t.data.copy() for t in net.rank_parameters()]

            def zero_loss(xb, yb, net=net):
                total = None
                for member in net:
                    out = ad.sum(member.forward(Tensor(xb)))
                    total = out if total is None else ad.add(total, out)
                return ad.scale(total, 0.0)

            fit(net, train, cfg, zero_loss)
            for before, t in zip(shared, net.shared_parameters()):
                assert np.linalg.norm(t.data) < np.linalg.norm(before)
            for before, t in zip(rank, net.rank_parameters()):
                np.testing.assert_array_equal(t.data, before)
            biases = np.concatenate([b.data for b in net.member_bias_parameters()])
            if net.factored:
                np.testing.assert_array_equal(biases, 1.0)
            else:
                assert biases.max() < 1.0
