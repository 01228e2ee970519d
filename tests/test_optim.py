"""Schedule shape, Nesterov update semantics, training determinism, and the
per-member batch streams of stacked teacher training."""

import math
from dataclasses import replace

import numpy as np
import pytest

from distilab.autodiff import NumericsError, ShapeError
from distilab.data import Dataset
from distilab.metrics import batched_logits, softmax_np
from distilab.nets import build_be, build_plain, checkpoint_save
from distilab.optim import OptimConfig, cross_entropy, fit, lr_at, sgd_update, train_teachers
from distilab.seeding import rng_stream


def ce_loss(model, data):
    """fit's batch loss of one-member cross-entropy training on data."""
    def loss(rows):
        kept = model.forward_kept(data.x[rows])
        return kept, cross_entropy(kept[-1][2], data.y[rows])[1]
    return loss


def zero_loss(model, data):
    """A batch loss on data whose logits gradient is zero."""
    def loss(rows):
        kept = model.forward_kept(data.x[rows])
        return kept, np.zeros_like(kept[-1][2])
    return loss


def train_ce_and_accuracy(model, data):
    probs = softmax_np(batched_logits(model, data.x)[0])
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

    @pytest.mark.parametrize("field, value", [
        ("base_lr", float("nan")), ("base_lr", float("inf")), ("momentum", float("nan")),
        ("epochs", float("nan")), ("epochs", float("inf")), ("batch_size", float("nan")),
        ("warmup_epochs", float("nan")), ("weight_decay", float("nan")),
        ("weight_decay", float("inf")),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            OptimConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("warmup_epochs", 1.0), ("batch_size", 32.0),
        ("seed", 1.5),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            OptimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["base_lr", "momentum", "weight_decay"])
    def test_real_fields_reject_bools_and_strings(self, field):
        for value in (True, False, "0.5"):
            with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
                OptimConfig(**{field: value})
        assert getattr(OptimConfig(**{field: np.float64(0.5)}), field) == 0.5

    def test_numpy_integers_accepted(self):
        cfg = OptimConfig(epochs=np.int64(6), warmup_epochs=np.int32(1),
                          batch_size=np.int64(32), seed=np.int64(3))
        assert lr_at(cfg, 0, 5) == lr_at(OptimConfig(epochs=6, warmup_epochs=1), 0, 5)


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
        fit(solo, train, tiny_optim, ce_loss(solo, train))
        x = train.x[:10]
        np.testing.assert_array_equal(batched_logits(teachers, x),
                                      batched_logits(solo, x))

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
        assert not np.array_equal(batched_logits(t0, x), batched_logits(t1, x))

    def test_loss_decreases(self, tiny_task, tiny_spec):
        train, _, _ = tiny_task
        cfg = OptimConfig(epochs=30, warmup_epochs=2, batch_size=32, seed=1)
        model = build_plain(tiny_spec, rng_stream(1, "init"))
        ce_before, acc_before = train_ce_and_accuracy(model, train)
        fit(model, train, cfg, ce_loss(model, train))
        ce_after, acc_after = train_ce_and_accuracy(model, train)
        assert ce_after < ce_before
        assert acc_after > max(acc_before, 0.5)

    def test_zero_gradient_decays_plain_biases_only(self, tiny_task, tiny_spec):
        train, _, _ = tiny_task
        cfg = OptimConfig(epochs=2, warmup_epochs=1, batch_size=32, seed=0)
        plain = build_plain(tiny_spec, rng_stream(0, "init"))
        factored = build_be(tiny_spec, rng_stream(0, "init"), "random_sign", members=2)
        for net in (plain, factored):
            _, rank, bias = net.groups
            net.flat[bias] = 1.0
            shared = [l.weight.copy() for l in net.layers]
            factors = net.flat[rank].copy()

            fit(net, train, cfg, zero_loss(net, train))
            for before, l in zip(shared, net.layers):
                assert np.linalg.norm(l.weight) < np.linalg.norm(before)
            np.testing.assert_array_equal(net.flat[rank], factors)
            biases = net.flat[bias]
            if net.factored:
                np.testing.assert_array_equal(biases, 1.0)
            else:
                assert biases.max() < 1.0


def member_ce_grad(kept, labels):
    """The logits gradient of every member's cross-entropy to labels."""
    logits = kept[-1][2]
    return cross_entropy(logits, np.broadcast_to(labels, logits.shape[:-1]))[1]


def per_array_fit(net, data, config, rank_decay):
    """``fit`` with one batch per epoch, as one ``sgd_update`` per parameter
    array: the member-mean shared gradient, the rank pull and the decay mask
    applied array by array."""
    shuffles = [rng_stream(config.seed + m, "batch-shuffle")
                for m in range(1 if net.factored else len(net))]
    params = net.parameters()
    shared = len(net.layers)
    rank = 2 * shared if net.factored else 0
    decayed = [True] * shared + [False] * rank + [not net.factored] * len(net.layers)
    velocities = [np.zeros_like(p) for p in params]
    for step in range(config.epochs):
        orders = [s.permutation(len(data)) for s in shuffles]
        rows = orders[0] if len(orders) == 1 else np.stack(orders)
        kept = net.forward_kept(data.x[rows])
        grads = net.backward(kept, member_ce_grad(kept, data.y[rows]), True)
        for i, (p, g, v) in enumerate(zip(params, grads, velocities)):
            if i < shared and net.factored:
                g = g / len(net)
            if shared <= i < shared + rank:
                g = g + rank_decay * (p - 1.0)
            sgd_update(p, g, v, lr_at(config, step, 1), config.momentum,
                       config.weight_decay if decayed[i] else 0.0)


class TestFlatStep:
    """fit steps the net's one parameter buffer: the same bits as a step per
    array, at most two updates a step, the layer arrays updated in place."""

    @pytest.mark.parametrize("factored", [False, True])
    def test_bitwise_equals_per_array_steps(self, tiny_task, tiny_spec, factored,
                                            monkeypatch):
        train, _, _ = tiny_task
        cfg = OptimConfig(epochs=3, warmup_epochs=1, batch_size=len(train), seed=4)

        def build():
            if factored:
                return build_be(tiny_spec, rng_stream(4, "init"), "random_sign", members=2)
            return build_plain(tiny_spec, [rng_stream(s, "init") for s in (4, 5)])

        net, ref = build(), build()
        arrays = [id(p) for p in net.parameters()]
        updates = []
        monkeypatch.setattr("distilab.optim.sgd_update",
                            lambda p, *a: updates.append(p.size) or sgd_update(p, *a))

        def batch_loss(rows):
            kept = net.forward_kept(train.x[rows])
            return kept, member_ce_grad(kept, train.y[rows])

        fit(net, train, cfg, batch_loss, 0.01)
        monkeypatch.undo()
        per_array_fit(ref, train, cfg, 0.01)
        assert [id(p) for p in net.parameters()] == arrays
        assert all(p.base is net.flat for p in net.parameters())
        assert net.flat.tobytes() == ref.flat.tobytes()
        assert len(updates) == (2 if factored else 1) * cfg.epochs
        assert sum(updates) == net.flat.size * cfg.epochs


class TestStackedTeachers:
    def test_members_are_bit_equal_to_one_member_runs(self, tiny_task, tiny_spec):
        train, _, _ = tiny_task
        cfg = OptimConfig(epochs=3, warmup_epochs=1, batch_size=32, seed=4)
        assert len(train) % cfg.batch_size != 0    # the short last batch is covered
        teachers = train_teachers(tiny_spec, train, 3, cfg)
        for i in range(3):
            sub = replace(cfg, seed=cfg.seed + i)
            solo = build_plain(tiny_spec, rng_stream(sub.seed, "init"))
            fit(solo, train, sub, ce_loss(solo, train))
            for got, want in zip(teachers[i].parameters(), solo.parameters()):
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def _recorded_rows(net, n, cfg):
        """The row indices batch_loss receives in fit, one array per epoch."""
        data = Dataset(np.zeros((n, 2)), np.zeros(n, dtype=int), 3, "train")
        seen = []

        def loss(rows):
            xb, yb = data.x[rows], data.y[rows]
            assert xb.shape[:-1] == yb.shape
            seen.append(rows)
            return zero_loss(net, data)(rows)

        fit(net, data, cfg, loss)
        per_epoch = len(seen) // cfg.epochs
        return [np.concatenate(seen[e * per_epoch:(e + 1) * per_epoch], axis=-1)
                for e in range(cfg.epochs)]

    def test_plain_members_follow_their_own_streams(self, tiny_spec):
        n, cfg = 37, OptimConfig(epochs=3, warmup_epochs=1, batch_size=8, seed=11)
        net = build_plain(tiny_spec, [rng_stream(s, "init") for s in (0, 1)])
        epochs = self._recorded_rows(net, n, cfg)
        streams = [rng_stream(cfg.seed + m, "batch-shuffle") for m in range(2)]
        for rows in epochs:
            assert rows.shape == (2, n)
            for m, stream in enumerate(streams):
                np.testing.assert_array_equal(rows[m], stream.permutation(n))

    def test_factored_net_keeps_one_shared_stream(self, tiny_spec):
        n, cfg = 37, OptimConfig(epochs=3, warmup_epochs=1, batch_size=8, seed=11)
        net = build_be(tiny_spec, rng_stream(0, "init"), "random_sign", members=2)
        stream = rng_stream(cfg.seed, "batch-shuffle")
        for rows in self._recorded_rows(net, n, cfg):
            assert rows.shape == (n,)
            np.testing.assert_array_equal(rows, stream.permutation(n))


class TestNumericsStep:
    def test_non_finite_loss_names_its_step(self, tiny_task, tiny_spec):
        # steps count from 1, as step_hook sees them; step 3 blows up
        train, _, _ = tiny_task
        net = build_plain(tiny_spec, rng_stream(0, "init"))
        calls = []

        def batch_loss(rows):
            calls.append(1)
            kept = net.forward_kept(train.x[rows])
            logits = kept[-1][2]
            if len(calls) == 3:
                # finite logits whose log-probabilities are not
                logits = logits.copy()
                logits[..., 0], logits[..., 1] = 1e308, -1e308
            with np.errstate(over="ignore"):
                return kept, cross_entropy(logits, train.y[rows])[1]

        hooked = []
        cfg = OptimConfig(epochs=2, warmup_epochs=1, batch_size=32, seed=0)
        with pytest.raises(NumericsError,
                           match=r"^non-finite value produced by '\w+' at step 3$"):
            fit(net, train, cfg, batch_loss, step_hook=lambda step, _: hooked.append(step))
        assert hooked == [1, 2]
