"""Metric implementations against independent brute-force loop oracles,
temperature-fitting behavior, and diversity/entropy contracts."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from distilab.metrics import (GOLDEN, _grid_nll, _mean_probs, accuracy,
                              calibrated_metrics, diversity_from_probs, ece,
                              entropy_histogram, entropy_values, fit_temperature,
                              evaluate_model, nll, nll_with_stats,
                              pairwise_divergence_values, softmax_np)


def random_probs(rng, n, k):
    raw = rng.uniform(0.05, 1.0, size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


# -- independent oracles -------------------------------------------------------

def accuracy_loop(probs, labels):
    hits = 0
    for row, label in zip(probs, labels):
        best = 0
        for k in range(1, len(row)):
            if row[k] > row[best]:
                best = k
        hits += int(best == label)
    return hits / len(labels)


def nll_loop(probs, labels):
    total = 0.0
    for row, label in zip(probs, labels):
        total -= math.log(max(row[label], 1e-12))
    return total


def ece_loop(probs, labels, bins=15):
    assignments = [[] for _ in range(bins)]
    for row, label in zip(probs, labels):
        conf = max(row)
        idx = 0
        for l in range(1, bins + 1):
            if (l - 1) / bins < conf <= l / bins:
                idx = l
                break
        if conf == 0.0:
            idx = 1
        correct = int(np.argmax(row) == label)
        assignments[idx - 1].append((correct, conf))
    total = 0.0
    for bucket in assignments:
        if not bucket:
            continue
        acc = sum(c for c, _ in bucket) / len(bucket)
        conf = sum(c for _, c in bucket) / len(bucket)
        total += len(bucket) / len(labels) * abs(acc - conf)
    return total


def diversity_loop(probs):
    m, n, k = probs.shape
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for b in range(n):
                for c in range(k):
                    pi, pj = probs[i, b, c], probs[j, b, c]
                    total += pi * (math.log(pi) - math.log(pj))
    return total / (m * (m - 1)) / n


class TestAccuracy:
    def test_one_hot_correct(self):
        probs = np.eye(3)[np.array([0, 1, 2, 1])]
        assert accuracy(probs, np.array([0, 1, 2, 1])) == 1.0

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(probs, np.array([0])) == 1.0
        assert accuracy(probs, np.array([1])) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        probs = random_probs(rng, 100, 3)
        labels = rng.integers(0, 3, size=100)
        assert accuracy(probs, labels) == accuracy_loop(probs, labels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            accuracy(np.array([[0.5, 0.2]]), np.array([0]))


class TestNll:
    def test_perfect_predictions_give_zero(self):
        probs = np.eye(4)[np.array([2, 0])]
        # exact one-hot rows hit the clamp floor on off-terms but not the
        # picked entries, so the sum is exactly zero
        assert nll(probs, np.array([2, 0])) == 0.0

    def test_single_half_probability_is_ln2(self):
        assert nll(np.array([[0.5, 0.5]]), np.array([0])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_matches_loop_oracle_to_float_precision(self):
        # the loop sums sequentially, numpy pairwise; agreement is exact up
        # to summation-order ulps
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs = random_probs(rng, 40, 4)
            labels = rng.integers(0, 4, size=40)
            assert nll(probs, labels) == pytest.approx(nll_loop(probs, labels),
                                                       rel=1e-14)

    def test_clamp_counter(self):
        probs = np.array([[1.0, 0.0], [0.6, 0.4]])
        total, mean, clamped = nll_with_stats(probs, np.array([1, 0]))
        assert clamped == 1
        assert total == pytest.approx(-math.log(1e-12) - math.log(0.6))


class TestEce:
    def test_perfectly_calibrated_bins_give_zero(self):
        # one bin at confidence 0.8 with exactly 80% accuracy
        probs = np.array([[0.8, 0.2]] * 5)
        labels = np.array([0, 0, 0, 0, 1])
        assert ece(probs, labels) == pytest.approx(0.0, abs=1e-15)

    def test_two_sample_hand_case(self):
        # (conf .8, correct) and (conf .6, wrong): 0.5*0.2 + 0.5*0.6 = 0.4
        probs = np.array([[0.8, 0.2], [0.6, 0.4]])
        labels = np.array([0, 1])
        assert ece(probs, labels, bins=15) == pytest.approx(0.4, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            probs = random_probs(rng, int(rng.integers(1, 60)), k)
            labels = rng.integers(0, k, size=len(probs))
            assert abs(ece(probs, labels) - ece_loop(probs, labels)) < 1e-12

    def test_one_bin_degenerate_dataset(self):
        probs = np.array([[0.62, 0.38]] * 10)
        labels = np.array([0] * 7 + [1] * 3)
        assert ece(probs, labels) == pytest.approx(abs(0.7 - 0.62), abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        probs = random_probs(rng, 50, 3)
        labels = rng.integers(0, 3, size=50)
        assert 0.0 <= ece(probs, labels) <= 1.0


class TestTemperature:
    def test_recovers_unit_temperature_for_true_probabilities(self):
        rng = np.random.default_rng(4)
        probs = random_probs(rng, 6000, 3)
        labels = np.array([rng.choice(3, p=row) for row in probs])
        tau = fit_temperature(np.log(probs), labels)
        assert abs(tau - 1.0) < 1e-2

    def test_logit_scaling_scales_tau(self):
        rng = np.random.default_rng(5)
        probs = random_probs(rng, 6000, 3)
        labels = np.array([rng.choice(3, p=row) for row in probs])
        t1 = fit_temperature(np.log(probs), labels)
        t2 = fit_temperature(2.0 * np.log(probs), labels)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-2)

    def test_calibrated_nll_never_worse_than_raw(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(400, 4)) * 3
        labels = rng.integers(0, 4, size=400)
        tau = fit_temperature(logits, labels)
        cnll, _ = calibrated_metrics(logits, labels, tau)
        assert cnll <= nll(softmax_np(logits), labels) + 1e-9

    def test_bracket_widens_when_needed(self):
        rng = np.random.default_rng(7)
        probs = random_probs(rng, 2000, 3)
        labels = np.array([rng.choice(3, p=row) for row in probs])
        # logits scaled down 30x push the optimum temperature near 1/30
        tau = fit_temperature(np.log(probs) / 30.0, labels)
        assert tau < 0.05

    def test_unit_temperature_reproduces_raw_metrics(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(100, 3))
        labels = rng.integers(0, 3, size=100)
        cnll, cece = calibrated_metrics(logits, labels, 1.0)
        probs = softmax_np(logits)
        assert cnll == pytest.approx(nll(probs, labels), abs=1e-12)
        assert cece == pytest.approx(ece(probs, labels), abs=1e-15)

    def test_accuracy_invariant_across_temperatures(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(200, 5)) * 4
        labels = rng.integers(0, 5, size=200)
        base = accuracy(softmax_np(logits), labels)
        for tau in (0.1, 1.0, 4.0, 10.0):
            assert accuracy(softmax_np(logits, tau), labels) == base


class TestSoftmax:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_bitwise_equals_the_reduction_form(self, k):
        # the column-by-column row max against numpy's max over the last axis,
        # with ties, signed zeros and rows whose other classes underflow
        rng = np.random.default_rng(20 + k)
        logits = rng.normal(size=(2, 300, k)) * 5
        logits[:, :40] = np.round(logits[:, :40])
        logits[:, 40:80] = rng.choice([0.0, -0.0, -800.0], size=(2, 40, k))
        for tau in (0.5, 1.0, 4.0):
            z = logits / tau
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            want = e / e.sum(axis=-1, keepdims=True)
            got = softmax_np(logits, tau)
            assert got.tobytes() == want.tobytes()
            assert softmax_np(logits[0, 0], tau).tobytes() == want[0, 0].tobytes()


def fit_temperature_loop(val_logits, val_labels, lo=0.05, hi=10.0):
    """The temperature search scoring its coarse grid one temperature at a
    time, as ``fit_temperature`` did before the grid became one array pass."""
    def objective(tau):
        return nll(_mean_probs(val_logits, tau), val_labels)

    for _ in range(4):
        grid = np.geomspace(lo, hi, 100)
        values = np.array([objective(t) for t in grid])
        best = int(values.argmin())
        if best == 0:
            lo = lo / 2.0
        elif best == len(grid) - 1:
            hi = hi * 2.0
        else:
            break
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while abs(b - a) > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
    return float((a + b) / 2.0)


def grid_case(members, n, k, seed):
    """Logits of `members` members ((N, K) when members is None) spread around
    shared logits, and labels drawn from the shared logits' softmax."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, k)) * 3.0
    cdf = np.cumsum(softmax_np(base), axis=1)
    labels = np.minimum((rng.random((n, 1)) > cdf).sum(axis=1), k - 1)
    if members is None:
        return base, labels
    return base + rng.normal(size=(members, n, k)), labels


class TestTemperatureGrid:
    """The coarse grid is scored for every temperature in one array pass; each
    temperature must get the bytes of the one-temperature objective."""

    @pytest.mark.parametrize("members", [None, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("n", [4, 150, 400])
    def test_grid_equals_one_temperature_at_a_time(self, members, k, n):
        logits, labels = grid_case(members, n, k, seed=1000 + 10 * k + n)
        for lo, hi in ((0.05, 10.0), (0.00625, 10.0), (0.05, 80.0)):
            grid = np.geomspace(lo, hi, 100)
            loop = np.array([nll(_mean_probs(logits, t), labels) for t in grid])
            assert _grid_nll(logits, labels, grid).tobytes() == loop.tobytes()
        assert fit_temperature(logits, labels) == fit_temperature_loop(logits, labels)

    def test_blocks_of_temperatures_are_seamless(self):
        # 4 x 2000 x 8 logits put a few temperatures in each block
        logits, labels = grid_case(4, 2000, 8, seed=17)
        grid = np.geomspace(0.05, 10.0, 100)
        loop = np.array([nll(_mean_probs(logits, t), labels) for t in grid])
        assert _grid_nll(logits, labels, grid).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("members", [None, 2])
    def test_widened_bracket_on_downscaled_logits(self, members):
        logits, labels = grid_case(members, 300, 3, seed=23)
        tau = fit_temperature(logits / 30.0, labels)
        assert tau < 0.05
        assert tau == fit_temperature_loop(logits / 30.0, labels)

    def test_widened_bracket_on_a_separable_validation_set(self):
        # four rows each predicted right by a wide margin: the NLL keeps
        # falling as tau shrinks, so the bracket widens on its low side
        logits = np.array([[4.0, 0.0, -1.0], [0.5, 5.0, 0.0],
                           [-2.0, 0.0, 3.0], [6.0, 1.0, 0.0]])
        labels = np.array([0, 1, 2, 0])
        tau = fit_temperature(logits, labels)
        assert tau < 0.05 / 4
        assert tau == fit_temperature_loop(logits, labels)
        members = np.stack([logits, logits + 0.25])
        assert fit_temperature(members, labels) == fit_temperature_loop(members, labels)

    def test_rejects_logits_of_other_ranks(self):
        with pytest.raises(ValueError):
            fit_temperature(np.zeros(5), np.zeros(5, dtype=int))


class TestDiversity:
    PAIR = np.array([[[0.5, 0.5]], [[0.9, 0.1]]])

    def test_identical_models_give_zero(self):
        probs = np.array([[[0.3, 0.7]], [[0.3, 0.7]]])
        assert diversity_from_probs(probs) == pytest.approx(0.0, abs=1e-15)

    def test_two_member_pair_value(self):
        assert diversity_from_probs(self.PAIR) == pytest.approx(0.439445, abs=1e-6)

    def test_permutation_symmetric(self):
        rng = np.random.default_rng(10)
        probs = np.stack([random_probs(rng, 8, 3) for _ in range(4)])
        base = diversity_from_probs(probs)
        shuffled = probs[[2, 0, 3, 1]]
        assert diversity_from_probs(shuffled) == pytest.approx(base, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        probs = np.stack([random_probs(rng, 5, 3) for _ in range(3)])
        assert diversity_from_probs(probs) == pytest.approx(
            diversity_loop(probs), abs=1e-12)

    @pytest.mark.parametrize("members", [2, 3, 4])
    def test_bitwise_equals_pair_loop(self, members):
        # each ordered pair's KL is numpy's row sum, added in i-major order
        rng = np.random.default_rng(13)
        probs = np.stack([random_probs(rng, 50, 3) for _ in range(members)])
        logs = np.log(np.maximum(probs, 1e-12))
        want = np.zeros(50)
        for i in range(members):
            for j in range(members):
                if i != j:
                    want += (probs[i] * (logs[i] - logs[j])).sum(axis=-1)
        want = want / (members * (members - 1))
        assert pairwise_divergence_values(probs).tobytes() == want.tobytes()

    def test_nonnegative_and_needs_two_members(self):
        rng = np.random.default_rng(12)
        probs = np.stack([random_probs(rng, 6, 4) for _ in range(2)])
        assert diversity_from_probs(probs) >= 0.0
        with pytest.raises(ValueError):
            pairwise_divergence_values(probs[:1])

    def test_model_level_diversity(self):
        from distilab.metrics import diversity
        from distilab.nets import ModelSpec, build_plain, join
        from distilab.seeding import rng_stream
        models = [build_plain(ModelSpec(2, 3, (8,)), rng_stream(s, "init"))
                  for s in (0, 1)]
        x = np.random.default_rng(15).normal(size=(12, 2))
        assert diversity(join([models[0], models[0]]), x) == pytest.approx(0.0, abs=1e-15)
        from distilab.metrics import batched_logits
        probs = np.stack([softmax_np(batched_logits(m, x)[0]) for m in models])
        assert diversity(join(models), x) == pytest.approx(diversity_from_probs(probs),
                                                           abs=1e-15)


class TestEntropyHistogram:
    def test_one_hot_mass_in_first_bin(self):
        probs = np.eye(3)[np.array([0, 1, 2, 0])]
        hist = entropy_histogram(probs, bins=10)
        assert hist.counts[0] == 4 and hist.counts[1:].sum() == 0

    def test_uniform_mass_in_last_bin(self):
        probs = np.full((6, 4), 0.25)
        hist = entropy_histogram(probs, bins=10)
        assert hist.counts[-1] == 6 and hist.counts[:-1].sum() == 0

    def test_counts_sum_to_samples(self):
        rng = np.random.default_rng(13)
        probs = random_probs(rng, 77, 5)
        hist = entropy_histogram(probs, bins=30)
        assert hist.counts.sum() == 77
        assert hist.edges[0] == 0.0
        assert hist.edges[-1] == pytest.approx(math.log(5), abs=1e-15)

    def test_mean_entropy_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        probs = random_probs(rng, 50, 4)
        mean = entropy_values(probs).mean()
        loop = np.mean([-sum(p * math.log(p) for p in row if p > 0) for row in probs])
        assert mean == pytest.approx(loop, abs=1e-12)


class TestEvaluateModel:
    def test_report_carries_the_mean_test_probabilities(self):
        from distilab.metrics import batched_logits
        from distilab.nets import ModelSpec, build_plain
        from distilab.seeding import rng_stream
        model = build_plain(ModelSpec(2, 3, (8,)), rng_stream(3, "init"))
        rng = np.random.default_rng(16)
        test = SimpleNamespace(x=rng.normal(size=(20, 2)), y=rng.integers(0, 3, 20))
        val = SimpleNamespace(x=rng.normal(size=(10, 2)), y=rng.integers(0, 3, 10))
        report = evaluate_model(model, test, val)
        probs = _mean_probs(batched_logits(model, test.x), 1.0)
        assert report.probs.tobytes() == probs.tobytes()
        # equality reads the metrics alone
        assert dataclasses.replace(report) == report
