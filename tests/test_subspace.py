"""Line interpolation between subnetworks, scan/barrier mechanics, and the
endpoint diversity trace."""

import numpy as np
import pytest

from distilab.data import make_mixture
from distilab.metrics import batched_logits, softmax_np
from distilab.nets import ModelSpec, average_rank_one, build_be
from distilab.seeding import rng_stream
from distilab.subspace import (EndpointTrace, default_grid, interpolate,
                               line_scan, pairwise_barriers)


@pytest.fixture(scope="module")
def pair_student():
    spec = ModelSpec(2, 3, (16,))
    model = build_be(spec, rng_stream(1, "init"), "ones", members=2)
    rng = np.random.default_rng(2)
    for l in model.layers:
        for m in range(2):
            l.r.data[m] += 0.4 * rng.normal(size=l.r.data[m].shape)
            l.s.data[m] += 0.4 * rng.normal(size=l.s.data[m].shape)
            l.bias.data[m] = 0.2 * rng.normal(size=l.bias.data[m].shape)
    return model


@pytest.fixture(scope="module")
def small_task():
    return make_mixture(3, 2, 40, 0.6, seed=8)


class TestDefaultGrid:
    def test_strictly_increasing_with_exact_anchors(self):
        ts = default_grid()
        assert (np.diff(ts) > 0).all()
        for anchor in (0.0, 0.5, 1.0):
            assert np.any(ts == anchor)
        assert ts[0] == -0.25 and ts[-1] == 1.25


class TestInterpolate:
    def test_endpoints_are_members_exactly(self, pair_student):
        x = np.random.default_rng(3).normal(size=(7, 2))
        members = batched_logits(pair_student, x)
        np.testing.assert_array_equal(batched_logits(interpolate(pair_student, 0.0), x)[0],
                                      members[0])
        np.testing.assert_array_equal(batched_logits(interpolate(pair_student, 1.0), x)[0],
                                      members[1])

    def test_midpoint_equals_rank_one_average(self, pair_student):
        mid = interpolate(pair_student, 0.5)
        avg = average_rank_one(pair_student)
        for la, lb in zip(mid.layers, avg.layers):
            assert np.abs(la.weight.data - lb.weight.data).max() < 1e-12
            assert np.abs(la.bias.data[0] - lb.bias.data[0]).max() < 1e-12

    def test_affine_in_t(self, pair_student):
        a, b = 0.15, 0.85
        mid = interpolate(pair_student, (a + b) / 2)
        wa = interpolate(pair_student, a)
        wb = interpolate(pair_student, b)
        for lm, la, lb in zip(mid.layers, wa.layers, wb.layers):
            np.testing.assert_allclose(lm.weight.data,
                                       (la.weight.data + lb.weight.data) / 2,
                                       atol=1e-15)

    def test_requires_two_members(self):
        spec = ModelSpec(2, 3, (8,))
        model = build_be(spec, rng_stream(4, "init"), "ones", members=3)
        with pytest.raises(ValueError):
            interpolate(model, 0.5)


class TestLineScan:
    def test_identical_members_give_flat_scan_and_zero_barrier(self, small_task):
        # the interpolation arithmetic (1-t) W + t W rounds per grid point,
        # so "exactly zero" means zero up to last-ulp noise in the losses
        train, _, test = small_task
        spec = ModelSpec(2, 3, (16,))
        model = build_be(spec, rng_stream(5, "init"), "ones", members=2)
        scan = line_scan(model, train, test)
        assert scan.barrier < 1e-12
        assert np.ptp(scan.train_loss) < 1e-12

    def test_endpoint_rows_match_member_evaluation(self, pair_student, small_task):
        train, _, test = small_task
        scan = line_scan(pair_student, train, test)
        member0 = pair_student[0]
        probs = softmax_np(batched_logits(member0, test.x)[0])
        err0 = 1.0 - (probs.argmax(axis=1) == test.y).mean()
        assert scan.test_err[scan.ts == 0.0][0] == err0

    def test_barrier_nonnegative_and_grid_validated(self, pair_student, small_task):
        train, _, test = small_task
        scan = line_scan(pair_student, train, test)
        assert scan.barrier >= 0.0
        with pytest.raises(ValueError):
            line_scan(pair_student, train, test, grid=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            line_scan(pair_student, train, test, grid=np.array([1.0, 0.5, 0.0]))

    def test_pairwise_barriers_extension(self, small_task):
        train, _, test = small_task
        spec = ModelSpec(2, 3, (8,))
        model = build_be(spec, rng_stream(6, "init"), "random_sign", members=3)
        report = pairwise_barriers(model, train, test)
        assert len(report["pairs"]) == 3
        assert report["max_barrier"] == max(report["pairs"].values())
        assert "M>2" in report["note"]


class TestEndpointTrace:
    def test_ones_init_has_exactly_zero_diversity(self, small_task):
        train, _, test = small_task
        spec = ModelSpec(2, 3, (16,))
        model = build_be(spec, rng_stream(7, "init"), "ones", members=2)
        trace = EndpointTrace(train, test, every=1)
        trace.record(0, model)
        step, div_train, div_test, _ = trace.rows[0]
        assert div_train == 0.0 and div_test == 0.0

    def test_hook_records_on_schedule(self, small_task, pair_student):
        train, _, test = small_task
        trace = EndpointTrace(train, test, every=3)
        for step in range(1, 10):
            trace.hook(step, pair_student)
        assert [r[0] for r in trace.rows] == [3, 6, 9]

    @pytest.mark.parametrize("steps", [1, 40, 41, 54, 79, 80, 1800])
    def test_a_run_records_at_most_40_rows(self, small_task, steps):
        train, _, test = small_task

        class Steps(EndpointTrace):
            def record(self, step, student):
                self.rows.append((step, 0.0, 0.0, 0.0))

        trace = Steps.for_run(train, test, steps)
        for step in range(1, steps + 1):
            trace.hook(step, None)
        assert 1 <= len(trace.rows) <= 40
        assert [r[0] for r in trace.rows] == list(range(trace.every, steps + 1, trace.every))
        if steps in (1, 40, 80, 1800):
            # the old cadence where it already kept within 40 rows
            assert trace.every == max(1, steps // 40)
