"""Line interpolation between subnetworks and scan/barrier mechanics."""

import numpy as np
import pytest

import distilab.autodiff as ad
from distilab.data import make_mixture
from distilab.metrics import batched_logits, softmax_np
from distilab.nets import ModelSpec, average_rank_one, build_be
from distilab.seeding import rng_stream
from distilab.subspace import default_grid, interpolate, line_scan, pairwise_barriers


@pytest.fixture(scope="module")
def pair_student():
    spec = ModelSpec(2, 3, (16,))
    model = build_be(spec, rng_stream(1, "init"), "ones", members=2)
    rng = np.random.default_rng(2)
    for l in model.layers:
        for m in range(2):
            l.r[m] += 0.4 * rng.normal(size=l.r[m].shape)
            l.s[m] += 0.4 * rng.normal(size=l.s[m].shape)
            l.bias[m] = 0.2 * rng.normal(size=l.bias[m].shape)
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
            assert np.abs(la.weight - lb.weight).max() < 1e-12
            assert np.abs(la.bias[0] - lb.bias[0]).max() < 1e-12

    def test_affine_in_t(self, pair_student):
        a, b = 0.15, 0.85
        mid = interpolate(pair_student, (a + b) / 2)
        wa = interpolate(pair_student, a)
        wb = interpolate(pair_student, b)
        for lm, la, lb in zip(mid.layers, wa.layers, wb.layers):
            np.testing.assert_allclose(lm.weight,
                                       (la.weight + lb.weight) / 2,
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

    def test_member_weights_are_formed_once_per_scan(self, pair_student, small_task,
                                                      monkeypatch):
        formed, real = [], ad.member_weights

        def member_weights(weight, r, s):
            formed.append(r is not None)
            return real(weight, r, s)

        monkeypatch.setattr(ad, "member_weights", member_weights)
        train, _, test = small_task
        line_scan(pair_student, train, test)
        assert sum(formed) == len(pair_student.layers)

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

