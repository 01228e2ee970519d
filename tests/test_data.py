"""Dataset generation: split contract, train-statistics standardization,
determinism, corruption and OOD contracts, CSV round trips."""

import numpy as np
import pytest

from distilab.data import (DataFormatError, _split_sizes, corrupt, load_csv, make_mixture,
                           make_ood, save_csv)


class TestMixture:
    def test_split_sizes_exact(self):
        train, val, test = make_mixture(3, 2, 500, 0.6, seed=7)
        assert (len(train), len(val), len(test)) == (1050, 150, 300)

    def test_split_rounding_goes_to_earlier_split(self):
        # 7/10 of 11 rounds up to 8 for train; remainder splits 1:2
        assert _split_sizes(11) == (8, 1, 2)
        assert _split_sizes(10) == (7, 1, 2)
        n = sum(_split_sizes(997))
        assert n == 997

    def test_splits_are_disjoint_and_exhaustive(self):
        train, val, test = make_mixture(3, 2, 50, 0.6, seed=1)
        rows = np.concatenate([train.x, val.x, test.x])
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert len(rows) == 150

    def test_train_statistics_standardization(self):
        train, val, test = make_mixture(4, 3, 200, 0.6, seed=9)
        assert np.abs(train.x.mean(axis=0)).max() < 1e-10
        assert np.abs(train.x.std(axis=0) - 1.0).max() < 1e-10
        # other splits use train statistics, so they are close to but not
        # exactly standardized
        assert np.abs(val.x.mean(axis=0)).max() > 0.0

    def test_deterministic_under_seed(self):
        a = make_mixture(3, 2, 40, 0.6, seed=3)
        b = make_mixture(3, 2, 40, 0.6, seed=3)
        for da, db in zip(a, b):
            assert da.x.tobytes() == db.x.tobytes()
            assert np.array_equal(da.y, db.y)
        c = make_mixture(3, 2, 40, 0.6, seed=4)
        assert a[0].x.tobytes() != c[0].x.tobytes()

    def test_point_classes_linearly_separable(self):
        train, _, _ = make_mixture(3, 2, 30, 1e-9, seed=2)
        means = np.stack([train.x[train.y == k].mean(axis=0) for k in range(3)])
        probe = train.x @ means.T  # linear scorer with class-mean weights
        assert (probe.argmax(axis=1) == train.y).mean() == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_mixture(1, 2, 10, 0.6, seed=0)
        with pytest.raises(ValueError):
            make_mixture(3, 1, 10, 0.6, seed=0)
        with pytest.raises(ValueError):
            make_mixture(3, 2, 10, 0.0, seed=0)

    def test_digest_stability(self):
        train, _, _ = make_mixture(3, 2, 20, 0.6, seed=5)
        again, _, _ = make_mixture(3, 2, 20, 0.6, seed=5)
        assert train.digest() == again.digest()
        assert len(train.digest()) == 16

    def test_digest_sees_one_changed_value(self):
        train, _, _ = make_mixture(3, 2, 20, 0.6, seed=5)
        before = train.digest()
        train.x[7, 1] = np.nextafter(train.x[7, 1], np.inf)
        assert train.digest() != before


class TestCorrupt:
    def test_intensity_range_enforced(self):
        train, _, _ = make_mixture(3, 2, 20, 0.6, seed=5)
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                corrupt(train, bad, seed=0)

    def test_labels_preserved(self):
        train, _, _ = make_mixture(3, 2, 20, 0.6, seed=5)
        noisy = corrupt(train, 3, seed=1)
        assert np.array_equal(noisy.y, train.y)
        assert not np.array_equal(noisy.x, train.x)

    def test_noise_scales_with_intensity(self):
        train, _, _ = make_mixture(3, 2, 300, 0.6, seed=5)
        d1 = np.linalg.norm(corrupt(train, 1, seed=2).x - train.x)
        d5 = np.linalg.norm(corrupt(train, 5, seed=2).x - train.x)
        assert d5 == pytest.approx(5 * d1, rel=1e-12)

    def test_deterministic(self):
        train, _, _ = make_mixture(3, 2, 20, 0.6, seed=5)
        assert corrupt(train, 2, seed=3).x.tobytes() == corrupt(train, 2, seed=3).x.tobytes()


class TestMakeOod:
    def test_shift_must_be_positive(self):
        _, _, test = make_mixture(3, 2, 20, 0.6, seed=5)
        with pytest.raises(ValueError):
            make_ood(test, 0.0, seed=0)

    def test_deterministic_and_far_from_class_means(self):
        _, _, test = make_mixture(3, 2, 200, 0.6, seed=5)
        a = make_ood(test, 6.0, seed=1)
        b = make_ood(test, 6.0, seed=1)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.split == "ood"
        means = np.asarray(test.provenance["std_class_means"])
        centers = np.stack([a.x[a.y == k].mean(axis=0) for k in range(3)])
        dists = np.linalg.norm(centers[:, None, :] - means[None, :, :], axis=2)
        assert dists.min() > 3.0

    def test_directions_sit_between_class_directions(self):
        _, _, test = make_mixture(3, 2, 200, 0.6, seed=5)
        ood = make_ood(test, 6.0, seed=2)
        means = np.asarray(test.provenance["std_class_means"])
        mean_dirs = means / np.linalg.norm(means, axis=1, keepdims=True)
        for k in range(3):
            center = ood.x[ood.y == k].mean(axis=0)
            direction = center / np.linalg.norm(center)
            cosines = np.sort(mean_dirs @ direction)
            assert cosines[-1] - cosines[-2] < 0.15


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        train, _, _ = make_mixture(3, 2, 15, 0.6, seed=6)
        path = tmp_path / "d.csv"
        save_csv(train, path)
        loaded = load_csv(path, num_classes=3)
        assert loaded.x.tobytes() == train.x.tobytes()
        assert np.array_equal(loaded.y, train.y)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["x0,x1,y"] + ["0.0,1.0,0"] * 5 + ["0.0,1.0"] + ["0.0,1.0,1"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="line 7"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(tmp_path / "nope.csv")

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y\n0.0,1.0,zebra\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,x1,y\n0.0,1.0,0\n0.5,{value},1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y\n0.0,1.0,7\n")
        with pytest.raises(DataFormatError, match="K=3"):
            load_csv(path, num_classes=3)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0.0,1.0,0\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_csv(path)
