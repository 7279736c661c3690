import numpy as np
import pytest

from eulac.data import (
    ClassConfiguration,
    FiniteDistribution,
    GaussianMixture,
    LabeledDataset,
    UnlabeledDataset,
    bayes_risk_oracle,
    format_synthetic_spec,
    kfold_indices,
    load_features_csv,
    load_libsvm,
    parse_class_configuration,
    parse_synthetic_spec,
    random_class_configuration,
    sample_synthetic,
    sample_test_set,
    split_class_configuration,
    write_features_csv,
    write_libsvm,
)

from conftest import two_cluster_spec


class TestLibsvmLoader:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.5 3:2.0\n2 2:1.0\n")
        ds = load_libsvm(p)
        assert len(ds) == 2 and ds.dimension == 3
        np.testing.assert_array_equal(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert sorted(np.unique(ds.y)) == [1, 2]

    def test_label_remap_preserves_order(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("7 1:1.0\n3 1:2.0\n7 1:3.0\n")
        ds = load_libsvm(p)
        assert ds.label_map == {3: 1, 7: 2}
        np.testing.assert_array_equal(ds.y, [2, 1, 2])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        y = rng.integers(1, 4, 100)
        ds = LabeledDataset(X, y, 3)
        p = tmp_path / "rt.libsvm"
        write_libsvm(p, ds)
        back = load_libsvm(p)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.num_known_classes == 3

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 1:0.5\n2 nonsense\n")
        with pytest.raises(ValueError, match=":2:"):
            load_libsvm(p)

    def test_nonnumeric_token(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 1:abc\n")
        with pytest.raises(ValueError, match=":1:"):
            load_libsvm(p)

    def test_indices_must_increase(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 2:1.0 2:2.0\n")
        with pytest.raises(ValueError, match="increasing"):
            load_libsvm(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.libsvm"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(p)

    def test_nc_label_mode(self, tmp_path):
        p = tmp_path / "t.libsvm"
        p.write_text("0 1:1.0\n1 1:2.0\n2 1:3.0\n")
        ds = load_libsvm(p, nc_label=0)
        assert ds.num_known_classes == 2
        np.testing.assert_array_equal(ds.y, [3, 1, 2])

    def test_raw_label_mode_checks_range(self, tmp_path):
        p = tmp_path / "t.libsvm"
        p.write_text("5 1:1.0\n6 1:2.0\n")
        with pytest.raises(ValueError, match="outside"):
            load_libsvm(p, nc_label=0, num_known_classes=2)
        # K+1 is the novel sentinel inside the package only; files mark
        # novel rows with nc_label
        p.write_text("1 1:1.0\n3 1:2.0\n0 1:3.0\n")
        with pytest.raises(ValueError, match=r"labels \[3\] outside the expected range 1..2"):
            load_libsvm(p, nc_label=0, num_known_classes=2)
        p.write_text("1 1:1.0\n2 1:2.0\n0 1:3.0\n")
        np.testing.assert_array_equal(load_libsvm(p, nc_label=0, num_known_classes=2).y,
                                      [1, 2, 3])

    def test_loader_is_pure(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.25\n2 1:0.5\n")
        a, b = load_libsvm(p), load_libsvm(p)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


class TestCsvLoader:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.0,2.0\n0.0,1.0,0.0\n\n1.0,1.0,1.0\n")
        ds = load_features_csv(p)
        assert len(ds) == 3 and ds.dimension == 3

    def test_header_rejected_naming_row_one(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2\n0.5,0.25\n")
        with pytest.raises(ValueError, match=":1:"):
            load_features_csv(p)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.25\n0.5\n")
        with pytest.raises(ValueError, match=":2: ragged"):
            load_features_csv(p)

    def test_csv_equivalent_of_libsvm(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4))
        y = rng.integers(1, 3, 20)
        lib = tmp_path / "d.libsvm"
        write_libsvm(lib, LabeledDataset(X, y, 2))
        csv = tmp_path / "d.csv"
        csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X))
        a, b = load_libsvm(lib), load_features_csv(csv)
        np.testing.assert_array_equal(a.X, b.X)

    def test_features_csv(self, tmp_path):
        p = tmp_path / "u.csv"
        rng = np.random.default_rng(2)
        X = rng.normal(size=(9, 3))
        write_features_csv(p, X)
        back = load_features_csv(p)
        np.testing.assert_array_equal(back.X, X)


class TestDatasets:
    def test_labeled_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [1, 5], 2)  # label out of range
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.inf, 0.0]]), [1], 1)
        with pytest.raises(ValueError):
            UnlabeledDataset(np.empty((0, 3)))

    def test_novel_flagging(self):
        ds = LabeledDataset(np.zeros((2, 1)), [1, 3], 2)
        assert ds.contains_novel and ds.novel_label == 3


class TestSplitConfiguration:
    def _dataset(self, seed=0, classes=6, per_class=400, dim=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(classes * per_class, dim))
        y = np.repeat(np.arange(1, classes + 1), per_class)
        return LabeledDataset(X, y, classes)

    def test_default_half_new(self):
        config = random_class_configuration(range(1, 7), seed=0)
        assert len(config.new_labels) == 3 and len(config.known_labels) == 3

    def test_sizes_exact(self):
        full = self._dataset()
        config = random_class_configuration(range(1, 7), seed=1)
        L, U, T = split_class_configuration(full, config, 500, 1000, 700, seed=2)
        assert len(L) == 500 and len(U) == 1000 and len(T) == 700

    def test_no_novel_leak_into_labeled(self):
        full = self._dataset()
        config = random_class_configuration(range(1, 7), seed=3)
        L, _, T = split_class_configuration(full, config, 400, 400, 400, seed=4)
        assert not L.contains_novel
        assert L.num_known_classes == 3
        assert T.contains_novel  # new classes exist and are sampled proportionally

    def test_empty_new_labels(self):
        full = self._dataset(classes=3)
        config = ClassConfiguration(frozenset({1, 2, 3}), frozenset())
        _, _, T = split_class_configuration(full, config, 200, 200, 200, seed=5)
        assert not T.contains_novel

    def test_proportions_preserved(self):
        full = self._dataset(classes=4, per_class=500)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        _, U, T = split_class_configuration(full, config, 100, 1000, 1000, seed=6)
        # pool is balanced, so novel rows should be ~half of the test set
        novel = np.mean(T.y == T.novel_label)
        assert abs(novel - 0.5) <= 0.002

    def test_forced_novel_fraction(self):
        full = self._dataset(classes=4, per_class=500)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        _, _, T = split_class_configuration(full, config, 100, 400, 400, seed=7,
                                            novel_fraction=0.2)
        assert np.mean(T.y == T.novel_label) == pytest.approx(0.2, abs=0.003)

    def test_disjoint_when_possible(self):
        full = self._dataset(classes=4, per_class=300)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        L, U, T = split_class_configuration(full, config, 100, 200, 200, seed=8)
        rows = {tuple(r) for r in np.round(L.X, 12)}
        rows_u = {tuple(r) for r in np.round(U.X, 12)}
        rows_t = {tuple(r) for r in np.round(T.X, 12)}
        assert not rows & rows_u and not rows & rows_t and not rows_u & rows_t

    def test_insufficient_samples(self):
        full = self._dataset(classes=2, per_class=20)
        config = ClassConfiguration(frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match="insufficient"):
            split_class_configuration(full, config, 100, 10, 10, seed=0)

    def test_absent_class_rejected(self):
        full = self._dataset(classes=2)
        config = ClassConfiguration(frozenset({1}), frozenset({9}))
        with pytest.raises(ValueError, match="absent"):
            split_class_configuration(full, config, 10, 10, 10, seed=0)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ClassConfiguration(frozenset({1, 2}), frozenset({2, 3}))


class TestSyntheticSampling:
    def test_theta_one_means_no_novel(self):
        spec = two_cluster_spec(1.0, seed=0)
        _, _, T = sample_synthetic(spec, 50, 50, 400)
        assert not T.contains_novel

    def test_novel_fraction_concentrates(self):
        spec = two_cluster_spec(0.5, seed=1)
        _, _, T = sample_synthetic(spec, 10, 10, 10000)
        frac = np.mean(T.y == T.novel_label)
        assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / 10000)

    def test_unlabeled_known_fraction_concentrates(self):
        spec = two_cluster_spec(0.7, seed=2)
        _, U, T = sample_synthetic(spec, 10, 10000, 10)
        # unlabeled carries no labels; verify through an identically drawn test set
        frac = np.mean(sample_test_set(spec, 10000, seed=3).y <= 2)
        assert abs(frac - 0.7) <= 3.0 * np.sqrt(0.21 / 10000)

    def test_deterministic(self):
        spec = two_cluster_spec(0.6, seed=9)
        a = sample_synthetic(spec, 40, 40, 40)
        b = sample_synthetic(spec, 40, 40, 40)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)

    def test_invalid_theta(self):
        with pytest.raises(ValueError, match="theta"):
            two_cluster_spec(0.0, seed=0)
        with pytest.raises(ValueError, match="theta"):
            two_cluster_spec(1.5, seed=0)

    def test_non_psd_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMixture([1.0], [[0.0, 0.0]], [np.array([[1.0, 2.0], [2.0, 1.0]])])

    def test_priors_must_sum_to_one(self):
        gm = GaussianMixture([1.0], [[0.0]], [np.eye(1)])
        with pytest.raises(ValueError, match="priors"):
            from eulac.data import SyntheticSpec
            SyntheticSpec([0.6, 0.3], (gm, gm), gm, 0.5)


class TestBayesOracle:
    def test_separated_classes_near_zero(self):
        gm1 = GaussianMixture([1.0], [[-50.0]], [np.eye(1)])
        gm2 = GaussianMixture([1.0], [[50.0]], [np.eye(1)])
        from eulac.data import SyntheticSpec
        spec = SyntheticSpec([0.5, 0.5], (gm1, gm2), gm1, 1.0)
        assert bayes_risk_oracle(spec, 500) <= 1e-6

    def test_monte_carlo_cross_check(self):
        from eulac.data import SyntheticSpec
        known = GaussianMixture([1.0], [[0.0]], [np.eye(1)])
        new = GaussianMixture([1.0], [[2.0]], [np.eye(1)])
        spec = SyntheticSpec([1.0], (known,), new, 0.5, seed=0)
        quad = bayes_risk_oracle(spec, 800)

        # independent oracle: classify a large Monte-Carlo sample by exact
        # posterior and count errors
        test = sample_test_set(spec, 1_000_000, seed=42)
        j1 = 0.5 * known.pdf(test.X)
        j2 = 0.5 * new.pdf(test.X)
        pred = np.where(j1 >= j2, 1, 2)
        mc = float(np.mean(pred != test.y))
        assert abs(quad - mc) <= 0.003

    def test_resolution_convergence(self):
        spec = two_cluster_spec(0.7, seed=0)
        a = bayes_risk_oracle(spec, 400)
        b = bayes_risk_oracle(spec, 800)
        assert abs(a - b) < 1e-4

    def test_dimension_and_resolution_guards(self):
        gm = GaussianMixture([1.0], [np.zeros(3)], [np.eye(3)])
        from eulac.data import SyntheticSpec
        spec = SyntheticSpec([1.0], (gm,), gm, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            bayes_risk_oracle(spec, 100)
        with pytest.raises(ValueError, match="resolution"):
            bayes_risk_oracle(two_cluster_spec(0.5, 0), 1)


class TestFiniteDistribution:
    def test_mass_split_matches_theta(self):
        fd = FiniteDistribution(
            np.zeros((3, 1)), [1, 1, 2], [0.42, 0.28, 0.3], 0.7, 1
        )
        assert fd.probabilities[fd.known_mask].sum() == pytest.approx(0.7, abs=1e-12)

    def test_bad_mass_split_rejected(self):
        with pytest.raises(ValueError, match="decomposition"):
            FiniteDistribution(np.zeros((2, 1)), [1, 2], [0.5, 0.5], 0.7, 1)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteDistribution(np.zeros((2, 1)), [1, 2], [0.6, 0.5], 0.6, 1)


class TestKfold:
    def _data(self, n_l=500, n_u=1000):
        rng = np.random.default_rng(0)
        L = LabeledDataset(rng.normal(size=(n_l, 2)),
                           rng.permutation(np.repeat([1, 2], n_l // 2)), 2)
        U = UnlabeledDataset(rng.normal(size=(n_u, 2)))
        return L, U

    def test_fold_sizes(self):
        L, U = self._data()
        folds = kfold_indices(L, U, 5, seed=0)
        assert all(len(vl) == 100 and len(vu) == 200 for _, _, vl, vu in folds)

    def test_partition_property(self):
        L, U = self._data(60, 90)
        folds = kfold_indices(L, U, 3, seed=1)
        for tl, tu, vl, vu in folds:
            np.testing.assert_array_equal(np.sort(np.concatenate([tl, vl])), np.arange(60))
            np.testing.assert_array_equal(np.sort(np.concatenate([tu, vu])), np.arange(90))
        seen_l = np.concatenate([vl for _, _, vl, _ in folds])
        seen_u = np.concatenate([vu for _, _, _, vu in folds])
        np.testing.assert_array_equal(np.sort(seen_l), np.arange(60))
        np.testing.assert_array_equal(np.sort(seen_u), np.arange(90))

    def test_stratification_within_one(self):
        L, U = self._data(500, 100)
        for _, _, val_l, _ in kfold_indices(L, U, 5, seed=2):
            counts = np.bincount(L.y[val_l], minlength=3)[1:]
            assert np.all(np.abs(counts - 50) <= 1)

    def test_small_class_rejected(self):
        rng = np.random.default_rng(3)
        L = LabeledDataset(rng.normal(size=(10, 1)), [1] * 7 + [2] * 3, 2)
        U = UnlabeledDataset(rng.normal(size=(10, 1)))
        with pytest.raises(ValueError, match="fewer than"):
            kfold_indices(L, U, 5, seed=0)

    @pytest.mark.parametrize("n_u, k", [(1, 2), (3, 5)])
    def test_small_unlabeled_set_rejected(self, n_u, k):
        L, _ = self._data(50, 10)
        U = UnlabeledDataset(np.zeros((n_u, 2)))
        with pytest.raises(ValueError, match=f"unlabeled set has {n_u} samples, fewer than {k} folds"):
            kfold_indices(L, U, k, seed=0)


class TestConfigFormats:
    def test_synthetic_spec_roundtrip(self):
        spec = two_cluster_spec(0.7, seed=5)
        back = parse_synthetic_spec(format_synthetic_spec(spec))
        assert back.theta == spec.theta and back.seed == spec.seed
        np.testing.assert_array_equal(back.class_priors, spec.class_priors)
        for a, b in zip(back.class_mixtures, spec.class_mixtures):
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.covariances, b.covariances)

    def test_class_configuration_parse(self):
        config = parse_class_configuration("known_labels = 1 2 3\nnew_labels = 4 5\nseed = 7\n")
        assert config.known_labels == frozenset({1, 2, 3})
        assert config.new_labels == frozenset({4, 5})
        assert config.seed == 7

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError, match="unrecognised|missing"):
            parse_synthetic_spec("dimension = 2\ntheta = 0.5\nwhatever = 3\n")
