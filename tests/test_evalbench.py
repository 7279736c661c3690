import json

import numpy as np
import pytest

from eulac.data import LabeledDataset, bayes_risk_oracle, sample_synthetic
from eulac.evalbench import (
    ConfusionMatrix,
    ExperimentReport,
    macro_f1,
    run_excess_risk_check,
    run_excess_risk_seeds,
    run_theta_sweep,
    run_unlabeled_scaling,
)
from eulac.kernel import KernelSpec, median_heuristic
from eulac.modelsel import HyperGrid, fit_with_selection

from conftest import two_cluster_spec
from oracles import RejectingOvrModel, ovr_reject_baseline, select_baseline_bandwidth

SMALL_GRID = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(1e-2,), folds=2)


class TestConfusionMatrix:
    def test_totals_and_accuracy(self):
        cm = ConfusionMatrix.from_labels([1, 2, 3, 1], [1, 2, 1, 1], 2)
        assert cm.total == 4
        assert cm.accuracy == 0.75
        assert np.trace(cm.counts) == 3

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_labels([1, 4], [1, 1], 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        t = rng.integers(1, 4, 60)
        p = rng.integers(1, 4, 60)
        perm = rng.permutation(60)
        a = macro_f1(ConfusionMatrix.from_labels(t, p, 2))
        b = macro_f1(ConfusionMatrix.from_labels(t[perm], p[perm], 2))
        assert a == b


class TestMacroF1:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix.from_labels([1, 2, 3, 2], [1, 2, 3, 2], 2)
        assert macro_f1(cm) == 1.0

    def test_hand_computed(self):
        cm = ConfusionMatrix.from_labels([1, 1, 2, 3], [1, 2, 2, 3], 2)
        assert macro_f1(cm) == pytest.approx(7 / 9, abs=1e-12)

    def test_absent_novel_class_excluded(self):
        cm = ConfusionMatrix.from_labels([1, 2, 1], [1, 2, 2], 2)
        # classes 1 and 2 only: F1 = (2/3 + 0.8) / 2... recompute directly
        # class1: tp=1, truth=2, pred=1 -> 2/3; class2: tp=1, truth=1, pred=2 -> 2/3
        assert macro_f1(cm) == pytest.approx((2 / 3 + 2 / 3) / 2)

    def test_class_with_zero_denominator_scores_zero(self):
        # novel predicted but never true: its F1 counts as 0
        cm = ConfusionMatrix.from_labels([1, 1, 2], [1, 3, 2], 2)
        per_class = [2 / 3, 1.0, 0.0]
        assert macro_f1(cm) == pytest.approx(np.mean(per_class))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_f1(ConfusionMatrix(np.zeros((3, 3), dtype=int), 2))


class TestBaseline:
    def test_huge_margin_training_point(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(size=(20, 2)) - 5, rng.normal(size=(20, 2)) + 5])
        y = np.array([1] * 20 + [2] * 20)
        model = ovr_reject_baseline(LabeledDataset(X, y, 2), KernelSpec(2.0), 1e-4)
        assert model.predict(X[0])[0] == 1
        assert model.predict(X[-1])[0] == 2

    def test_far_query_is_not_rejected(self):
        # Gaussian scores vanish far away; exactly-zero maxima fall back to
        # the argmax known class, never the novel one
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.integers(1, 3, 30)
        model = ovr_reject_baseline(LabeledDataset(X, y, 2), KernelSpec(0.5), 1e-3)
        far = np.array([[1e6, 1e6]])
        scores = model.scores(far)
        assert np.allclose(scores, 0.0)
        assert model.predict(far)[0] in (1, 2)

    def test_rejects_strictly_negative(self):
        model = RejectingOvrModel(np.zeros((1, 1)), np.array([[-1.0, -1.0]]),
                                  KernelSpec(1.0), 2)
        assert model.predict(np.zeros((1, 1)))[0] == 3

    def test_novel_training_rows_rejected(self):
        ds = LabeledDataset(np.zeros((2, 1)), [1, 2], 1)
        with pytest.raises(ValueError, match="novel"):
            ovr_reject_baseline(ds, KernelSpec(1.0), 0.1)

    def test_bandwidth_selection_returns_candidate(self):
        spec = two_cluster_spec(0.7, 3)
        L, _, _ = sample_synthetic(spec, 80, 10, 10)
        kernel = select_baseline_bandwidth(L, folds=4)
        med = median_heuristic(L.X)
        assert any(np.isclose(kernel.sigma, m * med) for m in (1e-2, 1e-1, 1.0, 10.0))

    def test_bandwidth_selection_pinned_on_criterion_9_data(self):
        # the multipliers the baseline selected before its folds were
        # shared with kfold_indices; the folds for a seed must not move
        expected = {0: 0.1, 1: 1.0, 2: 0.1, 3: 1.0, 4: 0.1}
        for seed, mult in expected.items():
            L, _, _ = sample_synthetic(two_cluster_spec(0.7, seed), 500, 1000, 1000)
            assert select_baseline_bandwidth(L).sigma == mult * median_heuristic(L.X)

    def test_bandwidth_selection_small_class_rejected(self):
        L = LabeledDataset(np.arange(12.0)[:, None], [1] * 9 + [2] * 3, 2)
        with pytest.raises(ValueError, match="fewer than 5 folds"):
            select_baseline_bandwidth(L)

    def test_beats_baseline_on_class_shift(self):
        spec = two_cluster_spec(0.6, 4)
        L, U, T = sample_synthetic(spec, 100, 200, 400)
        model, _ = fit_with_selection(L, U, 0.6, SMALL_GRID, seed=0)
        base = ovr_reject_baseline(L, select_baseline_bandwidth(L), 1.0)
        ours = macro_f1(ConfusionMatrix.from_labels(T.y, model.predict(T.X), 2))
        theirs = macro_f1(ConfusionMatrix.from_labels(T.y, base.predict(T.X), 2))
        assert ours > theirs


class TestReports:
    def _report(self):
        runs = tuple(
            {"x": x, "seed": s, "macro_f1": 0.5 + 0.1 * x + 0.01 * s, "accuracy": 0.9}
            for x in (1, 2, 3) for s in (0, 1)
        )
        return ExperimentReport({"command": "scaling", "primary_metric": "macro_f1"}, runs)

    def test_aggregate_recomputable(self):
        report = self._report()
        rows = report.aggregate("macro_f1")
        assert [r["x"] for r in rows] == [1, 2, 3]
        for row in rows:
            vals = [r["macro_f1"] for r in report.runs if r["x"] == row["x"]]
            assert row["mean"] == pytest.approx(np.mean(vals))
            assert row["std"] == pytest.approx(np.std(vals))
            assert row["n"] == len(vals)

    def test_spearman_none_for_single_x(self):
        runs = tuple({"x": 5, "seed": s, "macro_f1": 0.5} for s in range(3))
        report = ExperimentReport({}, runs)
        assert report.spearman("macro_f1") is None

    def test_spearman_matches_scipy(self):
        from scipy.stats import rankdata, spearmanr
        rng = np.random.default_rng(5)
        for trial in range(300):
            k = int(rng.integers(2, 10))
            xs = np.sort(rng.choice(100, size=k, replace=False))
            # every third draw has ties; the others are almost surely untied
            vals = rng.integers(0, 3, size=k) / 2.0 if trial % 3 == 0 else rng.normal(size=k)
            if np.ptp(vals) == 0.0:
                continue  # constant input: see test_spearman_nan_for_constant_metric
            runs = tuple({"x": int(x), "seed": 0, "macro_f1": float(v)}
                         for x, v in zip(xs, vals))
            expected = spearmanr(xs, vals).statistic
            ranks = rankdata(vals)
            # scipy can land one ulp inside +-1 there (k = 2 or 5, say)
            if np.array_equal(ranks, np.arange(1, k + 1)):
                expected = 1.0
            elif np.array_equal(ranks, np.arange(k, 0, -1)):
                expected = -1.0
            assert ExperimentReport({}, runs).spearman("macro_f1") == expected

    @pytest.mark.parametrize("k", [2, 5])
    def test_spearman_exact_for_identical_and_opposite_ranks(self, k):
        # corrcoef of the ranks gives -0.9999999999999999 here
        up = tuple({"x": 10 * (i + 1), "seed": 0, "macro_f1": 0.1 * i} for i in range(k))
        down = tuple(dict(run, macro_f1=-run["macro_f1"]) for run in up)
        assert ExperimentReport({}, up).spearman("macro_f1") == 1.0
        assert ExperimentReport({}, down).spearman("macro_f1") == -1.0
        report = ExperimentReport({"command": "scaling"}, down)
        assert '"spearman": -1.0' in report.to_json()

    def test_spearman_nan_for_constant_metric(self):
        runs = tuple({"x": x, "seed": 0, "macro_f1": 0.5} for x in range(4))
        assert np.isnan(ExperimentReport({}, runs).spearman("macro_f1"))

    def test_csv_format(self):
        text = self._report().to_csv("macro_f1")
        lines = text.strip().split("\n")
        assert lines[0] == "x,mean,std,n"
        assert len(lines) == 4

    def test_json_roundtrip(self):
        payload = json.loads(self._report().to_json())
        assert len(payload["runs"]) == 6
        assert payload["spearman"] == 1.0


class TestScalingHarness:
    def test_two_sizes(self):
        spec = two_cluster_spec(0.7, 0)
        report = run_unlabeled_scaling(
            spec, sizes=(60, 120), seeds=(0,), n_labeled=40, n_test=150,
            grid=SMALL_GRID,
        )
        rows = report.aggregate("macro_f1")
        assert len(rows) == 2 and [r["x"] for r in rows] == [60, 120]
        assert abs(report.spearman("macro_f1")) == pytest.approx(1.0)

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            run_unlabeled_scaling(two_cluster_spec(0.7, 0), sizes=(100, 100), seeds=(0,))

    @pytest.mark.parametrize("sizes", [(0, 60), (-5,)])
    def test_sizes_must_be_at_least_one(self, sizes):
        with pytest.raises(ValueError, match=r"^sizes must be strictly increasing and at least 1"):
            run_unlabeled_scaling(two_cluster_spec(0.7, 0), sizes=sizes, seeds=(0,))

    @pytest.mark.parametrize("counts, message", [
        (dict(n_labeled=0), "n_labeled must be at least 1, got 0"),
        (dict(n_test=-3), "n_test must be at least 1, got -3")])
    def test_sample_sizes_named(self, counts, message):
        # numpy's "negative dimensions are not allowed" named no size
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_unlabeled_scaling(two_cluster_spec(0.7, 0), sizes=(60,), seeds=(0,),
                                  grid=SMALL_GRID, **counts)

    def test_needs_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            run_unlabeled_scaling(two_cluster_spec(0.7, 0), sizes=(50,), seeds=())

    def test_needs_sizes(self):
        # no size used to give a report with no runs
        with pytest.raises(ValueError, match="^the number of sizes must be at least 1, got 0$"):
            run_unlabeled_scaling(two_cluster_spec(0.7, 0), sizes=(), seeds=(0,))

    def test_theta_sweep_needs_ratios(self):
        # no ratio used to give a report with no runs
        with pytest.raises(ValueError, match="^the number of ratios must be at least 1, got 0$"):
            run_theta_sweep(two_cluster_spec(0.7, 0), ratios=(), seeds=(0,))

    def test_theta_sweep_needs_seeds(self):
        # no seed used to give a report with no runs: header-only CSVs
        with pytest.raises(ValueError, match="^the number of seeds must be at least 1, got 0$"):
            run_theta_sweep(two_cluster_spec(0.7, 0), ratios=(0.2,), seeds=())

    def test_excess_risk_needs_seeds(self):
        # no seed used to give a generator that yields nothing
        checks = run_excess_risk_seeds(two_cluster_spec(0.7, 0), (), 40, 60, SMALL_GRID, None)
        with pytest.raises(ValueError, match="^the number of seeds must be at least 1, got 0$"):
            next(checks)


class TestThetaSweepHarness:
    def test_rows_and_ranges(self):
        spec = two_cluster_spec(0.7, 0)
        report = run_theta_sweep(
            spec, ratios=(0.0, 0.4), seeds=(0,), n_labeled=40, n_unlabeled=80,
            n_test=120, grid=SMALL_GRID,
        )
        rows = report.aggregate("accuracy")
        assert [r["x"] for r in rows] == [0.0, 0.4]
        assert all(0.0 <= r["mean"] <= 1.0 for r in rows)

    def test_zero_ratio_has_no_novel_rows(self):
        spec = two_cluster_spec(0.5, 0)
        report = run_theta_sweep(
            spec, ratios=(0.0,), seeds=(1,), n_labeled=40, n_unlabeled=60,
            n_test=100, grid=SMALL_GRID,
        )
        assert report.runs[0]["theta"] == 1.0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            run_theta_sweep(two_cluster_spec(0.7, 0), ratios=(1.0,), seeds=(0,))

    def test_unlabeled_size_named(self):
        with pytest.raises(ValueError, match="^n_unlabeled must be at least 1, got 0$"):
            run_theta_sweep(two_cluster_spec(0.7, 0), ratios=(0.2,), seeds=(0,), n_unlabeled=0,
                            grid=SMALL_GRID)


class TestExcessRiskCheck:
    def _bayes_scores(self, spec):
        def scores(X):
            X = np.atleast_2d(X)
            joints = np.stack(
                [spec.theta * p * gm.pdf(X)
                 for p, gm in zip(spec.class_priors, spec.class_mixtures)]
                + [(1.0 - spec.theta) * spec.new_mixture.pdf(X)]
            )
            tot = joints.sum(axis=0)
            eta = np.where(tot > 0, joints / tot, 1.0 / joints.shape[0])
            return (2.0 * eta - 1.0).T
        return scores

    def test_bayes_scores_pass(self):
        spec = two_cluster_spec(0.7, 0)
        check = run_excess_risk_check(spec, self._bayes_scores(spec), seed=1)
        assert check.passed
        assert abs(check.lhs) <= 3.0 * check.monte_carlo_se + 1e-3
        assert check.rhs == pytest.approx(0.0, abs=1e-6)

    def test_zero_model_passes(self):
        spec = two_cluster_spec(0.7, 0)
        zero = lambda X: np.zeros((np.atleast_2d(X).shape[0], 3))
        check = run_excess_risk_check(spec, zero, seed=2)
        assert check.passed and check.rhs > 0.5
        assert check.bayes_risk == bayes_risk_oracle(spec, 300)

    def test_fitted_model_passes(self):
        spec = two_cluster_spec(0.7, 0)
        L, U, _ = sample_synthetic(spec, 80, 160, 10)
        model, _ = fit_with_selection(L, U, 0.7, SMALL_GRID, seed=0)
        check = run_excess_risk_check(spec, model, seed=3)
        assert check.passed

    def test_non_square_model_rejected(self):
        spec = two_cluster_spec(0.7, 0)
        L, U, _ = sample_synthetic(spec, 20, 24, 10)
        from eulac.solver import FitOptions, fit_first_order
        model = fit_first_order(L, U, KernelSpec(1.0), 0.7,
                                FitOptions(lam=0.1, max_iterations=50,
                                           gradient_tolerance=1e-3), "logistic")
        with pytest.raises(ValueError, match="square"):
            run_excess_risk_check(spec, model)
