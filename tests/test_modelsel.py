import dataclasses
import re

import numpy as np
import pytest

import eulac.kernel
import eulac.solver
from eulac.data import LabeledDataset, UnlabeledDataset, kfold_indices, sample_synthetic
from eulac.evalbench import ConfusionMatrix, macro_f1
from eulac.kernel import KernelSpec, gram
from eulac.modelsel import HyperGrid, cross_validate, fit_with_selection
from eulac.risk import lac_risk_from_scores
from eulac.solver import fit_square_closed_form, objective

from conftest import two_cluster_spec

THETA = 0.7


def _data(seed=0, n_l=60, n_u=120, n_t=200):
    spec = two_cluster_spec(THETA, seed)
    return sample_synthetic(spec, n_l, n_u, n_t)


class TestHyperGrid:
    def test_defaults(self):
        grid = HyperGrid()
        assert grid.sigma_multipliers == (1e-2, 1e-1, 1.0, 10.0)
        assert grid.lambda_candidates == (1e-3, 1e-2, 1e-1, 1.0, 10.0)
        assert grid.folds == 5 and grid.loss_kind == "square"

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperGrid(sigma_multipliers=())
        with pytest.raises(ValueError):
            HyperGrid(lambda_candidates=(0.0,))
        # the lambda rule is solver.check_lambda's, which also refuses an
        # overflowing shift 2 lambda
        for bad in (float("nan"), float("inf"), 1e308):
            with pytest.raises(ValueError, match="regularization weight must be positive"):
                HyperGrid(lambda_candidates=(0.1, bad))
        # the message names the multipliers and only the bad values
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"sigma multipliers must be positive and finite, got [{bad}]")):
                HyperGrid(sigma_multipliers=[1.0, bad])
        with pytest.raises(ValueError):
            HyperGrid(folds=1)


class TestCrossValidate:
    def test_single_cell_selected(self):
        L, U, _ = _data()
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1,), folds=3)
        report = cross_validate(L, U, THETA, grid, seed=0)
        assert len(report.cells) == 1
        assert report.selected is report.cells[0]

    def test_huge_lambda_matches_zero_model_and_loses(self):
        L, U, _ = _data()
        grid = HyperGrid(sigma_multipliers=(1.0,),
                         lambda_candidates=(1e-2, 1e9), folds=3)
        report = cross_validate(L, U, THETA, grid, seed=0)
        cells = {c.lam: c for c in report.cells}
        # a zero model scores every validation point at 0: risk (K+1)*psi(0)
        assert cells[1e9].mean_risk == pytest.approx(0.75, abs=1e-3)
        assert cells[1e-2].mean_risk < cells[1e9].mean_risk
        assert report.selected.lam == 1e-2

    def test_grid_order_irrelevant(self):
        L, U, _ = _data(seed=1)
        a = cross_validate(L, U, THETA, HyperGrid(
            sigma_multipliers=(0.1, 1.0), lambda_candidates=(1e-2, 1.0), folds=3), seed=4)
        b = cross_validate(L, U, THETA, HyperGrid(
            sigma_multipliers=(1.0, 0.1), lambda_candidates=(1.0, 1e-2), folds=3), seed=4)
        assert a.selected.sigma == b.selected.sigma
        assert a.selected.lam == b.selected.lam

    def test_validation_risk_is_the_unbiased_estimator(self):
        # recompute one cell's fold risk by hand: fit on the training part,
        # apply the plain risk estimator (no regulariser) on the held-out part
        L, U, _ = _data(seed=2, n_l=40, n_u=60)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1,), folds=2)
        report = cross_validate(L, U, THETA, grid, seed=7)

        expected = []
        for train_L, train_U, val_L, val_U in kfold_indices(L, U, 2, seed=7):
            model = fit_square_closed_form(
                LabeledDataset(L.X[train_L], L.y[train_L], L.num_known_classes),
                UnlabeledDataset(U.X[train_U]),
                KernelSpec(report.selected.sigma), THETA, 0.1)
            sl = model.scores(L.X[val_L])
            su = model.scores(U.X[val_U])
            expected.append(lac_risk_from_scores(sl, L.y[val_L], su, THETA, "square"))
        np.testing.assert_allclose(report.cells[0].fold_risks, expected, atol=1e-10)

    def test_one_krylov_run_per_bandwidth(self, monkeypatch):
        # cross-validation factors nothing and gathers no fold block: one
        # shifted-Lanczos run on the pooled Gram's unlabeled block serves
        # every fold and lambda of a bandwidth; only the refit factors
        factors, runs, grams = [0], [], []
        factor = eulac.solver.cho_factor
        lanczos = eulac.solver._shifted_lanczos
        build = eulac.modelsel.gram

        def counting_factor(a, **kwargs):
            # the refit factors its own copy in place: no copy by scipy's wrapper
            factors[0] += 1
            assert a.flags.f_contiguous and kwargs["overwrite_a"] is True
            result = factor(a, **kwargs)
            assert np.shares_memory(result[0], a)
            return result

        def recording_gram(*args):
            grams.append(build(*args))
            return grams[-1]

        def counting_lanczos(A, starts, shifts, masks, scales):
            assert np.shares_memory(A, grams[-1])
            runs.append((starts.shape[0], len(shifts)))
            return lanczos(A, starts, shifts, masks, scales)

        monkeypatch.setattr(eulac.solver, "cho_factor", counting_factor)
        monkeypatch.setattr(eulac.solver, "_shifted_lanczos", counting_lanczos)
        monkeypatch.setattr(eulac.modelsel, "gram", recording_gram)
        L, U, _ = _data(seed=1)
        grid = HyperGrid(sigma_multipliers=(0.1, 1.0), lambda_candidates=(1e-2, 0.1, 1.0),
                         folds=3)
        cross_validate(L, U, THETA, grid, seed=0)
        assert factors[0] == 0
        # per sigma: 3 folds x (K + 2) start vectors, 3 lambdas
        assert runs == [(3 * (L.num_known_classes + 2), 3)] * 2
        fit_with_selection(L, U, THETA, grid, seed=0)
        assert factors[0] == 1

    def test_square_loss_report_same_on_any_cpu_count(self, monkeypatch):
        # 700 unlabeled rows: the Lanczos product's three column tiles run
        # on one, two or three workers, which must not move a bit of the
        # report
        L, U, _ = _data(seed=2, n_l=60, n_u=700)
        grid = HyperGrid(sigma_multipliers=(0.1, 1.0), lambda_candidates=(1e-3, 0.1), folds=3)
        reports = []
        for cpus in (1, 4):
            monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: cpus)
            reports.append(cross_validate(L, U, THETA, grid, seed=0).to_json())
        assert reports[0] == reports[1]

    def test_unconverged_first_order_solves_are_counted(self, monkeypatch):
        solve = eulac.modelsel._first_order_alpha

        def short_of_tolerance(G, y, K, n_l, n_u, theta, options, loss_kind):
            alpha, record = solve(G, y, K, n_l, n_u, theta, options, loss_kind)
            return alpha, dataclasses.replace(record, converged=options.lam != 0.1)

        monkeypatch.setattr(eulac.modelsel, "_first_order_alpha", short_of_tolerance)
        L, U, _ = _data(seed=6, n_l=24, n_u=30)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1, 1.0),
                         loss_kind="logistic", folds=2)
        report = cross_validate(L, U, THETA, grid, seed=0)
        assert [c.nonconverged_folds for c in report.cells] == [2, 0]
        assert "nonconverged" not in report.to_json()

    def test_failed_first_order_solve_names_its_cell(self, monkeypatch):
        solve = eulac.modelsel._first_order_alpha
        seen = []

        def failing_at_second_fold(G, y, K, n_l, n_u, theta, options, loss_kind):
            seen.append(options.lam)
            if len(seen) == 3:  # fold 1's first lambda
                raise FloatingPointError("overflow in exp")
            return solve(G, y, K, n_l, n_u, theta, options, loss_kind)

        monkeypatch.setattr(eulac.modelsel, "_first_order_alpha", failing_at_second_fold)
        L, U, _ = _data(seed=6, n_l=24, n_u=30)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1, 1.0),
                         loss_kind="logistic", folds=2)
        with pytest.raises(RuntimeError) as info:
            cross_validate(L, U, THETA, grid, seed=0)
        assert str(info.value) == ("fit failed at sigma_multiplier=1.0, lambda=0.1, fold=1: "
                                   "FloatingPointError: overflow in exp")
        assert isinstance(info.value.__cause__, FloatingPointError)

    @pytest.mark.parametrize("theta", [1.5, -0.3, float("nan")])
    def test_theta_out_of_range_rejected_before_factoring(self, monkeypatch, theta):
        calls = [0]
        factor = eulac.solver.cho_factor

        def counting(*args, **kwargs):
            calls[0] += 1
            return factor(*args, **kwargs)

        monkeypatch.setattr(eulac.solver, "cho_factor", counting)
        L, U, _ = _data(seed=1)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1,), folds=2)
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\]"):
            cross_validate(L, U, theta, grid, seed=0)
        assert calls[0] == 0

    def test_report_serializes(self):
        import json
        L, U, _ = _data(seed=3)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1, 1.0), folds=2)
        report = cross_validate(L, U, THETA, grid, seed=0)
        payload = json.loads(report.to_json())
        assert len(payload["cells"]) == 2
        assert payload["selected"]["mean_risk"] == min(c["mean_risk"] for c in payload["cells"])


class TestFitWithSelection:
    def test_deterministic(self):
        L, U, _ = _data(seed=4)
        grid = HyperGrid(sigma_multipliers=(0.1, 1.0), lambda_candidates=(1e-2, 0.1), folds=3)
        m1, r1 = fit_with_selection(L, U, THETA, grid, seed=5)
        m2, r2 = fit_with_selection(L, U, THETA, grid, seed=5)
        assert r1.selected.sigma == r2.selected.sigma
        assert r1.selected.lam == r2.selected.lam
        assert m1.to_json() == m2.to_json()

    def test_beats_zero_model_on_training_objective(self):
        L, U, _ = _data(seed=5)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1,), folds=3)
        model, report = fit_with_selection(L, U, THETA, grid, seed=0)
        support = np.vstack([L.X, U.X])
        G = gram(model.kernel, support, support)
        zero = np.zeros_like(model.alpha)
        assert (objective(model.alpha, G, L, U, THETA, model.lam, "square")
                <= objective(zero, G, L, U, THETA, model.lam, "square"))

    def test_selection_beats_worst_cell(self):
        # CV-selected hyperparameters should never lose to the worst grid
        # cell on held-out macro-F1, averaged over seeds
        grid = HyperGrid(sigma_multipliers=(1e-2, 1.0),
                         lambda_candidates=(1e-3, 10.0), folds=3)
        margins = []
        for seed in range(5):
            L, U, T = _data(seed=seed, n_l=60, n_u=120, n_t=300)
            model, report = fit_with_selection(L, U, THETA, grid, seed=seed)
            worst = max(report.cells, key=lambda c: c.mean_risk)
            worst_model = fit_square_closed_form(
                L, U, KernelSpec(worst.sigma), THETA, worst.lam
            )
            f1_sel = macro_f1(ConfusionMatrix.from_labels(T.y, model.predict(T.X), 2))
            f1_worst = macro_f1(ConfusionMatrix.from_labels(T.y, worst_model.predict(T.X), 2))
            margins.append(f1_sel - f1_worst)
        assert np.mean(margins) >= 0.0

    def test_first_order_loss_path(self):
        L, U, _ = _data(seed=6, n_l=24, n_u=30)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.1,),
                         loss_kind="logistic", folds=2)
        model, report = fit_with_selection(L, U, THETA, grid, seed=0)
        assert model.loss_kind == "logistic"
        assert len(report.cells) == 1
