import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import eulac.kernel
import eulac.solver
from eulac.data import (LabeledDataset, UnlabeledDataset, kfold_indices, parse_synthetic_spec,
                        sample_synthetic)
from eulac.evalbench import ConfusionMatrix, macro_f1
from eulac.kernel import KernelSpec, gram, median_heuristic
from eulac.modelsel import HyperGrid, cross_validate, fit_with_selection
from eulac.risk import lac_risk_from_scores
from eulac.solver import fit_square_closed_form, objective

from conftest import two_cluster_spec

THETA = 0.7
BUNDLED_SPEC = Path(__file__).resolve().parents[1] / "specs" / "two_known_one_new_2d.txt"


def _data(seed=0, n_l=60, n_u=120, n_t=200):
    spec = two_cluster_spec(THETA, seed)
    return sample_synthetic(spec, n_l, n_u, n_t)


class _RowGathers(np.ndarray):
    """A Gram, pooled or one of its blocks, that records each gather of its
    rows: a ``take`` along them, or an index array in the first place of a
    subscript.  A record holds the rows, the shape of the gathered array
    and whether its rows were taken whole; every result is a plain array."""

    gathers: list = []

    def take(self, indices, axis=None, **kwargs):
        if axis == 0:
            self.gathers.append((np.ravel(indices), self.shape, True))
        return np.asarray(self).take(indices, axis=axis, **kwargs)

    def __getitem__(self, key):
        first = key[0] if isinstance(key, tuple) else key
        if not isinstance(first, (slice, int)):
            whole = not isinstance(key, tuple) or all(k == slice(None) for k in key[1:])
            self.gathers.append((np.ravel(first), self.shape, whole))
        return np.asarray(self)[key]


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
        # shifted-Lanczos run on one form of the unlabeled block serves every
        # fold and lambda of a bandwidth.  At 200 unlabeled rows 0.01x median
        # takes the sparse block, 1x the dense one and 10x a
        # pivoted-Cholesky factor.  The refit chooses its form again: on the
        # dense one it factors its own G_UU build once, on the others it
        # makes one Krylov run of its own and builds no G_UU
        factors, runs, grams, refit_grams, forms = [], [], [], [], []
        factor = eulac.solver.cho_factor
        lanczos = eulac.solver._shifted_lanczos
        choose = eulac.solver._unlabeled_operator
        build, refit_build = eulac.modelsel.gram, eulac.solver.gram
        L, U, _ = _data(seed=1, n_u=200)
        n_l, n_u = len(L), len(U)
        K = L.num_known_classes

        def counting_factor(a, **kwargs):
            # the refit factors in place, with no copy by the solve and none
            # by scipy's wrapper, the G_UU block it built, its latest build
            factors.append(a.shape)
            assert a.shape == (n_u, n_u) and a.base is refit_grams[-1]
            assert a.flags.f_contiguous and kwargs["overwrite_a"] is True
            result = factor(a, **kwargs)
            assert np.shares_memory(result[0], a)
            return result

        def recording_gram(*args):
            grams.append(build(*args))
            return grams[-1]

        def recording_refit_gram(*args):
            refit_grams.append(refit_build(*args))
            return refit_grams[-1]

        def recording_operator(*args):
            forms.append(choose(*args))
            return forms[-1]

        def counting_lanczos(product, starts, shifts, masks, scales):
            form, chosen = forms[-1]
            if masks.all():
                # the refit's run: every row trains, from the ones vector
                # and the K known columns, at its one lambda, on the chosen
                # form's product and with no G_UU build
                assert form != "dense" and product is chosen
                assert [G.shape for G in refit_grams[-1:]] == [(n_l, n_l + n_u)]
            elif form == "dense":
                # the run multiplies by the G_UU build itself, the last of
                # the bandwidth's three blocks built so far: G_LL, G_LU,
                # G_UU; a unit vector's product is its row
                assert chosen is None
                assert [G.shape for G in grams[-3:]] == [(n_l, n_l), (n_l, n_u), (n_u, n_u)]
                row = np.empty((1, n_u))
                product(np.eye(1, n_u, 7), row)
                assert np.array_equal(row[0], grams[-1][7])
            else:
                # the chosen form's product, and no G_UU build
                assert product is chosen
                assert [G.shape for G in grams[-2:]] == [(n_l, n_l), (n_l, n_u)]
            runs.append((starts.shape[0], len(shifts)))
            return lanczos(product, starts, shifts, masks, scales)

        monkeypatch.setattr(eulac.solver, "cho_factor", counting_factor)
        monkeypatch.setattr(eulac.solver, "_shifted_lanczos", counting_lanczos)
        monkeypatch.setattr(eulac.modelsel, "_unlabeled_operator", recording_operator)
        monkeypatch.setattr(eulac.solver, "_unlabeled_operator", recording_operator)
        monkeypatch.setattr(eulac.modelsel, "gram", recording_gram)
        monkeypatch.setattr(eulac.solver, "gram", recording_refit_gram)
        grid = HyperGrid(sigma_multipliers=(0.01, 1.0, 10.0),
                         lambda_candidates=(1e-2, 0.1, 1.0), folds=3)
        cross_validate(L, U, THETA, grid, seed=0)
        assert factors == []
        assert [form for form, _ in forms] == ["sparse", "dense", "factor"]
        # per sigma: 3 folds x (K + 1) start vectors, 3 lambdas; the novel
        # column's solution is minus the sum of the known ones'
        assert runs == [(3 * (K + 1), 3)] * 3
        # the selected cell is 1x, whose refit takes the dense form
        model, report = fit_with_selection(L, U, THETA, grid, seed=0)
        assert report.selected.sigma_multiplier == 1.0 and forms[-1][0] == "dense"
        assert factors == [(n_u, n_u)] and len(runs) == 6
        median = median_heuristic(np.vstack([L.X, U.X]))
        for mult, form in ((1.0, "dense"), (10.0, "factor")):
            del factors[:], runs[:], refit_grams[:]
            fit_square_closed_form(L, U, KernelSpec(mult * median), THETA, 1e-2)
            assert forms[-1][0] == form
            if form == "dense":
                assert factors == [(n_u, n_u)] and runs == []
                assert [G.shape for G in refit_grams] == [(n_l, n_l + n_u), (n_u, n_u)]
            else:
                assert factors == [] and runs == [(K + 1, 1)]
                assert [G.shape for G in refit_grams] == [(n_l, n_l + n_u)]

    def test_operator_choice_at_the_default_bandwidths(self, monkeypatch):
        # the bundled spec at 500/1000 (seed 1) on the default grid: 0.01x
        # median leaves 1.5 % of G_UU nonzero and 0.1x 59 %, and at 1x and
        # 10x a factor meets the folds' tolerance with 104 and 20 of
        # rank_cap's 125 columns
        spec = dataclasses.replace(parse_synthetic_spec(BUNDLED_SPEC.read_text()), seed=1)
        L, U, _ = sample_synthetic(spec, 500, 1000, 1)
        forms, choose = [], eulac.modelsel._unlabeled_operator
        monkeypatch.setattr(eulac.modelsel, "_unlabeled_operator",
                            lambda *args: forms.append(choose(*args)) or forms[-1])
        cross_validate(L, U, THETA, HyperGrid(), seed=0)
        assert [form for form, _ in forms] == ["sparse", "dense", "factor", "factor"]

    @pytest.mark.parametrize("loss", ["square", "logistic"])
    def test_square_loss_builds_no_pooled_gram(self, monkeypatch, loss):
        # square-loss CV builds, per bandwidth, G_LL, G_LU and G_UU, then
        # G_LU again for the labeled validation rows, and the refit the
        # labeled rows, then the unlabeled block; the first-order paths
        # gather every block, so they build the pooled Gram
        shapes = {"modelsel": [], "solver": []}
        for name, seen in shapes.items():
            def recording(spec, rows, cols, build=getattr(eulac, name).gram, seen=seen):
                G = build(spec, rows, cols)
                seen.append(G.shape)
                return G
            monkeypatch.setattr(getattr(eulac, name), "gram", recording)
        L, U, _ = _data(seed=1)
        n_l, n = len(L), len(L) + len(U)
        grid = HyperGrid(sigma_multipliers=(0.1, 1.0), lambda_candidates=(1e-2, 0.1), folds=3,
                         loss_kind=loss)
        fit_with_selection(L, U, THETA, grid, seed=0)
        n_u = n - n_l
        if loss == "square":
            cv_blocks = [(n_l, n_l), (n_l, n_u), (n_u, n_u), (n_l, n_u)]
            refit_blocks = [(n_l, n), (n_u, n_u)]
        else:
            cv_blocks = refit_blocks = [(n, n)]
        assert shapes == {"modelsel": cv_blocks * 2, "solver": refit_blocks}

    def test_square_loss_gathers_no_pooled_validation_rows(self, monkeypatch):
        # the square-loss folds are scored from the Krylov run: no row of
        # the unlabeled block, and no whole pooled labeled row, is gathered;
        # the labeled validation rows are read in their unlabeled and their
        # labeled columns apart, from the blocks G_LL and G_LU
        gathers = []
        build = eulac.modelsel.gram
        monkeypatch.setattr(eulac.modelsel, "gram",
                            lambda *args: build(*args).view(_RowGathers))
        monkeypatch.setattr(_RowGathers, "gathers", gathers)
        L, U, _ = _data(seed=1)
        grid = HyperGrid(sigma_multipliers=(0.1, 1.0), lambda_candidates=(1e-2, 0.1), folds=3)
        report = cross_validate(L, U, THETA, grid, seed=0)
        assert len(report.cells) == 4
        n_l, n = len(L), len(L) + len(U)
        for rows, shape, whole in gathers:
            assert shape[0] == n_l and np.all(rows < n_l)
            assert not whole or shape[1] < n
        # two gathers per fold and bandwidth
        assert len(gathers) == 2 * 3 * 2

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

        def short_of_tolerance(G, y, K, theta, options, loss_kind):
            alpha, record = solve(G, y, K, theta, options, loss_kind)
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

        def failing_at_second_fold(G, y, K, theta, options, loss_kind):
            seen.append(options.lam)
            if len(seen) == 3:  # fold 1's first lambda
                raise FloatingPointError("overflow in exp")
            return solve(G, y, K, theta, options, loss_kind)

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
