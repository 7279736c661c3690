import dataclasses
import json
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from eulac.data import (
    UnlabeledDataset,
    json_text,
    kfold_indices,
    parse_synthetic_spec,
    sample_synthetic,
)
import eulac.kernel
from eulac.kernel import (
    DEFAULT_SIGMA_MULTIPLIERS,
    GRAM_BLOCK_ROWS,
    KERNEL_FLOOR,
    TILE_ROWS,
    KernelSpec,
    gram,
    median_heuristic,
)
from eulac.losses import LOSS_KINDS
from eulac.modelsel import DEFAULT_LAMBDAS, HyperGrid, cross_validate
from eulac.risk import empirical_lac_risk
import eulac.solver
from eulac.solver import (
    DUAL_GAP_TOLERANCE,
    FACTOR_SOLUTION_TOLERANCE,
    GRAM_JITTER,
    DualModel,
    FitOptions,
    FitRecord,
    _column_coefficients,
    _dense_product,
    _floored_tile_product,
    _labeled_bracket,
    _pooled_product,
    _shifted_lanczos,
    _square_loss_alpha,
    _square_loss_fold_scores,
    _unlabeled_operator,
    certified_labels,
    fit_first_order,
    fit_square_closed_form,
    low_rank_expansion,
    objective,
    predict_labels,
    predict_scores,
    rank_cap,
)

from conftest import small_train_data
from oracles import objective_gradient

THETA = 0.7
LAM = 0.1
BUNDLED_SPEC = Path(__file__).resolve().parents[1] / "specs" / "two_known_one_new_2d.txt"


@pytest.fixture(scope="module")
def instance():
    L, U = small_train_data(seed=7, n_l=30, n_u=30)
    support = np.vstack([L.X, U.X])
    kernel = KernelSpec(median_heuristic(support))
    G = gram(kernel, support, support)
    return L, U, kernel, G


class TestObjective:
    def test_zero_model_value(self, instance):
        L, U, kernel, G = instance
        alpha = np.zeros((len(L) + len(U), 3))
        # zero scores: risk is (K + 1) * psi(0) and the penalty vanishes
        assert objective(alpha, G, L, U, THETA, LAM, "square") == pytest.approx(0.75)

    def test_linear_in_lambda(self, instance):
        L, U, kernel, G = instance
        rng = np.random.default_rng(0)
        alpha = rng.normal(size=(len(L) + len(U), 3))
        penalty = float(np.sum(alpha * (G @ alpha)))
        a = objective(alpha, G, L, U, THETA, LAM, "square")
        b = objective(alpha, G, L, U, THETA, 2 * LAM, "square")
        assert b - a == pytest.approx(LAM * penalty, rel=1e-12)

    def test_two_path_recomputation(self, instance):
        L, U, kernel, G = instance
        rng = np.random.default_rng(1)
        alpha = rng.normal(size=(len(L) + len(U), 3))
        support = np.vstack([L.X, U.X])

        def tabulated(X):
            return gram(kernel, X, support) @ alpha

        direct = objective(alpha, G, L, U, THETA, LAM, "square")
        rebuilt = empirical_lac_risk(tabulated, L, U, THETA, "square") + LAM * float(
            np.sum(alpha * (G @ alpha))
        )
        assert direct == pytest.approx(rebuilt, abs=1e-12)

    def test_shape_mismatch_rejected(self, instance):
        L, U, kernel, G = instance
        with pytest.raises(ValueError):
            objective(np.zeros((3, 3)), G, L, U, THETA, LAM, "square")


class TestGradient:
    def test_zero_at_closed_form_solution(self, instance):
        L, U, kernel, G = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        grad = objective_gradient(model.alpha, G, L, U, THETA, LAM, "square")
        assert np.max(np.abs(grad)) <= 1e-8

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_finite_differences(self, instance, kind):
        L, U, kernel, G = instance
        rng = np.random.default_rng(2)
        n = len(L) + len(U)
        h = 1e-6
        checked = 0
        for _ in range(5):
            alpha = 0.4 * rng.normal(size=(n, 3))
            grad = objective_gradient(alpha, G, L, U, THETA, LAM, kind)
            for _ in range(20):
                i, j = int(rng.integers(n)), int(rng.integers(3))
                up, down = alpha.copy(), alpha.copy()
                up[i, j] += h
                down[i, j] -= h
                fd = (objective(up, G, L, U, THETA, LAM, kind)
                      - objective(down, G, L, U, THETA, LAM, kind)) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))
                checked += 1
        assert checked == 100

    def test_labeled_term_gradient_constant(self, instance):
        # the labeled term is linear in alpha, so gradient differences must
        # come from the unlabeled loss curvature alone (square loss, lam=0)
        L, U, kernel, G = instance
        rng = np.random.default_rng(3)
        n_l = len(L)
        alpha = rng.normal(size=(60, 3))
        g0 = objective_gradient(np.zeros((60, 3)), G, L, U, THETA, 0.0, "square")
        g1 = objective_gradient(alpha, G, L, U, THETA, 0.0, "square")
        unlabeled_rows = np.zeros((60, 1))
        unlabeled_rows[n_l:] = 1.0
        curvature = G @ (unlabeled_rows * (G @ alpha)) / (2.0 * len(U))
        np.testing.assert_allclose(g1 - g0, curvature, atol=1e-12)


class TestClosedForm:
    def test_gradient_tolerance(self, instance):
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        assert model.record.final_gradient_norm <= 1e-8
        assert model.record.converged

    def test_strong_regularization_shrinks(self, instance):
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, 1e6)
        assert np.max(np.abs(model.alpha)) <= 1e-3

    def test_beats_zero_model(self, instance):
        L, U, kernel, G = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        zero = np.zeros_like(model.alpha)
        assert (objective(model.alpha, G, L, U, THETA, LAM, "square")
                <= objective(zero, G, L, U, THETA, LAM, "square"))

    def test_first_order_cross_check(self):
        L, U = small_train_data(seed=7, n_l=30, n_u=30)
        kernel = KernelSpec(median_heuristic(np.vstack([L.X, U.X])))
        closed = fit_square_closed_form(L, U, kernel, THETA, LAM)
        iterative = fit_first_order(
            L, U, kernel, THETA,
            FitOptions(lam=LAM, max_iterations=5000, gradient_tolerance=1e-9), "square"
        )
        G = gram(kernel, closed.support_points, closed.support_points)
        a = objective(closed.alpha, G, L, U, THETA, LAM, "square")
        b = objective(iterative.alpha, G, L, U, THETA, LAM, "square")
        assert abs(a - b) <= 1e-6

    def test_unlabeled_permutation_leaves_predictions(self):
        L, U = small_train_data(seed=11)
        kernel = KernelSpec(1.2)
        rng = np.random.default_rng(4)
        U2 = UnlabeledDataset(U.X[rng.permutation(len(U))])
        queries = rng.normal(size=(15, 2))
        a = fit_square_closed_form(L, U, kernel, THETA, LAM).scores(queries)
        b = fit_square_closed_form(L, U2, kernel, THETA, LAM).scores(queries)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_lambda_must_be_positive(self, instance):
        L, U, kernel, _ = instance
        with pytest.raises(ValueError):
            fit_square_closed_form(L, U, kernel, THETA, 0.0)

    @pytest.mark.parametrize("theta", [1.5, -0.3, float("nan")])
    def test_theta_out_of_range_rejected(self, instance, theta):
        L, U, kernel, _ = instance
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\]"):
            fit_square_closed_form(L, U, kernel, theta, LAM)


def _unfloored_square_alpha(G, y, K, n_l, n_u, theta, lam):
    """The square-loss stationary point from the unfloored Gram, written out."""
    alpha = np.zeros((n_l + n_u, K + 1))
    rows = np.arange(n_l)
    alpha[rows, y - 1] = theta / (2.0 * lam * n_l)
    alpha[rows, K] = -theta / (2.0 * lam * n_l)
    b_u = np.zeros((n_u, K + 1))
    b_u[:, :K] = 1.0 / (2.0 * n_u)
    b_u[:, K] = -1.0 / (2.0 * n_u)
    M = G[n_l:, n_l:] / (2.0 * n_u) + (2.0 * lam + GRAM_JITTER) * np.eye(n_u)
    rhs = -b_u - G[n_l:, :n_l] @ alpha[:n_l] / (2.0 * n_u)
    alpha[n_l:] = cho_solve(cho_factor(M, lower=True), rhs)
    return alpha


def _floored(G):
    """A copy of G with its entries below KERNEL_FLOOR zeroed, as the
    square-loss solves expect."""
    G = G.copy()
    np.copyto(G, 0.0, where=G < KERNEL_FLOOR)
    return G


def _blocks(G, n_l):
    """The cross-validation solve's block builder over a pooled Gram G, and
    its labeled and unlabeled points, given as G's row indices: each block
    it builds is a fresh copy."""
    return (lambda rows, cols: G[np.ix_(rows, cols)]), np.arange(n_l), np.arange(n_l, len(G))


def _refit_blocks(G, n_l):
    """The refit solve's labeled rows of a pooled Gram G, and the builder of
    a fresh copy of its unlabeled block, which the solve factors in place."""
    return G[:n_l], lambda: G[n_l:, n_l:].copy()


def _refit_alpha(G, y, n_l, lam, theta=THETA):
    """The refit's solve on a floored copy of a full training Gram."""
    return _square_loss_alpha(*_refit_blocks(_floored(G), n_l), y, 2, theta, lam)


def _lanczos_alphas(G, y, n_l, lams, theta=THETA):
    """The cross-validation solve, on a floored copy of G, of one fold that
    trains on every row: one shifted-Lanczos run from the fold's start
    vectors, the ones vector and the known columns of G_UL B_L / (4 n_u),
    with the dual coefficients written out from its solutions."""
    G = _floored(G)
    n_u = G.shape[0] - n_l
    B = _labeled_bracket(y, 2, theta)
    starts = np.vstack([np.ones(n_u), (G[n_l:, :n_l] @ B[:, :2]).T / (4.0 * n_u)])
    x, products = _shifted_lanczos(_dense_product(G[n_l:, n_l:]), starts,
                                   2.0 * np.asarray(lams) + GRAM_JITTER, np.ones((3, n_u)),
                                   np.full(3, 1.0 / (2.0 * n_u)))
    # no row lies off the masks, so no product is kept
    assert [p.shape for p in products] == [(0, len(lams))] * 3
    alphas = []
    for i, lam in enumerate(lams):
        alpha = np.empty((n_l + n_u, 3))
        alpha[:n_l] = -B / (2.0 * lam)
        # x0 times minus the unlabeled bracket +-1 / (2 n_u), plus the data
        # solutions over lam, the novel one minus the sum of the known ones
        alpha[n_l:, :2] = -x[0, :, i, None] / (2.0 * n_u) + x[1:, :, i].T / lam
        alpha[n_l:, 2] = x[0, :, i] / (2.0 * n_u) - (x[1, :, i] + x[2, :, i]) / lam
        alphas.append(alpha)
    return alphas


def _narrow_kernel(L, U):
    return KernelSpec(0.01 * median_heuristic(np.vstack([L.X, U.X])))


def _unbuffered_square_alpha(G, y, K, n_l, n_u, theta, lam):
    """The square-loss solve as written before the shared Fortran-order buffer:
    a C-order copy of the floored block and scipy's checked factorization.
    G_UL is read as the labeled rows' transpose, as the solve reads it: below
    about 1e6 multiply-adds OpenBLAS multiplies a transposed operand with
    another kernel, which can move last bits (1e-15 relative at 300 x 100)."""
    B = np.zeros((n_l + n_u, K + 1))
    rows = np.arange(n_l)
    B[rows, y - 1] = -theta / n_l
    B[n_l:, :K] += 1.0 / (2.0 * n_u)
    B[rows, K] += theta / n_l
    B[n_l:, K] -= 1.0 / (2.0 * n_u)
    G_UU = G[n_l:, n_l:]
    A = G_UU / (2.0 * n_u)
    A[G_UU < KERNEL_FLOOR] = 0.0

    alpha = np.empty(B.shape)
    alpha[:n_l] = -B[:n_l] / (2.0 * lam)
    M = A.copy()
    M.flat[::n_u + 1] += 2.0 * lam + GRAM_JITTER
    rhs = -B[n_l:] - (G[:n_l, n_l:].T @ alpha[:n_l]) / (2.0 * n_u)
    alpha[n_l:] = cho_solve(cho_factor(M, lower=True), rhs)
    return alpha


class TestSquareLossSystem:
    @pytest.fixture(scope="class")
    def narrow(self):
        # sigma = 0.01 x median: most unlabeled Gram entries underflow, and
        # some land on subnormal numbers
        L, U = small_train_data(seed=3, n_l=60, n_u=200)
        support = np.vstack([L.X, U.X])
        sigma = _narrow_kernel(L, U).sigma
        # the textbook Gram, with no floor: gram() zeroes what this keeps
        G = np.exp(-cdist(support, support, "sqeuclidean") / (2.0 * sigma**2))
        return L, U, G

    def test_floor_keeps_the_solution(self, narrow):
        L, U, G = narrow
        n_l, n_u = len(L), len(U)
        block = G[n_l:, n_l:]
        assert np.any((block > 0) & (block < KERNEL_FLOOR))
        for lam in (1e-3, 1e-2, 1.0):
            alpha = _refit_alpha(G, L.y, n_l, lam)
            ref = _unfloored_square_alpha(G, L.y, 2, n_l, n_u, THETA, lam)
            assert np.max(np.abs(alpha - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_floored_block_has_no_subnormals(self, narrow, monkeypatch):
        # the refit takes the sparse form here, whose entries are gram's;
        # without it, the dense refit's block is floored too
        L, U, G = narrow
        n_l, n_u = len(L), len(U)
        tiny = np.finfo(float).tiny
        raw = G[n_l:, n_l:] / (2.0 * n_u)
        assert np.any((raw > 0) & (raw < tiny))
        spec = _narrow_kernel(L, U)
        sparse = eulac.kernel.sparse_gram(spec, U.X, len(U) ** 2)
        assert sparse.data.min() >= KERNEL_FLOOR
        solved = []
        solve = eulac.solver._square_loss_alpha

        def recording_solve(G_L, unlabeled_block, *args):
            def recording_block():
                G_UU = unlabeled_block()
                solved.append(G_UU.copy())
                return G_UU
            return solve(G_L, recording_block, *args)

        monkeypatch.setattr(eulac.solver, "_square_loss_alpha", recording_solve)
        fit_square_closed_form(L, U, spec, THETA, 1e-2)
        assert solved == []
        monkeypatch.setattr(eulac.solver, "sparse_gram", lambda *args: None)
        fit_square_closed_form(L, U, spec, THETA, 1e-2)
        refit_block, = solved
        A = refit_block / (2.0 * n_u)
        assert not np.any((A != 0) & (np.abs(A) < tiny))

    def test_lanczos_start_vectors_have_no_subnormals(self, narrow, monkeypatch):
        # the start vectors read G_UL: unfloored, its subnormal entries carry
        # into them and every Lanczos product runs on subnormal numbers
        L, U, _ = narrow
        starts = []
        lanczos = eulac.solver._shifted_lanczos

        def recording_lanczos(A, start_vectors, *args):
            starts.append(start_vectors.copy())
            return lanczos(A, start_vectors, *args)

        monkeypatch.setattr(eulac.solver, "_shifted_lanczos", recording_lanczos)
        grid = HyperGrid(sigma_multipliers=(0.01,), lambda_candidates=DEFAULT_LAMBDAS, folds=2)
        cross_validate(L, U, THETA, grid, seed=0)
        start_vectors, = starts
        tiny = np.finfo(float).tiny
        assert not np.any((start_vectors != 0) & (np.abs(start_vectors) < tiny))

    def test_bit_identical_to_unbuffered_solve(self, monkeypatch):
        # every default bandwidth and lambda, each system solved once per
        # lambda.  The refit's dense path is taken at every bandwidth: at
        # 0.01x median the sparse block serves and at 10x a pivoted-Cholesky
        # factor, and the refit through them is checked against this one in
        # TestSparseRefit and TestFactorRefit
        monkeypatch.setattr(eulac.solver, "sparse_gram", lambda *args: None)
        monkeypatch.setattr(eulac.solver, "pivoted_cholesky", lambda *args: None)
        L, U = small_train_data(seed=5, n_l=100, n_u=300)
        n_l, n_u = len(L), len(U)
        support = np.vstack([L.X, U.X])
        median = median_heuristic(support)
        for mult in DEFAULT_SIGMA_MULTIPLIERS:
            kernel = KernelSpec(mult * median)
            G = gram(kernel, support, support)
            for lam in DEFAULT_LAMBDAS:
                ref = _unbuffered_square_alpha(G, L.y, 2, n_l, n_u, THETA, lam)
                assert np.array_equal(_refit_alpha(G, L.y, n_l, lam), ref)
            refit = fit_square_closed_form(L, U, kernel, THETA, DEFAULT_LAMBDAS[0])
            assert np.array_equal(
                refit.alpha, _unbuffered_square_alpha(G, L.y, 2, n_l, n_u, THETA,
                                                      DEFAULT_LAMBDAS[0]))

    def test_lanczos_matches_dense_solve(self, narrow):
        # the cross-validation solve of every default lambda against the
        # dense per-lambda reference, at every default bandwidth and on the
        # narrow fixture whose Gram holds subnormal entries
        L, U = small_train_data(seed=5, n_l=100, n_u=300)
        support = np.vstack([L.X, U.X])
        median = median_heuristic(support)
        cases = [(L, U, gram(KernelSpec(mult * median), support, support))
                 for mult in DEFAULT_SIGMA_MULTIPLIERS]
        for L, U, G in cases + [narrow]:
            n_l, n_u = len(L), len(U)
            alphas = _lanczos_alphas(G, L.y, n_l, DEFAULT_LAMBDAS)
            assert len(alphas) == len(DEFAULT_LAMBDAS)
            for lam, alpha in zip(DEFAULT_LAMBDAS, alphas):
                ref = _unbuffered_square_alpha(G, L.y, 2, n_l, n_u, THETA, lam)
                assert np.max(np.abs(alpha - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_lanczos_with_an_absent_class(self, instance):
        # a training fold can lack a class: its start vector is zero
        L, _, _, G = instance
        y = np.ones_like(L.y)
        n_l, n_u = len(L), G.shape[0] - len(L)
        for lam, alpha in zip((1e-2, 1.0), _lanczos_alphas(G, y, n_l, (1e-2, 1.0))):
            ref = _unbuffered_square_alpha(G, y, 2, n_l, n_u, THETA, lam)
            assert np.max(np.abs(alpha - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_lanczos_ill_conditioned_system_converges(self):
        # at lambda = 1e-8 the system's condition number is about 2.5e7 and
        # the run needs nearly n_u steps; without full reorthogonalization
        # it stalls at the step cap
        L, U = small_train_data(seed=5, n_l=100, n_u=300)
        support = np.vstack([L.X, U.X])
        G = gram(KernelSpec(median_heuristic(support)), support, support)
        alpha, = _lanczos_alphas(G, L.y, len(L), (1e-8,))
        ref = _unbuffered_square_alpha(G, L.y, 2, len(L), len(U), THETA, 1e-8)
        assert np.max(np.abs(alpha - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_lanczos_unreachable_tolerance_raises(self, instance, monkeypatch):
        L, U, _, G = instance
        monkeypatch.setattr(eulac.solver, "KRYLOV_TOLERANCE", -1.0)
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"cap of {len(U)} steps with relative residual \d"):
            _lanczos_alphas(G, L.y, len(L), (1e-2, 1.0))

    def test_indefinite_system_raises_with_condition_estimate(self, instance):
        # a negative weight is refused before the solve, so the Gram is
        # negated instead: the unlabeled block's top eigenvalue, about
        # -n_u / (2 n_u), outweighs the shift 2 LAM
        L, _, _, G = instance
        n_l, n_u = len(L), len(G) - len(L)
        G_L, unlabeled_block = _refit_blocks(-_floored(G), n_l)
        builds = []
        with pytest.raises(np.linalg.LinAlgError, match="condition estimate") as info:
            _square_loss_alpha(G_L, lambda: builds.append(1) or unlabeled_block(), L.y, 2,
                               THETA, LAM)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        # the failed factorization overwrote its block, so the estimate reads
        # a second build of the system, not the factor's remains
        assert len(builds) == 2
        system = -_floored(G)[n_l:, n_l:] / (2.0 * n_u) + (2.0 * LAM + GRAM_JITTER) * np.eye(n_u)
        assert f"condition estimate {np.linalg.cond(system):.3e})" in str(info.value)


class TestFoldLanczos:
    """One shifted-Lanczos run on the pooled Gram solves every fold's system."""

    @pytest.fixture(scope="class")
    def pooled(self):
        # 203 unlabeled rows in 5 folds: training blocks of 162 and 163 rows
        L, U = small_train_data(seed=9, n_l=80, n_u=203)
        support = np.vstack([L.X, U.X])
        folds = [(train_L, train_U, val_L)
                 for train_L, train_U, val_L, _ in kfold_indices(L, U, 5, seed=2)]
        # fold 1 trains without class 2: its start vector for that column is zero
        train_L, train_U, val_L = folds[1]
        folds[1] = (train_L[L.y[train_L] == 1], train_U, val_L)
        return L, support, median_heuristic(support), folds

    def test_matches_per_fold_factorizations(self, pooled):
        # every fold's validation scores, at every lambda and in every
        # column, the novel one included, against the scores of its own
        # Cholesky solve
        L, support, median, folds = pooled
        n_l = len(L)
        assert len({len(train_U) for _, train_U, _ in folds}) == 2
        for mult in DEFAULT_SIGMA_MULTIPLIERS:
            G = gram(KernelSpec(mult * median), support, support)
            before = G.copy()
            fold_scores = _square_loss_fold_scores(*_blocks(G, n_l), L.y, 2, THETA, folds,
                                                   DEFAULT_LAMBDAS)
            # the solve reads the floored Gram and changes none of it
            assert np.array_equal(G, before)
            assert len(fold_scores) == len(folds)
            for (train_L, train_U, val_L), scores in zip(folds, fold_scores):
                sup = np.concatenate([train_L, n_l + train_U])
                val_U = np.setdiff1d(np.arange(len(G) - n_l), train_U)
                val = np.concatenate([val_L, n_l + val_U])
                G_f = before[np.ix_(sup, sup)]
                assert scores.shape == (len(val), len(DEFAULT_LAMBDAS), 3)
                for i, lam in enumerate(DEFAULT_LAMBDAS):
                    alpha = _unbuffered_square_alpha(G_f, L.y[train_L], 2, len(train_L),
                                                     len(train_U), THETA, lam)
                    ref = before[np.ix_(val, sup)] @ alpha
                    assert np.max(np.abs(scores[:, i] - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_sparse_and_factor_operators_match_per_fold_factorizations(self, pooled):
        # the forms of G_UU that cross-validation chooses: the sparse block
        # at 0.01x median and a pivoted-Cholesky factor at 10x, whose error
        # moves each fold's solution by at most FACTOR_SOLUTION_TOLERANCE
        # relative (measured: 1.5e-14 and 3.8e-12 against the references)
        L, support, median, folds = pooled
        n_l = len(L)
        unlabeled = support[n_l:]
        forms = []
        for mult in DEFAULT_SIGMA_MULTIPLIERS:
            spec = KernelSpec(mult * median)
            form, operator = _unlabeled_operator(spec, unlabeled, min(len(f[1]) for f in folds),
                                                 min(DEFAULT_LAMBDAS))
            forms.append(form)
            if operator is None:
                continue
            G = gram(spec, support, support)
            fold_scores = _square_loss_fold_scores(*_blocks(G, n_l), L.y, 2, THETA, folds,
                                                   DEFAULT_LAMBDAS, operator)
            for (train_L, train_U, val_L), scores in zip(folds, fold_scores):
                sup = np.concatenate([train_L, n_l + train_U])
                val_U = np.setdiff1d(np.arange(len(unlabeled)), train_U)
                val = np.concatenate([val_L, n_l + val_U])
                for i, lam in enumerate(DEFAULT_LAMBDAS):
                    alpha = _unbuffered_square_alpha(G[np.ix_(sup, sup)], L.y[train_L], 2,
                                                     len(train_L), len(train_U), THETA, lam)
                    ref = G[np.ix_(val, sup)] @ alpha
                    assert (np.max(np.abs(scores[:, i] - ref))
                            <= FACTOR_SOLUTION_TOLERANCE * np.max(np.abs(ref)))
        assert forms == ["sparse", "dense", "dense", "factor"]

    def test_failure_names_the_fold(self, pooled, monkeypatch):
        L, support, median, folds = pooled
        # fold 3 keeps one training-unlabeled row, so its recurrences reach
        # their one-step cap first
        folds = list(folds)
        folds[3] = (folds[3][0], folds[3][1][:1], folds[3][2])
        G = gram(KernelSpec(median), support, support)
        monkeypatch.setattr(eulac.solver, "KRYLOV_TOLERANCE", -1.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"cap of 1 steps") as info:
            _square_loss_fold_scores(*_blocks(G, len(L)), L.y, 2, THETA, folds, (1e-2,))
        assert info.value.fold == 3

    def test_nonfinite_solution_names_fold_and_lambda(self, pooled, monkeypatch):
        # one entry of fold 2's first known-column solution at the second
        # weight overflows; it reaches that fold's novel column too
        L, support, median, folds = pooled
        lanczos = eulac.solver._shifted_lanczos

        def overflowing(*args):
            x, products = lanczos(*args)
            x[2 * 3 + 1, 0, 1] = np.inf  # 3 = K + 1 start vectors per fold
            return x, products

        monkeypatch.setattr(eulac.solver, "_shifted_lanczos", overflowing)
        G = gram(KernelSpec(median), support, support)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^square-loss solution is not finite at lambda=0\.1$") as info:
            _square_loss_fold_scores(*_blocks(G, len(L)), L.y, 2, THETA, folds,
                                     (1e-2, 0.1, 1.0))
        assert info.value.fold == 2


class TestFactorRefit:
    """At wide bandwidths the refit solves by one shifted-Lanczos run on a
    pivoted-Cholesky factor of G_UU, and its certificate reads the floored
    kernel on every path."""

    def test_factor_refit_matches_dense(self, monkeypatch):
        # at 10x median a factor under rank_cap exists; it moves each score
        # column's unlabeled solution by at most FACTOR_SOLUTION_TOLERANCE
        # of its norm (measured: at most 0.104 of it), and no G_UU is built
        L, U = small_train_data(seed=5, n_l=100, n_u=300)
        n_l, n_u = len(L), len(U)
        kernel = KernelSpec(10.0 * median_heuristic(np.vstack([L.X, U.X])))
        shapes, build = [], eulac.solver.gram

        def recording_gram(*args):
            G = build(*args)
            shapes.append(G.shape)
            return G

        monkeypatch.setattr(eulac.solver, "gram", recording_gram)
        for lam in DEFAULT_LAMBDAS:
            del shapes[:]
            factored = fit_square_closed_form(L, U, kernel, THETA, lam)
            assert shapes == [(n_l, n_l + n_u)]
            with monkeypatch.context() as patch:
                patch.setattr(eulac.solver, "pivoted_cholesky", lambda *args: None)
                dense = fit_square_closed_form(L, U, kernel, THETA, lam)
            assert shapes[1:] == [(n_l, n_l + n_u), (n_u, n_u)]
            np.testing.assert_array_equal(factored.alpha[:n_l], dense.alpha[:n_l])
            gap = np.linalg.norm(factored.alpha - dense.alpha, axis=0)
            assert np.all(gap <= FACTOR_SOLUTION_TOLERANCE
                          * np.linalg.norm(dense.alpha[n_l:], axis=0))

    def test_certificate_floor_is_the_jitter(self, monkeypatch):
        # seed-1 bundled-spec data at 500/1000, 1x median, lambda 1e-3: the
        # certificate reads about 2.7e-8, because the solve adds GRAM_JITTER
        # to its shift and the certificate is the plain objective's
        # gradient.  Without the jitter it reads below 1e-11 on the dense
        # path (9.8e-15) and on the factor path's Krylov run (5.3e-14)
        spec = dataclasses.replace(parse_synthetic_spec(BUNDLED_SPEC.read_text()), seed=1)
        L, U, _ = sample_synthetic(spec, 500, 1000, 1)
        kernel = KernelSpec(median_heuristic(np.vstack([L.X, U.X])))
        factors, factor = [], eulac.solver.pivoted_cholesky
        monkeypatch.setattr(eulac.solver, "pivoted_cholesky",
                            lambda *args: factors.append(factor(*args)) or factors[-1])
        jittered = fit_square_closed_form(L, U, kernel, THETA, 1e-3).record
        assert jittered.final_gradient_norm > 1e-9
        monkeypatch.setattr(eulac.solver, "GRAM_JITTER", 0.0)
        assert fit_square_closed_form(L, U, kernel, THETA, 1e-3).record.final_gradient_norm <= 1e-11
        assert factors[-1] is not None
        monkeypatch.setattr(eulac.solver, "pivoted_cholesky", lambda *args: None)
        assert fit_square_closed_form(L, U, kernel, THETA, 1e-3).record.final_gradient_norm <= 1e-11

    def test_certificate_reads_floored_tiles(self, monkeypatch):
        # on the dense form both of the certificate's G_UU products clamp
        # and floor their tiles; on the sparse form they read the sparse
        # block, whose entries are gram's, and the two products agree
        L, U = small_train_data(seed=3, n_l=60, n_u=200)
        kernel = _narrow_kernel(L, U)
        floors, product = [], eulac.solver._tiled_product
        monkeypatch.setattr(eulac.solver, "_tiled_product",
                            lambda *args, floored: floors.append(floored) or product(
                                *args, floored=floored))
        fit_square_closed_form(L, U, kernel, THETA, 1e-2)
        assert floors == []
        with monkeypatch.context() as patch:
            patch.setattr(eulac.solver, "sparse_gram", lambda *args: None)
            fit_square_closed_form(L, U, kernel, THETA, 1e-2)
        assert floors == [True, True]
        support = np.vstack([L.X, U.X])
        G_L = gram(kernel, support[:len(L)], support)
        R = np.random.default_rng(0).normal(size=(len(support), 3))
        form, sparse = _unlabeled_operator(kernel, U.X, len(U), 1e-2)
        tiled = _pooled_product(G_L, _floored_tile_product(kernel, U.X), R)
        assert form == "sparse"
        np.testing.assert_allclose(_pooled_product(G_L, sparse, R), tiled, rtol=1e-14, atol=0.0)


class TestSparseRefit:
    """At narrow bandwidths the refit solves by one shifted-Lanczos run on
    the sparse floored block of G_UU and builds no n_u x n_u array."""

    def test_sparse_refit_matches_dense(self, monkeypatch):
        # at 0.01x median the run reads gram's entries exactly; each score
        # column's unlabeled solution is within FACTOR_SOLUTION_TOLERANCE of
        # the Cholesky one's norm (measured: at most 7.1e-4 of it)
        L, U = small_train_data(seed=5, n_l=100, n_u=300)
        n_l, n_u = len(L), len(U)
        kernel = _narrow_kernel(L, U)
        shapes, build = [], eulac.solver.gram
        forms, choose = [], eulac.solver._unlabeled_operator
        monkeypatch.setattr(eulac.solver, "gram",
                            lambda *args: shapes.append((G := build(*args)).shape) or G)
        monkeypatch.setattr(eulac.solver, "_unlabeled_operator",
                            lambda *args: forms.append(choose(*args)) or forms[-1])
        for lam in DEFAULT_LAMBDAS:
            del shapes[:], forms[:]
            sparse = fit_square_closed_form(L, U, kernel, THETA, lam)
            assert shapes == [(n_l, n_l + n_u)]
            with monkeypatch.context() as patch:
                patch.setattr(eulac.solver, "sparse_gram", lambda *args: None)
                dense = fit_square_closed_form(L, U, kernel, THETA, lam)
            assert [form for form, _ in forms] == ["sparse", "dense"]
            assert shapes[1:] == [(n_l, n_l + n_u), (n_u, n_u)]
            np.testing.assert_array_equal(sparse.alpha[:n_l], dense.alpha[:n_l])
            gap = np.linalg.norm(sparse.alpha - dense.alpha, axis=0)
            assert np.all(gap <= FACTOR_SOLUTION_TOLERANCE
                          * np.linalg.norm(dense.alpha[n_l:], axis=0))

    def test_refit_forms_at_the_default_bandwidths(self, monkeypatch):
        # the bundled spec at 500/1000 (seed 1), lambda 1e-3: the refit
        # takes the forms cross-validation takes, and only the dense one,
        # at 0.1x median, factors by Cholesky
        spec = dataclasses.replace(parse_synthetic_spec(BUNDLED_SPEC.read_text()), seed=1)
        L, U, _ = sample_synthetic(spec, 500, 1000, 1)
        median = median_heuristic(np.vstack([L.X, U.X]))
        forms, choose = [], eulac.solver._unlabeled_operator
        factors, factor = [], eulac.solver.cho_factor
        monkeypatch.setattr(eulac.solver, "_unlabeled_operator",
                            lambda *args: forms.append(choose(*args)) or forms[-1])
        monkeypatch.setattr(eulac.solver, "cho_factor",
                            lambda *args, **kwargs: factors.append(forms[-1][0]) or factor(
                                *args, **kwargs))
        for mult in DEFAULT_SIGMA_MULTIPLIERS:
            fit_square_closed_form(L, U, KernelSpec(mult * median), spec.theta, 1e-3)
        assert [form for form, _ in forms] == ["sparse", "dense", "factor", "factor"]
        assert factors == ["dense"]


class TestSquareLossMemory:
    """The square-loss solves hold one n_u x n_u array at a time, with no
    n_l-row block beside cross-validation's Krylov run and no scaled copy
    beside the refit's factor.  Peaks are tracemalloc's, in bytes."""

    # besides the blocks and the basis: the start, mask and weight vectors,
    # the solutions, the folds' products and each gram call's floor masks
    # (at most 4 x 256 x n_u booleans).  At these sizes a design that held
    # G_L through the run, or a scaled copy of G_UU beside the refit's G_UU,
    # exceeded the bounds by 1.2 MB and 10.1 MB
    SLACK = 1.5e6

    def test_cross_validation_run_holds_no_labeled_block(self, monkeypatch):
        L, U = small_train_data(seed=2, n_l=300, n_u=600)
        n_u = len(U)
        median = median_heuristic(np.vstack([L.X, U.X]))
        builds, bases = [], []
        build = eulac.modelsel.gram
        lanczos = eulac.solver._shifted_lanczos

        def recording_gram(*args):
            G = build(*args)
            builds.append((G.shape, weakref.ref(G)))
            return G

        def checking_lanczos(product, starts, shifts, masks, scales):
            # G_LL and G_LU are gone; the operator multiplies by the G_UU
            # build, which is still held: a unit vector's product is its row
            assert [shape for shape, _ in builds] == [(len(L), len(L)), (len(L), n_u),
                                                      (n_u, n_u)]
            assert [ref() is None for _, ref in builds] == [True, True, False]
            row = np.empty((1, n_u))
            product(np.eye(1, n_u, 7), row)
            assert np.array_equal(row[0], builds[-1][1]()[7])
            # the basis Q, (p, steps, n_u), and the products kept off the
            # masks, (steps, off-mask rows); no run here outgrows 64 steps
            caps = masks.sum(axis=1)
            steps = min(int(caps.max()), 64)
            bases.append(8 * steps * (starts.size + int((n_u - caps).sum())))
            return lanczos(product, starts, shifts, masks, scales)

        monkeypatch.setattr(eulac.modelsel, "gram", recording_gram)
        monkeypatch.setattr(eulac.solver, "_shifted_lanczos", checking_lanczos)
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=DEFAULT_LAMBDAS, folds=2)
        tracemalloc.start()
        try:
            cross_validate(L, U, THETA, grid, seed=0, median=median)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        basis, = bases
        # G_LU is built again for the labeled validation rows, after the run
        assert [shape for shape, _ in builds][3:] == [(len(L), n_u)]
        assert peak < 8 * n_u**2 + basis + self.SLACK

    def test_sparse_refit_holds_no_unlabeled_block(self):
        # at 0.01x median the refit holds G_L, the sparse block and its
        # Krylov basis, and its certificate reads the sparse block, so no
        # n_u x n_u array is made; a dense G_UU alone is 11.5 MB here
        L, U = small_train_data(seed=2, n_l=300, n_u=1200)
        n_l, n_u = len(L), len(U)
        kernel = _narrow_kernel(L, U)
        tracemalloc.start()
        try:
            fit_square_closed_form(L, U, kernel, THETA, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the basis Q of the run's K + 1 recurrences, (K + 1, 64 steps, n_u)
        basis = 8 * 3 * 64 * n_u
        assert 8 * n_l * (n_l + n_u) + basis + self.SLACK < 8 * n_u**2
        assert peak < 8 * n_l * (n_l + n_u) + basis + self.SLACK

    def test_refit_holds_one_unlabeled_block_beside_the_labeled_rows(self):
        # the factor overwrites the G_UU build; the certificate's tiles come
        # after it is dropped
        L, U = small_train_data(seed=2, n_l=300, n_u=1200)
        n_l, n_u = len(L), len(U)
        kernel = KernelSpec(median_heuristic(np.vstack([L.X, U.X])))
        tracemalloc.start()
        try:
            fit_square_closed_form(L, U, kernel, THETA, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tiles = 8 * eulac.kernel._worker_count(n_u) * min(TILE_ROWS, n_u) * n_u
        assert peak < 8 * n_l * (n_l + n_u) + max(8 * n_u**2, tiles) + self.SLACK


class _CountingProducts(np.ndarray):
    """An operator that counts the matrix products it takes part in: one per
    TILE_ROWS-column tile of each Lanczos step, so one per step when n is at
    most one tile."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountingProducts.products += ufunc is np.matmul
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


class TestShiftedLanczos:
    def test_basis_grows_past_its_first_block(self, monkeypatch):
        # 250 eigenvalues spread over four decades and a shift at the bottom
        # of the spectrum: the run takes about 200 steps, so its 64-step
        # basis grows twice
        rng = np.random.default_rng(0)
        n = 250
        eigvecs, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = (eigvecs * np.geomspace(1e-4, 1.0, n)) @ eigvecs.T
        A = (A + A.T) / 2.0
        starts = rng.normal(size=(2, n))
        shifts = np.array([1e-4, 1e-2])
        monkeypatch.setattr(_CountingProducts, "products", 0)
        x, _ = _shifted_lanczos(_dense_product(A.view(_CountingProducts)), starts, shifts,
                                np.ones((2, n)), np.ones(2))
        assert _CountingProducts.products > 128
        for r in range(2):
            for j, shift in enumerate(shifts):
                ref = np.linalg.solve(A + shift * np.eye(n), starts[r])
                assert np.max(np.abs(x[r, :, j] - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [250, 700, 1000])
    def test_same_bits_on_any_cpu_count(self, monkeypatch, n):
        # 250 is one tile; 700 and 1,000 end in a short tile, and split the
        # product's tiles unevenly over 2 and 4 workers (more threads than
        # CPUs where CPUs are few, at a short switch interval: a tile lost or
        # read from another step would move the result).  Per-worker blocks
        # cut at tile boundaries moved bits at n = 700 with 4 workers.
        # Three folds' masks, each with a mask and a data start vector, and
        # three shifts, as cross-validation runs them.
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        A = gram(KernelSpec(median_heuristic(X)), X, X)
        masks = np.ones((6, n))
        for f in range(3):
            masks[2 * f:2 * f + 2, f::3] = 0.0
        starts = masks * np.repeat([[1.0], [0.0]], 3, axis=0)
        starts[1::2] = masks[1::2] * rng.normal(size=(3, n))
        scales = 1.0 / (2.0 * masks.sum(axis=1))
        shifts = 2.0 * np.array([1e-3, 1e-2, 1e-1]) + GRAM_JITTER
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 4):
                monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: cpus)
                tiles = (n + TILE_ROWS // 2) // TILE_ROWS
                assert eulac.kernel._worker_count(n) == min(cpus, tiles)
                results.append(_shifted_lanczos(_dense_product(A), starts, shifts, masks,
                                                scales))
        finally:
            sys.setswitchinterval(interval)
        # the solutions and the products kept off the masks
        for x, products in results[1:]:
            np.testing.assert_array_equal(x, results[0][0])
            assert len(products) == len(results[0][1]) == 6
            for kept, first in zip(products, results[0][1]):
                np.testing.assert_array_equal(kept, first)
        # and the result solves fold 0's data system at the smallest shift
        m = masks[1].astype(bool)
        system = A[np.ix_(m, m)] * scales[1] + shifts[0] * np.eye(m.sum())
        ref = np.linalg.solve(system, starts[1, m])
        assert np.max(np.abs(results[0][0][1, m, 0] - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_off_mask_products_equal_dense_products(self):
        # 250 eigenvalues over four decades and a shift at the bottom of the
        # spectrum: the run takes about 200 steps, so the kept products grow
        # with the basis.  Each row leaves out its own rows, one row none
        rng = np.random.default_rng(3)
        n = 250
        eigvecs, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = (eigvecs * np.geomspace(1e-4, 1.0, n)) @ eigvecs.T
        A = (A + A.T) / 2.0
        masks = np.ones((4, n))
        masks[0, ::5] = masks[1, 1::7] = masks[2, :40] = 0.0
        starts = masks * rng.normal(size=(4, n))
        shifts = np.array([1e-4, 1e-2, 1.0])
        x, products = _shifted_lanczos(_dense_product(A), starts, shifts, masks,
                                       np.array([1.0, 0.5, 2.0, 1.0]))
        assert [p.shape for p in products] == [(50, 3), (36, 3), (40, 3), (0, 3)]
        for r in range(3):
            dense = (A @ x[r])[masks[r] == 0.0]
            assert np.max(np.abs(products[r] - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_nonpositive_pivot_names_its_start_vector(self):
        # row 0's operator is -(-I) = I, row 1's is -I: shifted by 0.5, its
        # first pivot is -0.5
        n = 6
        starts = np.random.default_rng(1).normal(size=(2, n))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"not positive definite \(Lanczos pivot -5\.000e-01 at step 1\)"
                           ) as info:
            _shifted_lanczos(_dense_product(-np.eye(n)), starts, np.array([0.5]),
                             np.ones((2, n)), np.array([-1.0, 1.0]))
        assert info.value.row == 1

    def test_infinite_weight_rejected(self, instance):
        L, U, kernel, G = instance
        message = "regularization weight must be positive and finite, got inf"
        with pytest.raises(ValueError, match=message):
            fit_square_closed_form(L, U, kernel, THETA, float("inf"))
        folds = [(np.arange(len(L)), np.arange(len(U)), np.arange(0))]
        with pytest.raises(ValueError, match=message):
            _square_loss_fold_scores(*_blocks(_floored(G), len(L)), L.y, 2, THETA, folds,
                                     [0.1, float("inf")])


class TestFirstOrder:
    def test_logistic_converges_on_seeded_instance(self):
        L, U = small_train_data(seed=7, n_l=20, n_u=20)
        kernel = KernelSpec(median_heuristic(np.vstack([L.X, U.X])))
        model = fit_first_order(
            L, U, kernel, THETA,
            FitOptions(lam=0.1, max_iterations=5000, gradient_tolerance=1e-6), "logistic"
        )
        assert model.record.converged
        assert model.record.final_gradient_norm <= 1e-6
        assert model.record.iterations <= 5000

    def test_logistic_converges_at_benchmark_size(self):
        # the bundled spec at 150/300: Armijo-guarded gradient descent stopped
        # at its 5000-iteration cap here, unconverged, at this objective
        unconverged_objective = 1.1078601815175193
        spec = parse_synthetic_spec(BUNDLED_SPEC.read_text())
        L, U, _ = sample_synthetic(spec, 150, 300, 1)
        support = np.vstack([L.X, U.X])
        kernel = KernelSpec(median_heuristic(support))
        model = fit_first_order(L, U, kernel, spec.theta, FitOptions(lam=0.01), "logistic")
        assert model.record.converged
        assert model.record.final_gradient_norm <= 1e-6
        assert model.record.duality_gap is None
        G = gram(kernel, support, support)
        assert (objective(model.alpha, G, L, U, spec.theta, 0.01, "logistic")
                <= unconverged_objective)

    def test_double_hinge_converges_at_benchmark_size(self):
        # the bundled spec at 150/300: one L-BFGS-B run on the whole support
        # stopped here, unconverged, at this objective
        unconverged_objective = 0.42670080507410435
        spec = parse_synthetic_spec(BUNDLED_SPEC.read_text())
        L, U, _ = sample_synthetic(spec, 150, 300, 1)
        support = np.vstack([L.X, U.X])
        kernel = KernelSpec(median_heuristic(support))
        model = fit_first_order(L, U, kernel, spec.theta, FitOptions(lam=0.01), "double-hinge")
        assert model.record.converged
        # the gap decided the verdict; the gradient norm is a subgradient's
        assert 0.0 <= model.record.duality_gap <= DUAL_GAP_TOLERANCE
        G = gram(kernel, support, support)
        assert (objective(model.alpha, G, L, U, spec.theta, 0.01, "double-hinge")
                <= unconverged_objective)

    @pytest.mark.parametrize("kind", ["logistic", "double-hinge"])
    def test_labeled_rows_are_closed_form(self, instance, kind):
        L, U, kernel, _ = instance
        model = fit_first_order(L, U, kernel, THETA, FitOptions(lam=LAM), kind)
        expected = -_labeled_bracket(L.y, L.num_known_classes, THETA) / (2.0 * LAM)
        assert np.array_equal(model.alpha[:len(L)], expected)

    def test_record_reads_the_returned_point(self):
        L, U = small_train_data(seed=7, n_l=20, n_u=20)
        kernel = KernelSpec(1.0)
        G = gram(kernel, np.vstack([L.X, U.X]), np.vstack([L.X, U.X]))
        model = fit_first_order(L, U, kernel, THETA, FitOptions(lam=0.01, max_iterations=7),
                                "logistic")
        record = model.record
        # every one of the three score columns stops at the cap
        assert record.iterations == 3 * 7 and len(record.objective_history) == 2
        assert record.objective_history[0] == objective(
            np.zeros_like(model.alpha), G, L, U, THETA, 0.01, "logistic")
        assert record.objective_history[-1] == pytest.approx(
            objective(model.alpha, G, L, U, THETA, 0.01, "logistic"), rel=1e-12)
        grad = objective_gradient(model.alpha, G, L, U, THETA, 0.01, "logistic")
        assert record.final_gradient_norm == pytest.approx(np.max(np.abs(grad)), rel=1e-12)

    def test_objective_history_non_increasing(self):
        L, U = small_train_data(seed=13, n_l=20, n_u=20)
        kernel = KernelSpec(1.0)
        for kind in LOSS_KINDS:
            model = fit_first_order(
                L, U, kernel, THETA,
                FitOptions(lam=0.05, max_iterations=400, gradient_tolerance=1e-10), kind
            )
            hist = np.array(model.record.objective_history)
            assert np.all(np.diff(hist) <= 1e-12)

    @pytest.mark.parametrize("kind", ["logistic", "double-hinge"])
    def test_nonfinite_column_input_raises(self, instance, kind):
        L, U, kernel, G = instance
        offsets = np.zeros(len(U))
        offsets[3] = np.nan
        with pytest.raises(ValueError, match="loss input must be finite"):
            _column_coefficients(G[:, len(L):], len(L), offsets, -1.0, FitOptions(lam=LAM),
                                 kind)

    def test_nonconvergence_is_flagged(self):
        L, U = small_train_data(seed=7, n_l=20, n_u=20)
        model = fit_first_order(
            L, U, KernelSpec(1.0), THETA,
            FitOptions(lam=0.01, max_iterations=3, gradient_tolerance=1e-12), "logistic"
        )
        assert not model.record.converged

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(lam=0.0)
        with pytest.raises(ValueError):
            FitOptions(lam=1.0, max_iterations=0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 1e308, 0.0, -1.0])
    def test_unusable_weight_rejected(self, lam):
        # nan and inf were accepted and failed later as "loss input must be
        # finite"; 1e308 overflows the square-loss shift 2 lam
        message = f"regularization weight must be positive and finite, got {lam}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            FitOptions(lam=lam)


class TestPrediction:
    def test_zero_alpha_zero_scores(self, instance):
        L, U, kernel, _ = instance
        support = np.vstack([L.X, U.X])
        model = DualModel(support, np.zeros((60, 3)), kernel, "square", THETA, LAM, 2)
        np.testing.assert_array_equal(model.scores(L.X[:5]), np.zeros((5, 3)))

    def test_reproducing_single_coefficient(self, instance):
        L, U, kernel, _ = instance
        support = np.vstack([L.X, U.X])
        alpha = np.zeros((60, 3))
        alpha[0, 1] = 1.0
        model = DualModel(support, alpha, kernel, "square", THETA, LAM, 2)
        scores = model.scores(support[0])
        assert scores[0, 1] == pytest.approx(1.0)  # k(x, x) = 1

    def test_matches_naive_double_loop(self, instance):
        L, U, kernel, _ = instance
        rng = np.random.default_rng(5)
        support = np.vstack([L.X, U.X])
        alpha = rng.normal(size=(60, 3))
        model = DualModel(support, alpha, kernel, "square", THETA, LAM, 2)
        queries = rng.normal(size=(10, 2))
        fast = model.scores(queries)

        def k_pair(x, y):  # the Gaussian kernel written out, independent of gram
            return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * kernel.sigma ** 2)))

        for j in range(10):
            for k in range(3):
                naive = sum(alpha[i, k] * k_pair(queries[j], support[i]) for i in range(60))
                assert fast[j, k] == pytest.approx(naive, abs=1e-12)

    def test_representer_consistency(self, instance):
        L, U, kernel, G = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        np.testing.assert_allclose(model.scores(model.support_points),
                                   G @ model.alpha, atol=1e-12)

    def test_dimension_mismatch(self, instance):
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        with pytest.raises(ValueError, match="dimension"):
            predict_scores(model, np.zeros((2, 5)))


class TestBlockedPrediction:
    @pytest.fixture(scope="class")
    def model(self, instance):
        L, U, kernel, _ = instance
        return fit_square_closed_form(L, U, kernel, THETA, LAM)

    @pytest.mark.parametrize("m", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1,
                                   TILE_ROWS + TILE_ROWS // 2, GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS,
                                   GRAM_BLOCK_ROWS + 1, 2 * GRAM_BLOCK_ROWS + 513])
    def test_matches_one_shot_product(self, model, m, monkeypatch):
        queries = np.random.default_rng(m).normal(size=(m, 2))
        reference = gram(model.kernel, queries, model.support_points) @ model.alpha
        # at one worker, at this machine's CPU count and at the largest pool
        results = [predict_scores(model, queries)]
        for cpus in (1, GRAM_BLOCK_ROWS // TILE_ROWS):
            monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: cpus)
            results.append(predict_scores(model, queries))
        for blocked in results[1:]:
            np.testing.assert_array_equal(blocked, results[0])
        blocked = results[0]
        assert blocked.shape == reference.shape
        np.testing.assert_allclose(blocked, reference, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(predict_labels(blocked), predict_labels(reference))

    def test_zero_queries_rejected(self, model):
        with pytest.raises(ValueError):
            predict_scores(model, np.empty((0, 2)))

    def test_nonfinite_query_in_second_block_rejected(self, model):
        queries = np.zeros((GRAM_BLOCK_ROWS + 10, 2))
        queries[GRAM_BLOCK_ROWS + 3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            predict_scores(model, queries)

    def test_memory_does_not_grow_with_queries(self):
        # a one-shot 20000 x 1500 cross-Gram and its temporaries take ~720 MB
        rng = np.random.default_rng(9)
        support = rng.normal(size=(1500, 2))
        model = DualModel(support, rng.normal(size=(1500, 3)), KernelSpec(1.0),
                          "square", THETA, LAM, 2)
        queries = rng.normal(size=(20000, 2))
        tracemalloc.start()
        try:
            predict_scores(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestCertifiedLabels:
    M = 20000

    @pytest.fixture(scope="class")
    def bundled(self):
        spec = parse_synthetic_spec(BUNDLED_SPEC.read_text())
        L, U, T = sample_synthetic(spec, 500, 1000, self.M)
        median = median_heuristic(np.vstack([L.X, U.X]))
        models = {mult: fit_square_closed_form(L, U, KernelSpec(mult * median), spec.theta, 1e-3)
                  for mult in (1.0, 0.1)}
        return models, T.X

    @staticmethod
    def _fresh(model, alpha=None):
        return DualModel(model.support_points, model.alpha if alpha is None else alpha,
                         model.kernel, model.loss_kind, model.theta, model.lam,
                         model.num_known_classes)

    @staticmethod
    def _count_dense_rows(monkeypatch):
        rows = []
        dense = eulac.solver.predict_scores

        def counted(model, queries):
            rows.append(len(queries))
            return dense(model, queries)

        monkeypatch.setattr(eulac.solver, "predict_scores", counted)
        return rows

    @staticmethod
    def _count_factorizations(monkeypatch):
        """(rank cap, pivot count or None when it gave up) of every factorization."""
        calls = []
        factor = eulac.solver.pivoted_cholesky

        def counted(spec, points, max_rank):
            result = factor(spec, points, max_rank)
            calls.append((max_rank, None if result is None else len(result[1])))
            return result

        monkeypatch.setattr(eulac.solver, "pivoted_cholesky", counted)
        return calls

    def test_rank_cap(self):
        assert rank_cap(1500) == 187
        assert rank_cap(60) == 7
        assert rank_cap(7) == 0

    # 5,000 queries is the benchmark's fit_square eval, 20,000 its eval_bulk
    @pytest.mark.parametrize("m", [5000, 20000])
    @pytest.mark.parametrize("mult", [1.0, 0.1])
    def test_equal_to_dense_labels(self, bundled, mult, m, monkeypatch):
        models, X = bundled
        X = X[:m]
        model = models[mult]
        reference = predict_labels(predict_scores(model, X))
        rows = self._count_dense_rows(monkeypatch)
        calls = self._count_factorizations(monkeypatch)
        np.testing.assert_array_equal(model.predict(X), reference)
        assert len(calls) == 1 and calls[0][0] == rank_cap(1500)
        pivots = calls[0][1]
        if mult == 1.0:
            # the low-rank path, with a few near-tie rows scored densely
            assert pivots is not None and pivots <= rank_cap(1500)
            assert len(rows) == 1 and 0 < rows[0] < len(X) // 100
        else:
            # 0.1x needs far more than n / 8 pivots: every row is scored densely
            assert pivots is None
            assert rows == [len(X)]

    def test_radius_bounds_the_score_error(self, bundled):
        models, X = bundled
        model = models[1.0]
        expansion = low_rank_expansion(model, 100)
        approx = gram(model.kernel, X, model.support_points[expansion.pivots]) @ expansion.beta
        error = np.max(np.abs(approx - predict_scores(model, X)), axis=0)
        assert np.all(error <= expansion.radius)

    @pytest.mark.parametrize("gap", [0.0, 1e-12])
    def test_forced_near_ties_fall_back(self, bundled, gap, monkeypatch):
        models, X = bundled
        alpha = models[1.0].alpha.copy()
        alpha[:, 1] = alpha[:, 0] + gap * np.abs(alpha[:, 0])
        model = self._fresh(models[1.0], alpha)
        dense = predict_scores(model, X)
        rows = self._count_dense_rows(monkeypatch)
        calls = self._count_factorizations(monkeypatch)
        labels = model.predict(X)
        np.testing.assert_array_equal(labels, predict_labels(dense))
        # every row won by one of the twin columns is scored densely
        twins = np.max(dense[:, :2], axis=1) >= dense[:, 2]
        assert len(calls) == 1 and calls[0][1] is not None
        assert len(rows) == 1 and rows[0] >= np.count_nonzero(twins)
        if gap == 0.0:
            # twin scores tie, and the tie goes to the smaller index
            tied = dense[:, 0] == dense[:, 1]
            assert np.all(labels[tied & twins] == 1)

    def test_factored_at_every_call(self, bundled, monkeypatch):
        models, X = bundled
        model = models[1.0]
        calls = self._count_factorizations(monkeypatch)
        text = model.to_json()
        for queries in (X[:1500], X, X[:1500]):
            model.predict(queries)
        # the cap and the pivots depend on the model alone, not on the queries
        assert len(calls) == 3 and len(set(calls)) == 1
        assert model.to_json() == text

    @pytest.mark.parametrize("m, factored", [(1499, 0), (1500, 1)])
    def test_fewer_queries_than_support_points_scored_densely(self, bundled, monkeypatch,
                                                             m, factored):
        # n = 1,500: below it the dense product costs less than the factorization
        models, X = bundled
        model = models[1.0]
        reference = predict_labels(predict_scores(model, X[:m]))
        calls = self._count_factorizations(monkeypatch)
        np.testing.assert_array_equal(model.predict(X[:m]), reference)
        assert len(calls) == factored

    def test_checks_queries_like_predict_scores(self, bundled):
        model = self._fresh(bundled[0][1.0])
        with pytest.raises(ValueError, match="dimension"):
            model.predict(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="at least one"):
            model.predict(np.empty((0, 2)))
        queries = np.zeros((self.M, 2))
        queries[-1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            certified_labels(model, queries)

    # rank 193 at sigma 1 (every row dense), 60 at sigma 3 (low rank)
    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_memory_does_not_grow_with_queries(self, sigma, monkeypatch):
        rng = np.random.default_rng(9)
        support = rng.normal(size=(1500, 2))
        model = DualModel(support, rng.normal(size=(1500, 3)), KernelSpec(sigma),
                          "square", THETA, LAM, 2)
        queries = rng.normal(size=(20000, 2))
        calls = self._count_factorizations(monkeypatch)
        tracemalloc.start()
        try:
            model.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1 and (calls[0][1] is None) == (sigma == 1.0)
        assert peak < 40e6


class TestLabelRule:
    def test_argmax(self):
        assert predict_labels([0.2, 0.5, -0.1]).tolist() == [2]

    def test_tie_breaks_to_smallest_index(self):
        assert predict_labels([[0.5, 0.5, 0.1], [0.3, 0.3, 0.3]]).tolist() == [1, 1]

    def test_novel_when_maximal(self):
        assert predict_labels([-1.0, -2.0, 0.3]).tolist() == [3]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            predict_labels([np.nan, 0.0])
        with pytest.raises(ValueError):
            predict_labels(np.array([[np.inf, 0.0]]))

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(50, 4))
        np.testing.assert_array_equal(predict_labels(scores), predict_labels(3.7 * scores))


class TestConvexity:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_midpoint_below_chord(self, instance, kind):
        L, U, kernel, G = instance
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.normal(size=(60, 3))
            b = rng.normal(size=(60, 3))
            mid = objective((a + b) / 2, G, L, U, THETA, LAM, kind)
            chord = 0.5 * (objective(a, G, L, U, THETA, LAM, kind)
                           + objective(b, G, L, U, THETA, LAM, kind))
            assert mid <= chord + 1e-10


class TestSerialization:
    def test_roundtrip_bit_exact(self, instance, tmp_path):
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        path = tmp_path / "model.json"
        path.write_text(model.to_json(), encoding="utf-8")
        back = DualModel.load(path)
        np.testing.assert_array_equal(back.alpha, model.alpha)
        np.testing.assert_array_equal(back.support_points, model.support_points)
        assert back.kernel.sigma == model.kernel.sigma
        assert back.theta == model.theta and back.lam == model.lam
        assert back.to_json() == model.to_json()

    @pytest.mark.parametrize("n, d", [(9, 1), (3, 2), (0, 2)])
    def test_text_is_json_text_of_the_list_payload(self, n, d):
        # the arrays are written without json's encoder; the text must be
        # json_text's of the payload with the arrays as lists, byte for byte
        special = [-0.0, 5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 2.5e-7]
        values = np.resize(special, n * (d + 3))
        support, alpha = values[:n * d].reshape(n, d), values[n * d:].reshape(n, 3)
        model = DualModel(support, alpha, KernelSpec(0.5), "logistic", 0.7, 1e-3, 2,
                          FitRecord(0, 0.0, False))
        assert model.to_json() == json_text({
            "format_version": 1, "kind": "dual_model", "kernel_sigma": 0.5, "loss": "logistic",
            "theta": 0.7, "lambda": 1e-3, "num_known_classes": 2,
            "support_points": support.tolist(), "alpha": alpha.tolist(), "converged": False})

    def test_predictions_survive_roundtrip(self, instance):
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        back = DualModel.from_json(model.to_json())
        rng = np.random.default_rng(9)
        q = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(model.scores(q), back.scores(q))

    def test_nonconverged_roundtrip_invents_nothing(self, instance):
        L, U, kernel, _ = instance
        model = fit_first_order(L, U, kernel, THETA,
                                FitOptions(lam=LAM, max_iterations=2), "logistic")
        assert not model.record.converged
        text = model.to_json()
        back = DualModel.from_json(text)
        assert back.record.converged is False
        assert back.record.iterations is None and back.record.final_gradient_norm is None
        assert back.record.objective_history == ()
        assert back.to_json() == text

    def test_model_without_record_is_not_saved(self, instance):
        # no solve gave it a verdict, so the writer does not invent one
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        bare = DualModel(model.support_points, model.alpha, kernel, "square", THETA, LAM, 2)
        with pytest.raises(ValueError, match="no convergence verdict"):
            bare.to_json()
        # a loaded model keeps only the verdict, and that is enough to save it
        text = model.to_json()
        loaded = DualModel.from_json(text)
        assert loaded.record == FitRecord(None, None, True)
        assert loaded.to_json() == text

    @pytest.mark.parametrize("name", ["support_points", "alpha"])
    @pytest.mark.parametrize("row", [lambda row: [0.0], lambda row: {"x": 0.0},
                                     lambda row: "0.0x", lambda row: ["0.5"] + row[1:],
                                     lambda row: [True] + row[1:]],
                             ids=["ragged", "object", "string", "numeric-string", "true"])
    def test_malformed_array_named(self, instance, name, row):
        # float() would read "0.5" and true as numbers; a model file holds none
        L, U, kernel, _ = instance
        payload = json.loads(fit_square_closed_form(L, U, kernel, THETA, LAM).to_json())
        payload[name][1] = row(payload[name][1])
        with pytest.raises(ValueError, match=f"^model file: field '{name}' is not a "
                                             f"rectangular array of numbers$"):
            DualModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize("classes", [0, -1])
    def test_no_known_class_rejected(self, instance, classes):
        # a model of no known class has no label to predict; at -1 classes
        # its alpha has no column, whose argmax is undefined
        L, U, kernel, _ = instance
        payload = json.loads(fit_square_closed_form(L, U, kernel, THETA, LAM).to_json())
        payload["num_known_classes"] = classes
        payload["alpha"] = [row[:classes + 1] for row in payload["alpha"]]
        with pytest.raises(ValueError, match="^need at least one known class$"):
            DualModel.from_json(json.dumps(payload))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            DualModel.from_json('{"format_version": 99}')

    def test_nonfinite_support_rejected(self, instance):
        # json writes and reads these as the NaN, Infinity and -Infinity literals
        L, U, kernel, _ = instance
        model = fit_square_closed_form(L, U, kernel, THETA, LAM)
        for value in (np.nan, np.inf, -np.inf):
            payload = json.loads(model.to_json())
            payload["support_points"][3][1] = value
            with pytest.raises(ValueError, match="^support points must be finite$"):
                DualModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize("points", [[0.0, 1.0, 2.0], [[[0.0, 1.0]]], 1.0])
    def test_support_of_another_rank_rejected(self, points):
        payload = {"format_version": 1, "kind": "dual_model", "kernel_sigma": 1.0,
                   "loss": "square", "theta": THETA, "lambda": LAM, "num_known_classes": 2,
                   "support_points": points, "alpha": [[0.0, 0.0, 0.0]], "converged": True}
        with pytest.raises(ValueError, match="support points must be a 2-D array"):
            DualModel.from_json(json.dumps(payload))

    def test_nonfinite_alpha_rejected(self, instance):
        L, U, kernel, _ = instance
        with pytest.raises(ValueError, match="finite"):
            DualModel(np.vstack([L.X, U.X]), np.full((60, 3), np.nan),
                      kernel, "square", THETA, LAM, 2)
