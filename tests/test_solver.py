import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from eulac.data import (
    LabeledDataset,
    UnlabeledDataset,
    kfold_indices,
    parse_synthetic_spec,
    sample_synthetic,
)
from eulac.kernel import (
    DEFAULT_SIGMA_MULTIPLIERS,
    GRAM_BLOCK_ROWS,
    KernelSpec,
    gram,
    median_heuristic,
)
from eulac.losses import LOSS_KINDS
from eulac.modelsel import DEFAULT_LAMBDAS
from eulac.risk import empirical_lac_risk
import eulac.solver
from eulac.solver import (
    GRAM_JITTER,
    KERNEL_FLOOR,
    DualModel,
    FitOptions,
    _square_loss_alpha,
    _square_loss_fold_alphas,
    fit_first_order,
    fit_square_closed_form,
    objective,
    objective_gradient,
    predict_labels,
    predict_scores,
)

from conftest import small_train_data

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

    def test_novel_labels_rejected(self):
        L = LabeledDataset(np.random.default_rng(0).normal(size=(4, 2)), [1, 2, 3, 1], 2)
        U = UnlabeledDataset(np.zeros((3, 2)) + 0.5)
        with pytest.raises(ValueError, match="novel"):
            fit_square_closed_form(L, U, KernelSpec(1.0), THETA, LAM)

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


def _refit_alpha(G, y, n_l, lam, theta=THETA):
    """The refit's solve on a copy of a full training Gram."""
    return _square_loss_alpha(G.copy(), n_l, y, 2, theta, lam)


def _lanczos_alphas(G, y, n_l, lams, theta=THETA):
    """The cross-validation solve, on a copy of G, with one fold that trains
    on every row."""
    folds = [(np.arange(n_l), np.arange(G.shape[0] - n_l))]
    return _square_loss_fold_alphas(G.copy(), n_l, y, 2, theta, folds, lams)[0]


def _unbuffered_square_alpha(G, y, K, n_l, n_u, theta, lam):
    """The square-loss solve as written before the shared Fortran-order buffer:
    a C-order copy of the floored block and scipy's checked factorization."""
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
    rhs = -B[n_l:] - (G[n_l:, :n_l] @ alpha[:n_l]) / (2.0 * n_u)
    alpha[n_l:] = cho_solve(cho_factor(M, lower=True), rhs)
    return alpha


class TestSquareLossSystem:
    @pytest.fixture(scope="class")
    def narrow(self):
        # sigma = 0.01 x median: most unlabeled Gram entries underflow, and
        # some land on subnormal numbers
        L, U = small_train_data(seed=3, n_l=60, n_u=200)
        support = np.vstack([L.X, U.X])
        G = gram(KernelSpec(0.01 * median_heuristic(support)), support, support)
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

    def test_floored_block_has_no_subnormals(self, narrow):
        L, U, G = narrow
        n_l, n_u = len(L), len(U)
        tiny = np.finfo(float).tiny
        raw = G[n_l:, n_l:] / (2.0 * n_u)
        assert np.any((raw > 0) & (raw < tiny))
        floored = G.copy()
        _square_loss_alpha(floored, n_l, L.y, 2, THETA, 1e-2)  # floors its Gram in place
        A = floored[n_l:, n_l:] / (2.0 * n_u)
        assert not np.any((A != 0) & (np.abs(A) < tiny))

    def test_lanczos_start_vectors_have_no_subnormals(self, narrow, monkeypatch):
        # the start vectors read G_UL: unfloored, its subnormal entries carry
        # into them and every Lanczos product runs on subnormal numbers
        L, _, G = narrow
        starts = []
        lanczos = eulac.solver._shifted_lanczos

        def recording_lanczos(A, start_vectors, *args):
            starts.append(start_vectors.copy())
            return lanczos(A, start_vectors, *args)

        monkeypatch.setattr(eulac.solver, "_shifted_lanczos", recording_lanczos)
        _lanczos_alphas(G, L.y, len(L), DEFAULT_LAMBDAS)
        start_vectors, = starts
        tiny = np.finfo(float).tiny
        assert not np.any((start_vectors != 0) & (np.abs(start_vectors) < tiny))

    def test_bit_identical_to_unbuffered_solve(self):
        # every default bandwidth and lambda, each system solved once per lambda
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
        L, _, _, G = instance
        with pytest.raises(np.linalg.LinAlgError, match="condition estimate") as info:
            _refit_alpha(G, L.y, len(L), -1.0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestFoldLanczos:
    """One shifted-Lanczos run on the pooled Gram solves every fold's system."""

    @pytest.fixture(scope="class")
    def pooled(self):
        # 203 unlabeled rows in 5 folds: training blocks of 162 and 163 rows
        L, U = small_train_data(seed=9, n_l=80, n_u=203)
        support = np.vstack([L.X, U.X])
        folds = [(train_L, train_U) for train_L, train_U, _, _ in kfold_indices(L, U, 5, seed=2)]
        # fold 1 trains without class 2: its start vector for that column is zero
        train_L, train_U = folds[1]
        folds[1] = (train_L[L.y[train_L] == 1], train_U)
        return L, support, median_heuristic(support), folds

    def test_matches_per_fold_factorizations(self, pooled):
        L, support, median, folds = pooled
        n_l = len(L)
        assert len({len(train_U) for _, train_U in folds}) == 2
        for mult in DEFAULT_SIGMA_MULTIPLIERS:
            G = gram(KernelSpec(mult * median), support, support)
            before = G.copy()
            fold_alphas = _square_loss_fold_alphas(G, n_l, L.y, 2, THETA, folds, DEFAULT_LAMBDAS)
            # the Gram was floored in place and nothing else changed
            assert np.array_equal(G, np.where(before < KERNEL_FLOOR, 0.0, before))
            for (train_L, train_U), alphas in zip(folds, fold_alphas):
                sup = np.concatenate([train_L, n_l + train_U])
                G_f = before[np.ix_(sup, sup)]
                off_support = np.ones(len(G), dtype=bool)
                off_support[sup] = False
                for lam, alpha in zip(DEFAULT_LAMBDAS, alphas):
                    ref = _square_loss_alpha(G_f.copy(), len(train_L), L.y[train_L], 2, THETA,
                                             lam)
                    assert np.max(np.abs(alpha[sup] - ref)) <= 1e-10 * np.max(np.abs(ref))
                    assert not np.any(alpha[off_support])

    def test_failure_names_the_fold(self, pooled, monkeypatch):
        L, support, median, folds = pooled
        # fold 3 keeps one training-unlabeled row, so its recurrences reach
        # their one-step cap first
        folds = list(folds)
        folds[3] = (folds[3][0], folds[3][1][:1])
        G = gram(KernelSpec(median), support, support)
        monkeypatch.setattr(eulac.solver, "KRYLOV_TOLERANCE", -1.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"cap of 1 steps") as info:
            _square_loss_fold_alphas(G, len(L), L.y, 2, THETA, folds, (1e-2,))
        assert info.value.fold == 3


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
        G = gram(kernel, support, support)
        assert (objective(model.alpha, G, L, U, spec.theta, 0.01, "logistic")
                <= unconverged_objective)

    def test_record_reads_the_returned_point(self):
        L, U = small_train_data(seed=7, n_l=20, n_u=20)
        kernel = KernelSpec(1.0)
        G = gram(kernel, np.vstack([L.X, U.X]), np.vstack([L.X, U.X]))
        model = fit_first_order(L, U, kernel, THETA, FitOptions(lam=0.01, max_iterations=7),
                                "logistic")
        record = model.record
        assert record.iterations == 7 and len(record.objective_history) == 8
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

    @pytest.mark.parametrize("m", [1, GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS,
                                   GRAM_BLOCK_ROWS + 1, 2 * GRAM_BLOCK_ROWS + 513])
    def test_matches_one_shot_product(self, model, m):
        queries = np.random.default_rng(m).normal(size=(m, 2))
        reference = gram(model.kernel, queries, model.support_points) @ model.alpha
        blocked = predict_scores(model, queries)
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

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            DualModel.from_json('{"format_version": 99}')

    def test_nonfinite_alpha_rejected(self, instance):
        L, U, kernel, _ = instance
        with pytest.raises(ValueError, match="finite"):
            DualModel(np.vstack([L.X, U.X]), np.full((60, 3), np.nan),
                      kernel, "square", THETA, LAM, 2)
