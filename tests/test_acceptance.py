"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  The full module takes about a minute
on 2 vCPUs; the scaling study (criterion 7) dominates.

Run it alone with:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import time
from contextlib import contextmanager

import numpy as np

from eulac.cli import main
from eulac.data import bayes_risk_oracle, format_synthetic_spec, sample_synthetic
from eulac.evalbench import (
    ConfusionMatrix,
    macro_f1,
    run_excess_risk_check,
    run_unlabeled_scaling,
)
from eulac.kernel import KernelSpec, gram, median_heuristic
from eulac.losses import LOSS_KINDS
from eulac.mixture import estimate_theta
from eulac.modelsel import HyperGrid, fit_with_selection
from eulac.risk import (
    TheoryParams,
    generalization_bound,
    lac_risk_from_scores,
    zero_one_risk,
)
from eulac.solver import (
    FitOptions,
    fit_first_order,
    fit_square_closed_form,
    objective,
)

from conftest import random_finite_distribution, random_scores, small_train_data, two_cluster_spec
from oracles import (
    check_lac_condition,
    exact_lac_risk,
    exact_nonconvex_lac_risk,
    exact_ovr_risk,
    objective_gradient,
    ovr_reject_baseline,
    select_baseline_bandwidth,
)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS  {description} ({elapsed:.1f}s)", flush=True)


# the synthetic task shared by criteria 5, 7 and 9: two unit-variance known
# classes at (+-2, 0) and one novel class at (0, 3.5), known fraction 0.7
TASK_THETA = 0.7


def _task_spec(seed):
    return two_cluster_spec(TASK_THETA, seed)


def test_criterion_01_risk_equivalence_suite():
    with criterion(1, "exact OVR risk equals both LAC risk forms (100 random triples)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for i in range(100):
            dist = random_finite_distribution(rng, max_atoms=50)
            scores = random_scores(rng, len(dist.labels), dist.num_known_classes)
            kind = LOSS_KINDS[i % 3]
            ovr = exact_ovr_risk(scores, dist, kind)
            assert abs(ovr - exact_lac_risk(scores, dist, kind)) <= 1e-10
            assert abs(ovr - exact_nonconvex_lac_risk(scores, dist, kind)) <= 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_02_surrogate_condition():
    with criterion(2, "psi(z) - psi(-z) + z vanishes on [-10, 10] for all losses"):
        grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        for kind in LOSS_KINDS:
            assert check_lac_condition(kind, grid) <= 1e-12


def test_criterion_03_unbiasedness_monte_carlo():
    with criterion(3, "risk estimator is unbiased over 1000 independent draws"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        dist = random_finite_distribution(rng, max_atoms=30, theta=0.65)
        scores = random_scores(rng, len(dist.labels), dist.num_known_classes)
        exact = exact_ovr_risk(scores, dist, "square")

        draws = np.empty(1000)
        for i in range(1000):
            il = dist.sample_train(rng, 50)
            iu = dist.sample_test(rng, 50)
            draws[i] = lac_risk_from_scores(scores[il], dist.labels[il],
                                            scores[iu], dist.theta, "square")
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 3.0 * se
        assert time.perf_counter() - start < 30.0


def test_criterion_04_solver_optimality():
    with criterion(4, "closed form is stationary; first-order solver matches it"):
        labeled, unlabeled = small_train_data(seed=7, n_l=30, n_u=30)
        support = np.vstack([labeled.X, unlabeled.X])
        kernel = KernelSpec(median_heuristic(support))
        lam = 0.1

        closed = fit_square_closed_form(labeled, unlabeled, kernel, TASK_THETA, lam)
        assert closed.record.final_gradient_norm <= 1e-8

        iterative = fit_first_order(
            labeled, unlabeled, kernel, TASK_THETA,
            FitOptions(lam=lam, max_iterations=5000, gradient_tolerance=1e-9), "square"
        )
        G = gram(kernel, support, support)
        a = objective(closed.alpha, G, labeled, unlabeled, TASK_THETA, lam, "square")
        b = objective(iterative.alpha, G, labeled, unlabeled, TASK_THETA, lam, "square")
        assert abs(a - b) <= 1e-6

        rng = np.random.default_rng(11)
        h = 1e-6
        n = len(labeled) + len(unlabeled)
        for point in range(100):
            kind = LOSS_KINDS[point % 3]
            alpha = 0.4 * rng.normal(size=(n, 3))
            grad = objective_gradient(alpha, G, labeled, unlabeled, TASK_THETA, lam, kind)
            i, j = int(rng.integers(n)), int(rng.integers(3))
            up, down = alpha.copy(), alpha.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (objective(up, G, labeled, unlabeled, TASK_THETA, lam, kind)
                  - objective(down, G, labeled, unlabeled, TASK_THETA, lam, kind)) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_criterion_05_consistency_at_desk_scale():
    with criterion(5, "CV-selected model reaches the exact error floor within 0.05"):
        start = time.perf_counter()
        bayes = bayes_risk_oracle(_task_spec(0), 400)
        risks = []
        for seed in range(5):
            labeled, unlabeled, test = sample_synthetic(_task_spec(seed), 500, 1000, 10000)
            model, _ = fit_with_selection(labeled, unlabeled, TASK_THETA,
                                          HyperGrid(), seed=seed)
            risks.append(zero_one_risk(model.predict(test.X), test.y))
        assert abs(float(np.mean(risks)) - bayes) <= 0.05
        assert time.perf_counter() - start < 300.0


def test_criterion_06_excess_risk_transfer():
    with criterion(6, "0-1 excess risk bounded by the square-loss transfer bound (10 models)"):
        spec = _task_spec(0)
        K = spec.num_known_classes

        def bayes_scores(X):
            X = np.atleast_2d(X)
            joints = np.stack(
                [spec.theta * p * gm.pdf(X)
                 for p, gm in zip(spec.class_priors, spec.class_mixtures)]
                + [(1.0 - spec.theta) * spec.new_mixture.pdf(X)]
            )
            tot = joints.sum(axis=0)
            eta = np.where(tot > 0, joints / tot, 1.0 / (K + 1))
            return (2.0 * eta - 1.0).T

        def perturbed(scale, seed):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(2, K + 1))
            b = rng.normal(size=K + 1)
            def scores(X):
                X = np.atleast_2d(X)
                return bayes_scores(X) + scale * (np.tanh(X @ w) + b)
            return scores

        models = [
            lambda X: np.zeros((np.atleast_2d(X).shape[0], K + 1)),
            bayes_scores,
            perturbed(0.1, 1),
            perturbed(0.3, 2),
            perturbed(1.0, 3),
            lambda X: np.tile([-1.0, -1.0, 1.0], (np.atleast_2d(X).shape[0], 1)),
        ]
        for seed, lam in ((4, 1e-3), (5, 1e-1), (6, 1.0), (7, 1e-2)):
            labeled, unlabeled, _ = sample_synthetic(_task_spec(seed), 100, 200, 10)
            kernel = KernelSpec(median_heuristic(np.vstack([labeled.X, unlabeled.X])))
            models.append(fit_square_closed_form(labeled, unlabeled, kernel,
                                                 TASK_THETA, lam))
        assert len(models) == 10
        for i, model in enumerate(models):
            check = run_excess_risk_check(spec, model, seed=100 + i)
            assert check.passed, f"model {i}: lhs={check.lhs} rhs={check.rhs}"


def test_criterion_07_unlabeled_scaling():
    with criterion(7, "more unlabeled data helps: positive rank correlation + shrinking bound"):
        report = run_unlabeled_scaling(
            _task_spec(0),
            sizes=(250, 500, 750, 1000, 1250, 1500),
            seeds=tuple(range(10)),
            n_labeled=500,
            n_test=1000,
            theta=TASK_THETA,
        )
        rho = report.spearman("macro_f1")
        assert rho is not None and rho > 0.0

        bounds = [
            generalization_bound(TheoryParams(
                norm_bound=1.0, kernel_bound=1.0, lipschitz=1.0, loss_sup=1.0,
                delta=0.05, theta=TASK_THETA, num_known_classes=2,
                n_labeled=500, n_unlabeled=n,
            ))
            for n in (250, 500, 750, 1000, 1250, 1500)
        ]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_criterion_08_theta_estimation():
    with criterion(8, "mixture-fraction estimate within 0.1 for theta in {0.5, 0.7, 0.9}"):
        for theta in (0.5, 0.7, 0.9):
            errors = []
            for seed in (0, 1, 2):
                spec = two_cluster_spec(theta, seed, new_mean=(8.0, 8.0))
                labeled, unlabeled, _ = sample_synthetic(spec, 1000, 1000, 10)
                kernel = KernelSpec(median_heuristic(np.vstack([labeled.X, unlabeled.X])))
                estimate = estimate_theta(labeled, unlabeled, kernel)
                errors.append(abs(estimate.theta_hat - theta))
            assert float(np.mean(errors)) <= 0.1, f"theta={theta}: errors {errors}"


def test_criterion_09_baseline_dominance():
    with criterion(9, "macro-F1 beats the rejecting OVR baseline by >= 5 points"):
        ours, theirs = [], []
        for seed in range(5):
            labeled, unlabeled, test = sample_synthetic(_task_spec(seed), 500, 1000, 1000)
            model, _ = fit_with_selection(labeled, unlabeled, TASK_THETA,
                                          HyperGrid(), seed=seed)
            baseline = ovr_reject_baseline(labeled, select_baseline_bandwidth(labeled), 1.0)
            K = labeled.num_known_classes
            ours.append(macro_f1(ConfusionMatrix.from_labels(
                test.y, model.predict(test.X), K)))
            theirs.append(macro_f1(ConfusionMatrix.from_labels(
                test.y, baseline.predict(test.X), K)))
        assert float(np.mean(ours)) - float(np.mean(theirs)) >= 0.05


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "gen and fit reruns produce byte-identical artifacts"):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(format_synthetic_spec(_task_spec(0)))

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        gen_args = ["gen", "--spec", str(spec_path), "--seed", "5",
                    "--n-labeled", "150", "--n-unlabeled", "250", "--n-test", "200"]
        assert main(gen_args + ["--out", str(tmp_path / "g1")]) == 0
        assert main(gen_args + ["--out", str(tmp_path / "g2")]) == 0
        for name in ("labeled.libsvm", "unlabeled.csv", "test.libsvm", "manifest.json"):
            assert digest(tmp_path / "g1" / name) == digest(tmp_path / "g2" / name)

        fit_args = ["fit", "--labeled", str(tmp_path / "g1" / "labeled.libsvm"),
                    "--unlabeled", str(tmp_path / "g1" / "unlabeled.csv"),
                    "--seed", "5", "--sigma-mult", "0.1", "1.0",
                    "--lambda", "0.01", "0.1", "--folds", "3"]
        assert main(fit_args + ["--out", str(tmp_path / "f1")]) == 0
        assert main(fit_args + ["--out", str(tmp_path / "f2")]) == 0
        for name in ("model.json", "cv_report.json", "theta.json"):
            assert digest(tmp_path / "f1" / name) == digest(tmp_path / "f2" / name)
