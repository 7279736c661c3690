import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import eulac.mixture
from eulac.data import parse_synthetic_spec, sample_synthetic
from eulac.kernel import GRAM_BLOCK_ROWS, KernelSpec, gram, median_heuristic
from eulac.mixture import (CANDIDATE_GRID_SIZE, CANDIDATE_MAX, DEFAULT_SLOPE_THRESHOLD,
                           NU_SUPPORT_LIMIT, ThetaEstimate, _distance_curve, _simplex_qp,
                           estimate_theta)

from conftest import two_cluster_spec

FAR_NOVEL = (8.0, 8.0)
BUNDLED_SPEC = Path(__file__).resolve().parents[1] / "specs" / "two_known_one_new_2d.txt"


def _estimate(theta, seed, n=1000):
    spec = two_cluster_spec(theta, seed, new_mean=FAR_NOVEL)
    labeled, unlabeled, _ = sample_synthetic(spec, n, n, 10)
    kernel = KernelSpec(median_heuristic(np.vstack([labeled.X, unlabeled.X])))
    return estimate_theta(labeled, unlabeled, kernel)


class TestOverride:
    """A known theta is an estimate without a curve."""

    def test_passthrough(self):
        assert ThetaEstimate(0.7, curve=()).theta_hat == 0.7
        assert ThetaEstimate(1.0, curve=()).theta_hat == 1.0
        assert not ThetaEstimate(0.7, curve=()).no_novelty_detected
        assert ThetaEstimate(0.7, curve=()).knee is None
        assert ThetaEstimate(0.7, curve=()).slope_cut is None

    def test_open_interval(self):
        for value in (0.0, 1.2, -0.3, float("nan")):
            with pytest.raises(ValueError, match=rf"theta must lie in \(0, 1\], got {value}"):
                ThetaEstimate(value, curve=())

    def test_estimate_type_validates(self):
        with pytest.raises(ValueError):
            ThetaEstimate(0.0, curve=())


class TestEstimation:
    def test_no_novelty_gives_high_theta(self):
        est = _estimate(1.0, seed=5)
        assert est.theta_hat >= 0.9

    def test_half_mixture(self):
        est = _estimate(0.5, seed=0)
        assert abs(est.theta_hat - 0.5) <= 0.1

    def test_three_seed_average_error(self):
        errs = [abs(_estimate(0.7, seed=s).theta_hat - 0.7) for s in (0, 1, 2)]
        assert np.mean(errs) <= 0.1

    def test_curve_recorded(self):
        est = _estimate(0.5, seed=1, n=300)
        assert len(est.curve) >= 2
        cs = [c for c, _ in est.curve]
        assert cs[0] == 1.0 and cs == sorted(cs)
        assert all(d >= 0 for _, d in est.curve)

    def test_deterministic(self):
        a = _estimate(0.6, seed=2, n=400)
        b = _estimate(0.6, seed=2, n=400)
        assert a.theta_hat == b.theta_hat
        assert a.curve == b.curve

    def test_range_property(self):
        for seed in range(3):
            est = _estimate(float(np.random.default_rng(seed).uniform(0.3, 1.0)),
                            seed=seed, n=250)
            assert 0.0 < est.theta_hat <= 1.0

    def test_monotone_under_growing_novelty(self):
        # replacing more of the unlabeled set with novel draws must not
        # raise the estimate
        fractions = (0.0, 0.25, 0.5, 0.75)
        rhos = []
        for seed in range(5):
            hats = []
            for q in fractions:
                theta = 1.0 if q == 0.0 else 1.0 - q
                hats.append(_estimate(theta, seed=100 + seed, n=600).theta_hat)
            rhos.append(spearmanr(fractions, hats).statistic)
        assert np.mean(rhos) <= 0.0

    def test_degenerate_kernel_rejected(self):
        spec = two_cluster_spec(0.7, 0)
        labeled, unlabeled, _ = sample_synthetic(spec, 50, 50, 10)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_theta(labeled, unlabeled, KernelSpec(1e9))


class TestKnee:
    """theta_hat is 1/c at the left end of the curve's first flat segment."""

    @pytest.fixture(scope="class")
    def task(self):
        return _bundled_task(1, 150, 300)

    def test_default_threshold_reads_the_first_flat_segment(self, task):
        labeled, unlabeled, kernel = task
        est = estimate_theta(labeled, unlabeled, kernel)
        cs, ds = np.array(est.curve).T
        cut = DEFAULT_SLOPE_THRESHOLD * (1 / np.sqrt(len(labeled)) + 1 / np.sqrt(len(unlabeled)))
        knee = int(np.flatnonzero(np.abs(np.diff(ds) / np.diff(cs)) <= cut)[0])
        assert knee > 0
        assert est.knee == knee and est.slope_cut == cut
        assert est.theta_hat == 1.0 / cs[knee]
        assert not est.no_novelty_detected
        # the curve stops at the flat segment's right end
        assert len(est.curve) == knee + 2

    def test_flat_first_segment_detects_no_novelty(self, task):
        est = estimate_theta(*task, slope_threshold=1e300)
        assert est.theta_hat == 1.0
        assert est.no_novelty_detected
        assert est.knee == 0 and len(est.curve) == 2

    def test_no_flat_segment_reads_the_grid_end(self, task):
        est = estimate_theta(*task, slope_threshold=1e-300)
        assert est.theta_hat == 1.0 / CANDIDATE_MAX
        assert not est.no_novelty_detected
        # with no flat segment every candidate is still computed
        assert len(est.curve) == CANDIDATE_GRID_SIZE
        assert est.knee == CANDIDATE_GRID_SIZE - 1

    def test_one_qp_per_candidate_past_the_first(self, task, monkeypatch):
        # candidate 1 has no mixture part, so its distance needs no QP
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return _simplex_qp(*args)

        monkeypatch.setattr(eulac.mixture, "_simplex_qp", counting)
        for threshold in (DEFAULT_SLOPE_THRESHOLD, 1e300, 1e-300):
            calls[0] = 0
            est = estimate_theta(*task, slope_threshold=threshold)
            assert calls[0] == len(est.curve) - 1

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
    def test_threshold_must_be_positive_and_finite(self, task, threshold):
        # nan, 0 and -1 left no segment flat (theta_hat 0.05); inf made the
        # first one flat (theta_hat 1.0)
        with pytest.raises(ValueError, match="slope threshold must be a positive finite number"):
            estimate_theta(*task, slope_threshold=threshold)


def _random_qp(seed, m=40):
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(m, m))
    return Q @ Q.T / m + 1e-2 * np.eye(m), rng.normal(size=m)


@pytest.fixture()
def kkt_solves(monkeypatch):
    """Counts the dense KKT solves, which _simplex_qp makes through np.linalg.solve."""
    count = [0]
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        count[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return count


class TestSimplexQp:
    @pytest.mark.parametrize("seed", range(5))
    def test_cold_and_uniform_starts_agree(self, seed):
        P, g = _random_qp(seed)
        cold, cold_guard = _simplex_qp(P, 1.0, g, np.zeros(len(g)))
        warm, warm_guard = _simplex_qp(P, 1.0, g, np.full(len(g), 1.0 / len(g)))
        assert not cold_guard and not warm_guard
        np.testing.assert_allclose(cold, warm, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_kkt_conditions(self, seed):
        P, g = _random_qp(seed)
        w, _ = _simplex_qp(P, 1.0, g, np.zeros(len(g)))
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # equal gradients on the support give the equality multiplier; the
        # bound multipliers off the support must be nonnegative
        grad = P @ w + g
        support = w > 0
        mu = -float(np.mean(grad[support]))
        np.testing.assert_allclose(grad[support], -mu, rtol=0, atol=1e-10)
        assert np.min(grad[~support] + mu) >= -1e-10

    def test_cold_start_solves_scale_with_support(self, kkt_solves):
        P, g = _random_qp(0)
        g[:3] -= 5.0  # a few strongly preferred coordinates: small support
        w, guard = _simplex_qp(P, 1.0, g, np.zeros(len(g)))
        support = int(np.count_nonzero(w))
        assert not guard and support <= 5
        assert kkt_solves[0] <= support + 5

    def test_guard_hits_are_reported(self, monkeypatch):
        monkeypatch.setattr(eulac.mixture, "QP_GUARD_PER_COORDINATE", 0)
        monkeypatch.setattr(eulac.mixture, "QP_GUARD_SLACK", 1)
        assert _estimate(0.5, seed=0, n=300).qp_guard_hits > 0
        monkeypatch.undo()
        assert _estimate(0.5, seed=0, n=300).qp_guard_hits == 0


# KKT solves of estimate_theta on the criterion-8 data at seed 0, as
# measured; a uniform cold start for the first QP adds 513 to each
KKT_SOLVES_CRITERION_8_SEED_0 = {0.5: 957, 0.7: 1199, 0.9: 1206}


@pytest.mark.parametrize("theta", sorted(KKT_SOLVES_CRITERION_8_SEED_0))
def test_theta_kkt_solve_count(theta, kkt_solves):
    est = _estimate(theta, seed=0)
    assert est.qp_guard_hits == 0
    assert kkt_solves[0] <= KKT_SOLVES_CRITERION_8_SEED_0[theta] + 50


def _dense_simplex_qp(P, g, w0):
    """_simplex_qp as it was before it took the Hessian's scale apart: the
    caller scales P, every free block is gathered with np.ix_ and the bound
    multipliers come from the dense product P @ w."""
    m = len(g)
    w = w0.copy()
    clamped = w <= 0.0
    w[clamped] = 0.0
    total = w.sum()
    if total <= 0:
        best = int(np.argmin(0.5 * np.diag(P) + g))
        w[best] = 1.0
        clamped[best] = False
    else:
        w /= total
    ones = np.ones(m)
    for _ in range(eulac.mixture.QP_GUARD_PER_COORDINATE * m + eulac.mixture.QP_GUARD_SLACK):
        free = np.flatnonzero(~clamped)
        rhs = np.ones((len(free), 2))
        rhs[:, 0] = -g[free]
        sol = np.linalg.solve(P[np.ix_(free, free)], rhs)
        sum_x, sum_y = sol.sum(axis=0)
        mu = (sum_x - 1.0) / sum_y
        target = sol[:, 0] - mu * sol[:, 1]
        if np.all(target >= -1e-12):
            w = np.zeros(m)
            w[free] = np.maximum(target, 0.0)
            lagrange = P @ w + g + mu * ones
            blocked = np.flatnonzero(clamped)
            if len(blocked) == 0 or lagrange[blocked].min() >= -1e-10:
                return w, False
            clamped[blocked[np.argmin(lagrange[blocked])]] = False
            continue
        cur = w[free]
        delta = target - cur
        shrinking = delta < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(shrinking, cur / np.maximum(-delta, 1e-300), np.inf)
        t = min(1.0, float(ratios.min()))
        w_new = np.zeros(m)
        w_new[free] = np.maximum(cur + t * delta, 0.0)
        w = w_new / w_new.sum()
        hit = free[np.argmin(ratios)]
        clamped[hit] = True
        w[hit] = 0.0
        if w.sum() > 0:
            w /= w.sum()
    return w, True


@pytest.mark.parametrize("theta", [0.5, 0.7, 0.9])
def test_curve_bit_identical_to_dense_qp(theta, monkeypatch):
    # the free-row blocks and multipliers leave the criterion-8 curve
    # unchanged to the last bit
    curve = np.array(_estimate(theta, seed=0).curve)
    monkeypatch.setattr(eulac.mixture, "_simplex_qp",
                        lambda P, scale, g, w0: _dense_simplex_qp(scale * P, g, w0))
    assert np.array_equal(curve, np.array(_estimate(theta, seed=0).curve))


def _bundled_task(seed, n_l, n_u):
    spec = dataclasses.replace(parse_synthetic_spec(BUNDLED_SPEC.read_text()), seed=seed)
    labeled, unlabeled, _ = sample_synthetic(spec, n_l, n_u, 10)
    return labeled, unlabeled, KernelSpec(median_heuristic(np.vstack([labeled.X, unlabeled.X])))


def _fsum_mean(kernel, X, Y):
    """Mean Gram entry through an exact sum of the dense Gram's row sums."""
    return math.fsum(gram(kernel, X, Y).sum(axis=1)) / (len(X) * len(Y))


class TestGramMean:
    """The three embedding means passed to _distance_curve are exact sums of
    the dense Gram's row sums, bit for bit, at one and at two row blocks."""

    @staticmethod
    def _check(n_l, n_u, monkeypatch):
        labeled, unlabeled, kernel = _bundled_task(1, n_l, n_u)
        seen = []

        def capturing(K_nu, ku, kl, a_uu, a_ul, a_ll, candidates, slope_cut):
            seen.append((a_uu, a_ul, a_ll))
            return _distance_curve(K_nu, ku, kl, a_uu, a_ul, a_ll, candidates, slope_cut)

        monkeypatch.setattr(eulac.mixture, "_distance_curve", capturing)
        estimate_theta(labeled, unlabeled, kernel)
        assert seen == [(_fsum_mean(kernel, unlabeled.X, unlabeled.X),
                         _fsum_mean(kernel, unlabeled.X, labeled.X),
                         _fsum_mean(kernel, labeled.X, labeled.X))]

    def test_one_block_is_the_dense_mean(self, monkeypatch):
        self._check(120, 200, monkeypatch)

    def test_several_blocks_match_the_dense_mean(self, monkeypatch):
        self._check(500, 1000, monkeypatch)


class TestSupportGram:
    @pytest.mark.parametrize("n_l, n_u", [(120, 200), (500, 1000)])
    def test_one_gram_matches_three(self, n_l, n_u, monkeypatch):
        # at 120/200 the support is the whole pool (m == n), where a
        # fancy-indexed column gather of the pooled Gram moves the curve
        labeled, unlabeled, kernel = _bundled_task(1, n_l, n_u)
        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            return gram(*args)

        monkeypatch.setattr(eulac.mixture, "gram", counting)
        est = estimate_theta(labeled, unlabeled, kernel)
        # one pass over the pooled Gram, one call per block of rows
        n = n_l + n_u
        assert len(calls) == math.ceil(n / GRAM_BLOCK_ROWS)

        pooled = np.vstack([labeled.X, unlabeled.X])
        m = min(n, NU_SUPPORT_LIMIT)
        support = pooled[np.unique(np.round(np.linspace(0, n - 1, m)).astype(int))]
        candidates = np.geomspace(1.0, CANDIDATE_MAX, CANDIDATE_GRID_SIZE)
        dists, knee, _ = _distance_curve(
            gram(kernel, support, support),
            gram(kernel, support, unlabeled.X).mean(axis=1),
            gram(kernel, support, labeled.X).mean(axis=1),
            _fsum_mean(kernel, unlabeled.X, unlabeled.X),
            _fsum_mean(kernel, unlabeled.X, labeled.X),
            _fsum_mean(kernel, labeled.X, labeled.X),
            candidates, est.slope_cut)
        assert knee == est.knee
        assert np.array_equal(np.array(est.curve),
                              np.column_stack([candidates[:len(dists)], dists]))

    @pytest.mark.parametrize("seed", [1, 6, 9])
    def test_gram_block_height_keeps_the_estimate(self, seed, monkeypatch):
        # every Gram entry and row sum is the dense one and the means add
        # the row sums exactly, so no block height moves the curve
        labeled, unlabeled, kernel = _bundled_task(seed, 500, 1000)
        ref = estimate_theta(labeled, unlabeled, kernel)
        for rows in (256, 1000, 1024):
            monkeypatch.setattr(eulac.mixture, "GRAM_BLOCK_ROWS", rows)
            est = estimate_theta(labeled, unlabeled, kernel)
            assert est.theta_hat == ref.theta_hat
            assert np.array_equal(np.array(est.curve), np.array(ref.curve))


def _estimate_and_full_curve(labeled, unlabeled, kernel, monkeypatch):
    """estimate_theta's estimate and, from the same inputs, the distances at
    every candidate under a cut that no segment meets."""
    full = []

    def capturing(*args):
        full.append(_distance_curve(*args[:-1], -1.0))
        return _distance_curve(*args)

    monkeypatch.setattr(eulac.mixture, "_distance_curve", capturing)
    est = estimate_theta(labeled, unlabeled, kernel)
    (dists, knee, _), = full
    assert knee == CANDIDATE_GRID_SIZE - 1 and len(dists) == CANDIDATE_GRID_SIZE
    return est, dists


@pytest.mark.parametrize("task", [
    *[("criterion 8", theta) for theta in (0.5, 0.7, 0.9)],
    *[("bundled", seed) for seed in (1, 2, 3)],
], ids=lambda task: f"{task[0]}-{task[1]}")
def test_curve_is_a_prefix_of_the_full_grid(task, monkeypatch):
    # the warm starts run in the same order, so stopping at the knee leaves
    # every computed distance unchanged to the last bit
    kind, value = task
    if kind == "bundled":
        labeled, unlabeled, kernel = _bundled_task(value, 500, 1000)
    else:
        spec = two_cluster_spec(value, 0, new_mean=FAR_NOVEL)
        labeled, unlabeled, _ = sample_synthetic(spec, 1000, 1000, 10)
        kernel = KernelSpec(median_heuristic(np.vstack([labeled.X, unlabeled.X])))
    est, dists = _estimate_and_full_curve(labeled, unlabeled, kernel, monkeypatch)
    candidates = np.geomspace(1.0, CANDIDATE_MAX, CANDIDATE_GRID_SIZE)
    full = np.column_stack([candidates, dists])
    assert len(est.curve) < CANDIDATE_GRID_SIZE
    assert np.array_equal(np.array(est.curve), full[:len(est.curve)])
    # the knee is the full curve's first flat segment
    slopes = np.abs(np.diff(dists) / np.diff(candidates))
    assert est.knee == int(np.flatnonzero(slopes <= est.slope_cut)[0])
    assert len(est.curve) == est.knee + 2
