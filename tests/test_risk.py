import numpy as np
import pytest

from eulac.data import LabeledDataset, UnlabeledDataset
from eulac.losses import LOSS_KINDS, loss_value
from eulac.risk import (
    TheoryParams,
    empirical_lac_risk,
    generalization_bound,
    lac_risk_from_scores,
    zero_one_risk,
)

from conftest import random_finite_distribution, random_scores
from oracles import (
    FiniteDistribution,
    exact_lac_risk,
    exact_nonconvex_lac_risk,
    exact_ovr_risk,
    optimal_square_lac_risk,
)


class TestEmpiricalRisk:
    def test_zero_scores_square(self):
        # theta * 0 + psi(0) * (K + 1) with K = 1
        sl = np.zeros((4, 2))
        su = np.zeros((6, 2))
        assert lac_risk_from_scores(sl, [1, 1, 1, 1], su, 0.5, "square") == 0.5

    def test_hand_computed_example(self):
        # K=1, theta=0.6: labeled gap -1, unlabeled psi(2) + psi(1) = 0.25
        sl = np.array([[1.0, 0.0]])
        su = np.array([[-1.0, 2.0]])
        value = lac_risk_from_scores(sl, [1], su, 0.6, "square")
        assert value == pytest.approx(-0.35, abs=1e-15)

    def test_matches_exact_value_on_full_support(self):
        # replicate atoms by integer counts so the plain means reproduce the
        # exact expectations
        rng = np.random.default_rng(0)
        points = rng.normal(size=(5, 2))
        labels = np.array([1, 2, 1, 3, 3])  # last two atoms are novel
        counts = np.array([2, 3, 5, 4, 6])
        K = 2
        theta = 0.5  # known mass 10 / total 20
        probs = counts / counts.sum()
        dist = FiniteDistribution(points, labels, probs, theta, K)
        scores = random_scores(rng, 5, K)

        known_rows = np.repeat(np.arange(3), counts[:3])
        all_rows = np.repeat(np.arange(5), counts)
        labeled = LabeledDataset(points[known_rows], labels[known_rows], K)
        unlabeled = UnlabeledDataset(points[all_rows])

        for kind in LOSS_KINDS:
            emp = lac_risk_from_scores(scores[known_rows], labels[known_rows],
                                       scores[all_rows], theta, kind)
            assert emp == pytest.approx(exact_lac_risk(scores, dist, kind), abs=1e-12)

    def test_theta_validated(self):
        sl, su = np.zeros((1, 2)), np.zeros((1, 2))
        with pytest.raises(ValueError, match="theta"):
            lac_risk_from_scores(sl, [1], su, 0.0, "square")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lac_risk_from_scores(np.zeros((0, 2)), [], np.zeros((1, 2)), 0.5, "square")

    def test_callable_interface(self):
        rng = np.random.default_rng(1)
        L = LabeledDataset(rng.normal(size=(5, 2)), rng.integers(1, 3, 5), 2)
        U = UnlabeledDataset(rng.normal(size=(7, 2)))
        f = lambda X: np.atleast_2d(X) @ rng.normal(size=(2, 3))
        assert np.isfinite(empirical_lac_risk(f, L, U, 0.7, "logistic"))

    def test_novel_rows_rejected_in_labeled(self):
        L = LabeledDataset(np.zeros((2, 1)), [1, 2], 1)  # label 2 = novel for K=1
        U = UnlabeledDataset(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="novel"):
            empirical_lac_risk(lambda X: np.zeros((len(X), 2)), L, U, 0.5, "square")


class TestExactRisks:
    def test_zero_scores_ovr(self):
        rng = np.random.default_rng(2)
        dist = random_finite_distribution(rng, max_classes=2)
        dist = FiniteDistribution(dist.points, dist.labels, dist.probabilities,
                                  dist.theta, 2) if dist.num_known_classes == 2 else dist
        K = dist.num_known_classes
        scores = np.zeros((len(dist.labels), K + 1))
        expected = (K + 1) * 0.25
        assert exact_ovr_risk(scores, dist, "square") == pytest.approx(expected, abs=1e-12)

    def test_perfectly_margined_atom(self):
        dist = FiniteDistribution(np.zeros((1, 1)), [1], [1.0], 1.0, 2)
        scores = np.array([[1.0, -1.0, -1.0]])
        assert exact_ovr_risk(scores, dist, "square") == 0.0

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            dist = random_finite_distribution(rng, max_atoms=20)
            K = dist.num_known_classes
            scores = random_scores(rng, len(dist.labels), K)
            for kind in LOSS_KINDS:
                total = 0.0
                for i in range(len(dist.labels)):
                    y = dist.labels[i]
                    row = float(loss_value(kind, scores[i, y - 1]))
                    for k in range(1, K + 2):
                        if k != y:
                            row += float(loss_value(kind, -scores[i, k - 1]))
                    total += dist.probabilities[i] * row
                assert exact_ovr_risk(scores, dist, kind) == pytest.approx(total, abs=1e-12)

    def test_linear_form_equals_ovr(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dist = random_finite_distribution(rng)
            scores = random_scores(rng, len(dist.labels), dist.num_known_classes)
            for kind in LOSS_KINDS:
                ovr = exact_ovr_risk(scores, dist, kind)
                assert abs(exact_lac_risk(scores, dist, kind) - ovr) <= 1e-10
                assert abs(exact_nonconvex_lac_risk(scores, dist, kind) - ovr) <= 1e-10

    def test_zero_scores_lac_value(self):
        rng = np.random.default_rng(5)
        dist = random_finite_distribution(rng, max_classes=1)
        scores = np.zeros((len(dist.labels), 2))
        assert exact_lac_risk(scores, dist, "square") == pytest.approx(0.5, abs=1e-12)


class TestOptimalSquareRisk:
    def test_single_atom_matches_dense_scan(self):
        # brute-force the per-class minimum over a dense score grid
        dist = FiniteDistribution(np.zeros((2, 1)), [1, 2], [0.7, 0.3], 0.7, 1)
        fgrid = np.linspace(-3, 3, 6001)
        best = 0.0
        for eta in (0.7, 0.3):
            vals = eta * 0.25 * (1 - fgrid) ** 2 + (1 - eta) * 0.25 * (1 + fgrid) ** 2
            best += vals.min()
        assert optimal_square_lac_risk(dist) == pytest.approx(best, abs=1e-6)

    def test_never_exceeds_any_candidate(self):
        rng = np.random.default_rng(6)
        dist = random_finite_distribution(rng, max_atoms=15)
        opt = optimal_square_lac_risk(dist)
        for _ in range(50):
            scores = random_scores(rng, len(dist.labels), dist.num_known_classes)
            assert opt <= exact_ovr_risk(scores, dist, "square") + 1e-12


class TestZeroOneRisk:
    def test_identical(self):
        assert zero_one_risk([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint(self):
        assert zero_one_risk([1, 1, 1], [2, 2, 2]) == 1.0

    def test_half(self):
        # nc encoded as 3 with K = 2
        assert zero_one_risk([1, 2, 3, 1], [1, 3, 3, 2]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            zero_one_risk([1], [1, 2])


class TestGeneralizationBound:
    def _params(self, **kw):
        base = dict(norm_bound=1.0, kernel_bound=1.0, lipschitz=1.0, loss_sup=1.0,
                    delta=0.05, theta=0.7, num_known_classes=2,
                    n_labeled=1000, n_unlabeled=1000)
        base.update(kw)
        return TheoryParams(**base)

    def test_frozen_reference_value(self):
        assert generalization_bound(self._params()) == pytest.approx(
            1.5369443542047465, abs=1e-12
        )

    def test_vanishes_with_data(self):
        p = self._params(n_labeled=10**16, n_unlabeled=10**16)
        assert generalization_bound(p) < 1e-6

    def test_monotone_in_unlabeled_count(self):
        vals = [generalization_bound(self._params(n_unlabeled=n))
                for n in (100, 1000, 10000)]
        assert vals[0] > vals[1] > vals[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            self._params(delta=1.5)
        with pytest.raises(ValueError):
            self._params(norm_bound=-1.0)
        with pytest.raises(ValueError):
            self._params(theta=0.0)


class TestTransferInequality:
    """Square-loss surrogate excess bounds the 0-1 excess, exactly computable
    on a finite support with repeated feature points."""

    def _ambiguous_distribution(self, rng):
        # few distinct points, several labels per point, so conditional class
        # probabilities are genuinely mixed
        K = 2
        distinct = rng.normal(size=(4, 2))
        rows, labels, probs = [], [], []
        for i in range(4):
            present = rng.permutation(3)[: int(rng.integers(2, 4))] + 1
            mass = rng.dirichlet(np.ones(len(present)))
            for lbl, m in zip(present, mass):
                rows.append(distinct[i])
                labels.append(int(lbl))
                probs.append(m / 4.0)
        labels = np.array(labels)
        probs = np.array(probs)
        theta = float(probs[labels <= K].sum())
        if theta <= 0.0 or theta > 1.0:
            return None
        return FiniteDistribution(np.array(rows), labels, probs, theta, K), distinct

    def test_zero_one_excess_below_transfer_bound(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 50:
            built = self._ambiguous_distribution(rng)
            if built is None:
                continue
            dist, distinct = built
            K = dist.num_known_classes

            # scores must be a function of the feature point, so draw them
            # per distinct point and replicate across duplicate rows
            per_point = {tuple(p): rng.normal(size=K + 1) for p in distinct}
            scores = np.array([per_point[tuple(p)] for p in dist.points])

            pred = np.argmax(scores, axis=1) + 1
            risk01 = float(np.sum(dist.probabilities * (pred != dist.labels)))

            bayes = 0.0
            for p in distinct:
                mask = np.all(dist.points == p, axis=1)
                mass = dist.probabilities[mask].sum()
                eta = np.zeros(K + 1)
                for lbl, pr in zip(dist.labels[mask], dist.probabilities[mask]):
                    eta[lbl - 1] += pr
                bayes += mass - eta.max()

            excess = exact_lac_risk(scores, dist, "square") - optimal_square_lac_risk(dist)
            assert risk01 - bayes <= np.sqrt(2.0 * max(excess, 0.0)) + 1e-8
            checked += 1


class TestUnbiasedness:
    def test_sample_mean_near_exact_risk(self):
        rng = np.random.default_rng(7)
        dist = random_finite_distribution(rng, max_atoms=12, theta=0.6)
        K = dist.num_known_classes
        scores = random_scores(rng, len(dist.labels), K)
        exact = exact_ovr_risk(scores, dist, "square")

        draws = []
        for _ in range(300):
            il = dist.sample_train(rng, 40)
            iu = dist.sample_test(rng, 40)
            draws.append(lac_risk_from_scores(scores[il], dist.labels[il],
                                              scores[iu], dist.theta, "square"))
        draws = np.array(draws)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 3.0 * se
