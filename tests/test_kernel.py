import numpy as np
import pytest
from scipy.spatial.distance import cdist

from eulac.kernel import KernelSpec, gram, median_heuristic


def _pair(spec, x, y) -> float:
    """Kernel value of one pair, as a 1x1 Gram matrix."""
    G = gram(spec, x, y)
    assert G.shape == (1, 1)
    return G[0, 0]


class TestEvalKernel:
    def test_zero_distance(self):
        spec = KernelSpec(2.0)
        assert _pair(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_unit_distance_value(self):
        spec = KernelSpec(1.0)
        assert _pair(spec, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(
            0.6065306597126334, abs=1e-12
        )

    def test_wide_bandwidth_limit(self):
        spec = KernelSpec(1e8)
        assert _pair(spec, [0.0], [3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        spec = KernelSpec(0.7)
        for _ in range(50):
            x, y = rng.normal(size=3), rng.normal(size=3)
            v = _pair(spec, x, y)
            assert v == _pair(spec, y, x)
            assert 0.0 < v <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            _pair(KernelSpec(1.0), [0.0], [0.0, 1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            _pair(KernelSpec(1.0), [np.nan], [0.0])

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0)
        with pytest.raises(ValueError):
            KernelSpec(-1.0)


class TestGram:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        G = gram(KernelSpec(1.5), X, X)
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_array_equal(np.diag(G), np.ones(20))

    def test_line_points_frozen_values(self):
        # pairwise distances {1, 2, 3}
        X = np.array([[0.0], [1.0], [3.0]])
        G = gram(KernelSpec(1.0), X, X)
        assert G[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
        assert G[1, 2] == pytest.approx(np.exp(-2.0), abs=1e-15)
        assert G[0, 2] == pytest.approx(np.exp(-4.5), abs=1e-15)

    def test_cross_gram_transpose_exact(self):
        rng = np.random.default_rng(2)
        X, Y = rng.normal(size=(7, 2)), rng.normal(size=(11, 2))
        np.testing.assert_array_equal(gram(KernelSpec(0.9), X, Y),
                                      gram(KernelSpec(0.9), Y, X).T)

    def test_equals_exp_of_scaled_squared_distances(self):
        # the in-place computation does the arithmetic of the textbook formula
        rng = np.random.default_rng(8)
        X, Y = rng.normal(size=(40, 3)), rng.normal(size=(25, 3))
        sigma = 0.37
        expected = np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * sigma**2))
        np.testing.assert_array_equal(gram(KernelSpec(sigma), X, Y), expected)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 51))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            G = gram(KernelSpec(float(rng.uniform(0.3, 3.0))), X, X)
            assert np.linalg.eigvalsh(G).min() >= -1e-8

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 2))
        perm = rng.permutation(15)
        G = gram(KernelSpec(1.0), X, X)
        np.testing.assert_array_equal(G[np.ix_(perm, perm)],
                                      gram(KernelSpec(1.0), X[perm], X[perm]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram(KernelSpec(1.0), np.empty((0, 2)), np.zeros((3, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gram(KernelSpec(1.0), np.zeros((2, 2)), np.zeros((2, 3)))


class TestMedianHeuristic:
    def test_three_points_on_line(self):
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_single_pair(self):
        assert median_heuristic(np.array([[0.0], [5.0]])) == 5.0

    def test_duplicates_count_toward_median(self):
        # pairs of {a, a, b, b}: distances {0, 0, d, d, d, d} -> median d
        X = np.array([[0.0], [0.0], [2.0], [2.0]])
        dists = sorted(
            float(np.linalg.norm(X[i] - X[j])) for i in range(4) for j in range(i + 1, 4)
        )
        expected = float(np.median(dists))
        assert median_heuristic(X) == expected == 2.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 3))
        dists = [float(np.linalg.norm(X[i] - X[j]))
                 for i in range(12) for j in range(i + 1, 12)]
        assert median_heuristic(X) == pytest.approx(float(np.median(dists)), rel=1e-12)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            median_heuristic(np.zeros((4, 2)))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            median_heuristic(np.zeros((1, 2)))
