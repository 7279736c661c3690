import multiprocessing
import re
import sys
import threading

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import eulac.kernel
from eulac.kernel import (
    DEFAULT_SIGMA_MULTIPLIERS,
    GRAM_BLOCK_ROWS,
    KERNEL_FLOOR,
    PIVOT_TOLERANCE,
    TILE_ROWS,
    KernelSpec,
    _tiled_product,
    gram,
    gram_product,
    median_heuristic,
    pivoted_cholesky,
    sparse_gram,
)

from conftest import small_train_data


def _unfloored(sigma, X, Y) -> np.ndarray:
    """The textbook Gaussian Gram, with no floor."""
    return np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * sigma**2))


def _floored(G) -> np.ndarray:
    """G with its entries below KERNEL_FLOOR zeroed, in place."""
    np.copyto(G, 0.0, where=G < KERNEL_FLOOR)
    return G


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
        # 1e200**2 overflows (a Python OverflowError in the Gram); the
        # squares of 1e-200 and 1e-154 are 0 and subnormal
        for sigma in (1e200, 1e-200, 1e-154):
            with pytest.raises(ValueError,
                               match=re.escape(f"bandwidth {sigma} has a square outside")):
                KernelSpec(sigma)

    def test_extreme_normal_squares_accepted(self):
        assert KernelSpec(1e154).sigma == 1e154
        assert KernelSpec(1e-153).sigma == 1e-153


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
        expected = _floored(_unfloored(sigma, X, Y))
        np.testing.assert_array_equal(gram(KernelSpec(sigma), X, Y), expected)

    @pytest.mark.parametrize("mult", DEFAULT_SIGMA_MULTIPLIERS)
    def test_floored_build_equals_gram_then_floor(self, mult):
        # the Gram, clamped before its exp, has the bits of the textbook
        # Gram with its entries below the floor zeroed afterwards
        L, U = small_train_data(seed=3, n_l=60, n_u=200)
        X = np.vstack([L.X, U.X])
        spec = KernelSpec(mult * median_heuristic(X))
        expected = _unfloored(spec.sigma, X, X)
        if mult == min(DEFAULT_SIGMA_MULTIPLIERS):
            # the clamp is exercised: some entries are subnormal
            assert np.any((expected > 0) & (expected < np.finfo(float).tiny))
        _floored(expected)
        floored = gram(spec, X, X)
        np.testing.assert_array_equal(floored, expected)
        assert not np.any(np.signbit(floored))
        np.testing.assert_array_equal(gram(spec, X[:50], X), expected[:50])

    def test_overflowing_distances_give_finite_normal_entries(self):
        # squared distances near 4e400 overflow to inf; the exponent -inf
        # is clamped and its entry zeroed, so the solvers need no scan
        X = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200], [0.0, 0.0]])
        G = gram(KernelSpec(1e-3), X, X)
        assert np.all(np.isfinite(G))
        assert np.all((G >= 0.0) & (G <= 1.0))
        assert not np.any((G != 0.0) & (G < np.finfo(float).tiny))
        np.testing.assert_array_equal(G, np.eye(4))

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


# the usable CPU counts the tile pool is run at: one worker, this machine's
# count, and the largest pool (more threads than CPUs where CPUs are few)
CPU_COUNTS = (1, None, GRAM_BLOCK_ROWS // TILE_ROWS)


def _at_cpus(monkeypatch, cpus):
    if cpus is not None:
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: cpus)


class TestTiles:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("n", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1,
                                   TILE_ROWS + TILE_ROWS // 2, GRAM_BLOCK_ROWS + 1,
                                   5 * TILE_ROWS + 3])
    def test_bit_identical_to_untiled_reference(self, monkeypatch, cpus, n):
        # every entry is computed on its own, so no tile edge and no worker
        # count moves a bit; 0.05 puts entries under the floor and the clamp
        _at_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(n)
        X, Y = rng.normal(size=(n, 3)), rng.normal(size=(300, 3))
        for sigma in (0.05, 0.8):
            expected = _floored(_unfloored(sigma, X, Y))
            np.testing.assert_array_equal(gram(KernelSpec(sigma), X, Y), expected)

    @pytest.mark.parametrize("n", [1, 2, TILE_ROWS, TILE_ROWS + 1, 300, 383, 384, 9 * TILE_ROWS])
    def test_worker_count(self, monkeypatch, n):
        # a last tile shorter than half a tile gets no worker of its own
        full, rest = divmod(n, TILE_ROWS)
        tiles = max(full + (rest >= TILE_ROWS // 2), 1)
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: cpus)
            assert eulac.kernel._worker_count(n) == min(cpus, GRAM_BLOCK_ROWS // TILE_ROWS,
                                                        tiles)

    def test_each_tile_visited_once_in_row_order_per_worker(self):
        seen = []
        eulac.kernel._each_tile(7 * TILE_ROWS + 5, 3, lambda *tile: seen.append(tile))
        assert sorted(start for _, start, _ in seen) == list(range(0, 7 * TILE_ROWS + 5,
                                                                   TILE_ROWS))
        for worker, start, stop in seen:
            assert (start // TILE_ROWS) % 3 == worker
            assert stop == min(start + TILE_ROWS, 7 * TILE_ROWS + 5)

    def test_worker_error_reaches_the_caller(self):
        def work(worker, start, stop):
            if worker == 1:
                raise MemoryError("tile")
        with pytest.raises(MemoryError, match="tile"):
            eulac.kernel._each_tile(4 * TILE_ROWS, 2, work)

    def test_more_workers_than_cores_at_a_short_switch_interval(self, monkeypatch):
        # a tile lost, run twice or written into another worker's buffer
        # slice would leave rows of np.empty or of another tile
        rng = np.random.default_rng(11)
        X, Y, coef = (rng.normal(size=(40 * TILE_ROWS + 17, 2)), rng.normal(size=(200, 2)),
                      rng.normal(size=(200, 3)))
        spec = KernelSpec(0.7)
        expected = np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * spec.sigma**2))
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: 1)
        expected_product = gram_product(spec, X, Y, coef)
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: 64)
        assert eulac.kernel._worker_count(len(X)) == GRAM_BLOCK_ROWS // TILE_ROWS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                np.testing.assert_array_equal(gram(spec, X, Y), expected)
                np.testing.assert_array_equal(gram_product(spec, X, Y, coef), expected_product)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [TILE_ROWS + 1, 700, 1500])
    def test_square_loss_blocks_equal_pooled_blocks(self, n):
        # the square-loss solves build the unlabeled block and the labeled
        # rows apart, with partial last tiles at these sizes; each must hold
        # the pooled Gram's bits
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        n_l = n // 3
        for sigma in (0.05, 0.8):
            spec = KernelSpec(sigma)
            G = gram(spec, X, X)
            np.testing.assert_array_equal(gram(spec, X[n_l:], X[n_l:]), G[n_l:, n_l:])
            np.testing.assert_array_equal(gram(spec, X[:n_l], X), G[:n_l])

    def test_product_checks_rows_once(self, monkeypatch):
        calls = []
        checked = eulac.kernel._as_points
        monkeypatch.setattr(eulac.kernel, "_as_points", lambda x: calls.append(1) or checked(x))
        rng = np.random.default_rng(1)
        gram_product(KernelSpec(1.0), rng.normal(size=(5 * TILE_ROWS, 2)),
                     rng.normal(size=(30, 2)), np.ones((30, 2)))
        assert len(calls) == 1


def _save_gram(path, X):
    np.save(path, gram(KernelSpec(0.8), X, X))


class TestTilePool:
    def test_concurrent_callers_get_the_serial_result(self, monkeypatch):
        # two threads deal their tiles to the one pool at once; a tile run
        # into the other caller's buffer, or not run, would leave rows of
        # np.empty or of another Gram
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(700, 3)), rng.normal(size=(300, 3))
        spec = KernelSpec(0.8)
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: 1)
        expected = gram(spec, X, Y)
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: 4)
        assert eulac.kernel._worker_count(len(X)) == 3
        start = threading.Barrier(2)
        results = ([], [])

        def run(slot):
            start.wait(timeout=30)
            for _ in range(5):
                results[slot].append(gram(spec, X, Y))

        callers = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        for got in results:
            assert len(got) == 5
            for G in got:
                np.testing.assert_array_equal(G, expected)

    def test_repeated_calls_reuse_the_pool_threads(self, monkeypatch):
        # a pool of this test's own, so its first call makes every thread:
        # all four workers must meet at a barrier before any tile ends
        monkeypatch.setattr(eulac.kernel, "_tile_pool", None)
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: 4)
        workers = GRAM_BLOCK_ROWS // TILE_ROWS
        meet = threading.Barrier(workers)
        first, later = set(), set()

        def meet_all(*tile):
            first.add(threading.current_thread())
            meet.wait(timeout=30)

        eulac.kernel._each_tile(GRAM_BLOCK_ROWS, workers, meet_all)
        assert len(first) == workers
        threads = threading.active_count()
        X = np.random.default_rng(7).normal(size=(GRAM_BLOCK_ROWS, 2))
        for _ in range(5):
            gram(KernelSpec(0.8), X, X)
            eulac.kernel._each_tile(GRAM_BLOCK_ROWS, workers,
                                    lambda *tile: later.add(threading.current_thread()))
            assert threading.active_count() <= threads
        assert later <= first

    # Python 3.12+ warns at every fork of a process that has threads
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_makes_its_own_pool(self, monkeypatch, tmp_path):
        # the child inherits the parent's pool but none of its threads, so
        # tiles dealt to that pool would never run
        monkeypatch.setattr(eulac.kernel, "_usable_cpus", lambda: 4)
        X = np.random.default_rng(6).normal(size=(3 * TILE_ROWS + 1, 2))
        expected = gram(KernelSpec(0.8), X, X)
        child = multiprocessing.get_context("fork").Process(
            target=_save_gram, args=(tmp_path / "child.npy", X))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's gram did not return within 30 s")
        assert child.exitcode == 0
        np.testing.assert_array_equal(np.load(tmp_path / "child.npy"), expected)


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

    # pairs of p points: p = 3, 6, 7 give an odd count, p = 4, 5, 8 an even one
    @pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 40, 41])
    def test_bit_equal_to_np_median(self, p):
        rng = np.random.default_rng(p)
        points = [
            rng.normal(size=(p, 3)),
            rng.integers(0, 3, size=(p, 2)).astype(float),  # many tied distances
            np.repeat(rng.normal(size=(-(-p // 2), 2)), 2, axis=0)[:p],  # duplicates
        ]
        for X in points:
            assert median_heuristic(X) == float(np.median(pdist(X)))


class TestPivotedCholesky:
    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(3).normal(size=(400, 2))

    @staticmethod
    def _full(spec, points):
        """The factorization with a budget its progress check never reaches."""
        return pivoted_cholesky(spec, points, 3 * len(points))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_factor_reproduces_pivot_columns(self, points, sigma):
        spec = KernelSpec(sigma)
        L, pivots = self._full(spec, points)
        G = _unfloored(sigma, points, points)
        C = L[pivots]
        np.testing.assert_array_equal(C, np.tril(C))
        np.testing.assert_allclose(L @ C.T, G[:, pivots], rtol=0.0, atol=1e-14)
        # every residual diagonal is within the tolerance at the stop
        residual = 1.0 - np.einsum("ij,ij->i", L, L)
        assert residual.max() <= PIVOT_TOLERANCE + 1e-14
        # the first pivot's column is the Gram's column, bit for bit
        np.testing.assert_array_equal(L[:, 0], G[:, pivots[0]])
        assert len(np.unique(pivots)) == len(pivots)

    def test_pivot_order_is_greedy_and_deterministic(self, points):
        spec = KernelSpec(1.0)
        L, pivots = self._full(spec, points)
        again = self._full(spec, points.copy())
        np.testing.assert_array_equal(again[0], L)
        np.testing.assert_array_equal(again[1], pivots)
        # each pivot has the largest residual diagonal left by the ones before
        for j, p in enumerate(pivots):
            residual = 1.0 - np.einsum("ij,ij->i", L[:, :j], L[:, :j])
            residual[pivots[:j]] = 0.0
            assert residual[p] >= residual.max() - 1e-12

    def test_first_index_wins_ties(self):
        # every diagonal starts at 1, so index 0 is the first pivot; the two
        # points far from it then tie, and the smaller index goes first
        X = np.array([[0.0, 0.0], [50.0, 0.0], [-50.0, 0.0], [0.0, 0.01]])
        L, pivots = self._full(KernelSpec(1.0), X)
        assert pivots.tolist()[:3] == [0, 1, 2]
        # duplicated points leave no residual: the copy is never a pivot
        L, pivots = self._full(KernelSpec(1.0), np.vstack([X[:3], X[:3]]))
        assert pivots.tolist() == [0, 1, 2]

    @staticmethod
    def _count_columns(monkeypatch) -> list:
        """Counts the kernel columns built: one exp pass each."""
        columns, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda x, out: columns.append(1) or exp(x, out=out))
        return columns

    def test_gives_up_at_the_cap(self, points, monkeypatch):
        spec = KernelSpec(3.0)
        rank = len(self._full(spec, points)[1])
        columns = self._count_columns(monkeypatch)
        assert pivoted_cholesky(spec, points, rank - 1) is None
        assert len(columns) == rank - 1
        assert pivoted_cholesky(spec, points, 0) is None
        L, pivots = pivoted_cholesky(spec, points, rank)
        assert L.shape == (len(points), rank) and len(pivots) == rank

    def test_gives_up_at_a_third_without_progress(self, points, monkeypatch):
        # at sigma 1 these points need 142 pivots; after 47 the largest
        # residual is still above PIVOT_TOLERANCE ** (1/3), so a budget of
        # 142 ends there
        spec = KernelSpec(1.0)
        rank = len(self._full(spec, points)[1])
        assert rank == 142
        columns = self._count_columns(monkeypatch)
        assert pivoted_cholesky(spec, points, rank) is None
        assert len(columns) == rank // 3

    def test_tighter_tolerance_extends_the_same_pivots(self, points):
        # the pivot order does not depend on the tolerance: a tighter one
        # only goes on, and meets its own bound at the stop
        spec = KernelSpec(3.0)
        L, pivots = self._full(spec, points)
        tight, tight_pivots = pivoted_cholesky(spec, points, 3 * len(points), 1e-13)
        assert len(tight_pivots) > len(pivots)
        np.testing.assert_array_equal(tight_pivots[:len(pivots)], pivots)
        np.testing.assert_array_equal(tight[:, :len(pivots)], L)
        residual = 1.0 - np.einsum("ij,ij->i", tight, tight)
        assert residual.max() <= 1e-13 + 1e-14


class TestSparseGram:
    """The unlabeled block as a CSR matrix of gram's nonzero entries."""

    @staticmethod
    def _points(d):
        # a cluster, duplicated points, and points far from every other
        rng = np.random.default_rng(d)
        X = rng.normal(size=(300, d))
        X[40:46] = X[3]
        X[100:103] = 1e3 * np.arange(1, 4)[:, None] * np.ones(d)
        return X

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_equals_floored_gram_bit_for_bit(self, d):
        X = self._points(d)
        median = median_heuristic(X)
        shares = []
        for mult in (0.01, 0.05, 0.2, 1.0):
            spec = KernelSpec(mult * median)
            G = gram(spec, X, X)
            S = sparse_gram(spec, X, len(X) ** 2)
            # every entry gram keeps is stored with its bits, and no other
            assert S.nnz == np.count_nonzero(G)
            np.testing.assert_array_equal(S.toarray(), G)
            assert S.has_sorted_indices
            shares.append(S.nnz / len(X) ** 2)
        # from nearly diagonal to dense
        assert shares[0] < 0.1 and shares[-1] > 0.5

    def test_none_above_max_entries(self):
        X = self._points(2)
        spec = KernelSpec(0.05 * median_heuristic(X))
        nonzero = np.count_nonzero(gram(spec, X, X))
        assert sparse_gram(spec, X, nonzero - 1) is None
        assert sparse_gram(spec, X, nonzero).nnz == nonzero


class TestFlooredProduct:
    def test_reads_the_floored_gram(self):
        # columns about 14 sigma from every row have entries near e^-100,
        # below KERNEL_FLOOR: the floored product zeroes them, as gram does,
        # and the unfloored one keeps them
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 2)) * 0.1
        spec = KernelSpec(1.0)
        far = X + [14.1, 0.0]
        coef = rng.normal(size=(len(X), 2))
        assert not np.any(_tiled_product(spec, X, far, coef, floored=True))
        assert np.all(gram_product(spec, X, far, coef) != 0.0)
        # and elsewhere it is gram's product
        near = X[::-1] + [0.3, 0.0]
        np.testing.assert_allclose(_tiled_product(spec, X, near, coef, floored=True),
                                   gram(spec, X, near) @ coef, rtol=1e-13)
