"""Gaussian kernel evaluation, Gram matrices and the median-distance bandwidth."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

# Every kernel evaluation runs in tiles of TILE_ROWS rows.  A tile's cdist,
# scale, exp and product release the GIL, so the tiles are spread over up to
# GRAM_BLOCK_ROWS // TILE_ROWS workers, one per CPU this process may use: the
# calling thread and the threads of one pool that every kernel call of the
# process shares (``_each_tile``).  An entry does not depend on the tile
# that holds it, so every result is the same whatever the CPU count.  The
# shifted-Lanczos product v @ A runs on the same workers, one BLAS call per
# TILE_ROWS-column tile whatever the CPU count, so it too is the same on any
# number of CPUs.  One block per worker would not be: with numpy's bundled
# OpenBLAS 0.3.31 on x86-64 (Haswell kernels), a call of at most 1e6
# multiply-adds takes a small-matrix kernel that rounds differently, as did
# the last 4 columns of a 188-column end block at p = 20, n = 700.  So
# blocks cut at multiples of TILE_ROWS moved last bits at some shapes
# (p = 6, n = 700, 4 workers) but not at others (p = 20, n = 1000).
TILE_ROWS = 256
# Row-block height for kernel products whose row count grows with the input:
# the theta estimate's pass over the pooled Gram holds one block, and
# prediction holds one TILE_ROWS tile per thread, so kernel memory stays at
# most 8 * GRAM_BLOCK_ROWS * n_cols bytes.
# With numpy's bundled OpenBLAS on x86-64, the product of a full 256-row
# tile matched the one-shot product bit for bit; a shorter last tile takes
# another BLAS kernel and moved its scores by up to 4.4e-13.
GRAM_BLOCK_ROWS = 1024
# Every Gram that ``gram`` builds has its entries below this floor zeroed;
# otherwise the solves run on subnormal numbers at small bandwidths: the
# factorization slows five- to tenfold and the Lanczos products twofold.
# Zeroing entries below delta moves M = G_UU / (2 n_u) + 2 lambda I by at
# most delta / 2 in spectral norm, and M >= 2 lambda I, so the solution
# moves by at most delta / (4 lambda) relative: about 2.5e-28 at
# lambda = 1e-3.  Each entry of the start vectors G_UL B_L / (4 n_u) moves
# by at most delta theta / (4 n_u), against the ones start vector's 1.
# A score G alpha_k moves by at most delta ||alpha_k||_1, and a row sum of a
# Gram over n points, such as theta's kernel means, by at most n delta.
KERNEL_FLOOR = 1e-30
# pivoted_cholesky's default tolerance, the one prediction's factor takes: it
# stops once no residual diagonal of the Gram exceeds this.  The residual
# G - L L^T is positive semidefinite, so its spectral norm is at most n times
# it: at n = 1500 a function of RKHS norm 1 moves by at most
# sqrt(1500 x 1e-10) = 3.9e-4 anywhere.
PIVOT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"bandwidth must be a positive finite real, got {self.sigma}")
        # the kernel divides by 2 sigma^2: a square that overflows, or that
        # underflows to 0 or a subnormal, makes no usable kernel
        square = float(self.sigma) * float(self.sigma)
        if not np.finfo(float).tiny <= square < np.inf:
            raise ValueError(f"bandwidth {self.sigma} has a square outside the normal "
                             "floating-point range")


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _point_pair(rows: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
    """The 2-D point arrays rows and cols, C-ordered; refused when either is
    empty or their dimensions differ."""
    r = np.ascontiguousarray(rows, dtype=float)
    c = np.ascontiguousarray(cols, dtype=float)
    if r.shape[0] == 0 or c.shape[0] == 0:
        raise ValueError("gram requires nonempty datasets")
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    return r, c


def _fill(out: np.ndarray, spec: KernelSpec, rows: np.ndarray, cols: np.ndarray,
          mask: np.ndarray | None = None) -> None:
    """Write k(rows[i], cols[j]) into the C-ordered ``out`` in place.

    The exponent is -||rows[i] - cols[j]||^2 / (2 sigma^2), scaled in one
    pass: IEEE division is sign-symmetric, so this equals negating and then
    dividing bit for bit.  Given a boolean ``mask`` of out's shape, the
    exponents are clamped at log(KERNEL_FLOOR) - 1 before the exp and the
    entries below KERNEL_FLOOR are zeroed after it (see ``gram``), with the
    mask as the only scratch, so a tile worker allocates no array.
    No check runs here: this is one tile's work, on points its caller
    checked.
    """
    cdist(rows, cols, metric="sqeuclidean", out=out)
    out /= -2.0 * spec.sigma**2
    if mask is not None:
        np.maximum(out, np.log(KERNEL_FLOOR) - 1.0, out=out)
    np.exp(out, out=out)
    if mask is not None:
        np.greater_equal(out, KERNEL_FLOOR, out=mask)
        out *= mask


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_rows: int) -> int:
    # a last tile shorter than half a tile gets no worker of its own: the
    # hand-off would cost more than its rows
    tiles = max((n_rows + TILE_ROWS // 2) // TILE_ROWS, 1)
    return min(_usable_cpus(), GRAM_BLOCK_ROWS // TILE_ROWS, tiles)


# the tile pool, and the pid of the process that made it
_tile_pool: tuple[int, ThreadPoolExecutor] | None = None


def _each_tile(n_rows: int, workers: int, work) -> None:
    """Call ``work(worker, start, stop)`` once for every TILE_ROWS-long tile
    [start, stop) of range(n_rows), spread over ``workers`` workers, and
    return when every tile is done.

    Worker 0 is the calling thread.  The others run on one pool of
    GRAM_BLOCK_ROWS // TILE_ROWS - 1 threads that every call of the process
    shares.  The pool is made on the first multi-worker call and made anew
    in a forked child, which has none of its parent's threads.
    Its threads outlive the call, so a loop of many parallel steps, such as
    a Lanczos run's products, starts none.  Concurrent callers queue their
    tiles on the same threads; no tile waits on another, so none blocks.
    Worker w takes tiles w, w + workers, ... in order.  The calling
    thread's error is raised first, then the first other worker's.
    ``work`` runs outside the calling thread, so it must not reach a
    module-level name that a tracer may wrap (``eulac.solver.gram`` and the
    like): a tracer keeps one span stack for the process.  Nor should it
    allocate an array: the buffers it writes into are allocated by the
    caller, so no worker thread grows a malloc arena.
    """
    global _tile_pool

    def share(worker):
        for start in range(worker * TILE_ROWS, n_rows, workers * TILE_ROWS):
            work(worker, start, min(start + TILE_ROWS, n_rows))

    if workers > 1 and (_tile_pool is None or _tile_pool[0] != os.getpid()):
        _tile_pool = (os.getpid(), ThreadPoolExecutor(GRAM_BLOCK_ROWS // TILE_ROWS - 1))
    others = [_tile_pool[1].submit(share, worker) for worker in range(1, workers)]
    try:
        share(0)
    finally:
        wait(others)
    for done in others:
        done.result()


def gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Gram matrix with entry (i, j) = k(rows[i], cols[j]), its entries
    below KERNEL_FLOOR zeroed.

    The n x m result is allocated once and filled in TILE_ROWS-row tiles,
    spread over one thread per usable CPU (at most GRAM_BLOCK_ROWS //
    TILE_ROWS).  Each tile is computed in place: cdist, one scaling pass,
    a clamp of the exponents at log(KERNEL_FLOOR) - 1, one exp pass and the
    floor.  The clamp keeps numpy's exp off its slow subnormal path (about
    70x slower at exp(-720) than at exp(-80)); a clamped entry lies below
    KERNEL_FLOOR / e, so it is zeroed either way, and the result equals
    ``np.exp(-sq / (2 sigma^2))`` with its entries below the floor zeroed,
    bit for bit.  For finite points every entry is 0 or a normal number in
    [KERNEL_FLOOR, 1]: a squared distance that overflows to inf gives the
    exponent -inf, which is clamped and then zeroed.  cdist keeps the
    accumulation order fixed and every entry is computed on its own, so the
    result is identical across runs, tile heights and thread counts.
    """
    r, c = _point_pair(_as_points(rows), _as_points(cols))
    out = np.empty((r.shape[0], c.shape[0]))
    workers = _worker_count(r.shape[0])
    # each worker's floor mask is allocated here, in the calling thread
    masks = np.empty((workers, min(TILE_ROWS, r.shape[0]), c.shape[0]), dtype=bool)

    def work(worker, start, stop):
        _fill(out[start:stop], spec, r[start:stop], c, masks[worker, :stop - start])

    _each_tile(r.shape[0], workers, work)
    return out


def gram_product(spec: KernelSpec, rows, cols, coef) -> np.ndarray:
    """``K @ coef`` without the n x m kernel matrix K of rows and cols.

    K is unfloored: the kernel rows that multiply coefficients are
    prediction's, and the low-rank factor that certifies its labels
    (``pivoted_cholesky``) is built from the same unfloored kernel.  Flooring
    would clamp and mask every tile, which slows a dense product, for a
    score move of at most KERNEL_FLOOR ||coef_k||_1.  ``cols`` must be a
    finite 2-D array, as a DualModel's support points are; only ``rows`` is
    checked, once.  Each tile worker (as in ``gram``) owns one TILE_ROWS x m
    slice of a buffer allocated here, evaluates each of its tiles of K into
    it and multiplies it by coef into the tile's rows of the result.  So
    kernel memory stays at most 8 x GRAM_BLOCK_ROWS x m bytes whatever the
    number of rows or CPUs, and the result does not depend on the CPU count.
    """
    return _tiled_product(spec, rows, cols, coef, floored=False)


def _tiled_product(spec: KernelSpec, rows, cols, coef, floored: bool) -> np.ndarray:
    """``gram_product``, or with ``floored`` the product with ``gram``'s
    floored K: each tile is clamped and floored as ``gram`` does, with one
    boolean mask per worker allocated here, so no tile holds a subnormal
    entry.  The refit's gradient certificate reads this one, the true
    floored kernel, on every form of G_UU but the sparse block."""
    r, c = _point_pair(_as_points(rows), cols)
    coef = np.asarray(coef, dtype=float)
    out = np.empty((r.shape[0], coef.shape[1]))
    workers = _worker_count(r.shape[0])
    tiles = np.empty((workers, min(TILE_ROWS, r.shape[0]), c.shape[0]))
    masks = np.empty(tiles.shape, dtype=bool) if floored else None

    def work(worker, start, stop):
        tile = tiles[worker, :stop - start]
        _fill(tile, spec, r[start:stop], c, None if masks is None else masks[worker, :stop - start])
        np.matmul(tile, coef, out=out[start:stop])

    _each_tile(r.shape[0], workers, work)
    return out


def sparse_gram(spec: KernelSpec, points, max_entries: float):
    """``gram(spec, points, points)`` as a CSR matrix that stores only its
    nonzero entries, or None when it would store more than ``max_entries``.

    Beyond the floor radius sigma sqrt(-2 ln KERNEL_FLOOR), 11.7 sigma, an
    entry lies below KERNEL_FLOOR and ``gram`` zeroes it.  A k-d tree
    (scipy's cKDTree) counts the ordered pairs, self-pairs included, within
    that radius widened by a relative 1e-9, so rounding keeps no entry of
    ``gram`` at or above the floor out; over ``max_entries`` it stops there,
    having spent the tree and the count.  Otherwise each pair i < j of the radius query gets its
    entry as ``gram`` computes it: the squared distance summed one
    coordinate at a time in coordinate order, as cdist's sqeuclidean does,
    the same scale, clamp, exp and floor.  So every stored entry equals
    ``gram``'s bit for bit, (i, j) and (j, i) alike, the diagonal is 1, and
    every entry ``gram`` zeroes is absent.  The columns of each row are
    ascending, so a product with the result sums each row in one fixed
    order.  ``points`` must be a finite 2-D array.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    n = pts.shape[0]
    tree = cKDTree(pts)
    radius = spec.sigma * math.sqrt(-2.0 * math.log(KERNEL_FLOOR)) * (1.0 + 1e-9)
    if tree.count_neighbors(tree, radius) > max_entries:
        return None
    first, second = tree.query_pairs(radius, output_type="ndarray").T
    value = np.zeros(len(first))
    for k in range(pts.shape[1]):
        step = pts[first, k] - pts[second, k]
        value += step * step
    value /= -2.0 * spec.sigma**2
    np.maximum(value, np.log(KERNEL_FLOOR) - 1.0, out=value)
    np.exp(value, out=value)
    kept = value >= KERNEL_FLOOR
    first, second, value = first[kept], second[kept], value[kept]
    diagonal = np.arange(n)
    # the COO form's conversion sorts each row's columns
    return csr_matrix((np.concatenate([value, value, np.ones(n)]),
                       (np.concatenate([first, second, diagonal]),
                        np.concatenate([second, first, diagonal]))), shape=(n, n))


def pivoted_cholesky(spec: KernelSpec, points, max_rank: int,
                     tolerance: float = PIVOT_TOLERANCE):
    """Greedy pivoted Cholesky factor of the Gram of ``points``, or None.

    Each step takes as pivot the point with the largest residual diagonal
    of G - L L^T, the first index on ties, and builds its unfloored kernel
    column with ``_fill``, in the calling thread; no n x n array is made.
    It stops once no residual diagonal exceeds ``tolerance`` and returns
    (L, pivots): L is n x P with G[:, pivots] = L L[pivots]^T,
    L[pivots] lower triangular.  G - L L^T is positive semidefinite, so its
    spectral norm is then at most n x tolerance.  Prediction takes the
    default PIVOT_TOLERANCE; the square-loss solves derive a tighter one
    from the solution error they allow (``solver._factor_tolerance``).

    It returns None when that needs more than ``max_rank`` pivots, having
    spent about n x max_rank^2 / 2 flops, or sooner, when the largest
    residual still exceeds tolerance ** (1/3) after max_rank // 3 pivots.
    The largest residual falls about geometrically with the pivot count: on
    the bundled spec at 1x median (500/1000, seeds 1-10) its log10 fell by
    0.13 to 0.15 a pivot from pivot 12 to pivot 50, and was -4.0 to -4.5 at
    pivot 33 of the 80-85 that PIVOT_TOLERANCE needs.  So a factorization
    that has not made a third of its progress in a third of its budget
    gives up there, for a third of the cost: at 0.1x median the largest
    residual stays near 1.  ``points`` must be a finite 2-D array, as a
    DualModel's support is.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    n = pts.shape[0]
    progress = tolerance ** (1.0 / 3.0)
    rows = np.empty((max_rank, n))  # row j is L's column j
    residual = np.ones(n)  # k(x, x) = 1
    scratch = np.empty(n)
    pivots = np.empty(max_rank, dtype=np.intp)
    for j in range(max_rank + 1):
        p = int(np.argmax(residual))
        if residual[p] <= tolerance:
            return rows[:j].T, pivots[:j].copy()
        if j == max_rank or (j == max_rank // 3 and residual[p] > progress):
            return None
        col = rows[j]
        _fill(col[None], spec, pts[p:p + 1], pts)
        if j:
            col -= np.matmul(rows[:j, p], rows[:j], out=scratch)
        col /= np.sqrt(residual[p])
        # zero in exact arithmetic: keeps L[pivots] lower triangular
        col[pivots[:j]] = 0.0
        residual -= np.square(col, out=scratch)
        residual[p] = 0.0
        pivots[j] = p


def median_heuristic(points) -> float:
    """Median Euclidean distance over all distinct unordered pairs.

    Zero-distance pairs (duplicated points) count toward the median; an
    all-identical dataset has median 0 and is rejected because it cannot
    define a bandwidth.
    """
    pts = _as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    dist = pdist(pts, metric="euclidean")
    # np.median's value from one partition: the middle order statistic, or
    # for an even count the mean of it and the largest value below it
    half = dist.size // 2
    dist.partition(half)
    med = float(dist[half] if dist.size % 2 else (dist[:half].max() + dist[half]) / 2.0)
    if med <= 0.0:
        raise ValueError("median pairwise distance is 0 (all points identical)")
    return med


# bandwidth candidates are decade multiples of the median pairwise distance
DEFAULT_SIGMA_MULTIPLIERS = (1e-2, 1e-1, 1.0, 10.0)
