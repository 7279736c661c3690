"""Gaussian kernel evaluation, Gram matrices and the median-distance bandwidth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

# Row-block height for kernel products whose row count grows with the input
# (prediction, Gram means): memory stays 8 * GRAM_BLOCK_ROWS * n_cols bytes.
# With numpy's bundled OpenBLAS on x86-64, 256- and 512-row blocks changed
# scores by up to 3.6e-13 (another BLAS kernel for the smaller product);
# 1024-row blocks matched the one-shot product bit for bit.
GRAM_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"bandwidth must be a positive finite real, got {self.sigma}")


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Gram matrix with entry (i, j) = k(rows[i], cols[j]).

    cdist keeps the accumulation order fixed, so the result is identical
    across runs and thread counts.  The kernel is computed in place in the
    cdist output, so the call makes one n x m allocation; the arithmetic is
    that of ``np.exp(-sq / (2 sigma^2))``.
    """
    r = _as_points(rows)
    c = _as_points(cols)
    if r.shape[0] == 0 or c.shape[0] == 0:
        raise ValueError("gram requires nonempty datasets")
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    out = cdist(r, c, metric="sqeuclidean")
    np.negative(out, out=out)
    out /= 2.0 * spec.sigma**2
    return np.exp(out, out=out)


def median_heuristic(points) -> float:
    """Median Euclidean distance over all distinct unordered pairs.

    Zero-distance pairs (duplicated points) count toward the median; an
    all-identical dataset has median 0 and is rejected because it cannot
    define a bandwidth.
    """
    pts = _as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    med = float(np.median(pdist(pts, metric="euclidean")))
    if med <= 0.0:
        raise ValueError("median pairwise distance is 0 (all points identical)")
    return med


# bandwidth candidates are decade multiples of the median pairwise distance
DEFAULT_SIGMA_MULTIPLIERS = (1e-2, 1e-1, 1.0, 10.0)
