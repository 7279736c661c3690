"""Gaussian kernel evaluation, Gram matrices and the median-distance bandwidth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist


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
    across runs and thread counts.
    """
    r = _as_points(rows)
    c = _as_points(cols)
    if r.shape[0] == 0 or c.shape[0] == 0:
        raise ValueError("gram requires nonempty datasets")
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    sq = cdist(r, c, metric="sqeuclidean")
    return np.exp(-sq / (2.0 * spec.sigma**2))


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
