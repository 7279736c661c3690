"""Gaussian kernel evaluation, Gram matrices and the median-distance bandwidth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

# Row-block height for kernel products whose row count grows with the input
# (prediction and the theta estimate's pass over the pooled Gram): memory
# stays 8 * GRAM_BLOCK_ROWS * n_cols bytes.
# With numpy's bundled OpenBLAS on x86-64, 256- and 512-row blocks changed
# scores by up to 3.6e-13 (another BLAS kernel for the smaller product);
# 1024-row blocks matched the one-shot product bit for bit.
GRAM_BLOCK_ROWS = 1024
# Every square-loss solve runs on a pooled Gram whose entries below this
# floor are zeroed as it is built (floored_gram); otherwise it runs on
# subnormal numbers at small bandwidths: the factorization slows five- to
# tenfold and the Lanczos products twofold.
# Zeroing entries below delta moves M = G_UU / (2 n_u) + (2 lambda + jitter) I
# by at most delta / 2 in spectral norm, and M >= 2 lambda I, so the
# solution moves by at most delta / (4 lambda) relative: about 2.5e-28 at
# lambda = 1e-3.  The G_UL alpha_L part of the right-hand side moves by at
# most delta theta / (2 lambda) relative to its 1 / (2 n_u) constant part.
KERNEL_FLOOR = 1e-30


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


def _exponents(spec: KernelSpec, rows, cols) -> np.ndarray:
    """The n x m array -||rows[i] - cols[j]||^2 / (2 sigma^2)."""
    r = _as_points(rows)
    c = _as_points(cols)
    if r.shape[0] == 0 or c.shape[0] == 0:
        raise ValueError("gram requires nonempty datasets")
    if r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    out = cdist(r, c, metric="sqeuclidean")
    # one pass: IEEE division is sign-symmetric, so this equals negating
    # and then dividing by 2 sigma^2 bit for bit
    out /= -2.0 * spec.sigma**2
    return out


def gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Gram matrix with entry (i, j) = k(rows[i], cols[j]).

    cdist keeps the accumulation order fixed, so the result is identical
    across runs and thread counts.  The kernel is computed in place in the
    cdist output, one scaling pass and one exp pass, so the call makes one
    n x m allocation; the arithmetic is that of
    ``np.exp(-sq / (2 sigma^2))``.
    """
    out = _exponents(spec, rows, cols)
    return np.exp(out, out=out)


def floored_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """``gram(spec, rows, cols)`` with its entries below KERNEL_FLOOR zeroed.

    The exponents are clamped at log(KERNEL_FLOOR) - 1 before the exp, which
    keeps numpy's exp off its slow subnormal path (about 70x slower at
    exp(-720) than at exp(-80)).  A clamped entry lies below KERNEL_FLOOR / e,
    so it is zeroed either way, and the result equals ``gram`` followed by
    zeroing bit for bit.
    """
    out = _exponents(spec, rows, cols)
    np.maximum(out, np.log(KERNEL_FLOOR) - 1.0, out=out)
    np.exp(out, out=out)
    out *= out >= KERNEL_FLOOR
    return out


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
