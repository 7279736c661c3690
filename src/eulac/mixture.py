"""Estimate the known-class fraction of the deployment distribution.

The estimator reweights the kernel mean embeddings of the labeled and
unlabeled samples: for a candidate fraction 1/c it measures how far
``mu_U - (1/c) mu_L`` is from ``(1 - 1/c)`` times the convex hull of
feature-map embeddings.  While the candidate fraction stays below the true
one the residual can be absorbed by a valid mixture and the distance sits
on its noise floor; above it the distance grows steeply.  The estimate is
the reciprocal of the first candidate where the slope of that curve goes
flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset, check_theta, pooled_points
from .kernel import GRAM_BLOCK_ROWS, KernelSpec, gram

# The curve's slope before the knee is sample-size independent while past
# the knee it only shaves sampling noise and scales like 1/sqrt(n);
# tau = 2.0 places the cut inside that gap.
DEFAULT_SLOPE_THRESHOLD = 2.0
CANDIDATE_GRID_SIZE = 64
CANDIDATE_MAX = 20.0
NU_SUPPORT_LIMIT = 512
# active-set iterations allowed per QP over m coordinates:
# QP_GUARD_PER_COORDINATE * m + QP_GUARD_SLACK
QP_GUARD_PER_COORDINATE = 4
QP_GUARD_SLACK = 50


@dataclass(frozen=True)
class ThetaEstimate:
    """Estimated known-class fraction plus the audited distance curve; a
    supplied fraction has an empty curve and no knee or slope cut."""

    theta_hat: float
    # (c, d(c)) from candidate 1 up to the point right of the knee, or the
    # whole grid when no segment is flat
    curve: tuple[tuple[float, float], ...]
    no_novelty_detected: bool = False
    # QPs of the curve stopped by their iteration guard; a hit leaves a
    # feasible but possibly suboptimal distance
    qp_guard_hits: int = 0
    # the index into curve that theta_hat reads, and the slope magnitude at
    # or below which a segment is flat
    knee: int | None = None
    slope_cut: float | None = None

    def __post_init__(self):
        check_theta(self.theta_hat)


def check_slope_threshold(value: float) -> None:
    """Refuse a slope threshold that is not a positive finite number: a zero,
    negative or NaN one leaves no segment flat and an infinite one makes the
    first flat, whatever the data."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"slope threshold must be a positive finite number, got {value}")


def _simplex_qp(P: np.ndarray, scale: float, g: np.ndarray,
                w0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimise 0.5 scale w'Pw + g'w over the probability simplex, exactly.

    Primal active-set method: clamped coordinates form the working set; the
    free block solves an equality-constrained KKT system.  P must be
    positive definite on the free subspace (callers add a small jitter) and
    scale positive; P is read, never scaled as a whole, so one P serves
    every scale.  Without a feasible warm start (``w0`` has no positive
    entry) the search starts at the best vertex.  Returns the minimiser and
    whether the iteration guard stopped the search first.
    """
    m = len(g)
    w = w0.copy()
    clamped = w <= 0.0
    w[clamped] = 0.0
    total = w.sum()
    if total <= 0:
        # the objective at vertex e_i is 0.5 scale P_ii + g_i; the optimum
        # is unique, so the start changes only how many solves reach it
        best = int(np.argmin(0.5 * (scale * np.diag(P)) + g))
        w[best] = 1.0
        clamped[best] = False
    else:
        w /= total

    for _ in range(QP_GUARD_PER_COORDINATE * m + QP_GUARD_SLACK):
        free = np.flatnonzero(~clamped)
        P_F = P[free]  # the free rows, gathered once per iteration
        # the free block's KKT system scale P_FF w_F + mu 1 = -g_F, 1'w_F = 1:
        # w_F = x - mu y with scale P_FF [x y] = [-g_F 1], and the simplex
        # sum fixes mu
        rhs = np.ones((len(free), 2))
        rhs[:, 0] = -g[free]
        sol = np.linalg.solve(scale * P_F[:, free], rhs)
        sum_x, sum_y = sol.sum(axis=0)
        mu = (sum_x - 1.0) / sum_y
        target = sol[:, 0] - mu * sol[:, 1]

        if np.all(target >= -1e-12):
            w = np.zeros(m)
            w[free] = np.maximum(target, 0.0)
            # stationarity on the free block gives (scale Pw + g)_F = -mu, so
            # the bound multiplier of a clamped coordinate is
            # (scale Pw + g)_i + mu; w vanishes off the free block and P is
            # symmetric, so Pw is w_F P_F
            lagrange = scale * (w[free] @ P_F) + g + mu
            blocked = np.flatnonzero(clamped)
            if len(blocked) == 0 or lagrange[blocked].min() >= -1e-10:
                return w, False
            clamped[blocked[np.argmin(lagrange[blocked])]] = False
            continue

        # partial step toward the equality solution until a coordinate hits 0
        cur = w[free]
        delta = target - cur
        shrinking = delta < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(shrinking, cur / np.maximum(-delta, 1e-300), np.inf)
        # a negative target's ratio cur / (cur - target) is below 1, so the
        # step stops short of the target, on the coordinate it clamps
        k = int(np.argmin(ratios))
        w_new = np.zeros(m)
        w_new[free] = np.maximum(cur + ratios[k] * delta, 0.0)
        w = w_new / w_new.sum()
        hit = free[k]
        clamped[hit] = True
        w[hit] = 0.0
        if w.sum() > 0:
            w /= w.sum()
    return w, True  # the current iterate is feasible but not proven optimal


def _distance_curve(
    K_nu: np.ndarray,
    ku: np.ndarray,
    kl: np.ndarray,
    a_uu: float,
    a_ul: float,
    a_ll: float,
    candidates: np.ndarray,
    slope_cut: float,
) -> tuple[np.ndarray, int, int]:
    """Exact embedding distance d(c) along the grid up to its knee, plus the
    knee and the number of QPs stopped by the iteration guard.

    The knee is the left end of the first segment whose slope magnitude is
    at most ``slope_cut``; the curve stops at the segment's right end.  With
    no flat segment every candidate is computed and the knee is the grid's
    last index.  Each QP warm-starts from the previous candidate's point and
    shares the Hessian P_base, scaled by beta^2.
    """
    m = K_nu.shape[0]
    w = np.zeros(m)
    P_base = 2.0 * (K_nu + 1e-10 * np.eye(m))
    out = np.empty(len(candidates))
    guard_hits = 0
    for j, c in enumerate(candidates):
        frac = 1.0 / c
        beta = 1.0 - frac
        const = a_uu - 2.0 * frac * a_ul + frac * frac * a_ll
        if beta <= 0.0:
            out[j] = np.sqrt(max(const, 0.0))
            continue
        q = ku - frac * kl
        w, guard_hit = _simplex_qp(P_base, beta * beta, -2.0 * beta * q, w)
        guard_hits += guard_hit
        # the dense quadratic form: its terms nearly cancel, so a sum over
        # the free block alone moves the value in its last digits
        value = beta * beta * float(w @ K_nu @ w) - 2.0 * beta * float(q @ w) + const
        out[j] = np.sqrt(max(value, 0.0))
        if j and abs((out[j] - out[j - 1]) / (c - candidates[j - 1])) <= slope_cut:
            return out[:j + 1], j - 1, guard_hits
    return out, len(candidates) - 1, guard_hits


def estimate_theta(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD,
) -> ThetaEstimate:
    """Estimate the known-class fraction of the unlabeled sample's law.

    Deterministic given the datasets and kernel.  The candidate grid covers
    reciprocal fractions in [1, 20]; the knee of the distance curve is the
    first segment whose slope magnitude is at most the slope cut
    ``slope_threshold * (1/sqrt(n_l) + 1/sqrt(n_u))``, and the curve is
    computed only up to that segment's right end.  The kernel means are
    read from one pass over kernel.GRAM_BLOCK_ROWS-row blocks of the pooled
    Gram, one block held at a time, so kernel memory stays at most
    8 x GRAM_BLOCK_ROWS x (n_l + n_u) bytes.
    """
    check_slope_threshold(slope_threshold)
    pooled = pooled_points(labeled, unlabeled)
    n_l, n_u = len(labeled), len(unlabeled)
    n = n_l + n_u

    # restrict the candidate mixture's support to an even stride of the pool;
    # the embeddings themselves use every point
    m = min(n, NU_SUPPORT_LIMIT)
    support_idx = np.unique(np.round(np.linspace(0, n - 1, m)).astype(int))

    # one pass over row blocks of the pooled Gram keeps each row's sums over
    # the labeled and the unlabeled columns, and the support rows' support
    # columns; every entry and row sum is that of the dense Gram, so nothing
    # depends on the block height.  Each block is dropped before the next is
    # built
    row_l, row_u = np.empty(n), np.empty(n)
    K_nu = np.empty((len(support_idx), len(support_idx)))
    for start in range(0, n, GRAM_BLOCK_ROWS):
        block = gram(kernel, pooled[start:start + GRAM_BLOCK_ROWS], pooled)
        stop = start + len(block)
        row_l[start:stop] = block[:, :n_l].sum(axis=1)
        row_u[start:stop] = block[:, n_l:].sum(axis=1)
        rows = (support_idx >= start) & (support_idx < stop)
        K_nu[rows] = block[np.ix_(support_idx[rows] - start, support_idx)]
        del block
    if float(K_nu.min()) > 1.0 - 1e-12:
        raise ValueError("kernel is degenerate on this data (all Gram entries ~ 1)")
    kl = row_l[support_idx] / n_l
    ku = row_u[support_idx] / n_u
    a_ll = math.fsum(row_l[:n_l]) / (n_l * n_l)
    a_ul = math.fsum(row_l[n_l:]) / (n_u * n_l)
    a_uu = math.fsum(row_u[n_l:]) / (n_u * n_u)

    candidates = np.geomspace(1.0, CANDIDATE_MAX, CANDIDATE_GRID_SIZE)
    slope_cut = slope_threshold * (1.0 / math.sqrt(n_l) + 1.0 / math.sqrt(n_u))
    dists, knee, guard_hits = _distance_curve(K_nu, ku, kl, a_uu, a_ul, a_ll, candidates,
                                              slope_cut)
    curve = tuple((float(c), float(d)) for c, d in zip(candidates, dists))
    # a knee at candidate 1 means the unlabeled data look like pure
    # known-class draws
    return ThetaEstimate(float(1.0 / candidates[knee]), curve, no_novelty_detected=knee == 0,
                         qp_guard_hits=guard_hits, knee=knee, slope_cut=slope_cut)
