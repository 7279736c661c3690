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

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .kernel import GRAM_BLOCK_ROWS, KernelSpec, gram

THETA_FLOOR = 1e-3
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
    """Estimated known-class fraction plus the audited distance curve."""

    theta_hat: float
    curve: tuple[tuple[float, float], ...]
    no_novelty_detected: bool = False
    # QPs of the curve stopped by their iteration guard; a hit leaves a
    # feasible but possibly suboptimal distance
    qp_guard_hits: int = 0

    def __post_init__(self):
        if not 0.0 < self.theta_hat <= 1.0:
            raise ValueError(f"theta estimate must lie in (0, 1], got {self.theta_hat}")


def theta_override(value: float) -> ThetaEstimate:
    """Wrap an externally known mixture fraction."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {value}")
    return ThetaEstimate(float(value), curve=())


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
        nf = len(free)
        P_F = P[free]  # the free rows, gathered once per iteration
        kkt = np.empty((nf + 1, nf + 1))
        kkt[:nf, :nf] = scale * P_F[:, free]
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        kkt[nf, nf] = 0.0
        rhs = np.empty(nf + 1)
        rhs[:nf] = -g[free]
        rhs[nf] = 1.0
        sol = np.linalg.solve(kkt, rhs)
        target = sol[:nf]
        mu = sol[nf]

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
        t = min(1.0, float(ratios.min()))
        w_new = np.zeros(m)
        w_new[free] = np.maximum(cur + t * delta, 0.0)
        w = w_new / w_new.sum()
        hit = free[np.argmin(ratios)]
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
) -> tuple[np.ndarray, int]:
    """Exact embedding distance d(c) for every candidate, warm-starting along
    the grid, plus the number of QPs stopped by the iteration guard.  Every
    candidate's QP shares the Hessian P_base and scales it by beta^2."""
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
    return out, guard_hits


def _gram_mean(kernel: KernelSpec, rows: np.ndarray, cols: np.ndarray) -> float:
    """Mean Gram entry, summed over GRAM_BLOCK_ROWS-row blocks.

    With at most GRAM_BLOCK_ROWS rows this is the reduction of
    ``gram(...).mean()``; memory stays one block whatever the row count.
    """
    total = sum(float(gram(kernel, rows[start:start + GRAM_BLOCK_ROWS], cols).sum())
                for start in range(0, len(rows), GRAM_BLOCK_ROWS))
    return total / (len(rows) * len(cols))


def estimate_theta(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD,
) -> ThetaEstimate:
    """Estimate the known-class fraction of the unlabeled sample's law.

    Deterministic given the datasets and kernel.  The candidate grid covers
    reciprocal fractions in [1, 20]; the knee of the distance curve is the
    first segment whose slope magnitude falls below
    ``slope_threshold * (1/sqrt(n_l) + 1/sqrt(n_u))``.
    """
    if labeled.dimension != unlabeled.dimension:
        raise ValueError("labeled and unlabeled dimensions differ")
    n_l, n_u = len(labeled), len(unlabeled)
    pooled = np.vstack([labeled.X, unlabeled.X])
    n = n_l + n_u

    # restrict the candidate mixture's support to an even stride of the pool;
    # the embeddings themselves use every point
    m = min(n, NU_SUPPORT_LIMIT)
    support_idx = np.unique(np.round(np.linspace(0, n - 1, m)).astype(int))
    support = pooled[support_idx]

    # support rows are pooled rows: one Gram holds the block and both means;
    # take keeps the block C-ordered (K[:, idx] is not, and moves the curve)
    K = gram(kernel, support, pooled)
    K_nu = K.take(support_idx, axis=1)
    kl = K[:, :n_l].mean(axis=1)
    ku = K[:, n_l:].mean(axis=1)
    del K
    if float(K_nu.min()) > 1.0 - 1e-12:
        raise ValueError("kernel is degenerate on this data (all Gram entries ~ 1)")

    a_ll = _gram_mean(kernel, labeled.X, labeled.X)
    a_uu = _gram_mean(kernel, unlabeled.X, unlabeled.X)
    a_ul = _gram_mean(kernel, unlabeled.X, labeled.X)

    candidates = np.geomspace(1.0, CANDIDATE_MAX, CANDIDATE_GRID_SIZE)
    dists, guard_hits = _distance_curve(K_nu, ku, kl, a_uu, a_ul, a_ll, candidates)
    curve = tuple((float(c), float(d)) for c, d in zip(candidates, dists))

    threshold = slope_threshold * (1.0 / np.sqrt(n_l) + 1.0 / np.sqrt(n_u))
    slopes = np.diff(dists) / np.diff(candidates)
    flat = np.flatnonzero(np.abs(slopes) <= threshold)
    if len(flat) == 0:
        theta_hat = 1.0 / candidates[-1]
        no_novelty = False
    elif flat[0] == 0:
        # the curve is flat from the start: unlabeled data look like pure
        # known-class draws
        theta_hat = 1.0
        no_novelty = True
    else:
        theta_hat = 1.0 / candidates[flat[0]]
        no_novelty = False

    theta_hat = float(np.clip(theta_hat, THETA_FLOOR, 1.0))
    return ThetaEstimate(theta_hat, curve, no_novelty_detected=no_novelty,
                         qp_guard_hits=guard_hits)
