"""References the tests compare eulac against: exact finite-support
distributions and their risks, the loss identity check, the objective's
gradient from the pooled Gram, and the rejecting one-versus-rest baseline
fit on labeled data alone.

None of these is a step of the algorithm.  The exact risks take one score
row per atom of the distribution, an (m, K+1) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from eulac.data import (LabeledDataset, _validate_features, check_known_only, check_theta,
                        stratified_folds)
from eulac.kernel import DEFAULT_SIGMA_MULTIPLIERS, KernelSpec, gram, median_heuristic
from eulac.losses import _check_finite, canonical_loss_kind, loss_value
from eulac.risk import marginal_row_loss, optimal_square_risk_from_joints
from eulac.solver import _gradient_arrays, predict_scores

# ---------------------------------------------------------------------------
# exact finite-support distributions (oracle for the risk identities)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDistribution:
    """Exact finite-support joint distribution satisfying the class-shift split.

    Rows with a known label carry total mass theta (the known-class part);
    rows with the sentinel label carry mass 1 - theta.
    """

    points: np.ndarray
    labels: np.ndarray
    probabilities: np.ndarray
    theta: float
    num_known_classes: int

    def __post_init__(self):
        pts = _validate_features(self.points)
        y = np.asarray(self.labels, dtype=np.int64)
        p = np.asarray(self.probabilities, dtype=float)
        K = int(self.num_known_classes)
        if y.shape != (pts.shape[0],) or p.shape != (pts.shape[0],):
            raise ValueError("labels/probabilities must align with points")
        if K < 1 or np.any(y < 1) or np.any(y > K + 1):
            raise ValueError(f"labels must lie in 1..{K + 1}")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        check_theta(self.theta)
        known_mass = float(p[y <= K].sum())
        if abs(known_mass - self.theta) > 1e-9:
            raise ValueError(
                f"class-shift decomposition violated: known mass {known_mass} != theta {self.theta}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "num_known_classes", K)

    @property
    def novel_label(self) -> int:
        return self.num_known_classes + 1

    @property
    def known_mask(self) -> np.ndarray:
        return self.labels <= self.num_known_classes

    def sample_train(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Row indices drawn from the known-class conditional (the training law)."""
        known = np.flatnonzero(self.known_mask)
        p = self.probabilities[known] / self.theta
        return known[rng.choice(len(known), size=size, p=p / p.sum())]

    def sample_test(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Row indices drawn from the full testing law."""
        return rng.choice(len(self.labels), size=size, p=self.probabilities)


# ---------------------------------------------------------------------------
# exact risks
# ---------------------------------------------------------------------------


def _atom_scores(scores, dist: FiniteDistribution) -> np.ndarray:
    """The score array as floats, refused unless it has one (K+1)-column row
    per atom of ``dist``."""
    scores = np.asarray(scores, dtype=float)
    shape = (len(dist.labels), dist.num_known_classes + 1)
    if scores.shape != shape:
        raise ValueError(f"scores must have shape {shape}, got {scores.shape}")
    return scores


def _per_row_ovr_loss(scores: np.ndarray, labels: np.ndarray, loss_kind: str) -> np.ndarray:
    """psi(f_y(x)) + sum_{k != y} psi(-f_k(x)) for each row."""
    rows = np.arange(scores.shape[0])
    all_neg = loss_value(loss_kind, -scores).sum(axis=1)
    own = scores[rows, labels - 1]
    return loss_value(loss_kind, own) - loss_value(loss_kind, -own) + all_neg


def exact_ovr_risk(scores, dist: FiniteDistribution, loss_kind: str) -> float:
    """Exact one-versus-rest surrogate risk over a finite testing distribution."""
    loss_kind = canonical_loss_kind(loss_kind)
    scores = _atom_scores(scores, dist)
    return float(np.sum(dist.probabilities * _per_row_ovr_loss(scores, dist.labels, loss_kind)))


def exact_lac_risk(scores, dist: FiniteDistribution, loss_kind: str) -> float:
    """Exact LAC risk (linear labeled term) over a finite distribution.

    Equals exact_ovr_risk whenever the loss satisfies psi(z) - psi(-z) = -z.
    """
    loss_kind = canonical_loss_kind(loss_kind)
    scores = _atom_scores(scores, dist)
    K = dist.num_known_classes
    known = dist.known_mask
    rows = np.flatnonzero(known)
    gap = scores[rows, K] - scores[rows, dist.labels[rows] - 1]
    labeled_term = float(np.sum(dist.probabilities[rows] * gap))
    marginal_term = float(np.sum(dist.probabilities * marginal_row_loss(scores, loss_kind)))
    return labeled_term + marginal_term


def exact_nonconvex_lac_risk(scores, dist: FiniteDistribution, loss_kind: str) -> float:
    """Exact LAC risk in the loss-difference form valid for any surrogate."""
    loss_kind = canonical_loss_kind(loss_kind)
    scores = _atom_scores(scores, dist)
    K = dist.num_known_classes
    rows = np.flatnonzero(dist.known_mask)
    own = scores[rows, dist.labels[rows] - 1]
    nc = scores[rows, K]
    diff = (
        loss_value(loss_kind, own)
        - loss_value(loss_kind, -own)
        + loss_value(loss_kind, -nc)
        - loss_value(loss_kind, nc)
    )
    labeled_term = float(np.sum(dist.probabilities[rows] * diff))
    marginal_term = float(np.sum(dist.probabilities * marginal_row_loss(scores, loss_kind)))
    return labeled_term + marginal_term


def optimal_square_lac_risk(dist: FiniteDistribution) -> float:
    """Minimal LAC risk under the square loss over a finite distribution."""
    points, where = np.unique(dist.points, axis=0, return_inverse=True)
    joints = np.zeros((dist.num_known_classes + 1, points.shape[0]))
    np.add.at(joints, (dist.labels - 1, where.ravel()), dist.probabilities)
    return optimal_square_risk_from_joints(joints)


def check_lac_condition(kind: str, grid) -> float:
    """Max violation of psi(z) - psi(-z) + z = 0 over the given grid."""
    grid = _check_finite(grid)
    return float(np.max(np.abs(loss_value(kind, grid) - loss_value(kind, -grid) + grid)))


# ---------------------------------------------------------------------------
# the objective's gradient (oracle for the solvers' certificates)
# ---------------------------------------------------------------------------


def objective_gradient(alpha, gram_full, labeled, unlabeled, theta, lam, loss_kind):
    """Exact gradient of ``solver.objective`` in the dual coefficients, read
    from the pooled Gram ``gram_full``."""
    loss_kind = canonical_loss_kind(loss_kind)
    a = np.asarray(alpha, dtype=float)
    return _gradient_arrays(a, gram_full @ a, gram_full.__matmul__, labeled.y, len(labeled),
                            len(unlabeled), theta, lam, loss_kind)


# ---------------------------------------------------------------------------
# rejecting one-versus-rest baseline (labeled data only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RejectingOvrModel:
    """Square-loss kernel one-versus-rest scorers fit on labeled data alone.

    Predicts the novel class only when every known-class score is strictly
    negative; a query whose scores all vanish (far from the support) is
    assigned the argmax known class.
    """

    support_points: np.ndarray
    alpha: np.ndarray
    kernel: KernelSpec
    num_known_classes: int

    def scores(self, queries) -> np.ndarray:
        return predict_scores(self, queries)

    def predict(self, queries) -> np.ndarray:
        s = self.scores(queries)
        labels = np.argmax(s, axis=1).astype(np.int64) + 1
        labels[np.max(s, axis=1) < 0.0] = self.num_known_classes + 1
        return labels


def ovr_reject_baseline(
    labeled: LabeledDataset, kernel: KernelSpec, lam: float
) -> RejectingOvrModel:
    """Fit the baseline: one regularized kernel scorer per known class."""
    check_known_only(labeled)
    n = len(labeled)
    K = labeled.num_known_classes
    G = gram(kernel, labeled.X, labeled.X)
    targets = np.where(labeled.y[:, None] == np.arange(1, K + 1)[None, :], 1.0, -1.0)
    # square loss (1 - y f)^2 / 4 plus lam ||f||^2 gives (G + 4 n lam I) a = y
    system = G + (4.0 * n * lam + 1e-10) * np.eye(n)
    alpha = cho_solve(cho_factor(system, lower=True), targets)
    return RejectingOvrModel(labeled.X.copy(), alpha, kernel, K)


def select_baseline_bandwidth(
    labeled: LabeledDataset,
    lam: float = 1.0,
    multipliers: tuple[float, ...] = DEFAULT_SIGMA_MULTIPLIERS,
    folds: int = 5,
    seed: int = 0,
) -> KernelSpec:
    """Labeled-only bandwidth selection for the baseline (accuracy criterion).

    Mirrors the candidate grid used for the main method but applies it to
    the labeled-median distance, since the baseline never sees unlabeled
    data.
    """
    median = median_heuristic(labeled.X)
    fold_of = stratified_folds(labeled.y, folds, np.random.default_rng(seed))
    best = None
    for mult in multipliers:
        kernel = KernelSpec(mult * median)
        hits = 0
        for f in range(folds):
            tr = np.flatnonzero(fold_of != f)
            va = np.flatnonzero(fold_of == f)
            sub = LabeledDataset(labeled.X[tr], labeled.y[tr], labeled.num_known_classes)
            model = ovr_reject_baseline(sub, kernel, lam)
            scores = model.scores(labeled.X[va])
            pred = np.argmax(scores, axis=1) + 1  # known-class accuracy only
            hits += int(np.sum(pred == labeled.y[va]))
        acc = hits / len(labeled)
        if best is None or acc > best[0] or (acc == best[0] and kernel.sigma > best[1].sigma):
            best = (acc, kernel)
    return best[1]
