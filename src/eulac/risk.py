"""Risk functionals: the empirical unbiased estimator, the minimal
square-loss risk, the 0-1 risk, and the uniform deviation bound.

A score function set is a callable that maps an (m, d) array of feature
vectors to an (m, K+1) score matrix, such as a fitted model's ``scores``
method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset, check_known_only, check_theta
from .losses import canonical_loss_kind, loss_value


def tabulate_scores(f, points: np.ndarray, num_known_classes: int) -> np.ndarray:
    """Evaluate a score function set on points, returning an (m, K+1) matrix."""
    scores = np.asarray(f(points), dtype=float)
    m = np.atleast_2d(points).shape[0]
    if scores.shape != (m, num_known_classes + 1):
        raise ValueError(
            f"scores must have shape ({m}, {num_known_classes + 1}), got {scores.shape}"
        )
    return scores


def marginal_row_loss(scores: np.ndarray, loss_kind: str) -> np.ndarray:
    """psi(f_nc(x)) + sum_k psi(-f_k(x)) for each score row: the risk's term
    over the testing marginal, which the unlabeled set samples."""
    K = scores.shape[1] - 1
    return loss_value(loss_kind, scores[:, K]) + loss_value(loss_kind, -scores[:, :K]).sum(axis=1)


def lac_risk_from_scores(
    scores_labeled: np.ndarray,
    labels: np.ndarray,
    scores_unlabeled: np.ndarray,
    theta: float,
    loss_kind: str,
) -> float:
    """Unbiased risk estimate from pre-computed score matrices.

    First term: theta times the mean labeled-set gap between the novel-class
    score and the true-class score.  Second term: mean over the unlabeled
    set of psi(f_nc) plus the sum of psi(-f_k) over known classes.
    """
    loss_kind = canonical_loss_kind(loss_kind)
    sl = np.asarray(scores_labeled, dtype=float)
    su = np.asarray(scores_unlabeled, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if sl.ndim != 2 or su.ndim != 2 or sl.shape[1] != su.shape[1]:
        raise ValueError("score matrices must be 2-D with matching class counts")
    if sl.shape[0] == 0 or su.shape[0] == 0:
        raise ValueError("datasets must be nonempty")
    K = sl.shape[1] - 1
    if np.any(y < 1) or np.any(y > K):
        raise ValueError("labeled-set labels must lie in 1..K")
    check_theta(theta)

    rows = np.arange(sl.shape[0])
    labeled_term = float(np.mean(sl[:, K] - sl[rows, y - 1]))
    unlabeled_term = float(np.mean(marginal_row_loss(su, loss_kind)))
    return theta * labeled_term + unlabeled_term


def empirical_lac_risk(
    f,
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    loss_kind: str,
) -> float:
    """Unbiased estimate of the testing-distribution surrogate risk."""
    check_known_only(labeled)
    K = labeled.num_known_classes
    sl = tabulate_scores(f, labeled.X, K)
    su = tabulate_scores(f, unlabeled.X, K)
    return lac_risk_from_scores(sl, labeled.y, su, theta, loss_kind)


def optimal_square_risk_from_joints(joints: np.ndarray) -> float:
    """Minimal square-loss LAC risk from joint masses p(x, y).

    joints is (K+1, m): one row per class 1..K+1, one column per point.  At
    each point the optimal one-versus-rest score is 2 eta_k - 1 with eta_k
    the conditional class probability, contributing sum_k eta_k (1 - eta_k)
    times the point's marginal mass.
    """
    marginal = joints.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = np.where(marginal > 0.0, joints / marginal, 0.0)
    return float(np.sum(marginal * np.sum(eta * (1.0 - eta), axis=0)))


def zero_one_risk(predictions, truths) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truths, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ValueError("need at least one prediction")
    return float(np.mean(pred != true))


@dataclass(frozen=True)
class TheoryParams:
    """Constants entering the uniform deviation bound of the risk estimator."""

    norm_bound: float        # RKHS-norm radius of each scorer
    kernel_bound: float      # r with k(x, x) <= r^2
    lipschitz: float         # Lipschitz constant of the loss on [-Lr, Lr]
    loss_sup: float          # sup of the loss on the same interval
    delta: float             # confidence level
    theta: float             # known-class mixture weight
    num_known_classes: int
    n_labeled: int
    n_unlabeled: int

    def __post_init__(self):
        positive = (
            self.norm_bound, self.kernel_bound, self.lipschitz, self.loss_sup,
            self.n_labeled, self.n_unlabeled,
        )
        if any(v <= 0 for v in positive) or self.num_known_classes < 1:
            raise ValueError("all bound parameters must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        check_theta(self.theta)


def generalization_bound(p: TheoryParams) -> float:
    """High-probability gap between the exact risk and its empirical estimate."""
    k1 = p.num_known_classes + 1
    lr = p.norm_bound * p.kernel_bound
    return (
        2.0 * k1 * lr / np.sqrt(p.n_labeled)
        + 6.0 * lr * np.sqrt(2.0 * np.log(4.0 / p.delta) / p.n_labeled)
        + 2.0 * k1 * p.lipschitz * lr / np.sqrt(p.n_unlabeled)
        + 3.0 * k1 * p.loss_sup * np.sqrt(np.log(4.0 / p.delta) / p.n_unlabeled)
    )
