"""Regularized minimisation of the unbiased risk estimator in an RKHS.

Scorers are kernel expansions over the combined labeled + unlabeled support
(one dual-coefficient column per known class plus one for the novel class).
The square loss admits an exact linear-system solution; other losses run
full-gradient descent with Armijo backtracking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data import LabeledDataset, UnlabeledDataset
from .kernel import GRAM_BLOCK_ROWS, KernelSpec, gram
from .losses import SQUARE, canonical_loss_kind, loss_derivative
from .risk import lac_risk_from_scores

GRAM_JITTER = 1e-10
# Unlabeled Gram entries below this floor are zeroed before the square-loss
# factorization, which otherwise runs on subnormal numbers at small
# bandwidths and slows about tenfold.  Zeroing entries below delta moves
# M = G_UU / (2 n_u) + (2 lambda + jitter) I by at most delta / 2 in
# spectral norm, and M >= 2 lambda I, so the solution moves by at most
# delta / (4 lambda) relative: about 2.5e-28 at lambda = 1e-3.
KERNEL_FLOOR = 1e-30

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FitOptions:
    """First-order solver settings; lam is the RKHS-norm penalty weight."""

    lam: float
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("regularization weight must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient tolerance must be positive")


@dataclass(frozen=True)
class FitRecord:
    iterations: int
    final_gradient_norm: float
    converged: bool
    objective_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class DualModel:
    """Kernel scorers f_k(x) = sum_i alpha[i, k] K(x, support[i])."""

    support_points: np.ndarray
    alpha: np.ndarray
    kernel: KernelSpec
    loss_kind: str
    theta: float
    lam: float
    num_known_classes: int
    record: FitRecord | None = None

    def __post_init__(self):
        pts = np.asarray(self.support_points, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (pts.shape[0], self.num_known_classes + 1):
            raise ValueError(f"alpha must be (n, K+1), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("dual coefficients must be finite")
        object.__setattr__(self, "support_points", pts)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "loss_kind", canonical_loss_kind(self.loss_kind))

    @property
    def novel_label(self) -> int:
        return self.num_known_classes + 1

    def scores(self, queries) -> np.ndarray:
        """Score matrix (m, K+1) at the query points."""
        return predict_scores(self, queries)

    def predict(self, queries) -> np.ndarray:
        return predict_labels(self.scores(queries))

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "dual_model",
            "kernel_sigma": float(self.kernel.sigma),
            "loss": self.loss_kind,
            "theta": float(self.theta),
            "lambda": float(self.lam),
            "num_known_classes": int(self.num_known_classes),
            "support_points": self.support_points.tolist(),
            "alpha": self.alpha.tolist(),
            "converged": bool(self.record.converged) if self.record else True,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @staticmethod
    def from_json(text: str) -> "DualModel":
        payload = json.loads(text)
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format {payload.get('format_version')!r}")
        record = None if payload.get("converged", True) else FitRecord(0, np.inf, False)
        return DualModel(
            support_points=np.array(payload["support_points"], dtype=float),
            alpha=np.array(payload["alpha"], dtype=float),
            kernel=KernelSpec(payload["kernel_sigma"]),
            loss_kind=payload["loss"],
            theta=payload["theta"],
            lam=payload["lambda"],
            num_known_classes=payload["num_known_classes"],
            record=record,
        )

    @staticmethod
    def load(path) -> "DualModel":
        with open(path, "r", encoding="utf-8") as fh:
            return DualModel.from_json(fh.read())


def _check_train_inputs(labeled: LabeledDataset, unlabeled: UnlabeledDataset):
    if labeled.contains_novel:
        raise ValueError("training labels must not contain the novel class")
    if labeled.dimension != unlabeled.dimension:
        raise ValueError("labeled and unlabeled dimensions differ")


def _objective_arrays(a, G, y, n_l, n_u, theta, lam, loss_kind) -> float:
    scores = G @ a
    risk = lac_risk_from_scores(scores[:n_l], y, scores[n_l:], theta, loss_kind)
    return risk + lam * float(np.sum(a * scores))


def objective(
    alpha: np.ndarray,
    gram_full: np.ndarray,
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    lam: float,
    loss_kind: str,
) -> float:
    """Empirical risk through the dual expansion plus the RKHS-norm penalty."""
    n_l, n_u = len(labeled), len(unlabeled)
    a = np.asarray(alpha, dtype=float)
    if gram_full.shape != (n_l + n_u, n_l + n_u) or a.shape[0] != n_l + n_u:
        raise ValueError("gram matrix must cover the combined support")
    return _objective_arrays(a, gram_full, labeled.y, n_l, n_u, theta, lam, loss_kind)


def _risk_score_gradient(
    scores: np.ndarray, labels: np.ndarray, n_l: int, n_u: int, theta: float, loss_kind: str
) -> np.ndarray:
    """Derivative of the empirical risk with respect to the score matrix."""
    K = scores.shape[1] - 1
    W = np.zeros_like(scores)
    rows = np.arange(n_l)
    W[rows, labels - 1] -= theta / n_l
    W[rows, K] += theta / n_l
    su = scores[n_l:]
    W[n_l:, :K] -= loss_derivative(loss_kind, -su[:, :K]) / n_u
    W[n_l:, K] += loss_derivative(loss_kind, su[:, K]) / n_u
    return W


def _gradient_arrays(a, G, y, n_l, n_u, theta, lam, loss_kind) -> np.ndarray:
    scores = G @ a
    W = _risk_score_gradient(scores, y, n_l, n_u, theta, loss_kind)
    return G @ (W + 2.0 * lam * a)


def objective_gradient(
    alpha: np.ndarray,
    gram_full: np.ndarray,
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    lam: float,
    loss_kind: str,
) -> np.ndarray:
    """Exact gradient of ``objective`` in the dual coefficients."""
    loss_kind = canonical_loss_kind(loss_kind)
    n_l, n_u = len(labeled), len(unlabeled)
    a = np.asarray(alpha, dtype=float)
    return _gradient_arrays(a, gram_full, labeled.y, n_l, n_u, theta, lam, loss_kind)


@dataclass(frozen=True)
class _SquareLossSystem:
    """Lambda-invariant parts of the square-loss stationarity system."""

    B: np.ndarray      # linear coefficients of the bracket, (n, K+1)
    A: np.ndarray      # floored G_UU / (2 n_u)
    G_UL: np.ndarray   # view of the unlabeled-by-labeled Gram block


def _square_loss_system(
    gram_full: np.ndarray,
    labels: np.ndarray,
    num_known_classes: int,
    n_l: int,
    n_u: int,
    theta: float,
) -> _SquareLossSystem:
    """Build the part of the square-loss system shared by every lambda.

    The stationarity bracket decouples: labeled-support rows are solved in
    closed form, leaving one symmetric positive-definite system over the
    unlabeled-support rows shared by all K+1 columns.
    """
    n = n_l + n_u
    K = num_known_classes
    B = np.zeros((n, K + 1))
    rows = np.arange(n_l)
    B[rows, labels - 1] = -theta / n_l
    B[n_l:, :K] += 1.0 / (2.0 * n_u)
    B[rows, K] += theta / n_l
    B[n_l:, K] -= 1.0 / (2.0 * n_u)

    G_UU = gram_full[n_l:, n_l:]
    A = G_UU / (2.0 * n_u)
    A[G_UU < KERNEL_FLOOR] = 0.0
    return _SquareLossSystem(B, A, gram_full[n_l:, :n_l])


def _square_loss_alpha(system: _SquareLossSystem, lam: float) -> np.ndarray:
    """Exact stationary point of the square-loss objective at weight lam."""
    B = system.B
    n_u, n_l = system.G_UL.shape
    alpha = np.empty(B.shape)
    alpha[:n_l] = -B[:n_l] / (2.0 * lam)

    shift = 2.0 * lam + GRAM_JITTER
    M = system.A.copy()
    M.flat[::n_u + 1] += shift
    rhs = -B[n_l:] - (system.G_UL @ alpha[:n_l]) / (2.0 * n_u)
    try:
        factor = cho_factor(M, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(system.A + shift * np.eye(n_u))
        raise np.linalg.LinAlgError(
            f"square-loss system not positive definite (condition estimate {cond:.3e})"
        ) from exc
    alpha[n_l:] = cho_solve(factor, rhs)
    return alpha


def fit_square_closed_form(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    theta: float,
    lam: float,
) -> DualModel:
    """Solve the square-loss problem exactly via its normal equations."""
    if lam <= 0:
        raise ValueError("regularization weight must be positive")
    _check_train_inputs(labeled, unlabeled)
    support = np.vstack([labeled.X, unlabeled.X])
    G = gram(kernel, support, support)
    system = _square_loss_system(G, labeled.y, labeled.num_known_classes,
                                 len(labeled), len(unlabeled), theta)
    alpha = _square_loss_alpha(system, lam)
    # the bracket is solved exactly, so the gradient G @ residual is ~0
    grad = objective_gradient(alpha, G, labeled, unlabeled, theta, lam, SQUARE)
    record = FitRecord(0, float(np.max(np.abs(grad))), True)
    return DualModel(support, alpha, kernel, SQUARE, theta, lam,
                     labeled.num_known_classes, record)


def _first_order_alpha(
    G: np.ndarray,
    y: np.ndarray,
    num_known_classes: int,
    n_l: int,
    n_u: int,
    theta: float,
    options: FitOptions,
    loss_kind: str,
) -> tuple[np.ndarray, FitRecord]:
    """Gradient descent with Armijo backtracking on a precomputed Gram."""
    lam = options.lam

    def value(a):
        return _objective_arrays(a, G, y, n_l, n_u, theta, lam, loss_kind)

    alpha = np.zeros((n_l + n_u, num_known_classes + 1))
    f = value(alpha)
    history = [f]
    grad_norm = np.inf
    iterations = 0
    converged = False
    prev_alpha = None
    prev_grad = None
    step = 1.0
    for iterations in range(1, options.max_iterations + 1):
        grad = _gradient_arrays(alpha, G, y, n_l, n_u, theta, lam, loss_kind)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= options.gradient_tolerance:
            converged = True
            iterations -= 1
            break
        # trial step from the Barzilai-Borwein spectral rule; a constant unit
        # trial step crawls on ill-conditioned Gram objectives.  Armijo
        # halving below still guards every accepted move.
        if prev_grad is not None:
            s = alpha - prev_alpha
            dg = grad - prev_grad
            denom = float(np.sum(s * dg))
            step = float(np.sum(s * s)) / denom if denom > 0 else min(step * 2.0, 1e12)
            step = float(np.clip(step, 1e-12, 1e12))
        prev_alpha, prev_grad = alpha, grad
        sq = float(np.sum(grad * grad))
        accepted = False
        for _ in range(80):
            trial = alpha - step * grad
            f_trial = value(trial)
            if f_trial <= f - 1e-4 * step * sq:
                alpha, f = trial, f_trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no descent step representable; treat as stalled
        history.append(f)
    else:
        grad = _gradient_arrays(alpha, G, y, n_l, n_u, theta, lam, loss_kind)
        grad_norm = float(np.max(np.abs(grad)))
        converged = grad_norm <= options.gradient_tolerance

    return alpha, FitRecord(iterations, grad_norm, converged, tuple(history))


def fit_first_order(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    theta: float,
    options: FitOptions,
    loss_kind: str,
) -> DualModel:
    """Full-gradient descent with Armijo backtracking from the zero model.

    Accepted steps never increase the objective; if the gradient tolerance
    is not reached within the iteration budget the model is returned with a
    non-converged record rather than failing silently.
    """
    loss_kind = canonical_loss_kind(loss_kind)
    _check_train_inputs(labeled, unlabeled)
    support = np.vstack([labeled.X, unlabeled.X])
    G = gram(kernel, support, support)
    alpha, record = _first_order_alpha(
        G, labeled.y, labeled.num_known_classes, len(labeled), len(unlabeled),
        theta, options, loss_kind,
    )
    return DualModel(support, alpha, kernel, loss_kind, theta, lam=options.lam,
                     num_known_classes=labeled.num_known_classes, record=record)


def predict_scores(model: DualModel, queries) -> np.ndarray:
    """Kernel-expansion scores of the queries, one column per class.

    The cross-Gram is built GRAM_BLOCK_ROWS query rows at a time, so memory
    does not grow with the number of queries.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.shape[1] != model.support_points.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[1]} does not match support {model.support_points.shape[1]}"
        )
    if q.shape[0] == 0:
        raise ValueError("prediction requires at least one query point")
    scores = np.empty((q.shape[0], model.alpha.shape[1]))
    for start in range(0, q.shape[0], GRAM_BLOCK_ROWS):
        block = slice(start, start + GRAM_BLOCK_ROWS)
        scores[block] = gram(model.kernel, q[block], model.support_points) @ model.alpha
    return scores


def predict_labels(scores: np.ndarray) -> np.ndarray:
    """Argmax label per score row; ties go to the smallest class index,
    with the novel class (last column) losing all ties."""
    s = np.atleast_2d(np.asarray(scores, dtype=float))
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return np.argmax(s, axis=1).astype(np.int64) + 1
