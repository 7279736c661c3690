"""Regularized minimisation of the unbiased risk estimator in an RKHS.

Scorers are kernel expansions over the combined labeled + unlabeled support
(one dual-coefficient column per known class plus one for the novel class).
The square loss admits an exact linear-system solution: one Cholesky
factorization for a single weight, or one shifted-Lanczos run on the
pooled Gram's unlabeled block that serves every fold and weight of a
cross-validation bandwidth.  Both floor the pooled Gram in place and read
the labeled bracket: the labeled risk term is linear in the scores, so its
gradient is one constant for every loss.  Other losses run scipy's
limited-memory quasi-Newton method (L-BFGS-B) on the exact objective and
gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from .data import LabeledDataset, UnlabeledDataset, json_text
from .kernel import GRAM_BLOCK_ROWS, KernelSpec, gram
from .losses import SQUARE, canonical_loss_kind, loss_derivative
from .risk import lac_risk_from_scores

GRAM_JITTER = 1e-10
# Every square-loss solve zeroes the entries of its pooled Gram below this
# floor first; otherwise it runs on subnormal numbers at small bandwidths:
# the factorization slows five- to tenfold and the Lanczos products twofold.
# Zeroing entries below delta moves M = G_UU / (2 n_u) + (2 lambda + jitter) I
# by at most delta / 2 in spectral norm, and M >= 2 lambda I, so the
# solution moves by at most delta / (4 lambda) relative: about 2.5e-28 at
# lambda = 1e-3.  The G_UL alpha_L part of the right-hand side moves by at
# most delta theta / (2 lambda) relative to its 1 / (2 n_u) constant part.
KERNEL_FLOOR = 1e-30
# The shifted-Lanczos solve stops once every shift's residual is at most
# this fraction of its right-hand side's norm.  The unlabeled block has
# spectral norm <= 1/2 and every shift is >= 2 lambda, so the solution's
# relative error is at most about tolerance x (1 + 1 / (4 lambda)): 2.5e-11
# at lambda = 1e-3.
KRYLOV_TOLERANCE = 1e-13

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
    """How a solve ended.  A model loaded from JSON keeps only ``converged``;
    its iteration count and gradient norm were not saved and are None."""

    iterations: int | None
    final_gradient_norm: float | None
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
        return json_text(payload)

    @staticmethod
    def from_json(text: str) -> "DualModel":
        payload = json.loads(text)
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format {payload.get('format_version')!r}")
        record = FitRecord(None, None, bool(payload.get("converged", True)))
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


def _objective_arrays(a, scores, y, n_l, n_u, theta, lam, loss_kind) -> float:
    """The objective at dual coefficients a whose scores G @ a are given."""
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
    return _objective_arrays(a, gram_full @ a, labeled.y, n_l, n_u, theta, lam, loss_kind)


def _labeled_bracket(labels: np.ndarray, num_known_classes: int, theta: float) -> np.ndarray:
    """Derivative of the risk's labeled term in the labeled rows' scores.

    The term is linear, so this (n, K+1) matrix is the same for every loss:
    -theta / n at each row's true class, +theta / n at the novel column.
    """
    n = len(labels)
    B = np.zeros((n, num_known_classes + 1))
    B[np.arange(n), labels - 1] = -theta / n
    B[:, num_known_classes] = theta / n
    return B


def _unlabeled_bracket(n_u: int, num_known_classes: int) -> np.ndarray:
    """The square loss's constant unlabeled bracket row: +-1 / (2 n_u)."""
    row = np.full(num_known_classes + 1, 1.0 / (2.0 * n_u))
    row[num_known_classes] = -row[num_known_classes]
    return row


def _risk_score_gradient(
    scores: np.ndarray, labels: np.ndarray, n_l: int, n_u: int, theta: float, loss_kind: str
) -> np.ndarray:
    """Derivative of the empirical risk with respect to the score matrix."""
    K = scores.shape[1] - 1
    W = np.zeros_like(scores)
    W[:n_l] = _labeled_bracket(labels, K, theta)
    su = scores[n_l:]
    W[n_l:, :K] -= loss_derivative(loss_kind, -su[:, :K]) / n_u
    W[n_l:, K] += loss_derivative(loss_kind, su[:, K]) / n_u
    return W


def _gradient_arrays(a, scores, G, y, n_l, n_u, theta, lam, loss_kind) -> np.ndarray:
    """The objective's gradient at dual coefficients a whose scores G @ a are given."""
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
    return _gradient_arrays(a, gram_full @ a, gram_full, labeled.y, n_l, n_u, theta, lam,
                            loss_kind)


def _check_theta(theta: float) -> None:
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")


def _floor_gram(G: np.ndarray) -> None:
    """Zero the entries of G below KERNEL_FLOOR, in place."""
    np.copyto(G, 0.0, where=G < KERNEL_FLOOR)


def _square_loss_alpha(
    G: np.ndarray,
    n_l: int,
    labels: np.ndarray,
    num_known_classes: int,
    theta: float,
    lam: float,
) -> np.ndarray:
    """Exact stationary point of the square-loss objective at weight lam.

    G is the training Gram matrix, n_l labeled rows first; G is floored in
    place.  The labeled rows of alpha are the bracket's closed form
    -B_L / (2 lam); the unlabeled rows solve (G_UU / (2 n_u) + s I) x =
    -B_U - G_UL alpha_L / (2 n_u) with s = 2 lam + GRAM_JITTER, by one
    Cholesky factorization.  G was checked finite here, so the
    factorization and the solve skip scipy's full-matrix finiteness scans.
    """
    _check_theta(theta)
    n_u = G.shape[0] - n_l
    shift = 2.0 * lam + GRAM_JITTER
    if not np.isfinite(shift):
        raise ValueError(f"regularization weight must be finite, got {lam}")
    if not np.all(np.isfinite(G[n_l:])):
        raise ValueError("square-loss Gram blocks must be finite")
    _floor_gram(G)
    K = num_known_classes
    alpha = np.empty((n_l + n_u, K + 1))
    alpha[:n_l] = -_labeled_bracket(labels, K, theta) / (2.0 * lam)
    rhs = -_unlabeled_bracket(n_u, K) - (G[n_l:, :n_l] @ alpha[:n_l]) / (2.0 * n_u)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("square-loss right-hand side is not finite")

    M = G[n_l:, n_l:] / (2.0 * n_u)
    M.flat[::n_u + 1] += shift
    try:
        # M is exactly symmetric, so its transpose is M itself in the
        # Fortran order LAPACK factors in place
        factor = cho_factor(M.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(G[n_l:, n_l:] / (2.0 * n_u) + shift * np.eye(n_u))
        raise np.linalg.LinAlgError(
            f"square-loss system not positive definite (condition estimate {cond:.3e})"
        ) from exc
    alpha[n_l:] = cho_solve(factor, rhs, check_finite=False)
    return alpha


def _located(exc: np.linalg.LinAlgError, **where) -> np.linalg.LinAlgError:
    """Attach where a solve failed (``row=`` start vector, ``fold=``) to its error."""
    for key, value in where.items():
        setattr(exc, key, value)
    return exc


def _shifted_lanczos(
    A: np.ndarray,
    starts: np.ndarray,
    shifts: np.ndarray,
    masks: np.ndarray,
    scales: np.ndarray,
) -> np.ndarray:
    """Solutions of (A_r + s I) x = b for every start vector b and shift s.

    ``starts`` holds one right-hand side per row, (p, n); row r's operator
    is A_r = scales[r] diag(masks[r]) A diag(masks[r]) for a symmetric A and
    a 0/1 mask that covers its start vector, so several systems can share
    one A.  The result is (p, n, len(shifts)) and is zero outside each
    row's mask.  Each start vector runs its own Lanczos recurrence with full
    reorthogonalization; the p recurrences advance in lockstep, so a step
    costs one (p, n) x (n, n) product.  After m steps the solution for shift
    s is ||b|| Q_m (T_m + s I)^{-1} e_1, whose residual norm is
    ||b|| beta_m |e_m^T (T_m + s I)^{-1} e_1|.  T_m + s I is factored as
    L D L^T one step at a time, so that last entry costs O(p x shifts) per
    step.  A recurrence stops once it is at most KRYLOV_TOLERANCE for every
    shift, and the run ends when every recurrence has stopped.  A row may
    take at most as many steps as its mask has ones.  A failure raises
    LinAlgError whose ``row`` names the start vector whose recurrence
    failed.
    """
    p, n = starts.shape
    weights = masks * scales[:, None]
    caps = np.count_nonzero(masks, axis=1)
    norms = np.linalg.norm(starts, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)  # a zero start vector has solution 0
    # the basis grows on demand.  Every default-grid run measured at
    # n_u = 800-2000 stopped within 36 steps, so 64 steps rarely grow, and a
    # growth (a copy while both bases are held) is what sets the peak memory
    max_steps = int(caps.max())
    Q = np.empty((p, min(max_steps, 64), n))
    Q[:, 0] = starts / safe[:, None]
    pivots, firsts, betas = [], [], []
    beta = np.zeros(p)
    for m in range(max_steps):
        v = Q[:, m]
        w = v @ A  # A is symmetric: the rows of (A @ v.T).T
        w *= weights
        a = np.einsum("pn,pn->p", v, w)
        w -= a[:, None] * v
        if m:
            w -= beta[:, None] * Q[:, m - 1]
        basis = Q[:, :m + 1]
        w -= np.matmul(np.matmul(basis, w[:, :, None]).transpose(0, 2, 1), basis)[:, 0]
        d = a[:, None] + shifts
        if m:
            d -= (beta ** 2)[:, None] / pivots[-1]
            first = -(beta[:, None] / pivots[-1]) * firsts[-1]
        else:
            first = np.ones_like(d)
        failed = np.flatnonzero(~np.all(d > 0.0, axis=1))
        if len(failed):
            row = int(failed[0])
            raise _located(np.linalg.LinAlgError(
                f"square-loss system not positive definite (Lanczos pivot {np.min(d[row]):.3e} "
                f"at step {m + 1})"), row=row)
        beta = np.linalg.norm(w, axis=1)
        residuals = np.max(beta[:, None] * np.abs(first / d), axis=1)
        open_rows = residuals > KRYLOV_TOLERANCE
        # a converged recurrence stops here: with no coupling and a zero next
        # vector its solution stays this step's, and it does not go on to
        # normalize rounding noise into vectors that lose orthogonality
        beta[~open_rows] = 0.0
        w[~open_rows] = 0.0
        pivots.append(d)
        firsts.append(first)
        betas.append(beta)
        if not open_rows.any():
            break
        capped = np.flatnonzero(open_rows & (caps <= m + 1))
        if len(capped):
            row = int(capped[0])
            raise _located(np.linalg.LinAlgError(
                f"shifted Lanczos stopped at its cap of {caps[row]} steps with relative "
                f"residual {residuals[row]:.3e} above {KRYLOV_TOLERANCE:.1e}"), row=row)
        if m + 1 == Q.shape[1]:
            grown = np.empty((p, min(max_steps, 2 * Q.shape[1]), n))
            grown[:, :m + 1] = Q
            Q = grown
        Q[:, m + 1] = w / np.where(beta > 0.0, beta, 1.0)[:, None]

    # back substitution through L^T gives (T_m + s I)^{-1} e_1 for every
    # start vector and shift at once
    y = np.array(firsts) / np.array(pivots)
    for k in range(len(pivots) - 2, -1, -1):
        y[k] -= (betas[k][:, None] / pivots[k]) * y[k + 1]
    basis = Q[:, :len(pivots)]
    return np.matmul(basis.transpose(0, 2, 1), y.transpose(1, 0, 2)) * norms[:, None, None]


def _square_loss_fold_alphas(
    G: np.ndarray,
    n_l: int,
    labels: np.ndarray,
    num_known_classes: int,
    theta: float,
    folds,
    lams,
) -> list[list[np.ndarray]]:
    """Square-loss stationary points of every training fold at every weight.

    G is the pooled Gram matrix, n_l labeled rows first; ``folds`` holds
    (train_L, train_U) row indices, train_U counted within the unlabeled
    block.  Let m_f be the 0/1 mask of fold f's training-unlabeled rows,
    n_u,f and n_l,f its training counts, and B_L,f the labeled bracket of
    its training labels, zero outside them.  The fold's
    unlabeled rows solve (A_f + s I) x = r0 + r1 / lam, with
    s = 2 lam + GRAM_JITTER, A_f = diag(m_f) G_UU diag(m_f) / (2 n_u,f),
    r0 = +-m_f / (2 n_u,f) in every column and
    r1 = m_f * G_UL B_L,f / (4 n_u,f).  A Krylov space does not change when
    its matrix is shifted, so one shifted-Lanczos run on the shared G_UU,
    started from every fold's m_f and the K+1 columns of its r1, serves
    every fold and weight, with no factorization and no gathered block.

    G is floored in place.  alphas[f][i] is (n, K+1) over the pooled
    support, zero outside fold f's training rows.  A failed solve raises
    LinAlgError whose ``fold`` names the fold.
    """
    _check_theta(theta)
    n_u = G.shape[0] - n_l
    K = num_known_classes
    lams = np.asarray(lams, dtype=float)
    shifts = 2.0 * lams + GRAM_JITTER
    if not np.all(np.isfinite(shifts)):
        raise ValueError(f"regularization weights must be finite, got {lams.tolist()}")
    if not np.all(np.isfinite(G[n_l:])):
        raise ValueError("square-loss Gram blocks must be finite")
    _floor_gram(G)

    width = K + 2  # start vectors per fold: m_f, then the K+1 columns of r1
    masks = np.zeros((len(folds) * width, n_u))
    scales = np.empty(len(folds) * width)
    B_L = np.zeros((len(folds), n_l, K + 1))
    for f, (train_L, train_U) in enumerate(folds):
        masks[f * width:(f + 1) * width, train_U] = 1.0
        scales[f * width:(f + 1) * width] = 1.0 / (2.0 * len(train_U))
        B_L[f, train_L] = _labeled_bracket(labels[train_L], K, theta)
    # G_UL B_L,f of every fold from one product, one row per column
    r1 = (G[n_l:, :n_l] @ np.hstack(B_L)).T
    starts = masks.copy()
    for f, (_, train_U) in enumerate(folds):
        starts[f * width + 1:(f + 1) * width] *= (r1[f * (K + 1):(f + 1) * (K + 1)]
                                                  / (4.0 * len(train_U)))
    try:
        x = _shifted_lanczos(G[n_l:, n_l:], starts, shifts, masks, scales)
    except np.linalg.LinAlgError as exc:
        exc.fold = exc.row // width
        raise

    alphas = []
    for f, (_, train_U) in enumerate(folds):
        b_U = -_unlabeled_bracket(len(train_U), K)
        x0, xr = x[f * width], x[f * width + 1:(f + 1) * width]
        fold_alphas = []
        for i, lam in enumerate(lams):
            alpha = np.empty((n_l + n_u, K + 1))
            alpha[:n_l] = -B_L[f] / (2.0 * lam)
            alpha[n_l:] = np.outer(x0[:, i], b_U) + xr[:, :, i].T / lam
            if not np.all(np.isfinite(alpha)):
                raise _located(np.linalg.LinAlgError(
                    f"square-loss solution is not finite at lambda={lam}"), fold=f)
            fold_alphas.append(alpha)
        alphas.append(fold_alphas)
    return alphas


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
    alpha = _square_loss_alpha(G, len(labeled), labeled.y, labeled.num_known_classes,
                               theta, lam)
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
    """L-BFGS-B from the zero model on a precomputed Gram.

    ftol=0 leaves the max-abs gradient tolerance as the only success test;
    the record's gradient norm and converged flag are read from the
    gradient at the returned point, not from scipy's status.
    """
    lam = options.lam
    shape = (n_l + n_u, num_known_classes + 1)

    def value_and_gradient(x):
        a = x.reshape(shape)
        scores = G @ a  # shared by the objective and its gradient
        return (_objective_arrays(a, scores, y, n_l, n_u, theta, lam, loss_kind),
                _gradient_arrays(a, scores, G, y, n_l, n_u, theta, lam, loss_kind).ravel())

    zero = np.zeros(shape)
    history = [_objective_arrays(zero, G @ zero, y, n_l, n_u, theta, lam, loss_kind)]
    # scipy hands the per-iteration result only to a parameter of this name
    result = minimize(
        value_and_gradient, zero.ravel(), jac=True, method="L-BFGS-B",
        callback=lambda intermediate_result: history.append(float(intermediate_result.fun)),
        options={"maxiter": options.max_iterations, "gtol": options.gradient_tolerance,
                 "ftol": 0.0},
    )
    grad_norm = float(np.max(np.abs(result.jac)))
    record = FitRecord(int(result.nit), grad_norm, grad_norm <= options.gradient_tolerance,
                       tuple(history))
    return result.x.reshape(shape), record


def fit_first_order(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    theta: float,
    options: FitOptions,
    loss_kind: str,
) -> DualModel:
    """L-BFGS-B from the zero model on the full training Gram.

    Every iteration passes a sufficient-decrease line search, so the
    objective never increases; if the gradient tolerance is not reached
    within the iteration budget the model is returned with a non-converged
    record rather than failing silently.
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
