"""Regularized minimisation of the unbiased risk estimator in an RKHS.

Scorers are kernel expansions over the combined labeled + unlabeled support
(one dual-coefficient column per known class plus one for the novel class).
The square loss admits an exact linear-system solution: one Cholesky
factorization for a single weight, or one shifted-Lanczos run on the
pooled Gram's unlabeled block that serves every fold and weight of a
cross-validation bandwidth.  Both run on a pooled Gram from ``kernel.gram``,
whose entries below ``kernel.KERNEL_FLOOR`` are zeroed, and read the
labeled bracket: the labeled risk term is linear in the scores, so
its gradient is one constant for every loss.  Hence for every loss the labeled
rows of alpha are the closed form -bracket / (2 lambda), and the K+1 score
columns decouple into problems over the unlabeled rows.  Other losses solve
each column with scipy's limited-memory quasi-Newton method (L-BFGS-B):
a smooth loss on its exact objective and gradient up to a gradient tolerance,
double-hinge on its box-constrained dual up to a duality-gap tolerance.
Scores are the exact dense expansion; labels are read from a certified
low-rank projection of it and equal the dense argmax (``certified_labels``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .data import LabeledDataset, UnlabeledDataset, check_theta, json_text, pooled_points
from .kernel import (
    PIVOT_TOLERANCE,
    KernelSpec,
    TILE_ROWS,
    _each_tile,
    _worker_count,
    gram,
    gram_product,
    pivoted_cholesky,
)
from .losses import (
    DOUBLE_HINGE,
    SQUARE,
    _check_finite,
    _derivative,
    _value,
    canonical_loss_kind,
    loss_derivative,
)
from .risk import lac_risk_from_scores

GRAM_JITTER = 1e-10
# The shifted-Lanczos solve stops once every shift's residual is at most
# this fraction of its right-hand side's norm.  The unlabeled block has
# spectral norm <= 1/2 and every shift is >= 2 lambda, so the solution's
# relative error is at most about tolerance x (1 + 1 / (4 lambda)): 2.5e-11
# at lambda = 1e-3.
KRYLOV_TOLERANCE = 1e-13
# A double-hinge score column counts as converged once the duality gap of
# its box dual is at most this fraction of the column objective.  On the
# bundled spec at 500/1000 (seed 1, CV fold 0, lambda <= 1e-2) the columns'
# gaps reached 0 to 3.4e-9 before L-BFGS-B stopped improving; 1e-6 leaves
# room for harder draws without flagging solves that cannot improve.
DUAL_GAP_TOLERANCE = 1e-6

MODEL_FORMAT_VERSION = 1
# every field a version-1 model file holds, with the types json.loads may
# give its value (a JSON true is a bool, never an int); the two arrays are
# checked as from_json converts them, and their shapes by DualModel
_MODEL_FIELDS = {"kernel_sigma": (int, float), "loss": (str,), "theta": (int, float),
                 "lambda": (int, float), "num_known_classes": (int,), "converged": (bool,),
                 "support_points": (), "alpha": ()}


def check_lambda(lam: float) -> None:
    """Refuse a regularization weight that is not positive and finite, NaN
    included, or whose square-loss shift 2 lam overflows."""
    if not (lam > 0.0 and np.isfinite(2.0 * float(lam))):
        raise ValueError(f"regularization weight must be positive and finite, got {lam}")


@dataclass(frozen=True)
class FitOptions:
    """First-order solver settings; lam is the RKHS-norm penalty weight.

    max_iterations caps each score column's L-BFGS-B run.  The gradient
    tolerance applies to smooth losses only; a double-hinge column is
    judged by its duality gap against DUAL_GAP_TOLERANCE.
    """

    lam: float
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        check_lambda(self.lam)
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient tolerance must be positive")


@dataclass(frozen=True)
class FitRecord:
    """How a solve ended.  A model loaded from JSON keeps only ``converged``;
    its iteration count and gradient norm were not saved and are None.

    For double-hinge the gradient norm is taken at the midpoint subgradient
    and certifies nothing; ``duality_gap`` is what decided ``converged``:
    the largest over the score columns of the box dual's gap relative to
    the column objective.  It is None for every other loss.
    """

    iterations: int | None
    final_gradient_norm: float | None
    converged: bool
    objective_history: tuple[float, ...] = ()
    duality_gap: float | None = None


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
        pts = np.ascontiguousarray(self.support_points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"support points must be a 2-D array, got {pts.ndim} dimension(s)")
        # prediction trusts them and checks only the queries
        if not np.all(np.isfinite(pts)):
            raise ValueError("support points must be finite")
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (pts.shape[0], self.num_known_classes + 1):
            raise ValueError(f"alpha must be (n, K+1), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("dual coefficients must be finite")
        check_theta(self.theta)
        check_lambda(self.lam)
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
        """Labels of the queries, equal to ``predict_labels(self.scores(queries))``
        but read, for at least as many queries as support points, from a
        certified low-rank expansion that every such call factors anew
        (``certified_labels``); the model holds no other state."""
        return certified_labels(self, queries)

    def to_json(self) -> str:
        """The model as a version-1 JSON text.  A model built without a
        ``FitRecord`` is refused: no solve gave it a convergence verdict."""
        if self.record is None:
            raise ValueError("a model without a fit record has no convergence verdict to save")
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
            "converged": bool(self.record.converged),
        }
        return json_text(payload)

    @staticmethod
    def from_json(text: str) -> "DualModel":
        """The model a ``to_json`` text describes.  A text that is not a
        version-1 model, or that misses a field or holds one of another JSON
        type, is refused by a ValueError that names every such field."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"model file is not a JSON object with format_version "
                             f"{MODEL_FORMAT_VERSION}")
        problems = []
        for name, types in _MODEL_FIELDS.items():
            if name not in payload:
                problems.append(f"field {name!r} is missing")
            elif types and type(payload[name]) not in types:
                problems.append(f"field {name!r} has the wrong type ({type(payload[name]).__name__})")
        if problems:
            raise ValueError("model file: " + "; ".join(problems))
        for name in ("support_points", "alpha"):
            try:
                payload[name] = np.asarray(payload[name], dtype=float)
            except (TypeError, ValueError):  # ragged, or holding an object or a string
                raise ValueError(f"model file: field {name!r} is not a rectangular array of numbers")
        return DualModel(
            support_points=payload["support_points"],
            alpha=payload["alpha"],
            kernel=KernelSpec(payload["kernel_sigma"]),
            loss_kind=payload["loss"],
            theta=payload["theta"],
            lam=payload["lambda"],
            num_known_classes=payload["num_known_classes"],
            record=FitRecord(None, None, payload["converged"]),
        )

    @staticmethod
    def load(path) -> "DualModel":
        with open(path, "r", encoding="utf-8") as fh:
            return DualModel.from_json(fh.read())


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


def _square_loss_alpha(
    G: np.ndarray,
    n_l: int,
    labels: np.ndarray,
    num_known_classes: int,
    theta: float,
    lam: float,
) -> np.ndarray:
    """Exact stationary point of the square-loss objective at weight lam.

    G is the training Gram matrix, n_l labeled rows first, built by
    ``gram``.  The labeled rows of alpha are the bracket's closed form
    -B_L / (2 lam); the unlabeled rows solve
    (G_UU / (2 n_u) + s I) x = -B_U - G_UL alpha_L / (2 n_u) with
    s = 2 lam + GRAM_JITTER, by one Cholesky factorization.  ``gram``'s
    entries lie in [0, 1], so the factorization and the solve skip scipy's
    full-matrix finiteness scans; the right-hand side is checked.  theta and
    lam are checked by the caller.
    """
    n_u = G.shape[0] - n_l
    shift = 2.0 * lam + GRAM_JITTER
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
    costs one (p, n) x (n, n) product.  That product is one BLAS call per
    kernel.TILE_ROWS-column tile, into a (p, n) buffer allocated here, with
    the tiles shared out by ``kernel._each_tile`` over the calling thread
    and the process's tile pool, whose threads every step reuses; the calls
    do not depend on the CPU count, so neither does the result.  At p = 20 and n = 1000 (the bundled spec at 500/1000, 5 folds)
    the tiles' product equals the one-call v @ A bit for bit.  The weights,
    the dot products, the reorthogonalization and the pivots run in the
    calling thread.  After m steps the solution for shift
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
    w = np.empty((p, n))
    # A is symmetric, so v @ A holds the rows of (A @ v.T).T.  The tiles'
    # views are made here, so a worker only multiplies
    tiles = [(A[:, start:start + TILE_ROWS], w[:, start:start + TILE_ROWS])
             for start in range(0, n, TILE_ROWS)]
    v = None  # this step's basis vectors, read by every worker

    def product(worker, start, stop):
        block, out = tiles[start // TILE_ROWS]
        np.matmul(v, block, out=out)

    workers = _worker_count(n)
    for m in range(max_steps):
        v = Q[:, m]
        _each_tile(n, workers, product)
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
                "square-loss system not positive definite "
                f"(Lanczos pivot {np.min(d[row]):.3e} at step {m + 1})"), row=row)
        beta = np.linalg.norm(w, axis=1)
        residuals = np.max(beta[:, None] * np.abs(first / d), axis=1)
        open_rows = residuals > KRYLOV_TOLERANCE
        # a converged recurrence stops here: with no coupling and a zero
        # next vector its solution stays this step's, and it does not go on
        # to normalize rounding noise into vectors that lose orthogonality
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

    G is built by ``gram``, so its entries lie in [0, 1] and are not
    scanned.  alphas[f][i] is (n, K+1) over the pooled support, zero
    outside fold f's training rows.  A failed solve raises LinAlgError
    whose ``fold`` names the fold.
    """
    check_theta(theta)
    for lam in lams:
        check_lambda(lam)
    n_u = G.shape[0] - n_l
    K = num_known_classes
    lams = np.asarray(lams, dtype=float)
    shifts = 2.0 * lams + GRAM_JITTER

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
    check_theta(theta)  # before the Gram is built
    check_lambda(lam)
    support = pooled_points(labeled, unlabeled)
    G = gram(kernel, support, support)
    alpha = _square_loss_alpha(G, len(labeled), labeled.y, labeled.num_known_classes,
                               theta, lam)
    # the bracket is solved exactly, so the gradient G @ residual is ~0
    grad = objective_gradient(alpha, G, labeled, unlabeled, theta, lam, SQUARE)
    record = FitRecord(0, float(np.max(np.abs(grad))), True)
    return DualModel(support, alpha, kernel, SQUARE, theta, lam,
                     labeled.num_known_classes, record)


def _column_coefficients(
    G_XU: np.ndarray,
    n_l: int,
    offsets: np.ndarray,
    sign: float,
    options: FitOptions,
    loss_kind: str,
) -> tuple[np.ndarray, int, bool, float]:
    """One score column's unlabeled coefficients u, its iterations, verdict
    and certificate.

    G_XU is the Gram's unlabeled columns, n_l labeled rows first, and c =
    ``offsets`` the column's scores from the labeled rows.  u minimises
    mean psi(z) + lam u' G_UU u over n = n_u rows, z = sign (c + G_UU u).
    A smooth loss runs L-BFGS-B on u until the column's gradient over every
    support row, G_XU r with r = sign psi'(z) / n + 2 lam u, is within the
    gradient tolerance.  Double-hinge is 1/2 [1 - z]_+ + 1/2 [-1 - z]_+, so
    L-BFGS-B maximises its box dual over b, g in [0, 1]^n, v = b + g,
    (1/2n) sum(b - g) - (sign/2n) c'v - v' G_UU v / (16 lam n^2), whose
    primal is u = sign v / (4 lam n), until the duality gap is within
    DUAL_GAP_TOLERANCE of the column objective.  The certificate is what
    the verdict read at the returned point: the largest gradient entry, or
    the gap relative to the column objective.  loss_kind is canonical.
    """
    # scipy.optimize costs about 11 MB of RSS and 0.1 s to import, and only
    # these first-order solves use it, so square-loss runs never load it
    from scipy.optimize import minimize

    lam, n = options.lam, len(offsets)
    G_UU = G_XU[n_l:]
    z0 = sign * offsets  # z at u = 0
    dual = loss_kind == DOUBLE_HINGE
    if dual:
        def evaluate(x):
            b, g = x[:n], x[n:]
            v = b + g
            w = (G_UU @ v) / (4.0 * lam * n)  # sign G_UU u
            z = _check_finite(z0 + w)
            negated_dual = (v @ (z0 + 0.5 * w) + g.sum() - b.sum()) / (2.0 * n)
            primal = float(np.mean(_value(DOUBLE_HINGE, z))) + (v @ w) / (4.0 * n)
            gap = primal + negated_dual
            done = gap <= DUAL_GAP_TOLERANCE * abs(primal)
            certificate = gap / abs(primal) if primal else (0.0 if gap <= 0.0 else np.inf)
            return (negated_dual, np.concatenate([z - 1.0, z + 1.0]) / (2.0 * n), done,
                    float(certificate))
    else:
        def evaluate(u):
            q = G_UU @ u
            z = _check_finite(z0 + sign * q)
            r = sign * _derivative(loss_kind, z) / n + 2.0 * lam * u
            full = G_XU @ r
            value = float(np.mean(_value(loss_kind, z))) + lam * (u @ q)
            largest = float(np.max(np.abs(full)))
            return value, full[n_l:], largest <= options.gradient_tolerance, largest

    done = False

    def value_and_gradient(x):
        nonlocal done
        value, grad, done, _ = evaluate(x)
        return value, grad

    def stop(intermediate_result):  # scipy passes the iterate only to this name
        if done:
            raise StopIteration

    # gtol = ftol = 0 leave the verdict above as the only success test; it
    # is read again at the returned point, not taken from scipy's status
    result = minimize(value_and_gradient, np.zeros(2 * n if dual else n), jac=True,
                      method="L-BFGS-B", bounds=[(0.0, 1.0)] * (2 * n) if dual else None,
                      callback=stop, options={"maxiter": options.max_iterations,
                                              "gtol": 0.0, "ftol": 0.0})
    x = result.x
    u = sign * (x[:n] + x[n:]) / (4.0 * lam * n) if dual else x
    _, _, verdict, certificate = evaluate(x)
    return u, int(result.nit), bool(verdict), certificate


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
    """Dual coefficients by first-order solves on a precomputed Gram.

    The labeled rows take the closed form -B_L / (2 lam) of the labeled
    bracket for every loss.  Their pull on the unlabeled rows then cancels
    the penalty's cross term, so the K+1 score columns are independent
    problems over the unlabeled rows, each solved by ``_column_coefficients``
    with sign -1 for a known class and +1 for the novel one.  The record
    sums the columns' iterations, converges when every column does, and
    reads the objective at zero and at the returned point and the gradient
    at the returned point.  For double-hinge it also keeps the columns'
    largest relative duality gap.
    """
    lam, K = options.lam, num_known_classes
    alpha = np.zeros((n_l + n_u, K + 1))
    # the zero model scores zero everywhere
    history = [_objective_arrays(alpha, alpha, y, n_l, n_u, theta, lam, loss_kind)]
    alpha[:n_l] = -_labeled_bracket(y, K, theta) / (2.0 * lam)
    offsets = G[n_l:, :n_l] @ alpha[:n_l]
    iterations, converged, certificates = 0, True, []
    for k in range(K + 1):
        alpha[n_l:, k], nit, done, certificate = _column_coefficients(
            G[:, n_l:], n_l, offsets[:, k], 1.0 if k == K else -1.0, options, loss_kind)
        iterations += nit
        converged &= done
        certificates.append(certificate)
    gap = max(certificates) if loss_kind == DOUBLE_HINGE else None
    scores = G @ alpha
    history.append(_objective_arrays(alpha, scores, y, n_l, n_u, theta, lam, loss_kind))
    grad = _gradient_arrays(alpha, scores, G, y, n_l, n_u, theta, lam, loss_kind)
    return alpha, FitRecord(iterations, float(np.max(np.abs(grad))), converged, tuple(history),
                            gap)


def fit_first_order(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    theta: float,
    options: FitOptions,
    loss_kind: str,
) -> DualModel:
    """One L-BFGS-B run per score column from the zero model on the full
    training Gram (see ``_first_order_alpha``).

    If a column does not reach its convergence tolerance within the
    iteration budget, the model is returned with a non-converged record
    rather than failing silently.
    """
    loss_kind = canonical_loss_kind(loss_kind)
    support = pooled_points(labeled, unlabeled)
    G = gram(kernel, support, support)
    alpha, record = _first_order_alpha(
        G, labeled.y, labeled.num_known_classes, len(labeled), len(unlabeled),
        theta, options, loss_kind,
    )
    return DualModel(support, alpha, kernel, loss_kind, theta, lam=options.lam,
                     num_known_classes=labeled.num_known_classes, record=record)


def _query_points(model: DualModel, queries) -> np.ndarray:
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.shape[1] != model.support_points.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[1]} does not match support {model.support_points.shape[1]}"
        )
    if q.shape[0] == 0:
        raise ValueError("prediction requires at least one query point")
    return q


def predict_scores(model: DualModel, queries) -> np.ndarray:
    """Kernel-expansion scores of the queries, one column per class.

    ``kernel.gram_product`` builds the cross-Gram tile by tile, so memory
    does not grow with the number of queries.
    """
    q = _query_points(model, queries)
    return gram_product(model.kernel, q, model.support_points, model.alpha)


@dataclass(frozen=True)
class LowRankExpansion:
    """Scorers f~_k(x) = sum_p beta[p, k] K(x, support[pivots[p]]) and a
    radius: at every x, the computed f~_k(x) and the dense score
    ``predict_scores`` computes differ by at most radius[k]."""

    pivots: np.ndarray
    beta: np.ndarray
    radius: np.ndarray


def rank_cap(n_support: int) -> int:
    """The most pivots ``certified_labels`` spends on a model of n_support
    points: n_support / 8, above which the low-rank product saves too little
    to pay for the factorization.

    An abandoned factorization costs about n x cap^2 / 2 flops at most, and
    one without progress usually ends at a third of the cap
    (``kernel.PIVOT_PROGRESS``).  Measured on 2 vCPUs at n = 1,500 (a cap of
    187): a 0.1x-median model gave up at 62 pivots in 1.1 ms, against about
    40 ms for the dense scores of 20,000 queries and 11 ms for 5,000.
    """
    return n_support // 8


def low_rank_expansion(model: DualModel, max_rank: int) -> LowRankExpansion | None:
    """The model's scorers projected onto the span of at most ``max_rank``
    pivot points, or None when ``kernel.pivoted_cholesky`` gives up.

    With G[:, P] = L C^T and C = L[P], the projection's coefficients are
    beta = C^-T L^T alpha.  Its error in column k at any x is
    <(I - Pi) phi(x), (I - Pi) f_k> <= ||phi(x)|| sqrt(alpha_k^T (G - L L^T) alpha_k),
    with ||phi(x)||^2 = k(x, x) = 1.  G - L L^T is positive semidefinite and
    every diagonal entry is at most PIVOT_TOLERANCE, so its spectral norm is
    at most n PIVOT_TOLERANCE, and the error at most
    sqrt(n PIVOT_TOLERANCE) ||alpha_k||_2; no G @ alpha and no per-query
    solve is needed.

    Rounding slack, to first order in the unit roundoff u, with P pivots
    and d coordinates: a kernel entry is computed to within (d + 4) u
    (cdist's d-term sum, the scale, and exp, whose relative error t u at
    exponent -t is damped by e^-t: t e^-t <= 1/e), and a length-n dot
    product to within n u sum |coef| (Higham's gamma_n).  So the dense
    scores, which the labels must match, lie within (n + d + 4) u ||alpha_k||_1
    of the exact expansion, and the computed low-rank scores within
    (P + d + 4) u ||beta_k||_1 of theirs.  L^T alpha is rounded by at most
    n u ||alpha_k||_1 and the backward-stable triangular solve leaves a
    residual of at most P u ||beta_k||_1 (|C| <= 1), which moves f~_k by
    that much in RKHS norm.  The factor is exact for a Gram moved by at most
    (P + 1) u per entry, which adds (P + 1) u to the tolerance.  The slack
    2 (n + P + d + 4) u (||alpha_k||_1 + ||beta_k||_1) covers these terms.
    """
    factor = pivoted_cholesky(model.kernel, model.support_points, max_rank)
    if factor is None:
        return None
    L, pivots = factor
    n, d = model.support_points.shape
    P = len(pivots)
    beta = solve_triangular(L[pivots], L.T @ model.alpha, trans="T", lower=True,
                            check_finite=False)
    u = np.finfo(float).eps / 2.0
    bound = (math.sqrt(n * (PIVOT_TOLERANCE + (P + 1) * u))
             * np.linalg.norm(model.alpha, axis=0))
    slack = (2.0 * (n + P + d + 4) * u
             * (np.abs(model.alpha).sum(axis=0) + np.abs(beta).sum(axis=0)))
    return LowRankExpansion(pivots, beta, bound + slack)


def certified_labels(model: DualModel, queries) -> np.ndarray:
    """``predict_labels(predict_scores(model, queries))`` at a fraction of
    its cost.

    Fewer queries than the model's n support points are scored densely.
    Otherwise they are scored through the model's ``low_rank_expansion``
    under ``rank_cap``, factored at every call.  Its cost depends on the
    model alone: at n = 1,500, about 1.5 ms for the 79-84 pivots of a
    1x-median model and 1.1 ms for one that gives up.  On the bundled
    spec's seed-1 model (1x median, n = 1,500, 2 vCPUs), dense against
    certified labels took 0.02 against 1.78 ms for 1 query, 2.22 against
    2.39 ms for 1,000, 3.15 against 2.49 ms for 1,500 and 10.1 against
    3.2 ms for 5,000.  The expansion's scores are within radius[k] of the
    dense ones in column k.  A row whose two largest scores are more than
    2 max_k radius[k] apart has the dense argmax, with no dense tie; every
    other row is scored again by ``predict_scores``.  Without an expansion
    every row is scored densely.
    A rescored row sits in a shorter tile than in one dense pass over all
    the queries, which can move its scores in the last bits (about 1e-13,
    see kernel.GRAM_BLOCK_ROWS); only a dense margin that small between
    two classes could read differently.
    """
    q = _query_points(model, queries)
    n = model.support_points.shape[0]
    expansion = low_rank_expansion(model, rank_cap(n)) if len(q) >= n else None
    if expansion is None:
        return predict_labels(predict_scores(model, q))
    scores = gram_product(model.kernel, q, model.support_points[expansion.pivots],
                          expansion.beta)
    top_two = np.partition(scores, -2, axis=1)[:, -2:]
    near = np.flatnonzero(top_two[:, 1] - top_two[:, 0] <= 2.0 * expansion.radius.max())
    if len(near):
        scores[near] = predict_scores(model, q[near])
    return predict_labels(scores)


def predict_labels(scores: np.ndarray) -> np.ndarray:
    """Argmax label per score row; ties go to the smallest class index,
    with the novel class (last column) losing all ties."""
    s = np.atleast_2d(np.asarray(scores, dtype=float))
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return np.argmax(s, axis=1).astype(np.int64) + 1
