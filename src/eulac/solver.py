"""Regularized minimisation of the unbiased risk estimator in an RKHS.

Scorers are kernel expansions over the combined labeled + unlabeled support
(one dual-coefficient column per known class plus one for the novel class).
The square loss admits an exact linear-system solution.  Its solves read
the labeled bracket: the labeled risk term is linear in the scores, so its
gradient is one constant for every loss.  Hence for every loss the labeled
rows of alpha are the closed form -bracket / (2 lambda), and the K+1 score
columns decouple into problems over the unlabeled rows, a system in the
unlabeled block G_UU of the pooled Gram shifted by exactly 2 lambda.  The
system is stated once: the refit solves cross-validation's system for a
fold that trains on every row, from the same start vectors, and both
assemble their columns by one closed form (``_closed_form_columns``).
``_unlabeled_operator`` alone chooses the form of G_UU a square-loss
solve takes, from the points: the sparse floored block at narrow
bandwidths, a pivoted-Cholesky factor at wide ones where it keeps the
solution within FACTOR_SOLUTION_TOLERANCE, and the dense block otherwise.
The form chooses only how the system is solved.  On the sparse and factor
forms one shifted-Lanczos run solves it: for cross-validation a run per
bandwidth serves every fold and weight, and the refit makes one run of its
own.  On the dense form cross-validation's run multiplies by the G_UU
block, and the refit factors that block once by Cholesky.  The blocks come
from ``kernel.gram``, whose entries below ``kernel.KERNEL_FLOOR`` are
zeroed: G_UU and the labeled rows G_L = [G_LL, G_LU], built one after the
other so that beside G_UU they hold at most G_L (the refit) and no labeled
block at all (cross-validation's run).  The first-order solves take the
pooled Gram.  Other losses solve
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

from .data import (LabeledDataset, UnlabeledDataset, check_theta, json_text, pooled_points,
                   read_text)
from .kernel import (
    PIVOT_TOLERANCE,
    KernelSpec,
    TILE_ROWS,
    _each_tile,
    _tiled_product,
    _worker_count,
    gram,
    gram_product,
    pivoted_cholesky,
    sparse_gram,
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

# The shifted-Lanczos solve stops once every shift's residual is at most
# this fraction of its right-hand side's norm.  The unlabeled block has
# spectral norm <= 1/2 and every shift is >= 2 lambda, so the solution's
# relative error is at most about tolerance x (1 + 1 / (4 lambda)): 2.5e-11
# at lambda = 1e-3.
KRYLOV_TOLERANCE = 1e-13
# A square-loss solve takes G_UU as a pivoted-Cholesky factor's L L^T only
# at a tolerance that moves its solution by at most this fraction
# (``_factor_tolerance``), the order of the Lanczos run's own error (2.5e-11
# at lambda = 1e-3)
FACTOR_SOLUTION_TOLERANCE = 1e-10
# The largest share of G_UU's n_u^2 entries that may be nonzero for a
# square-loss solve to take it sparse.  With 15 start vectors (500/1000, 5
# folds, K = 2) on 2 CPUs, one CSR product at 10.9 % nonzero took 0.66 ms at
# n_u = 1000 and 10.5 ms at n_u = 4000, against 1.17 and 19.6 ms for the
# dense tiles; the two met near 17 %.  On the bundled spec at 500/1000
# (seed 1) 1.5 % of the block is nonzero at 0.01x median and 59 % at 0.1x.
SPARSE_SHARE = 0.1
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


def _beyond_float(number) -> bool:
    """Whether a JSON number is an integer too large for a float."""
    try:
        float(number)
    except OverflowError:
        return True
    return False


def _json_rows(rows: np.ndarray) -> str:
    """The 2-D float array ``rows`` as ``json_text`` writes its list one
    level deep in an object, byte for byte, without json's pure-Python
    indent encoder: each float is its repr, as json writes a finite float."""
    n, d = rows.shape
    if n == 0:
        return "[]"
    row = "[\n   " + ",\n   ".join(["%r"] * d) + "\n  ]" if d else "[]"
    return "[\n  " + ",\n  ".join([row] * n) % tuple(rows.ravel().tolist()) + "\n ]"


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

    ``final_gradient_norm`` is the largest entry of the objective's gradient
    G (W + 2 lam alpha) at the returned alpha, taken with the floored Gram.
    The square-loss refit solves the objective's own system, shifted by
    exactly 2 lam, so its norm reads the solve's rounding and, at wide
    bandwidths, the error of the pivoted-Cholesky factor L L^T it takes for
    G_UU and of the Krylov run's KRYLOV_TOLERANCE: on the bundled spec at
    500/1000 (seed 1, lam = 1e-3) it is 4.0e-17 on the dense path (0.1x
    median) and 5.3e-14 on the factor path (1x).  The refit records
    ``converged`` when the norm is at most the first-order solves' default
    ``FitOptions.gradient_tolerance``.

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
        if self.num_known_classes < 1:
            raise ValueError("need at least one known class")
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
        arrays = {"support_points": self.support_points, "alpha": self.alpha}
        text = json_text({
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "dual_model",
            "kernel_sigma": float(self.kernel.sigma),
            "loss": self.loss_kind,
            "theta": float(self.theta),
            "lambda": float(self.lam),
            "num_known_classes": int(self.num_known_classes),
            "converged": bool(self.record.converged),
            **{name: f"@{name}" for name in arrays},
        })
        for name, rows in arrays.items():
            text = text.replace(f'"@{name}"', _json_rows(rows), 1)
        return text

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
            elif float in types and _beyond_float(payload[name]):
                problems.append(f"field {name!r} is an integer beyond the float range")
        if problems:
            raise ValueError("model file: " + "; ".join(problems))
        for name in ("support_points", "alpha"):
            try:
                array = np.asarray(payload[name], dtype=float)
                # float() also reads a numeric string or a JSON true: the
                # entries of a 2-D array must be JSON numbers
                if array.ndim == 2 and {type(v) for r in payload[name] for v in r} - {int, float}:
                    raise TypeError
            except OverflowError:
                raise ValueError(f"model file: field {name!r} holds an integer beyond the "
                                 "float range") from None
            except (TypeError, ValueError):  # ragged, or holding an object or a string
                raise ValueError(f"model file: field {name!r} is not a rectangular array of numbers")
            payload[name] = array
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
        return DualModel.from_json(read_text(path))


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


def _gradient_arrays(a, scores, product, y, n_l, n_u, theta, lam, loss_kind) -> np.ndarray:
    """The objective's gradient at dual coefficients a whose scores G @ a are
    given; ``product(R)`` is G @ R."""
    W = _risk_score_gradient(scores, y, n_l, n_u, theta, loss_kind)
    return product(W + 2.0 * lam * a)


def _pooled_product(G_L: np.ndarray, unlabeled_product, R: np.ndarray) -> np.ndarray:
    """G @ R for the pooled Gram G given by its labeled rows G_L and by
    ``unlabeled_product``, the Lanczos product (see ``_shifted_lanczos``) of
    its unlabeled block G_UU: G_L @ R, then G_LU^T R_L + G_UU R_U, G_UU R_U
    being the transpose of R_U^T G_UU, since G_UU is symmetric."""
    n_l = G_L.shape[0]
    unlabeled = np.empty((R.shape[1], R.shape[0] - n_l))
    unlabeled_product(R[n_l:].T, unlabeled)
    return np.concatenate([G_L @ R, G_L[:, n_l:].T @ R[:n_l] + unlabeled.T])


def _factor_tolerance(n_u: int, n_train: int, lam: float) -> float:
    """The ``kernel.pivoted_cholesky`` tolerance under which a square-loss
    solve on n_train of n_u unlabeled rows at weight lam may take G_UU as
    L L^T.

    The residual G_UU - L L^T is positive semidefinite with no diagonal
    entry above the tolerance t, so its spectral norm is at most n_u t.  The
    solve's operator diag(m) G_UU diag(m) / (2 n_train) then moves by at
    most n_u t / (2 n_train), and its system's smallest eigenvalue is at
    least the shift s = 2 lam, so the solution moves by at most
    n_u t / (2 n_train s) relative.  t is chosen to make that
    FACTOR_SOLUTION_TOLERANCE: 3.2e-13 for the default grid's folds at
    500/1000 (n_train = 800, lam = 1e-3), and 4e-13 for a refit at
    lam = 1e-3.  Building L rounds each entry of L L^T by about (P + 1) u
    more, for P pivots and unit roundoff u: 1.2e-14 at P = 104.
    """
    return FACTOR_SOLUTION_TOLERANCE * 2.0 * n_train * (2.0 * lam) / n_u


def _scaled_unlabeled_system(unlabeled_block, n_u: int, shift: float) -> np.ndarray:
    """G_UU / (2 n_u) + shift I, computed in the block ``unlabeled_block()``
    builds, with no copy."""
    M = unlabeled_block()
    M /= 2.0 * n_u
    M.flat[::n_u + 1] += shift
    return M


def _located(exc: np.linalg.LinAlgError, **where) -> np.linalg.LinAlgError:
    """Attach where a solve failed (``row=`` start vector, ``fold=``) to its error."""
    for key, value in where.items():
        setattr(exc, key, value)
    return exc


def _dense_product(A: np.ndarray):
    """The Lanczos product ``product(v, out)``, out = v @ A, of a dense
    symmetric n x n array A: one BLAS call per kernel.TILE_ROWS-column
    tile, shared out by ``kernel._each_tile`` over the calling thread and
    the process's tile pool, whose threads every step reuses.  The tiles'
    views are made in the calling thread, so a worker only multiplies.  The
    calls do not depend on the CPU count, so neither does the result.  At
    p = 15 and n = 1000 (the bundled spec at 500/1000, 5 folds, 2 known
    classes) the tiles' product equals the one-call v @ A bit for bit.  A
    step streams all of A: 8 MB at n = 1000."""
    n = A.shape[0]
    workers = _worker_count(n)

    def product(v, out):
        # A is symmetric, so v @ A holds the rows of (A @ v.T).T
        tiles = [(A[:, start:start + TILE_ROWS], out[:, start:start + TILE_ROWS])
                 for start in range(0, n, TILE_ROWS)]

        def work(worker, start, stop):
            block, dest = tiles[start // TILE_ROWS]
            np.matmul(v, block, out=dest)

        _each_tile(n, workers, work)
    return product


def _floored_tile_product(kernel: KernelSpec, points: np.ndarray):
    """The Lanczos product of the Gram of ``points`` by the kernel's tile
    product, so no n x n array is made.  Its tiles are clamped and floored
    as ``gram``'s, so the product reads the floored Gram that the dense
    solve builds, and at narrow bandwidths multiplies no subnormal entry."""
    def product(v, out):
        np.copyto(out, _tiled_product(kernel, points, points, v.T, floored=True).T)
    return product


def _factor_product(L: np.ndarray):
    """The Lanczos product of A = L L^T for an n x k factor L, as two BLAS
    calls in the calling thread, (v L) L^T: 4 p n k flops, against 2 p n^2
    for the dense block."""
    def product(v, out):
        np.matmul(v @ L, L.T, out=out)
    return product


def _sparse_product(S):
    """The Lanczos product of a symmetric scipy CSR matrix S: S @ v^T,
    transposed into out.  scipy sums each row in its stored column order,
    in the calling thread."""
    def product(v, out):
        np.copyto(out, (S @ v.T).T)
    return product


def _unlabeled_operator(spec: KernelSpec, points: np.ndarray, n_train: int, lam: float):
    """The form of the unlabeled block G_UU of the n_u ``points`` that a
    square-loss solve takes, as (form, product): ("sparse",
    ``_sparse_product``) when at most SPARSE_SHARE of its entries are
    nonzero (``kernel.sparse_gram``, whose entries equal ``gram``'s), else
    ("factor", ``_factor_product``) when a pivoted-Cholesky factor under
    ``rank_cap`` meets ``_factor_tolerance`` for solves on at least n_train
    of the rows at weights of at least lam, else ("dense", None): the solve
    builds G_UU itself.  Cross-validation and the refit both choose here.
    Each choice reads the points alone, so the form does not depend on the
    CPU count."""
    n = len(points)
    block = sparse_gram(spec, points, SPARSE_SHARE * n * n)
    if block is not None:
        return "sparse", _sparse_product(block)
    factor = pivoted_cholesky(spec, points, rank_cap(n), _factor_tolerance(n, n_train, lam))
    if factor is not None:
        return "factor", _factor_product(factor[0])
    return "dense", None


def _shifted_lanczos(
    product,
    starts: np.ndarray,
    shifts: np.ndarray,
    masks: np.ndarray,
    scales: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Solutions of (A_r + s I) x = b for every start vector b and shift s,
    and the products A x off each row's mask.

    ``starts`` holds one right-hand side per row, (p, n); row r's operator
    is A_r = scales[r] diag(masks[r]) A diag(masks[r]) for a symmetric A and
    a 0/1 mask that covers its start vector, so several systems can share
    one A.  A is given by its product: ``product(v, out)`` writes v @ A for
    a (p, n) block v into the (p, n) buffer ``out`` allocated here, and may
    be ``_dense_product``, ``_factor_product`` or ``_sparse_product``.  The
    first result is (p, n, len(shifts)) and is zero outside each row's
    mask.  Each start vector runs its own Lanczos recurrence with full
    reorthogonalization; the p recurrences advance in lockstep, so a step
    costs one product.  The weights, the dot products, the
    reorthogonalization and the pivots run in the calling thread.  After m
    steps the solution for shift
    s is ||b|| Q_m (T_m + s I)^{-1} e_1, whose residual norm is
    ||b|| beta_m |e_m^T (T_m + s I)^{-1} e_1|.  T_m + s I is factored as
    L D L^T one step at a time, so that last entry costs O(p x shifts) per
    step.  A recurrence stops once it is at most KRYLOV_TOLERANCE for every
    shift, and the run ends when every recurrence has stopped.  A row may
    take at most as many steps as its mask has ones.  A failure raises
    LinAlgError whose ``row`` names the start vector whose recurrence
    failed.

    Each step's product A q_m is kept at the rows outside its recurrence's
    mask, which the operator's mask then zeroes; no second basis is held.
    So the second result, entry r of length p, is (A x_r) at the rows where
    masks[r] is 0, in ascending order, (n - ones, len(shifts)): one
    contraction with the coefficients of Q_m, and no product with A.
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
    # each step's product at the rows off every mask, row by row, in one
    # buffer that grows with the basis: an array per step fragmented the
    # heap, and repeated fits' peak RSS rose by about 5 MB in some runs
    off = np.flatnonzero(masks.ravel() == 0.0)
    kept = np.empty((Q.shape[1], len(off)))
    pivots, firsts, betas = [], [], []
    beta = np.zeros(p)
    w = np.empty((p, n))
    for m in range(max_steps):
        v = Q[:, m]
        product(v, w)
        np.take(w, off, out=kept[m])
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
            kept = np.concatenate([kept, np.empty((Q.shape[1] - m - 1, len(off)))])
        Q[:, m + 1] = w / np.where(beta > 0.0, beta, 1.0)[:, None]

    # back substitution through L^T gives (T_m + s I)^{-1} e_1 for every
    # start vector and shift at once
    y = np.array(firsts) / np.array(pivots)
    for k in range(len(pivots) - 2, -1, -1):
        y[k] -= (betas[k][:, None] / pivots[k]) * y[k + 1]
    basis = Q[:, :len(pivots)]
    x = np.matmul(basis.transpose(0, 2, 1), y.transpose(1, 0, 2)) * norms[:, None, None]
    blocks = np.split(kept[:len(pivots)], np.cumsum(n - caps)[:-1], axis=1)
    products = [(block.T @ y[:, r]) * norms[r] for r, block in enumerate(blocks)]
    return x, products


def _closed_form_columns(data: np.ndarray, ones: np.ndarray, lams) -> np.ndarray:
    """The K+1 columns of the square loss's closed form, (K+1, rows, ...),
    at rows that read the unlabeled solutions through R_U and the labeled
    coefficients through R_L: R is the Gram's validation rows for a
    cross-validation fold's scores, and the identity's unlabeled rows,
    whose R_L is zero, for the refit's alpha.
    ``data`` holds the K known columns' R_U x_k - R_L B_k / 2, and ``ones``
    the ones start's share R_U x0 / (2 n_u).  Known column k is
    data_k / lam - ones and the novel one ones - sum_k data_k / lam, since
    the bracket's novel column, and so its solution, is minus the sum of the
    known ones."""
    known = data / lams
    return np.concatenate([known - ones, ones[None] - known.sum(axis=0, keepdims=True)])


def _square_loss_fold_scores(
    block,
    labeled_points: np.ndarray,
    unlabeled_points: np.ndarray,
    labels: np.ndarray,
    num_known_classes: int,
    theta: float,
    folds,
    lams,
    operator=None,
) -> list[np.ndarray]:
    """Validation scores of every square-loss training fold at every weight.

    ``block(rows, cols)`` builds the Gram of two point sets with ``gram``;
    it is asked for the pooled Gram's blocks G_LL, G_LU and, when no
    ``operator`` is given, G_UU.  ``operator`` is the Krylov product of a
    form of G_UU (see ``_shifted_lanczos``): ``_factor_product`` of a
    pivoted-Cholesky factor, or ``_sparse_product`` of ``kernel.sparse_gram``;
    None takes ``_dense_product`` of the G_UU that ``block`` builds.
    ``folds`` holds (train_L, train_U, val_L) row indices, train_U counted
    within the unlabeled block.  A fold's unlabeled validation rows are the
    unlabeled rows outside train_U.  Let m_f be the 0/1 mask of fold f's
    training-unlabeled rows, n_u,f its count, and B_L,f the labeled bracket
    of its training labels, zero outside them.  The fold's labeled
    coefficients are the closed form -B_L,f / (2 lam), and its unlabeled
    ones solve (A_f + s I) x = r0 + r1 / lam, with s = 2 lam,
    A_f = diag(m_f) G_UU diag(m_f) / (2 n_u,f), r0 = +-m_f / (2 n_u,f) in
    every column and r1 = m_f * G_UL B_L,f / (4 n_u,f), G_UL B_L,f being
    G_LU^T B_L,f.  A Krylov space does not change when its matrix is
    shifted, so one shifted-Lanczos run on the shared G_UU, started from
    every fold's m_f and the K known columns of its r1, serves every fold
    and weight, with no factorization and no gathered block.  B_L,f's novel
    column is minus the sum of its known ones, so r1's is too, and so is,
    the solve being linear, that column's solution and its scores' share.

    The refit (``_square_loss_alpha``) solves this system for one fold
    whose mask is all ones, and both read their columns from the solutions
    by ``_closed_form_columns``.

    No coefficient is assembled.  A validation row v scores
    G[v, U] x - G[v, L] B_L,f / (2 lam).  At an unlabeled validation row the
    run kept G[v, U] x off the fold's mask, and G[v, L] B_L,f is a row of
    the unscaled r1; the labeled validation rows take one product
    G_LU[val_L] @ [x0, xk] per fold and the rows of G_LL B_L,f.

    Each block is built, used and dropped here, one at a time, so the run
    holds its operator and its Krylov basis and no labeled block: G_LL gives
    every fold's G_LL B_L,f rows, G_LU gives r1, G_UU (if built) serves the
    run, and G_LU is built again for the labeled validation rows.  Each
    entry is held once, but G_LU's n_l x n_u entries are computed twice.
    The unlabeled validation rows' scores come from the operator's products,
    so from L L^T or the sparse block where the run took one.  Every block comes
    from ``gram``, so its entries lie in [0, 1] and are not scanned.  Every
    fold holds out at least one row.  Entry f of the result is fold f's
    (len(val_L) + n_u - len(train_U), len(lams), K+1) scores: its labeled
    validation rows in val_L's order, then its unlabeled ones in ascending
    order.  A failed solve, or a non-finite score, raises LinAlgError whose
    ``fold`` names the fold.
    """
    check_theta(theta)
    for lam in lams:
        check_lambda(lam)
    n_l, n_u = len(labeled_points), len(unlabeled_points)
    K = num_known_classes
    lams = np.asarray(lams, dtype=float)
    shifts = 2.0 * lams

    width = K + 1  # start vectors per fold: m_f, then the K known columns of r1
    masks = np.zeros((len(folds) * width, n_u))
    scales = np.empty(len(folds) * width)
    B = np.zeros((n_l, len(folds) * K))  # the known columns of every fold's B_L,f
    for f, (train_L, train_U, _) in enumerate(folds):
        masks[f * width:(f + 1) * width, train_U] = 1.0
        scales[f * width:(f + 1) * width] = 1.0 / (2.0 * len(train_U))
        B[train_L, f * K:(f + 1) * K] = _labeled_bracket(labels[train_L], K, theta)[:, :K]
    # G[val_L, L] B_L,f of every fold, (K, len(val_L))
    G_LL = block(labeled_points, labeled_points)
    labeled_shares = [(G_LL[val_L] @ B[:, f * K:(f + 1) * K]).T
                      for f, (_, _, val_L) in enumerate(folds)]
    del G_LL
    # G_UL B_L,f of every fold from one product, one row per known column
    r1 = (block(labeled_points, unlabeled_points).T @ B).T
    starts = masks.copy()
    for f, (_, train_U, _) in enumerate(folds):
        starts[f * width + 1:(f + 1) * width] *= r1[f * K:(f + 1) * K] / (4.0 * len(train_U))
    try:
        # a G_UU built here is referenced by its product alone, so it is
        # freed when the run returns
        x, kept = _shifted_lanczos(
            _dense_product(block(unlabeled_points, unlabeled_points)) if operator is None
            else operator, starts, shifts, masks, scales)
    except np.linalg.LinAlgError as exc:
        exc.fold = exc.row // width
        raise

    # every fold's validation rows, its labeled ones, then its unlabeled ones:
    # G[v, U] x of its K+1 solutions, (K+1, rows, lams), and G[v, L] B_L,f, (K, rows)
    G_LU = block(labeled_points, unlabeled_points)
    solved, bracket, counts = [], [], []
    for f, (_, train_U, val_L) in enumerate(folds):
        rows, cols = slice(f * width, (f + 1) * width), slice(f * K, (f + 1) * K)
        solved += [np.matmul(G_LU[val_L], x[rows]), np.stack(kept[rows])]
        bracket += [labeled_shares[f], r1[cols, masks[f * width] == 0.0]]
        counts.append(len(val_L) + n_u - len(train_U))
    del G_LU
    solved, bracket = np.concatenate(solved, axis=1), np.concatenate(bracket, axis=1)
    # the start vector m_f's share is x0 times its scale 1 / (2 n_u,f)
    columns = _closed_form_columns(solved[1:] - bracket[:, :, None] / 2.0,
                                   solved[0] * np.repeat(scales[::width], counts)[:, None], lams)
    firsts = np.cumsum(counts) - counts
    bad = np.argwhere(~np.logical_and.reduceat(np.isfinite(columns).all(axis=0), firsts))
    if len(bad):
        f, i = bad[0]
        raise _located(np.linalg.LinAlgError(
            f"square-loss solution is not finite at lambda={lams[i]}"), fold=int(f))
    return np.split(columns.transpose(1, 2, 0), firsts[1:])


def _square_loss_alpha(G_L: np.ndarray, operator, unlabeled_block, labels: np.ndarray,
                       num_known_classes: int, theta: float, lam: float) -> np.ndarray:
    """Exact stationary point of the square-loss objective at weight lam:
    the system of a cross-validation fold that trains on every row.

    G_L is the training Gram's n_l labeled rows, labeled columns first,
    from ``gram``.  The start vectors are the ones vector and the K known
    columns of G_UL B_L / (4 n_u), and the system is
    (G_UU / (2 n_u) + 2 lam I) x = b.  Its solutions x0 and x_k give alpha
    by cross-validation's closed form (``_closed_form_columns``): the
    labeled rows -B_L / (2 lam), known column k x_k / lam - x0 / (2 n_u)
    and the novel column x0 / (2 n_u) - sum_k x_k / lam.

    Only the solve depends on the form of G_UU.  ``operator`` is its
    Lanczos product (``_unlabeled_operator``), and one shifted-Lanczos run
    solves the system with no n_u x n_u array; None is the dense form:
    ``unlabeled_block()`` then builds G_UU, which is scaled, shifted and
    factored in place by one Cholesky factorization and solved for the K+1
    start vectors at once, so the solve holds one n_u x n_u array beside
    G_L.  ``gram``'s entries lie in [0, 1], so the factorization and the
    solve skip scipy's finiteness scans.  A dense system that is not
    positive definite raises LinAlgError naming its condition number,
    taken from a second G_UU built on that path alone, since the failed
    factorization has overwritten the first; a failed run raises
    ``_shifted_lanczos``'s.  theta and lam are checked by the caller.
    """
    n_l, K = G_L.shape[0], num_known_classes
    n_u = G_L.shape[1] - n_l
    B = _labeled_bracket(labels, K, theta)
    starts = np.vstack([np.ones(n_u), (B[:, :K].T @ G_L[:, n_l:]) / (4.0 * n_u)])
    shift = 2.0 * lam
    if operator is None:
        M = _scaled_unlabeled_system(unlabeled_block, n_u, shift)
        try:
            # M is exactly symmetric, so its transpose is M itself in the
            # Fortran order LAPACK factors in place
            cholesky = cho_factor(M.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(_scaled_unlabeled_system(unlabeled_block, n_u, shift))
            raise np.linalg.LinAlgError(
                f"square-loss system not positive definite (condition estimate {cond:.3e})"
            ) from exc
        x = cho_solve(cholesky, starts.T, check_finite=False).T
    else:
        x = _shifted_lanczos(operator, starts, np.array([shift]), np.ones_like(starts),
                             np.full(K + 1, 1.0 / (2.0 * n_u)))[0][:, :, 0]
    return np.concatenate([-B / (2.0 * lam),
                           _closed_form_columns(x[1:], x[0] / (2.0 * n_u), lam).T])


def fit_square_closed_form(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    kernel: KernelSpec,
    theta: float,
    lam: float,
) -> DualModel:
    """Solve the square-loss problem exactly via its normal equations.

    The refit builds the labeled rows G_L and solves cross-validation's
    system for a fold that trains on every row (``_square_loss_alpha``),
    on the form of G_UU that ``_unlabeled_operator`` chooses for n_u
    training rows at weight lam.  On the sparse or the factor form one
    shifted-Lanczos run solves it and no G_UU is built.  On the dense form
    G_UU is built after G_L and factored in place by Cholesky, so the
    refit holds at most G_L and one n_u x n_u array.  The gradient
    certificate's two products G @ R are ``_pooled_product``s that read
    G_L and the floored G_UU: the sparse block where the solve took it,
    whose entries are ``gram``'s, else ``_floored_tile_product``, one tile
    per worker at a time.  So the certificate reads the true kernel on
    every form (see ``FitRecord``), and ``converged`` is whether it is at
    most ``FitOptions``' default gradient tolerance.
    """
    check_theta(theta)  # before the Gram is built
    check_lambda(lam)
    support = pooled_points(labeled, unlabeled)
    n_l, n_u = len(labeled), len(unlabeled)
    G_L = gram(kernel, support[:n_l], support)
    form, operator = _unlabeled_operator(kernel, support[n_l:], n_u, lam)
    alpha = _square_loss_alpha(G_L, operator, lambda: gram(kernel, support[n_l:], support[n_l:]),
                               labeled.y, labeled.num_known_classes, theta, lam)
    uu_product = operator if form == "sparse" else _floored_tile_product(kernel, support[n_l:])

    def product(R):
        return _pooled_product(G_L, uu_product, R)

    # the bracket is solved exactly, so the gradient G @ residual is ~0
    grad = _gradient_arrays(alpha, product(alpha), product, labeled.y, n_l, n_u, theta, lam,
                            SQUARE)
    norm = float(np.max(np.abs(grad)))
    record = FitRecord(0, norm, norm <= FitOptions(lam=lam).gradient_tolerance)
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
    # scipy.optimize is costly to import, in memory and time, and only these
    # first-order solves use it, so square-loss runs never load it
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
    theta: float,
    options: FitOptions,
    loss_kind: str,
) -> tuple[np.ndarray, FitRecord]:
    """Dual coefficients by first-order solves on a precomputed Gram, its
    len(y) labeled rows first.

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
    n_l = len(y)
    n_u = G.shape[0] - n_l
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
    grad = _gradient_arrays(alpha, scores, G.__matmul__, y, n_l, n_u, theta, lam, loss_kind)
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
        G, labeled.y, labeled.num_known_classes, theta, options, loss_kind,
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
    to pay for the factorization.  Cross-validation and the refit cap their
    factor of the n_u unlabeled points at rank_cap(n_u) too.

    An abandoned factorization costs about n x cap^2 / 2 flops at most, and
    one without progress usually ends at a third of the cap (see
    ``kernel.pivoted_cholesky``), so giving up costs a small share of the
    dense scores of at least n queries, which follow it.
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
    under ``rank_cap``, factored at every call.  The factorization's cost
    depends on the model alone, so it pays only over a batch of about n
    queries or more.  The expansion's scores are within radius[k] of the
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
