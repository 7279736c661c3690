"""Binary surrogate losses usable inside the augmented-class risk.

Every loss offered here satisfies the identity psi(z) - psi(-z) = -z, which
is what makes the labeled-data term of the LAC risk collapse to a linear
function of the scores; the tests check it on a grid of z.  The plain hinge
loss violates the identity and is rejected on construction.
"""

from __future__ import annotations

import numpy as np

SQUARE = "square"
LOGISTIC = "logistic"
DOUBLE_HINGE = "double-hinge"

LOSS_KINDS = (SQUARE, LOGISTIC, DOUBLE_HINGE)

_ALIASES = {"double_hinge": DOUBLE_HINGE}


def canonical_loss_kind(kind: str) -> str:
    """Validate a loss-kind name, normalising the double-hinge spelling."""
    kind = _ALIASES.get(kind, kind)
    if kind == "hinge":
        raise ValueError(
            "hinge loss does not satisfy psi(z) - psi(-z) = -z and cannot "
            "be used; choose one of " + ", ".join(LOSS_KINDS)
        )
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; choose one of {LOSS_KINDS}")
    return kind


def _check_finite(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("loss input must be finite")
    return z


def _value(kind: str, z: np.ndarray) -> np.ndarray:
    """psi(z) for a canonical kind and a finite float array, unchecked."""
    if kind == SQUARE:
        return 0.25 * (1.0 - z) ** 2
    if kind == LOGISTIC:
        # log(1 + exp(-z)) without overflow for large |z|
        return np.logaddexp(0.0, -z)
    return np.maximum(-z, np.maximum(0.0, 0.5 - 0.5 * z))


def _derivative(kind: str, z: np.ndarray) -> np.ndarray:
    """psi'(z) for a canonical kind and a finite float array, unchecked."""
    if kind == SQUARE:
        return 0.5 * (z - 1.0)
    if kind == LOGISTIC:
        # -sigmoid(-z), evaluated stably on both tails
        return -1.0 / (1.0 + np.exp(np.minimum(z, 500.0)))
    # pieces: -1 below z=-1, -1/2 inside (-1, 1), 0 above z=1;
    # kinks take the midpoint subgradient so the value is deterministic
    out = np.where(z < -1.0, -1.0, np.where(z < 1.0, -0.5, 0.0))
    out = np.where(z == -1.0, -0.75, out)
    return np.where(z == 1.0, -0.25, out)


def loss_value(kind: str, z) -> np.ndarray | float:
    """Evaluate psi(z) elementwise.  Accepts scalars or arrays."""
    out = _value(canonical_loss_kind(kind), _check_finite(z))
    return out if out.ndim else float(out)


def loss_derivative(kind: str, z) -> np.ndarray | float:
    """Derivative (or a fixed subgradient at kinks) of psi."""
    out = _derivative(canonical_loss_kind(kind), _check_finite(z))
    return out if out.ndim else float(out)

