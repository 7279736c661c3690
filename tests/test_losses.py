import numpy as np
import pytest

from eulac.losses import (
    LOSS_KINDS,
    canonical_loss_kind,
    loss_derivative,
    loss_value,
)

from oracles import check_lac_condition

GRID = np.arange(-10.0, 10.0001, 0.1)


class TestValues:
    def test_square_values(self):
        assert loss_value("square", 1.0) == 0.0
        assert loss_value("square", 0.0) == 0.25
        assert loss_value("square", -1.0) == 1.0

    def test_logistic_at_zero(self):
        assert loss_value("logistic", 0.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_double_hinge_pieces(self):
        # piecewise: -z below -1, (1-z)/2 inside, 0 above 1
        assert loss_value("double-hinge", 2.0) == 0.0
        assert loss_value("double-hinge", 0.0) == 0.5
        assert loss_value("double-hinge", -2.0) == 2.0

    def test_logistic_overflow_safe(self):
        assert np.isfinite(loss_value("logistic", -1000.0))
        assert loss_value("logistic", -1000.0) == pytest.approx(1000.0)
        assert loss_value("logistic", 1000.0) == 0.0

    def test_vectorized(self):
        out = loss_value("square", np.array([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, 0.25, 1.0])

    def test_nonnegative_on_grid(self):
        for kind in LOSS_KINDS:
            assert np.min(loss_value(kind, GRID)) >= 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            loss_value("square", np.nan)
        with pytest.raises(ValueError):
            loss_derivative("logistic", np.inf)


class TestDerivatives:
    def test_square_minimizer(self):
        assert loss_derivative("square", 1.0) == 0.0

    def test_logistic_at_zero(self):
        assert loss_derivative("logistic", 0.0) == -0.5

    def test_double_hinge_kinks_take_midpoints(self):
        assert loss_derivative("double-hinge", -1.0) == -0.75
        assert loss_derivative("double-hinge", 1.0) == -0.25
        assert loss_derivative("double-hinge", -5.0) == -1.0
        assert loss_derivative("double-hinge", 0.0) == -0.5
        assert loss_derivative("double-hinge", 5.0) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for kind in LOSS_KINDS:
            z = rng.uniform(-8.0, 8.0, size=100)
            # keep double-hinge points away from its kinks
            z = np.where(np.abs(np.abs(z) - 1.0) < 1e-3, z + 0.01, z)
            fd = (loss_value(kind, z + h) - loss_value(kind, z - h)) / (2.0 * h)
            np.testing.assert_allclose(loss_derivative(kind, z), fd, atol=1e-5)


class TestScoreShiftIdentity:
    """psi(z) - psi(-z) = -z is what removes the nonconvex labeled terms."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_identity_on_grid(self, kind):
        assert check_lac_condition(kind, GRID) <= 1e-12

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_positive_margin_preferred(self, kind):
        z = GRID[GRID > 0]
        assert np.all(loss_value(kind, z) < loss_value(kind, -z))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_convexity(self, kind):
        rng = np.random.default_rng(1)
        z1 = rng.uniform(-6, 6, 200)
        z2 = rng.uniform(-6, 6, 200)
        t = rng.uniform(0, 1, 200)
        mid = loss_value(kind, t * z1 + (1 - t) * z2)
        chord = t * loss_value(kind, z1) + (1 - t) * loss_value(kind, z2)
        assert np.all(mid <= chord + 1e-12)


class TestKindValidation:
    def test_hinge_rejected(self):
        with pytest.raises(ValueError, match="hinge"):
            canonical_loss_kind("hinge")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            loss_value("exponential", 0.0)

    def test_double_hinge_alias(self):
        assert canonical_loss_kind("double_hinge") == "double-hinge"
