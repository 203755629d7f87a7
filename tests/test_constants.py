import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracgap.constants import (
    StableParams,
    ball_exit_constant,
    ball_exit_time_exact,
    bound_constants,
    gamma,
    gap_bound_constant,
    gap_lower_bound,
    ground_state_sup_constant,
    lambda1_upper_ball,
    norm_constant,
    unit_ball_volume,
)

SQRT_PI = math.sqrt(math.pi)


def test_gamma_standard_values():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)
    assert gamma(1.0) == 1.0
    # recurrence down from 1/2: Gamma(-1/2) = Gamma(1/2) / (-1/2)
    assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -3.0, -17.0])
def test_gamma_pole_raises(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_gamma_recurrence_property():
    rng = np.random.default_rng(20260810)
    for x in rng.uniform(0.1, 20.0, 200):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(0.0, 1)
    with pytest.raises(ValueError):
        StableParams(2.0, 1)
    with pytest.raises(ValueError):
        StableParams(1.0, 0)


def test_norm_constant_closed_forms():
    # alpha=1, d=1: 2 * Gamma(1) / (sqrt(pi) * |Gamma(-1/2)|) = 1/pi
    assert norm_constant(StableParams(1.0, 1)) == pytest.approx(1.0 / math.pi, rel=1e-14)
    # alpha=1, d=2: Gamma(3/2) = sqrt(pi)/2 gives 1/(2 pi)
    assert norm_constant(StableParams(1.0, 2)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_constant_identities():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = StableParams(float(rng.uniform(0.1, 1.9)), int(rng.integers(1, 3)))
        c = bound_constants(p)
        assert c.a_norm == pytest.approx(2.0 * c.c_var, rel=1e-14)
        assert c.c_gap_stated * c.c_sup == pytest.approx(c.a_norm, rel=1e-14)
        assert c.c_gap_derived * c.c_sup**2 == pytest.approx(c.a_norm, rel=1e-14)
        assert c.s_ball_center > 0.0


def test_sup_constant_values():
    assert ground_state_sup_constant(StableParams(1.0, 1)) == pytest.approx(2.0, rel=1e-12)
    c2 = ground_state_sup_constant(StableParams(1.0, 2))
    assert c2 == pytest.approx(8.0 * math.pi ** (-1.5), rel=1e-12)
    assert c2 <= 1.44


def test_gap_constant_values():
    assert gap_bound_constant(StableParams(1.0, 1), "stated") == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-12
    )
    assert gap_bound_constant(StableParams(1.0, 2), "stated") == pytest.approx(
        SQRT_PI / 16.0, rel=1e-12
    )
    assert gap_bound_constant(StableParams(1.0, 1), "derived") == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-12
    )
    with pytest.raises(ValueError):
        gap_bound_constant(StableParams(1.0, 1), "other")


def _ball_bound_quadrature(p: StableParams, r: float) -> float:
    """Independent oracle: the bound equals int s / int s^2 over the ball,
    with s the exact exit profile; radial quadrature, angular factor cancels."""
    c = r**p.alpha * ball_exit_constant(p)

    def s(t):
        return c * (1.0 - (t / r) ** 2) ** (p.alpha / 2.0)

    num, _ = quad(lambda t: t ** (p.d - 1) * s(t), 0.0, r, epsabs=0.0, epsrel=1e-12, limit=200)
    den, _ = quad(lambda t: t ** (p.d - 1) * s(t) ** 2, 0.0, r, epsabs=0.0, epsrel=1e-12, limit=200)
    return num / den


@pytest.mark.parametrize(
    "alpha,d,r",
    [(1.0, 1, 1.0), (1.0, 2, 1.0), (0.5, 1, 1.0), (1.5, 2, 0.7), (0.8, 2, 2.3), (1.7, 1, 1.1)],
)
def test_ball_bound_matches_exit_profile_quadrature(alpha, d, r):
    p = StableParams(alpha, d)
    assert lambda1_upper_ball(p, r) == pytest.approx(_ball_bound_quadrature(p, r), rel=1e-9)


def test_ball_bound_closed_forms():
    assert lambda1_upper_ball(StableParams(1.0, 1), 1.0) == pytest.approx(
        3.0 * math.pi / 8.0, rel=1e-12
    )
    assert lambda1_upper_ball(StableParams(1.0, 2), 1.0) == pytest.approx(
        2.0 * math.pi / 3.0, rel=1e-12
    )


def test_ball_bound_scaling_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = StableParams(float(rng.uniform(0.2, 1.8)), int(rng.integers(1, 3)))
        r = float(rng.uniform(0.1, 10.0))
        assert lambda1_upper_ball(p, r) == pytest.approx(
            r ** (-p.alpha) * lambda1_upper_ball(p, 1.0), rel=1e-12
        )


def test_gap_lower_bound_interval_value():
    p = StableParams(1.0, 1)
    got = gap_lower_bound(p, 3.0 * math.pi / 8.0, 2.0, "stated")
    assert got == pytest.approx(1.0 / (3.0 * math.pi**2), rel=1e-12)


def test_gap_lower_bound_monotone_decreasing():
    p = StableParams(1.2, 2)
    lams = [0.5, 1.0, 2.0, 4.0]
    vals = [gap_lower_bound(p, lam, 3.0) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    diams = [1.0, 2.0, 4.0, 8.0]
    vals = [gap_lower_bound(p, 1.5, dd) for dd in diams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gap_lower_bound_variant_ratio():
    p = StableParams(0.7, 2)
    stated = gap_lower_bound(p, 2.0, 3.0, "stated")
    derived = gap_lower_bound(p, 2.0, 3.0, "derived")
    assert derived == pytest.approx(stated / ground_state_sup_constant(p), rel=1e-12)


def test_ball_exit_time_values():
    p = StableParams(1.0, 1)
    assert ball_exit_time_exact(p, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert ball_exit_time_exact(p, 2.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert ball_exit_time_exact(p, 1.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(ValueError):
        ball_exit_time_exact(p, 1.0, 1.0)


def test_ball_exit_time_takes_numpy_scalar_points():
    p = StableParams(1.3, 1)
    for x in (np.int64(0), np.float32(0.5), np.array(0.5)):
        assert ball_exit_time_exact(p, 1.0, x) == ball_exit_time_exact(p, 1.0, float(x))


def test_ball_exit_time_radially_decreasing():
    p = StableParams(1.3, 2)
    radii = np.linspace(0.0, 0.99, 40)
    vals = [ball_exit_time_exact(p, 1.0, (r, 0.0)) for r in radii]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == max(vals)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
