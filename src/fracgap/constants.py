"""Closed-form constants for the isotropic stable process killed outside a domain.

Everything here is an elementary combination of Gamma functions: the
normalization of the singular jump kernel, the ground-state sup constant,
the two variants of the spectral-gap constant, the eigenvalue bound for a
domain containing a ball, and the exact expected exit time of a ball.
All functions are pure and cheap; they are the oracle layer the rest of
the package is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableParams",
    "BoundConstants",
    "gamma",
    "norm_constant",
    "variational_constant",
    "ground_state_sup_constant",
    "gap_bound_constant",
    "gap_lower_bound",
    "lambda1_upper_ball",
    "ball_exit_constant",
    "ball_exit_time_exact",
    "unit_ball_volume",
    "bound_constants",
]


@dataclass(frozen=True)
class StableParams:
    """Stable index alpha in (0, 2) and spatial dimension d >= 1."""

    alpha: float
    d: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.d}")


@dataclass(frozen=True)
class BoundConstants:
    """All closed-form constants for one (alpha, d) pair.

    a_norm: kernel normalization of the generator.
    c_sup: constant in the ground-state sup bound (reports label it thm1).
    c_gap_stated: gap constant as printed, a_norm / c_sup.
    c_gap_derived: gap constant as the proof chain yields, a_norm / c_sup**2.
    c_var: constant in the variational gap formula, a_norm / 2.
    s_ball_center: expected exit time of the unit ball started at its center.
    """

    a_norm: float
    c_sup: float
    c_gap_stated: float
    c_gap_derived: float
    c_var: float
    s_ball_center: float


def gamma(x: float) -> float:
    """Euler Gamma function, valid on both signs of the axis.

    Raises ValueError at the poles (zero and the negative integers).
    Relative accuracy is a few ulp, far below the 1e-12 target.
    """
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma has a pole at x = {x}")
    return math.gamma(x)


def norm_constant(p: StableParams) -> float:
    """Normalization A of the jump kernel A * |y - x|^(-d-alpha)."""
    a, d = p.alpha, p.d
    return 2.0**a * gamma((d + a) / 2.0) / (math.pi ** (d / 2.0) * abs(gamma(-a / 2.0)))


def variational_constant(p: StableParams) -> float:
    """Constant in front of the double-integral gap formula; equals norm_constant / 2."""
    return 0.5 * norm_constant(p)


def ground_state_sup_constant(p: StableParams) -> float:
    """Constant c in the bound sup(phi_1) <= c * lambda_1^(d / (2 alpha))."""
    a, d = p.alpha, p.d
    lead = math.pi ** (-d / 4.0) * math.sqrt(2.0 * d * gamma(d / 2.0))
    inner = 4.0 * gamma(d / 2.0) / (a * 2.0**a * gamma((d + a) / 2.0) * gamma(a / 2.0))
    return lead * inner ** (d / (2.0 * a))


def gap_bound_constant(p: StableParams, variant: str = "stated") -> float:
    """Constant in the gap lower bound; 'stated' = a_norm/c, 'derived' = a_norm/c^2.

    The stated form reproduces the published 1D interval value; the derived
    form is what the proof chain (sup bound squared) actually gives. Both
    are exposed so reports can show either without guessing intent.
    """
    c = ground_state_sup_constant(p)
    a_norm = norm_constant(p)
    if variant == "stated":
        return a_norm / c
    if variant == "derived":
        return a_norm / (c * c)
    raise ValueError(f"variant must be 'stated' or 'derived', got {variant!r}")


def gap_lower_bound(p: StableParams, lambda1: float, diam: float, variant: str = "stated") -> float:
    """Lower bound for lambda_2 - lambda_1 from lambda_1 and the diameter."""
    if lambda1 <= 0.0:
        raise ValueError("lambda1 must be positive")
    if diam <= 0.0:
        raise ValueError("diam must be positive")
    ctil = gap_bound_constant(p, variant)
    return ctil * lambda1 ** (-p.d / p.alpha) * diam ** (-(p.d + p.alpha))


def lambda1_upper_ball(p: StableParams, r: float) -> float:
    """Upper bound for lambda_1 of any domain containing a ball of radius r.

    Reads the bound's (alpha + d) denominator literally; the formula is
    identical to the ratio of beta integrals int s / int s^2 over the ball
    (checked against quadrature in the tests).
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    a, d = p.alpha, p.d
    num = a * (a + d / 2.0) * math.sqrt(math.pi) * gamma(a / 2.0) * gamma(a + d / 2.0)
    den = (a + d) * gamma((1.0 + a) / 2.0) * gamma(d / 2.0)
    return num / den * r ** (-a)


def ball_exit_constant(p: StableParams) -> float:
    """Coefficient of (1 - |x|^2)^(alpha/2) in the unit-ball exit time."""
    a, d = p.alpha, p.d
    return 2.0 ** (1.0 - a) * gamma(d / 2.0) / (a * gamma((d + a) / 2.0) * gamma(a / 2.0))


def ball_exit_time_exact(p: StableParams, r: float, x) -> float:
    """Expected exit time of the ball B(0, r) started at x, |x| < r; a 0-d x
    (a Python or numpy scalar) is a 1D coordinate."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    if np.ndim(x) == 0:
        rho2 = (float(x) / r) ** 2
    else:
        rho2 = sum(float(c) ** 2 for c in x) / r**2
    if rho2 >= 1.0:
        raise ValueError("x must lie strictly inside the ball")
    return r**p.alpha * ball_exit_constant(p) * (1.0 - rho2) ** (p.alpha / 2.0)


def unit_ball_volume(d: int) -> float:
    """Lebesgue measure of the unit ball in dimension d."""
    return math.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0)


def bound_constants(p: StableParams) -> BoundConstants:
    return BoundConstants(
        a_norm=norm_constant(p),
        c_sup=ground_state_sup_constant(p),
        c_gap_stated=gap_bound_constant(p, "stated"),
        c_gap_derived=gap_bound_constant(p, "derived"),
        c_var=variational_constant(p),
        s_ball_center=ball_exit_constant(p),
    )
