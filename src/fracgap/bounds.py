"""Verification of the spectral inequalities against computed spectra.

Each run pairs a computed spectrum with the closed-form right-hand sides and
records verdicts: thm1 (ground-state sup bound), thm2 in both constant
variants (gap lower bound), and prop (eigenvalue bound through the inscribed
ball, with the fixed slack 1 + 10 h). The suite asserts thm1, prop and the
derived thm2 variant, the constant the proof yields, and reports the stated
one beside it. The originally published numeric values are reported for
fidelity on their own domains, the interval (-1, 1), the unit disk and the
square (-1, 1)^2 at alpha = 1, with an explicit mismatch flag where they
disagree with the pipeline formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry
from .constants import (
    StableParams,
    gap_lower_bound,
    ground_state_sup_constant,
    lambda1_upper_ball,
)
from .geometry import Ball, BallUnion, Domain, Grid, IntervalUnion, interval, rasterize
from .operator import KilledOperator, assemble
from .parallel import fork_map
from .spectra import EigenSolution, eigenpairs, spectral_gap

__all__ = [
    "BoundReport",
    "TwoBallResult",
    "GridTooCoarseError",
    "verify_ground_state_sup",
    "verify_ball_bound",
    "build_report",
    "two_ball_experiment",
    "suite_domains",
    "run_suite",
    "suite_passed",
    "solve_domain",
]

PROP_SLACK_PER_H = 10.0  # prop verdict allows lambda_1 <= rhs * (1 + 10 h)


class GridTooCoarseError(ValueError):
    """A component of the domain received too few inside cells."""


@dataclass
class BoundReport:
    """Computed left/right sides and verdicts for one (domain, alpha) run."""

    label: str
    alpha: float
    d: int
    h: float
    lambda1: float
    lambda2: float
    gap: float
    sup_phi1: float
    diam: float
    inscribed_r: float
    thm1_rhs: float
    thm2_rhs_stated: float
    thm2_rhs_derived: float
    prop_rhs: float
    prop_slack: float
    published_value: float | None = None
    published_mismatch: bool | None = None
    verdicts: dict[str, bool] = field(default_factory=dict)


def verify_ground_state_sup(sol: EigenSolution, p: StableParams) -> tuple[float, float, bool]:
    """sup phi_1 against c * lambda_1^(d/(2 alpha)); returns (lhs, rhs, verdict)."""
    lhs = float(sol.phis[:, 0].max())
    rhs = ground_state_sup_constant(p) * float(sol.lambdas[0]) ** (p.d / (2.0 * p.alpha))
    return lhs, rhs, lhs <= rhs


def verify_ball_bound(sol: EigenSolution, r: float, p: StableParams) -> tuple[float, float, bool]:
    """Computed lambda_1 against the bound for an inscribed ball of radius r,
    with the fixed (1 + 10 h) slack.

    The slack absorbs discretization overshoot of lambda_1; every report
    carries the factor. r comes from `domain.inscribed_radius()`, a full
    distance pass on raster masks, so the caller computes it once.
    """
    if r <= 0.0:
        raise ValueError("domain has no inscribed ball")
    lhs = float(sol.lambdas[0])
    rhs = lambda1_upper_ball(p, r)
    return lhs, rhs, lhs <= rhs * (1.0 + PROP_SLACK_PER_H * sol.h)


# (canonical domain, alpha) -> (its label, published gap bound)
_PUBLISHED = {
    (interval(-1.0, 1.0), 1.0): ("interval", 1.0 / (3.0 * math.pi**2)),
    (Ball((0.0, 0.0), 1.0), 1.0): ("disk", 3.0 / (256.0 * math.sqrt(math.pi))),
    (geometry.Box((-1.0, -1.0), (1.0, 1.0)), 1.0): ("square", 3.0 / (512.0 * math.sqrt(2.0 * math.pi))),
}


def _canonical_pipeline_value(domain: Domain, p: StableParams) -> float:
    """Stated-constant gap bound with lambda_1 replaced by the r = 1 ball bound."""
    return gap_lower_bound(p, lambda1_upper_ball(p, 1.0), domain.diameter(), "stated")


def build_report(sol: EigenSolution, domain: Domain, p: StableParams, label: str) -> BoundReport:
    """Assemble the full inequality report for one computed spectrum.

    The label only names the report: the published value is that of the
    run's domain and alpha, if they are a canonical case.
    """
    lam1 = float(sol.lambdas[0])
    lam2 = float(sol.lambdas[1])
    gap = lam2 - lam1
    diam = domain.diameter()
    sup_lhs, thm1_rhs, thm1_ok = verify_ground_state_sup(sol, p)
    thm2_stated = gap_lower_bound(p, lam1, diam, "stated")
    thm2_derived = gap_lower_bound(p, lam1, diam, "derived")
    r_in, _ = domain.inscribed_radius()
    prop_lhs, prop_rhs, prop_ok = verify_ball_bound(sol, r_in, p)
    _, published = _PUBLISHED.get((domain, p.alpha), (None, None))
    mismatch = None
    if published is not None:
        # the flag documents the formula-level disagreement (lambda_1 exponent),
        # evaluated at the canonical inputs rather than the computed lambda_1
        mismatch = not math.isclose(_canonical_pipeline_value(domain, p), published, rel_tol=1e-9)
    return BoundReport(
        label=label,
        alpha=p.alpha,
        d=p.d,
        h=sol.h,
        lambda1=lam1,
        lambda2=lam2,
        gap=gap,
        sup_phi1=sup_lhs,
        diam=diam,
        inscribed_r=r_in,
        thm1_rhs=thm1_rhs,
        thm2_rhs_stated=thm2_stated,
        thm2_rhs_derived=thm2_derived,
        prop_rhs=prop_rhs,
        prop_slack=1.0 + PROP_SLACK_PER_H * sol.h,
        published_value=published,
        published_mismatch=mismatch,
        verdicts={
            "thm1": thm1_ok,
            "thm2_stated": gap >= thm2_stated,
            "thm2_derived": gap >= thm2_derived,
            "prop": prop_ok,
        },
    )


def solve_domain(
    domain: Domain, alpha: float, h: float, k: int = 2
) -> tuple[Grid, KilledOperator, EigenSolution]:
    """Rasterize, assemble, and solve for the k lowest eigenpairs, by default the two of the gap."""
    grid = rasterize(domain, h)
    op = assemble(grid, alpha)
    k = min(k, op.n)
    sol = eigenpairs(op, k)
    return grid, op, sol


# ---------------------------------------------------------------------------
# two-component decay experiment


@dataclass
class TwoBallResult:
    """Gap decay across two-component domains with growing separation."""

    separations: list[float]
    gaps: list[float]
    lambda1s: list[float]
    upper_bounds: list[float]  # Dirichlet energy of the sign test function
    lower_bounds: list[float]  # derived-constant gap bound per domain
    reference_decay: list[float]  # lambda1_single^(d/alpha) * (2r)^(-d-alpha), shape only
    lambda1_single: float
    slope: float
    intercept: float


def _two_component_domain(r: float, d: int) -> Domain:
    if d == 1:
        return IntervalUnion(((-r - 0.5, -r + 0.5), (r - 0.5, r + 0.5)))
    return BallUnion((Ball((-r, 0.0), 1.0), Ball((r, 0.0), 1.0)))


def _single_component_domain(d: int) -> Domain:
    if d == 1:
        return interval(-0.5, 0.5)
    return Ball((0.0, 0.0), 1.0)


def _sign_test_energy(op: KilledOperator, phi1: np.ndarray, right: np.ndarray) -> float:
    """Weighted Dirichlet form of f = +1 on the right component, -1 on the left.

    Projected to the admissible class (zero phi_1^2-mean, unit phi_1^2-norm),
    f takes two values 2 / s apart, s^2 = sum (f - mean)^2 phi_1^2 h^d, so only
    cross pairs count: the form is (4 h^d / s^2) phi_L . (W phi_R)_L. Every
    cross pair is at least k0 cells apart along axis 0, the smallest index gap
    between the components, so W needs only the table's entries from k0 on.
    """
    hd = op.h**op.d
    w2 = phi1**2 * hd
    f = np.where(right, 1.0, -1.0)
    f -= float(f @ w2) / float(w2.sum())
    s2 = float(f**2 @ w2)
    k0 = int(op.index[right, 0].min() - op.index[~right, 0].max())
    phi_left = np.where(right, 0.0, phi1)
    return 4.0 * hd / s2 * float(phi_left @ op.far_jumps(np.where(right, phi1, 0.0), k0))


def two_ball_experiment(separations: Sequence[float], p: StableParams, h: float) -> TwoBallResult:
    """Gap of two far-apart unit components versus separation, with a decay fit.

    For each half-separation r the two components sit at +-r. The fitted
    log-log slope of the gap targets -(d + alpha). Each gap is bracketed by
    the derived-constant lower bound and by the energy of the antisymmetric
    indicator test function (an upper bound by the variational principle).
    """
    if p.d not in (1, 2):
        raise ValueError(f"the two-component experiment runs in 1D or 2D, got d = {p.d}")
    seps = [float(r) for r in separations]
    if any(r <= 2.0 for r in seps):
        raise ValueError("separations must exceed 2 so the components are disjoint")
    if len(set(seps)) < 2:
        raise ValueError("the decay fit needs at least two distinct separations")
    gaps: list[float] = []
    lam1s: list[float] = []
    uppers: list[float] = []
    lowers: list[float] = []
    for r in seps:
        domain = _two_component_domain(r, p.d)
        grid = rasterize(domain, h)
        halves = grid.centers[:, 0] > 0.0
        if min(halves.sum(), (~halves).sum()) < 20:
            raise GridTooCoarseError(f"component at separation {r} has fewer than 20 cells")
        op = assemble(grid, p.alpha)
        sol = eigenpairs(op, 2)
        gap = spectral_gap(sol)
        upper = _sign_test_energy(op, sol.phis[:, 0], halves)
        lower = gap_lower_bound(p, float(sol.lambdas[0]), domain.diameter(), "derived")
        gaps.append(gap)
        lam1s.append(float(sol.lambdas[0]))
        uppers.append(upper)
        lowers.append(lower)
    _, _, sol1 = solve_domain(_single_component_domain(p.d), p.alpha, h)
    lam_single = float(sol1.lambdas[0])
    slope, intercept = np.polyfit(np.log(seps), np.log(gaps), 1)
    reference = [lam_single ** (p.d / p.alpha) * (2.0 * r) ** (-(p.d + p.alpha)) for r in seps]
    return TwoBallResult(
        separations=seps,
        gaps=gaps,
        lambda1s=lam1s,
        upper_bounds=uppers,
        lower_bounds=lowers,
        reference_decay=reference,
        lambda1_single=lam_single,
        slope=float(slope),
        intercept=float(intercept),
    )


# ---------------------------------------------------------------------------
# verification suite


def _lshape(h: float) -> geometry.RasterMask:
    def pred(pts: np.ndarray) -> np.ndarray:
        in_box = np.all((pts > -1.0) & (pts < 1.0), axis=1)
        in_cut = (pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0)
        return in_box & ~in_cut

    return geometry.mask_from_predicate((-1.0, -1.0), (1.0, 1.0), h, pred)


def suite_domains(h1d: float, h2d: float) -> list[tuple[str, Domain, float]]:
    """The six suite domains with their grid spacings."""
    return [
        ("interval", interval(-1.0, 1.0), h1d),
        ("interval2", interval(-2.0, 2.0), h1d),
        ("two_intervals", IntervalUnion(((-4.5, -3.5), (3.5, 4.5))), h1d),
        ("square", geometry.Box((-1.0, -1.0), (1.0, 1.0)), h2d),
        ("disk", Ball((0.0, 0.0), 1.0), h2d),
        ("lshape", _lshape(h2d), h2d),
    ]


def _suite_job(label: str, domain: Domain, h: float, alpha: float) -> BoundReport:
    p = StableParams(alpha, domain.d)
    _, _, sol = solve_domain(domain, alpha, h)
    return build_report(sol, domain, p, label)


def run_suite(alphas: Sequence[float], h1d: float, h2d: float, workers: int) -> list[BoundReport]:
    """Run every suite domain at every alpha on `workers` processes; order of results is fixed."""
    jobs = [(label, domain, h, float(alpha)) for label, domain, h in suite_domains(h1d, h2d) for alpha in alphas]
    return fork_map(_suite_job, jobs, workers)


def suite_passed(reports: Sequence[BoundReport]) -> bool:
    """Conjunction of the asserted verdicts: thm1, the derived thm2, and prop."""
    return all(r.verdicts["thm1"] and r.verdicts["thm2_derived"] and r.verdicts["prop"] for r in reports)
