"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Shared solves are module-scoped fixtures so the
whole gate stays well inside its time budget.
"""

import math

import numpy as np
import pytest

from fracgap.constants import (
    StableParams,
    ball_exit_constant,
    gap_bound_constant,
    gap_lower_bound,
    ground_state_sup_constant,
    lambda1_upper_ball,
)
from fracgap.bounds import (
    run_suite,
    solve_domain,
    suite_domains,
    two_ball_experiment,
)
from fracgap.geometry import IntervalUnion, interval, rasterize
from fracgap.montecarlo import StableSamplerConfig, estimate_exit, survival_log_slope
from fracgap.operator import assemble, exit_time
from fracgap.reference import canonical_published_cases, orthogonality_identity_check, variational_energy
from fracgap.spectra import (
    eigenpairs,
    level_set_report,
    spectral_gap,
)

H_FINE_1D = 0.002
H_SUITE_1D = 0.005
H_SUITE_2D = 0.05


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def fine_interval():
    grid, op, sol = solve_domain(interval(-1.0, 1.0), 1.0, H_FINE_1D)
    return grid, op, sol


@pytest.fixture(scope="module")
def alpha1_solves():
    out = {}
    for label, domain, h in suite_domains(H_SUITE_1D, H_SUITE_2D):
        grid, op, sol = solve_domain(domain, 1.0, h)
        out[label] = (domain, op, sol)
    return out


@pytest.fixture(scope="module")
def full_suite():
    return run_suite(alphas=(0.5, 1.0, 1.5), h1d=H_SUITE_1D, h2d=H_SUITE_2D, workers=1)


def test_criterion_1_constants():
    checks = [
        (ground_state_sup_constant(StableParams(1.0, 1)), 2.0),
        (ground_state_sup_constant(StableParams(1.0, 2)), 8.0 * math.pi ** (-1.5)),
        (gap_bound_constant(StableParams(1.0, 1), "stated"), 1.0 / (2.0 * math.pi)),
        (gap_bound_constant(StableParams(1.0, 2), "stated"), math.sqrt(math.pi) / 16.0),
    ]
    worst = max(abs(got - want) / want for got, want in checks)
    report(1, worst <= 1e-12, f"four closed-form constants, worst rel err {worst:.2e}")


def test_criterion_2_canonical_gap_bounds():
    p1 = StableParams(1.0, 1)
    prop = lambda1_upper_ball(p1, 1.0)
    ok = abs(prop - 3.0 * math.pi / 8.0) / prop <= 1e-12
    got = gap_lower_bound(p1, 3.0 * math.pi / 8.0, 2.0, "stated")
    want = 1.0 / (3.0 * math.pi**2)
    ok &= abs(got - want) / want <= 1e-12
    cases = {c["label"]: c for c in canonical_published_cases()}
    ok &= not cases["interval"]["published_mismatch"]
    pairs = [
        ("disk", 9.0 / (512.0 * math.pi**1.5), 3.0 / (256.0 * math.sqrt(math.pi))),
        (
            "square",
            9.0 / (1024.0 * math.sqrt(2.0) * math.pi**1.5),
            3.0 / (512.0 * math.sqrt(2.0 * math.pi)),
        ),
    ]
    for label, pipeline, published in pairs:
        c = cases[label]
        ok &= abs(c["pipeline_stated"] - pipeline) / pipeline <= 1e-12
        ok &= abs(c["published_value"] - published) / published <= 1e-12
        ok &= c["published_mismatch"] is True  # documented, never silently corrected
    report(2, ok, "interval bound 1/(3 pi^2) end to end; 2D published values flagged")


def test_criterion_3_interval_eigensolve(fine_interval):
    _, _, sol = fine_interval
    lam1 = float(sol.lambdas[0])
    gap = spectral_gap(sol)
    ok = 1.0 < lam1 < 3.0 * math.pi / 8.0 + 0.02 and gap > lam1
    report(3, ok, f"h={H_FINE_1D}: lambda1={lam1:.6f} in (1, 1.1981), gap={gap:.6f} > lambda1")


def test_criterion_4_variational_identity(alpha1_solves):
    worst_energy = 0.0
    worst_ortho = 0.0
    for label, (_, op, sol) in alpha1_solves.items():
        gap = spectral_gap(sol)
        energy = variational_energy(op, sol.phis[:, 1] / sol.phis[:, 0], sol.phis[:, 0])
        worst_energy = max(worst_energy, abs(energy - gap) / gap)
        worst_ortho = max(worst_ortho, abs(orthogonality_identity_check(sol) - 2.0))
    ok = worst_energy <= 1e-8 and worst_ortho <= 1e-8
    report(
        4,
        ok,
        f"all 6 domains: energy-vs-gap rel err {worst_energy:.2e}, "
        f"double-sum vs 2 abs err {worst_ortho:.2e}",
    )


def test_criterion_5_proved_inequalities_suite(full_suite):
    bad = [
        (r.label, r.alpha)
        for r in full_suite
        if not (r.verdicts["thm1"] and r.verdicts["thm2_derived"] and r.verdicts["prop"])
    ]
    report(
        5,
        len(full_suite) == 18 and not bad,
        f"thm1, thm2(derived), prop verdicts on 6 domains x 3 alphas; failures: {bad or 'none'}",
    )


def test_criterion_6_level_set_sandwich(fine_interval, alpha1_solves):
    _, op_i, sol_i = fine_interval
    rep_i = level_set_report(sol_i, op_i)
    _, op_s, sol_s = alpha1_solves["square"]
    rep_s = level_set_report(sol_s, op_s)
    ok = True
    for name, rep in (("interval", rep_i), ("square", rep_s)):
        ok &= 0.45 <= rep.sandwich <= 2.1
        ok &= rep.sup_phi1 <= rep.sup_bound_rhs
        exact = "inside" if 0.5 <= rep.sandwich <= 2.0 else "outside"
        print(f"  [observation] {name}: sandwich={rep.sandwich:.4f} ({exact} the exact [0.5, 2])")
    report(
        6,
        ok,
        f"interval sandwich {rep_i.sandwich:.4f}, square sandwich {rep_s.sandwich:.4f}, "
        "both in [0.45, 2.1] with sup phi1 <= 2 |U|^(-1/2)",
    )


def test_criterion_7_isoperimetric_exit_and_eigenvalue():
    ok = True
    detail = []
    for h in (0.01, 0.005):
        grid_two = rasterize(IntervalUnion(((-4.5, -3.5), (3.5, 4.5))), h)
        op_two = assemble(grid_two, 1.0)
        sup_two = float(exit_time(op_two).max())
        grid_one = rasterize(interval(-1.0, 1.0), h)
        op_one = assemble(grid_one, 1.0)
        sup_one = float(exit_time(op_one).max())
        ok &= sup_two <= sup_one * (1.0 + 5.0 * h)
        detail.append(f"h={h}: {sup_two:.4f} <= {sup_one:.4f}*(1+5h)")
        if h == 0.005:
            lam_two = float(eigenpairs(op_two, 2).lambdas[0])
            lam_one = float(eigenpairs(op_one, 2).lambdas[0])
            ok &= lam_two >= lam_one
            detail.append(f"lambda1 {lam_two:.4f} >= {lam_one:.4f}")
    report(7, ok, "; ".join(detail))


def test_criterion_8_two_ball_decay_slope():
    res = two_ball_experiment([4.0, 8.0, 16.0, 32.0], StableParams(1.0, 1), h=0.02)
    ok = -2.3 <= res.slope <= -1.7
    ok &= all(l <= g <= u for l, g, u in zip(res.lower_bounds, res.gaps, res.upper_bounds))
    report(
        8,
        ok,
        f"fitted slope {res.slope:.4f} in [-2.3, -1.7] (target -2); "
        "derived bound and indicator energy bracket every gap",
    )


def test_criterion_9_monte_carlo_cross_check(fine_interval):
    cfg = StableSamplerConfig(alpha=1.0, d=1, delta=1e-3, seed=20260810, paths=100000)
    est = estimate_exit(cfg, interval(-1.0, 1.0), 0.0)
    _, _, sol = fine_interval
    lam1 = float(sol.lambdas[0])
    slope = survival_log_slope(est)
    ok = abs(est.mean_exit_time - 1.0) <= 0.05
    ok &= abs(-slope - lam1) / lam1 <= 0.10
    report(
        9,
        ok,
        f"mean exit {est.mean_exit_time:.4f} (target 1 +- 5%), "
        f"survival slope {slope:.4f} vs -lambda1 {-lam1:.4f} (10%)",
    )


def test_criterion_10_consistency_and_convergence():
    resids = []
    for h in (0.02, 0.01, 0.005):
        grid = rasterize(interval(-1.0, 1.0), h)
        op = assemble(grid, 1.0)
        x = op.centers[:, 0]
        exact = ball_exit_constant(StableParams(1.0, 1)) * (1.0 - x**2) ** 0.5
        resid = op.matrix() @ exact - 1.0
        resids.append(float(np.abs(resid[np.abs(x) <= 0.8]).max()))
        if h == 0.005:
            s_max = float(exit_time(op).max())
    ok = resids[0] > resids[1] > resids[2]
    ok &= abs(s_max - 1.0) <= 0.02
    report(
        10,
        ok,
        f"interior residuals {['%.4f' % r for r in resids]} decreasing; "
        f"s(0)={s_max:.5f} within 2% at h=0.005",
    )
