import math
import multiprocessing

import numpy as np
import pytest

from fracgap import bounds
from fracgap.constants import StableParams, ground_state_sup_constant
from fracgap.bounds import (
    build_report,
    run_suite,
    solve_domain,
    suite_domains,
    suite_passed,
    two_ball_experiment,
    verify_ball_bound,
    verify_ground_state_sup,
    GridTooCoarseError,
)
from fracgap.geometry import Ball, Box, interval, rasterize
from fracgap.operator import assemble
from fracgap.reference import canonical_published_cases, rayleigh_exit_profile_check, variational_energy
from fracgap.spectra import LANCZOS_MIN_NODES, eigenpairs


@pytest.fixture(scope="module")
def interval_solution():
    domain = interval(-1.0, 1.0)
    grid, op, sol = solve_domain(domain, 1.0, 0.01)
    return domain, grid, op, sol


def test_ground_state_sup_bound(interval_solution):
    domain, _, _, sol = interval_solution
    p = StableParams(1.0, 1)
    lhs, rhs, ok = verify_ground_state_sup(sol, p)
    assert ok
    # the 1D constant is 2, so the rhs is 2 sqrt(lambda_1)
    assert rhs == pytest.approx(2.0 * math.sqrt(sol.lambdas[0]), rel=1e-12)
    assert lhs == pytest.approx(sol.phis[:, 0].max())


def test_ground_state_sup_bound_square():
    domain = Box((-1.0, -1.0), (1.0, 1.0))
    _, _, sol = solve_domain(domain, 1.0, 0.1)
    p = StableParams(1.0, 2)
    lhs, rhs, ok = verify_ground_state_sup(sol, p)
    assert ok
    c2 = ground_state_sup_constant(p)
    assert c2 == pytest.approx(8.0 * math.pi ** (-1.5), rel=1e-12)
    assert rhs == pytest.approx(c2 * sol.lambdas[0], rel=1e-12)  # d/(2 alpha) = 1


def test_ball_bound_interval(interval_solution):
    domain, _, _, sol = interval_solution
    p = StableParams(1.0, 1)
    lhs, rhs, ok = verify_ball_bound(sol, domain.inscribed_radius()[0], p)
    assert ok
    assert rhs == pytest.approx(3.0 * math.pi / 8.0, rel=1e-12)
    assert lhs > 1.0


def test_ball_bound_scaling_under_dilation():
    p = StableParams(1.0, 1)
    _, _, sol1 = solve_domain(interval(-1.0, 1.0), 1.0, 0.01)
    _, _, sol2 = solve_domain(interval(-2.0, 2.0), 1.0, 0.01)
    _, rhs1, _ = verify_ball_bound(sol1, interval(-1.0, 1.0).inscribed_radius()[0], p)
    _, rhs2, _ = verify_ball_bound(sol2, interval(-2.0, 2.0).inscribed_radius()[0], p)
    assert rhs2 == pytest.approx(rhs1 / 2.0, rel=1e-12)


def test_ball_bound_disk():
    domain = Ball((0.0, 0.0), 1.0)
    _, _, sol = solve_domain(domain, 1.0, 0.1)
    p = StableParams(1.0, 2)
    lhs, rhs, ok = verify_ball_bound(sol, domain.inscribed_radius()[0], p)
    assert ok
    assert rhs == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)


def test_rayleigh_quotient_of_eigenvectors(interval_solution):
    _, _, op, sol = interval_solution
    H = op.matrix()
    for j in (0, 1):
        v = sol.phis[:, j]
        q = float(v @ (H @ v)) / float(v @ v)
        assert q == pytest.approx(sol.lambdas[j], rel=1e-10)


def test_rayleigh_exit_profile_interval():
    domain = interval(-1.0, 1.0)
    _, op, sol = solve_domain(domain, 1.0, 0.002)
    p = StableParams(1.0, 1)
    quotient, rhs = rayleigh_exit_profile_check(op, domain, p)
    assert rhs == pytest.approx(3.0 * math.pi / 8.0, rel=1e-12)
    assert quotient >= sol.lambdas[0] - 0.02
    assert quotient <= rhs + 0.05


def test_rayleigh_exit_profile_converges_to_bound():
    domain = interval(-1.0, 1.0)
    p = StableParams(1.0, 1)
    errs = []
    for h in (0.02, 0.01, 0.005):
        _, op, _ = solve_domain(domain, 1.0, h)
        q, rhs = rayleigh_exit_profile_check(op, domain, p)
        errs.append(abs(q - rhs))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.005


def test_canonical_published_cases():
    cases = {c["label"]: c for c in canonical_published_cases()}
    assert cases["interval"]["pipeline_stated"] == pytest.approx(
        1.0 / (3.0 * math.pi**2), rel=1e-12
    )
    assert not cases["interval"]["published_mismatch"]
    assert cases["disk"]["pipeline_stated"] == pytest.approx(
        9.0 / (512.0 * math.pi**1.5), rel=1e-12
    )
    assert cases["disk"]["published_value"] == pytest.approx(
        3.0 / (256.0 * math.sqrt(math.pi)), rel=1e-12
    )
    assert cases["disk"]["published_mismatch"]
    assert cases["square"]["pipeline_stated"] == pytest.approx(
        9.0 / (1024.0 * math.sqrt(2.0) * math.pi**1.5), rel=1e-12
    )
    assert cases["square"]["published_value"] == pytest.approx(
        3.0 / (512.0 * math.sqrt(2.0 * math.pi)), rel=1e-12
    )
    assert cases["square"]["published_mismatch"]


def test_build_report_fields_and_verdicts(interval_solution):
    domain, _, op, sol = interval_solution
    p = StableParams(1.0, 1)
    rep = build_report(sol, domain, p, "interval")
    assert rep.verdicts["thm1"] and rep.verdicts["thm2_derived"] and rep.verdicts["prop"]
    assert rep.thm2_rhs_derived == pytest.approx(
        rep.thm2_rhs_stated / ground_state_sup_constant(p), rel=1e-12
    )
    assert rep.gap == pytest.approx(sol.lambdas[1] - sol.lambdas[0], rel=1e-14)
    # interval published value matches the canonical pipeline formula
    assert rep.published_value == pytest.approx(1.0 / (3.0 * math.pi**2), rel=1e-12)
    assert rep.published_mismatch is False
    # cross-module consistency: reported gap equals the variational energy
    energy = variational_energy(op, sol.phis[:, 1] / sol.phis[:, 0], sol.phis[:, 0])
    assert rep.gap == pytest.approx(energy, rel=1e-8)


def test_two_ball_brackets_and_monotone_lambda():
    p = StableParams(1.0, 1)
    res = two_ball_experiment([4.0, 8.0], p, h=0.02)
    for low, gap, up in zip(res.lower_bounds, res.gaps, res.upper_bounds):
        assert low <= gap <= up
    # adding the second component can only lower lambda_1
    for lam in res.lambda1s:
        assert lam <= res.lambda1_single
    assert res.gaps[0] > res.gaps[1]


@pytest.mark.parametrize("d, alpha, r, h", [(1, 1.7, 16.0, 0.001), (2, 1.0, 4.0, 0.05)], ids=["1d", "2d"])
def test_sign_test_energy_matches_pair_sum(d, alpha, r, h):
    grid = rasterize(bounds._two_component_domain(r, d), h)
    op = assemble(grid, alpha)
    assert op.n == {1: 2000, 2: 2528}[d]
    phi1 = eigenpairs(op, 2).phis[:, 0]
    right = grid.centers[:, 0] > 0.0
    want = variational_energy(op, np.where(right, 1.0, -1.0), phi1)
    assert bounds._sign_test_energy(op, phi1, right) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.fixture
def no_rasterize(monkeypatch):
    """bounds.rasterize fails if called: the separations are checked before any solve."""

    def rasterize(*args):
        raise AssertionError("rasterize called before the separations were checked")

    monkeypatch.setattr(bounds, "rasterize", rasterize)


def test_two_ball_rejects_small_separation(no_rasterize):
    p = StableParams(1.0, 2)
    with pytest.raises(ValueError, match="must exceed 2"):
        two_ball_experiment([8.0, 1.5], p, h=0.02)


def test_two_ball_rejects_dimension_three():
    with pytest.raises(ValueError, match="1D or 2D"):
        two_ball_experiment([4.0, 8.0], StableParams(1.0, 3), h=0.1)


@pytest.mark.parametrize("separations", [[4.0], [4.0, 4.0]])
def test_two_ball_needs_two_distinct_separations(no_rasterize, separations):
    with pytest.raises(ValueError, match="two distinct separations"):
        two_ball_experiment(separations, StableParams(1.0, 2), h=0.02)


def test_two_ball_rejects_coarse_grid():
    p = StableParams(1.0, 1)
    with pytest.raises(GridTooCoarseError):
        two_ball_experiment([4.0, 8.0], p, h=0.2)


def test_suite_coarse_all_verdicts():
    reports = run_suite(alphas=(1.0,), h1d=0.02, h2d=0.1, workers=1)
    assert len(reports) == 6
    assert suite_passed(reports)
    labels = [r.label for r in reports]
    assert labels == ["interval", "interval2", "two_intervals", "square", "disk", "lshape"]


def test_suite_parallel_matches_serial():
    serial = run_suite(alphas=(1.0,), h1d=0.05, h2d=0.2, workers=1)
    parallel = run_suite(alphas=(1.0,), h1d=0.05, h2d=0.2, workers=2)
    assert multiprocessing.active_children() == []
    for a, b in zip(serial, parallel):
        assert a.label == b.label
        assert a.lambda1 == b.lambda1
        assert a.gap == b.gap
        assert a.verdicts == b.verdicts


def test_suite_passed_requires_all_verdicts():
    reports = run_suite(alphas=(1.0,), h1d=0.05, h2d=0.2, workers=1)
    assert suite_passed(reports)
    # the stated thm2 is reported, not asserted
    reports[0].verdicts["thm2_stated"] = False
    assert suite_passed(reports)
    for verdict in ("thm1", "thm2_derived", "prop"):
        reports[-1].verdicts[verdict] = False
        assert not suite_passed(reports)
        reports[-1].verdicts[verdict] = True


def test_suite_solves_two_eigenpairs_and_reports_what_six_give(monkeypatch):
    # the suite's Lanczos solves (2D at h2d = 0.05) at two alphas, each against a k = 6 solve
    eigenpairs, ks = bounds.eigenpairs, []
    monkeypatch.setattr(bounds, "eigenpairs", lambda op, k: ks.append(k) or eigenpairs(op, k))
    reports = run_suite(alphas=(0.5, 1.5), h1d=0.05, h2d=0.05, workers=1)
    assert ks == [2] * 12
    monkeypatch.undo()
    reports = [r for r in reports if r.d == 2]
    assert [r.label for r in reports] == ["square", "square", "disk", "disk", "lshape", "lshape"]
    domains = {label: (domain, h) for label, domain, h in suite_domains(h1d=0.005, h2d=0.05)}
    for r in reports:
        domain, h = domains[r.label]
        _, op, sol = solve_domain(domain, r.alpha, h, k=6)
        assert op.n >= LANCZOS_MIN_NODES
        six = build_report(sol, domain, StableParams(r.alpha, 2), r.label)
        for key in ("lambda1", "lambda2", "gap", "sup_phi1"):
            assert getattr(r, key) == pytest.approx(getattr(six, key), rel=1e-10), (r.label, r.alpha, key)
        assert r.verdicts == six.verdicts


def test_suite_domains_declared():
    doms = suite_domains(h1d=0.005, h2d=0.05)
    assert [lbl for lbl, _, _ in doms] == [
        "interval",
        "interval2",
        "two_intervals",
        "square",
        "disk",
        "lshape",
    ]
