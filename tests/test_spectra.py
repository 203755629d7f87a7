import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from fracgap import spectra
from fracgap.bounds import suite_domains
from fracgap.geometry import Ball, Box, IntervalUnion, interval, rasterize
from fracgap.operator import SolveError, assemble, exit_time
from fracgap.spectra import (
    _lanczos,
    eigenpairs,
    ground_state_ratio,
    level_set_report,
    orthogonality_identity_check,
    spectral_gap,
    survival_profile,
    variational_energy,
    export_eigenpairs_csv,
)


def solve_interval(a, b, h, alpha=1.0, k=6):
    grid = rasterize(interval(a, b), h)
    op = assemble(grid, alpha)
    return op, eigenpairs(op, k)


@pytest.fixture(scope="module")
def interval_run():
    return solve_interval(-1.0, 1.0, 0.005)


def test_interval_eigenvalues(interval_run):
    _, sol = interval_run
    lam1 = sol.lambdas[0]
    assert lam1 > 1.0
    assert lam1 <= 3.0 * math.pi / 8.0 + 0.02
    assert spectral_gap(sol) > lam1


def test_orthonormality(interval_run):
    _, sol = interval_run
    gram = sol.phis.T @ sol.phis * sol.h**sol.d
    assert np.abs(gram - np.eye(sol.k)).max() <= 1e-10


def test_ground_state_positive_and_simple(interval_run):
    _, sol = interval_run
    assert sol.phis[:, 0].min() > 0.0
    assert sol.lambdas[1] > sol.lambdas[0]


def test_eigenpairs_deterministic(interval_run):
    op, sol = interval_run
    again = eigenpairs(op, sol.k)
    assert np.array_equal(sol.lambdas, again.lambdas)
    assert np.array_equal(sol.phis, again.phis)


def test_eigenpairs_argument_validation(interval_run):
    op, _ = interval_run
    with pytest.raises(ValueError):
        eigenpairs(op, 1)
    with pytest.raises(ValueError):
        eigenpairs(op, op.n + 1)


def test_variational_identity_interval(interval_run):
    op, sol = interval_run
    gap = spectral_gap(sol)
    energy = variational_energy(op, ground_state_ratio(sol), sol.phis[:, 0])
    assert energy == pytest.approx(gap, rel=1e-8)


def test_variational_identity_2d():
    grid = rasterize(Box((-1.0, -1.0), (1.0, 1.0)), 0.1)
    op = assemble(grid, 1.0)
    sol = eigenpairs(op, 3)
    gap = spectral_gap(sol)
    energy = variational_energy(op, ground_state_ratio(sol), sol.phis[:, 0])
    assert energy == pytest.approx(gap, rel=1e-8)


def test_variational_minimality(interval_run):
    op, sol = interval_run
    gap = spectral_gap(sol)
    rng = np.random.default_rng(424242)
    for _ in range(50):
        f = rng.standard_normal(op.n)
        assert variational_energy(op, f, sol.phis[:, 0]) >= gap - 1e-8


def test_variational_constant_function_gives_zero(interval_run):
    op, sol = interval_run
    assert variational_energy(op, np.ones(op.n), sol.phis[:, 0]) == 0.0


def test_orthogonality_identity(interval_run):
    _, sol = interval_run
    assert orthogonality_identity_check(sol) == pytest.approx(2.0, abs=1e-8)


def test_orthogonality_identity_degenerate_inputs(interval_run):
    op, sol = interval_run
    import copy

    twin = copy.deepcopy(sol)
    twin.phis[:, 1] = sol.phis[:, 0]
    assert orthogonality_identity_check(twin) == pytest.approx(0.0, abs=1e-10)
    twin.phis[:, 1] = (sol.phis[:, 0] + sol.phis[:, 1]) / math.sqrt(2.0)
    assert orthogonality_identity_check(twin) == pytest.approx(1.0, abs=1e-8)


def test_gap_scaling_under_dilation():
    _, sol1 = solve_interval(-1.0, 1.0, 0.01)
    _, sol2 = solve_interval(-2.0, 2.0, 0.02)  # same node count, dilated by 2
    gap1 = spectral_gap(sol1)
    gap2 = spectral_gap(sol2)
    assert gap2 == pytest.approx(gap1 / 2.0, rel=0.02)


def test_eigenvalue_domain_monotonicity_intervals():
    h = 0.01
    _, small = solve_interval(-1.0, 1.0, h, k=2)
    _, big = solve_interval(-2.0, 2.0, h, k=2)
    assert small.lambdas[0] >= big.lambdas[0]


def test_eigenvalue_domain_monotonicity_boxes():
    h = 0.1
    grid1 = rasterize(Box((-1.0, -1.0), (1.0, 1.0)), h)
    grid2 = rasterize(Box((-1.5, -1.5), (1.5, 1.5)), h)
    lam_small = eigenpairs(assemble(grid1, 1.0), 2).lambdas[0]
    lam_big = eigenpairs(assemble(grid2, 1.0), 2).lambdas[0]
    assert lam_small >= lam_big


def test_isoperimetric_ground_state_eigenvalue():
    h = 0.01
    grid_two = rasterize(IntervalUnion(((-4.5, -3.5), (3.5, 4.5))), h)
    lam_two = eigenpairs(assemble(grid_two, 1.0), 2).lambdas[0]
    _, one = solve_interval(-1.0, 1.0, h, k=2)
    assert lam_two >= one.lambdas[0]


def test_level_set_report_interval(interval_run):
    op, sol = interval_run
    rep = level_set_report(sol, op)
    assert 0.45 <= rep.sandwich <= 2.1
    assert rep.sup_bound_ok
    assert rep.sup_phi1 <= rep.sup_bound_rhs
    assert rep.volume_ratio == rep.measure / rep.volume_lower_rhs
    assert rep.volume_bound_ok == (rep.volume_ratio >= 1.0)
    phi1 = sol.phis[:, 0]
    assert (phi1[rep.node_indices] >= rep.sup_phi1 / 2.0).all()
    assert len(rep.node_indices) > 0
    # symmetric domain: the level set is symmetric under reflection
    xs = np.sort(op.centers[rep.node_indices, 0])
    assert np.abs(xs + xs[::-1]).max() <= 1e-9


def test_level_set_measure(interval_run):
    op, sol = interval_run
    rep = level_set_report(sol, op)
    assert rep.measure == pytest.approx(len(rep.node_indices) * op.h, rel=1e-12)


def test_survival_profile_matches_exit_time_integral():
    # int_0^inf P(tau > t) dt = expected exit time; checked on a small grid
    op, sol = solve_interval(-1.0, 1.0, 0.05, k=2)
    node = int(np.argmin(np.abs(op.centers[:, 0])))
    ts = np.linspace(0.0, 40.0, 4001)
    surv = survival_profile(op, node, ts)
    integral = np.trapezoid(surv, ts)
    s = exit_time(op).values[node]
    assert integral == pytest.approx(s, rel=1e-3)
    assert surv[0] == pytest.approx(1.0, abs=1e-10)


def test_export_eigenpairs_csv(tmp_path, interval_run):
    op, sol = interval_run
    path = tmp_path / "eig.csv"
    export_eigenpairs_csv(sol, op, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# lambda1=")
    assert lines[1] == "node,x1,phi1,phi2"
    assert len(lines) == op.n + 2


@pytest.mark.parametrize("dom, h", [(interval(-1.0, 1.0), 0.05), (Ball((0.0, 0.0), 1.0), 0.1)], ids=["1d", "2d"])
def test_eigenpairs_csv_is_the_csv_writer_rendering(tmp_path, dom, h):
    op = assemble(rasterize(dom, h), 1.0)
    sol = eigenpairs(op, 2)
    path = tmp_path / "eig.csv"
    export_eigenpairs_csv(sol, op, path)
    want = io.StringIO(newline="")
    want.write(path.read_text().splitlines()[0] + "\n")  # the facts line
    writer = csv.writer(want)
    writer.writerow(["node", *(f"x{k + 1}" for k in range(op.d)), "phi1", "phi2"])
    for i in range(op.n):
        phis = (repr(float(v)) for v in sol.phis[i, :2])
        writer.writerow([i, *(repr(float(c)) for c in op.centers[i]), *phis])
    assert path.read_bytes() == want.getvalue().encode()


# ---------------------------------------------------------------------------
# Lanczos on the matrix-free apply against dense eigh


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_lanczos_matches_dense_eigh(alpha):
    k = 6
    for label, dom, h in suite_domains(h1d=0.02, h2d=0.1):
        op = assemble(rasterize(dom, h), alpha)
        assert op.n < spectra.LANCZOS_MIN_NODES  # the helper is called below its crossover
        want, want_vecs = eigh(op.matrix(), subset_by_index=(0, k))
        got, vecs = _lanczos(op, k)
        assert (np.abs(got - want[:k]) <= 1e-11 * want[:k]).all(), label
        for j in range(k):
            sep = min(want[j] - want[j - 1] if j else math.inf, want[j + 1] - want[j])
            if sep > 1e-6 * want[j]:  # simple: the eigenvector is defined up to sign
                overlap = abs(float(vecs[:, j] @ want_vecs[:, j]))  # unit vectors: h^d folded in
                assert overlap == pytest.approx(1.0, abs=1e-8), (label, j)


@pytest.fixture(scope="module")
def disk_lanczos_op():
    op = assemble(rasterize(Ball((0.0, 0.0), 1.0), 0.05), 1.0)
    assert op.n >= spectra.LANCZOS_MIN_NODES
    return op


def test_lanczos_eigenpairs_deterministic(disk_lanczos_op):
    a = eigenpairs(disk_lanczos_op, 6)
    b = eigenpairs(disk_lanczos_op, 6)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.phis, b.phis)


def test_matrix_free_pipeline_allocates_no_dense_matrix(disk_lanczos_op):
    op = disk_lanczos_op
    eigenpairs(op, 6)  # the first Lanczos call imports scipy.sparse.linalg; keep that out
    tracemalloc.start()
    try:
        sol = eigenpairs(op, 6)
        level_set_report(sol, op)
        exit_time(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < op.n * op.n * 8 / 4


def test_lanczos_without_convergence_raises(disk_lanczos_op, monkeypatch):
    monkeypatch.setattr(spectra, "LANCZOS_MAX_RESTARTS", 1)
    with pytest.raises(SolveError, match="Lanczos"):
        eigenpairs(disk_lanczos_op, 6)


@pytest.mark.parametrize("h", [0.05, 0.1], ids=["lanczos", "dense"])
def test_eigen_residual_above_bound_raises(h, monkeypatch):
    op = assemble(rasterize(Ball((0.0, 0.0), 1.0), h), 1.0)
    monkeypatch.setattr(spectra, "EIG_RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="eigen-residual"):
        eigenpairs(op, 3)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("n", [1200, 4000])
def test_shift_invert_matches_dense_eigh_1d(n, alpha):
    op = assemble(rasterize(interval(-1.0, 1.0), 2.0 / n), alpha)
    assert op.n == n >= spectra.LANCZOS_MIN_NODES  # eigenpairs takes the 1D shift-invert path
    sol = eigenpairs(op, 6)
    want = eigh(op.matrix(), subset_by_index=(0, 5), eigvals_only=True)
    assert (np.abs(sol.lambdas - want) <= 1e-10 * want).all()
    again = eigenpairs(op, 6)
    assert np.array_equal(sol.lambdas, again.lambdas)
    assert np.array_equal(sol.phis, again.phis)
