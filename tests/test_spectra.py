import csv
import functools
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
from fracgap.reference import orthogonality_identity_check, survival_profile, variational_energy
from fracgap.spectra import (
    _lanczos,
    eigenpairs,
    level_set_report,
    spectral_gap,
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
    assert np.abs(gram - np.eye(len(sol.lambdas))).max() <= 1e-10


def test_ground_state_positive_and_simple(interval_run):
    _, sol = interval_run
    assert sol.phis[:, 0].min() > 0.0
    assert sol.lambdas[1] > sol.lambdas[0]


def test_eigenpairs_deterministic(interval_run):
    op, sol = interval_run
    again = eigenpairs(op, len(sol.lambdas))
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
    energy = variational_energy(op, sol.phis[:, 1] / sol.phis[:, 0], sol.phis[:, 0])
    assert energy == pytest.approx(gap, rel=1e-8)


def test_variational_identity_2d():
    grid = rasterize(Box((-1.0, -1.0), (1.0, 1.0)), 0.1)
    op = assemble(grid, 1.0)
    sol = eigenpairs(op, 3)
    gap = spectral_gap(sol)
    energy = variational_energy(op, sol.phis[:, 1] / sol.phis[:, 0], sol.phis[:, 0])
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


@pytest.mark.parametrize("dom, h", [(interval(-1.0, 1.0), 0.05), (Box((-1.0, -1.0), (1.0, 1.0)), 0.1)])
def test_survival_profile_on_a_mirror_lattice_matches_the_full_eigh(dom, h):
    op = assemble(rasterize(dom, h), 1.0)
    assert len(spectra._mirror(op)[0])  # the profile sums over both mirror blocks
    vals, vecs = eigh(op.matrix())
    node = int(np.argmin(np.sum(op.centers**2, axis=1)))
    ts = np.array([0.0, 0.1, 1.0, 5.0])
    want = np.exp(-np.outer(ts, vals)) @ (vecs[node, :] * vecs.sum(axis=0))
    got = survival_profile(op, node, ts)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_survival_profile_matches_exit_time_integral():
    # int_0^inf P(tau > t) dt = expected exit time; checked on a small grid
    op, sol = solve_interval(-1.0, 1.0, 0.05, k=2)
    node = int(np.argmin(np.abs(op.centers[:, 0])))
    ts = np.linspace(0.0, 40.0, 4001)
    surv = survival_profile(op, node, ts)
    integral = np.trapezoid(surv, ts)
    s = exit_time(op)[node]
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


def test_lanczos_stops_at_a_hundredth_of_the_residual_bound(monkeypatch):
    # the rule |beta s_m| <= EIG_RESIDUAL_TOL / 100 |theta| is the wanted Ritz pairs' residual
    # ||A y - theta y||: A = H in 2D, tested at each full basis; A = H^-1 in 1D, tested after
    # every step, whose basis rows are what the solves are given, the last k solves aside
    k = 6
    disk = assemble(rasterize(Ball((0.0, 0.0), 1.0), 0.1), 1.0)
    lines = [(assemble(rasterize(interval(-1.0, 1.0), h), 1.0), wanted) for h, wanted in ((0.02, 4), (0.005, 5))]
    real_combine, real_solve = spectra._combine, spectra.solve

    def worst_residual(apply, rows, k, largest=False):
        """Worst relative residual of the k wanted Ritz pairs of `apply` on the span of `rows`."""
        images = np.array([apply(r) for r in rows])
        theta, s = np.linalg.eigh((rows @ images.T + images @ rows.T) / 2.0)
        wanted = slice(len(theta) - k, None) if largest else slice(k)
        ritz, ritz_images = s[:, wanted].T @ rows, s[:, wanted].T @ images
        return max(np.linalg.norm(ritz_images - theta[wanted, None] * ritz, axis=1) / np.abs(theta[wanted]))

    for bound in (1e-8, 1e-6):
        monkeypatch.setattr(spectra, "EIG_RESIDUAL_TOL", bound)
        # the Ritz vectors each restart keeps, the wanted k first, then the k returned
        ritz = []
        monkeypatch.setattr(spectra, "_combine", lambda *args: ritz.append(real_combine(*args)) or ritz[-1])
        _lanczos(disk, k)
        monkeypatch.setattr(spectra, "_combine", real_combine)
        assert len(ritz) >= 2
        assert worst_residual(disk.apply, ritz[-1], k) <= bound / 100 < worst_residual(disk.apply, ritz[-2][:k], k)

        for line, wanted in lines:
            given = []
            monkeypatch.setattr(spectra, "solve", lambda op, b: given.append(b.copy()) or real_solve(op, b))
            _lanczos(line, wanted, shift_invert=True)
            monkeypatch.setattr(spectra, "solve", real_solve)
            rows = np.array(given[:-wanted])
            assert len(rows) <= spectra.LANCZOS_BASIS  # no restart: the rows span a Krylov space
            inverse = functools.partial(real_solve, line)
            last, before = (worst_residual(inverse, r, wanted, True) for r in (rows, rows[:-1]))
            assert last <= bound / 100 < before


STOPPING_RULE_CASES = [
    pytest.param(dom, h, alpha, id=f"{label}-{alpha}")
    for label, dom, h in suite_domains(h1d=0.005, h2d=0.05)
    if dom.d == 2
    for alpha in (0.5, 1.0, 1.5)
] + [pytest.param(Ball((0.0, 0.0), 1.0), 0.028, 1.0, id="disk-h0.028-1.0")]


@pytest.mark.parametrize("dom, h, alpha", STOPPING_RULE_CASES)
def test_lanczos_stopping_rule_keeps_eigenvalues(dom, h, alpha):
    # against scipy's ARPACK, an independent solver, run to machine precision (tol = 0) from the
    # same start vector
    from scipy.sparse.linalg import LinearOperator, eigsh

    k = 6
    op = assemble(rasterize(dom, h), alpha)
    assert op.n >= spectra.LANCZOS_MIN_NODES  # the cases eigenpairs sends to Lanczos
    vals, vecs = _lanczos(op, k)
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n)
    H = LinearOperator((op.n, op.n), matvec=op.apply, dtype=float)
    exact = np.sort(eigsh(H, k=k, which="SA", tol=0, v0=v0, maxiter=spectra.LANCZOS_MAX_RESTARTS)[0])
    assert (np.abs(vals - exact) <= 1e-13 * exact).all()
    resid = max(np.linalg.norm(op.apply(vecs[:, j]) - vals[j] * vecs[:, j]) / vals[j] for j in range(k))
    assert resid <= spectra.EIG_RESIDUAL_TOL / 10


@pytest.fixture(scope="module")
def disk_lanczos_op():
    op = assemble(rasterize(Ball((0.0, 0.0), 1.0), 0.05), 1.0)
    assert op.n >= spectra.LANCZOS_MIN_NODES
    return op


def test_lanczos_finds_both_vectors_of_the_centred_disks_exact_pair(disk_lanczos_op):
    # 2 / 0.05 cells across: the lattice keeps the disk's quarter turn, so lambda_2 = lambda_3
    # exactly, and one start vector meets that eigenspace in a single direction
    op = disk_lanczos_op
    k = 6
    want, want_vecs = eigh(op.matrix(), subset_by_index=(0, k))
    assert want[2] - want[1] <= 1e-14 * want[1] and want[3] - want[2] > 0.1 * want[2]
    sol = eigenpairs(op, k)
    assert (np.abs(sol.lambdas - want[:k]) <= 1e-11 * want[:k]).all()
    # the pair spans the dense eigenspace: every principal angle's cosine is 1
    cosines = np.linalg.svd(want_vecs[:, 1:3].T @ sol.phis[:, 1:3] * op.h, compute_uv=False)
    assert np.allclose(cosines, 1.0, atol=1e-8)


def test_lanczos_eigenpairs_deterministic(disk_lanczos_op):
    a = eigenpairs(disk_lanczos_op, 6)
    b = eigenpairs(disk_lanczos_op, 6)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.phis, b.phis)


def test_matrix_free_pipeline_allocates_no_dense_matrix(disk_lanczos_op):
    op = disk_lanczos_op
    eigenpairs(op, 6)  # the first call imports numpy.random for the start vector; keep that out
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


def test_k_beyond_the_lanczos_basis_cap(monkeypatch):
    # Lanczos runs only while its (m + 1) x n basis, m = max(LANCZOS_BASIS, 2k + 1), fits in
    # MAX_DENSE_NODES^2 doubles; the recorders stand in for the solvers, so nothing large is allocated
    class Chosen(Exception):
        pass

    def record(name):
        def solver(op, k, **_):
            raise Chosen(name)

        return solver

    monkeypatch.setattr(spectra, "_lanczos", record("lanczos"))
    monkeypatch.setattr(spectra, "_dense_eigh", record("dense"))
    op = assemble(rasterize(interval(-1.0, 1.0), 0.002), 1.0)
    assert op.n == 1000 >= spectra.LANCZOS_MIN_NODES
    monkeypatch.setattr(spectra, "MAX_DENSE_NODES", 1100)  # 1100^2 = 1000 * 1210
    for k, path in ((604, "lanczos"), (605, "dense")):
        with pytest.raises(Chosen, match=path):
            eigenpairs(op, k)
    monkeypatch.undo()  # the real _dense_eigh refuses before it allocates
    monkeypatch.setattr(spectra, "MAX_DENSE_NODES", 999)  # below n: no dense fallback either
    with pytest.raises(ValueError, match="k = 605 at n = 1000"):
        eigenpairs(op, 605)


# ---------------------------------------------------------------------------
# dense eigh on the two mirror halves of a symmetric lattice

MIRROR_CASES = [
    pytest.param(interval(-1.0, 1.0), 0.005, id="interval-even-n"),
    pytest.param(interval(-1.0, 1.0), 2.0 / 401, id="interval-odd-n"),
    pytest.param(interval(-2.0, 2.0), 0.005, id="interval2"),
    pytest.param(IntervalUnion(((-4.5, -3.5), (3.5, 4.5))), 0.005, id="two_intervals"),
    pytest.param(Box((-1.0, -1.0), (1.0, 1.0)), 0.1, id="square"),
    pytest.param(Ball((0.0, 0.0), 1.0), 0.1, id="disk"),
]


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("dom, h", MIRROR_CASES)
def test_mirror_halves_match_full_eigh(dom, h, alpha):
    k = 6
    op = assemble(rasterize(dom, h), alpha)
    assert op.n < spectra.LANCZOS_MIN_NODES
    assert len(spectra._mirror(op)[0])  # some mirror pairs
    vals, vecs = spectra._dense_eigh(op, k)
    want, want_vecs = eigh(op.matrix(), subset_by_index=(0, k))
    assert (np.abs(vals - want[:k]) <= 1e-11 * want[:k]).all()
    assert np.allclose(vecs.T @ vecs, np.eye(k), rtol=0.0, atol=1e-12)
    for j in range(k):
        sep = min(want[j] - want[j - 1] if j else math.inf, want[j + 1] - want[j])
        if sep > 1e-6 * want[j]:  # simple: the eigenvector is defined up to sign
            assert abs(float(vecs[:, j] @ want_vecs[:, j])) == pytest.approx(1.0, abs=1e-8), j


def test_mirror_pairs_reflect_the_lattice():
    op = assemble(rasterize(interval(-1.0, 1.0), 2.0 / 401), 1.0)  # odd n: one fixed cell
    p, q, f = spectra._mirror(op)
    cells = op.index[:, 0]
    assert np.array_equal(cells[p] + cells[q], np.full(len(p), cells.min() + cells.max()))
    assert len(f) == 1 and 2 * cells[f[0]] == cells.min() + cells.max()
    assert np.array_equal(np.sort(np.concatenate([p, q, f])), np.arange(op.n))


@pytest.mark.parametrize(
    "dom, h",
    [
        (IntervalUnion(((-3.0, -2.0), (2.0, 2.5))), 0.005),  # two intervals of unequal length
        (Ball((0.0, 0.0), 1.0), 0.07),  # 2 / h is not an integer: the lattice is off centre
        (suite_domains(h1d=0.005, h2d=0.1)[5][1], 0.1),  # the L-shape
        (IntervalUnion(((-3.0, -2.0), (2.0, 2.5))), 0.1),  # n = 15: numpy's eigh
    ],
    ids=["unequal-intervals", "disk-h0.07", "lshape", "unequal-intervals-n15"],
)
def test_lattices_without_a_mirror_take_the_full_eigh(dom, h):
    op = assemble(rasterize(dom, h), 1.0)
    p, q, f = spectra._mirror(op)
    assert len(p) == len(q) == 0 and np.array_equal(f, np.arange(op.n))  # the trivial split
    vals, vecs = spectra._dense_eigh(op, 3)
    if op.n <= spectra.NUMPY_EIGH_MAX_ROWS:
        want, want_vecs = np.linalg.eigh(op.matrix())
        want, want_vecs = want[:3], want_vecs[:, :3]
    else:
        want, want_vecs = eigh(op.matrix(), subset_by_index=(0, 2))
    assert np.array_equal(vals, want) and np.array_equal(vecs, want_vecs)


def test_small_blocks_take_numpys_eigh_and_agree_with_scipys():
    # principal blocks of one H on both sides of the threshold: each is bitwise
    # the solver of its branch and agrees with the other branch's solver
    m, k = spectra.NUMPY_EIGH_MAX_ROWS, 6
    h_full = assemble(rasterize(interval(-1.0, 1.0), 0.05), 1.0).matrix()
    assert len(h_full) > m
    for rows, numpy_branch in ((m, True), (m + 1, False)):
        a = h_full[:rows, :rows]
        vals, vecs = spectra._lapack_eigh(a, k)
        full_vals, full_vecs = np.linalg.eigh(a)
        numpy_pairs = full_vals[:k], full_vecs[:, :k]
        scipy_pairs = eigh(a, subset_by_index=(0, k - 1))
        mine, other = (numpy_pairs, scipy_pairs) if numpy_branch else (scipy_pairs, numpy_pairs)
        assert np.array_equal(vals, mine[0]) and np.array_equal(vecs, mine[1])
        assert (np.abs(vals - other[0]) <= 1e-12 * other[0]).all()
        gaps = np.diff(full_vals[: k + 1])
        for j in range(k):
            if min(gaps[j - 1] if j else math.inf, gaps[j]) > 1e-6 * vals[j]:  # simple
                assert abs(abs(float(vecs[:, j] @ other[1][:, j])) - 1.0) <= 1e-10, (rows, j)


def test_diag_off_its_mirror_takes_the_full_eigh():
    op = assemble(rasterize(interval(-1.0, 1.0), 0.005), 1.0)
    bound = 1e-2 * spectra.EIG_RESIDUAL_TOL * op.kill.min()
    op.diag[3] += 0.5 * bound  # within the bound: the halves use the pair's mean
    assert len(spectra._mirror(op)[0])
    vals, _ = spectra._dense_eigh(op, 2)
    want = eigh(op.matrix(), subset_by_index=(0, 1), eigvals_only=True)
    assert (np.abs(vals - want) <= 1e-11 * want).all()
    op.diag[3] += bound  # past it
    assert len(spectra._mirror(op)[0]) == 0
    vals, vecs = spectra._dense_eigh(op, 2)
    want, want_vecs = eigh(op.matrix(), subset_by_index=(0, 1))
    assert np.array_equal(vals, want) and np.array_equal(vecs, want_vecs)


@pytest.mark.parametrize("h", [0.2, 2.0 / 11], ids=["n10", "n11"])
def test_k_up_to_n_beyond_a_half(h):
    op = assemble(rasterize(interval(-1.0, 1.0), h), 1.0)
    p, _, _ = spectra._mirror(op)
    assert len(p) < op.n - 1  # k = n - 1 and n exceed both halves
    want = eigh(op.matrix(), eigvals_only=True)
    for k in (op.n - 1, op.n):
        vals, vecs = spectra._dense_eigh(op, k)
        assert (np.abs(vals - want[:k]) <= 1e-12 * want[:k]).all()
        assert np.allclose(vecs.T @ vecs, np.eye(k), rtol=0.0, atol=1e-12)
    sol = eigenpairs(op, op.n)
    assert (np.abs(sol.lambdas - want) <= 1e-12 * want).all()


@pytest.mark.parametrize("tilt", [1.0, -1.0], ids=["even-lower", "odd-lower"])
def test_degenerate_pair_across_the_halves_puts_the_odd_one_first(tilt):
    # on the square lambda_2 = lambda_3, with one eigenvector odd under the axis-0
    # mirror and the other even. A diag term odd under the transpose splits the
    # pair by ~1e-12 relative, either way round: phi_2 is the odd one both times
    op = assemble(rasterize(Box((-1.0, -1.0), (1.0, 1.0)), 0.1), 1.0)
    x, y = op.centers.T
    op.diag += tilt * 1e-11 * op.diag.min() * (x**2 - y**2)
    p, q, _ = spectra._mirror(op)
    sol = eigenpairs(op, 3)
    lam2, lam3 = sol.lambdas[1:]
    assert 1e-13 * lam2 < tilt * (lam2 - lam3) < spectra.MIRROR_CLUSTER_RTOL * lam2
    assert np.array_equal(sol.phis[q, 1], -sol.phis[p, 1])
    assert np.array_equal(sol.phis[q, 2], sol.phis[p, 2])


def test_interval_eigenvalues_against_published_values():
    # (-1, 1) at alpha = 1: lambda_1 from Kulczycki, Kwasnicki, Malecki & Stos,
    # Proc. LMS 2010, lambda_2 from Kwasnicki, J. Funct. Anal. 2012; the grid
    # errs by 5.3e-5 and 1.8e-4 at h = 1e-4 (n = 20000, shift-invert)
    _, sol = solve_interval(-1.0, 1.0, 1e-4, k=2)
    assert abs(sol.lambdas[0] - 1.1577738836977) < 1e-4
    assert abs(sol.lambdas[1] - 2.7547541922) < 2.5e-4


def test_extrapolated_interval_eigenvalues_against_published_values():
    # Aitken's delta-squared over h = 1e-3, 5e-4, 2.5e-4 (n up to 8000) errs by
    # -5.6e-6 and -7.8e-6, 9x and 23x below the grid error at h = 1e-4
    coarse, mid, fine = (solve_interval(-1.0, 1.0, h, k=2)[1].lambdas for h in (1e-3, 5e-4, 2.5e-4))
    extrapolated = fine - (fine - mid) ** 2 / ((fine - mid) - (mid - coarse))
    assert abs(extrapolated[0] - 1.1577738836977) < 2e-5
    assert abs(extrapolated[1] - 2.7547541922) < 2e-5
