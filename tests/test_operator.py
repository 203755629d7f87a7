import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import cho_factor, cho_solve

from fracgap import operator
from fracgap.bounds import suite_domains
from fracgap.constants import StableParams, ball_exit_constant, norm_constant
from fracgap.geometry import Ball, Box, IntervalUnion, interval, rasterize
from fracgap.operator import (
    AssemblyError,
    SolveError,
    _tail_1d,
    _tail_2d,
    assemble,
    dynkin_decomposition,
    exit_time,
    sup_exit_time,
)


def interval_op(a, b, h, alpha=1.0):
    grid = rasterize(interval(a, b), h)
    return grid, assemble(grid, alpha)


def exact_interval_profile(op, a, b, alpha):
    # exit time of a 1D ball of radius (b-a)/2; exact solution of H s = 1
    p = StableParams(alpha, 1)
    r = (b - a) / 2.0
    x = (op.centers[:, 0] - (a + b) / 2.0) / r
    return r**alpha * ball_exit_constant(p) * (1.0 - x**2) ** (alpha / 2.0)


def test_weights_symmetric_and_positive():
    _, op = interval_op(-1.0, 1.0, 0.05)
    assert np.array_equal(op.weights, op.weights.T)
    assert (op.weights >= 0.0).all()
    assert float(np.diag(op.weights).max()) == 0.0
    assert (op.kill > 0.0).all()


def test_matrix_positive_definite():
    _, op = interval_op(-1.0, 1.0, 0.05)
    vals = np.linalg.eigvalsh(op.matrix())
    assert vals.min() > 0.0


def test_apply_to_zero_is_zero():
    _, op = interval_op(-1.0, 1.0, 0.1)
    assert np.array_equal(op.matrix() @ np.zeros(op.n), np.zeros(op.n))


def test_residual_on_exact_profile_interval():
    grid, op = interval_op(-1.0, 1.0, 0.01)
    s = exact_interval_profile(op, -1.0, 1.0, 1.0)
    resid = op.matrix() @ s - 1.0
    inner = np.abs(op.centers[:, 0]) <= 0.8  # distance >= 0.2 from the boundary
    assert np.abs(resid[inner]).max() <= 0.05


def test_residual_decreases_as_h_halves():
    sup = []
    for h in (0.02, 0.01, 0.005):
        _, op = interval_op(-1.0, 1.0, h)
        s = exact_interval_profile(op, -1.0, 1.0, 1.0)
        resid = op.matrix() @ s - 1.0
        inner = np.abs(op.centers[:, 0]) <= 0.8
        sup.append(np.abs(resid[inner]).max())
    assert sup[0] > sup[1] > sup[2]


def test_cross_component_weights_positive():
    grid = rasterize(IntervalUnion(((-2.0, -1.0), (1.0, 2.0))), 0.1)
    op = assemble(grid, 1.0)
    left = op.centers[:, 0] < 0.0
    w_cross = op.weights[np.ix_(left, ~left)]
    assert (w_cross > 0.0).all()


def test_exit_time_interval_center_value():
    _, op = interval_op(-1.0, 1.0, 0.005)
    s = exit_time(op).values
    assert (s > 0.0).all()
    assert s.max() == pytest.approx(1.0, abs=0.02)


def test_exit_time_dilation_scaling():
    _, op1 = interval_op(-1.0, 1.0, 0.01)
    _, op2 = interval_op(-2.0, 2.0, 0.02)  # same cell count, dilated by 2
    m1 = exit_time(op1).values.max()
    m2 = exit_time(op2).values.max()
    assert m2 == pytest.approx(2.0 * m1, rel=1e-10)  # operator scales exactly


def test_exit_time_domain_monotone():
    h = 0.01
    _, op_small = interval_op(-1.0, 1.0, h)
    _, op_big = interval_op(-2.0, 2.0, h)
    s_small = exit_time(op_small).values
    s_big = exit_time(op_big).values
    # match nodes of the small domain inside the big one by coordinate
    xs = np.round(op_small.centers[:, 0] / h - 0.5).astype(int)
    xb = np.round(op_big.centers[:, 0] / h - 0.5).astype(int)
    pos = {v: i for i, v in enumerate(xb)}
    idx = np.array([pos[v] for v in xs])
    assert (s_big[idx] >= s_small - 1e-12).all()


def test_isoperimetric_exit_time_comparison():
    # two unit intervals vs one interval of length 2 (equal measure)
    for h in (0.01, 0.005):
        grid_two = rasterize(IntervalUnion(((-4.5, -3.5), (3.5, 4.5))), h)
        sup_two = exit_time(assemble(grid_two, 1.0)).values.max()
        _, op_one = interval_op(-1.0, 1.0, h)
        sup_one = exit_time(op_one).values.max()
        assert sup_two <= sup_one * (1.0 + 5.0 * h)


def test_sup_exit_time_consistency_and_monotonicity():
    _, op = interval_op(-1.0, 1.0, 0.02)
    full = sup_exit_time(op, np.arange(op.n))
    assert full == pytest.approx(exit_time(op).values.max(), rel=1e-12)
    small = np.flatnonzero(np.abs(op.centers[:, 0]) < 0.3)
    big = np.flatnonzero(np.abs(op.centers[:, 0]) < 0.7)
    assert sup_exit_time(op, small) <= sup_exit_time(op, big) <= full


def test_dynkin_identity_random_function():
    _, op = interval_op(-1.0, 1.0, 0.02)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(op.n)
    u = np.flatnonzero(np.abs(op.centers[:, 0]) < 0.5)
    harmonic, green = dynkin_decomposition(op, u, f)
    assert np.abs(f[u] - harmonic - green).max() <= 1e-10


def test_dynkin_identity_eigenvector():
    from fracgap.spectra import eigenpairs

    _, op = interval_op(-1.0, 1.0, 0.01)
    sol = eigenpairs(op, 2)
    phi1 = sol.phis[:, 0]
    u = np.flatnonzero(phi1 >= phi1.max() / 2.0)
    harmonic, green = dynkin_decomposition(op, u, phi1)
    # green part is lambda_1 * (Green operator applied to phi1 on U)
    rel = np.abs(phi1[u] - harmonic - green).max() / phi1.max()
    assert rel <= 1e-10


def test_dynkin_constant_function():
    _, op = interval_op(-1.0, 1.0, 0.05)
    ones = np.ones(op.n)
    u = np.arange(op.n // 2)
    harmonic, green = dynkin_decomposition(op, u, ones)
    assert np.abs(ones[u] - harmonic - green).max() <= 1e-10


def test_dynkin_full_subset_has_zero_harmonic_part():
    _, op = interval_op(-1.0, 1.0, 0.05)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(op.n)
    harmonic, green = dynkin_decomposition(op, np.arange(op.n), f)
    assert np.array_equal(harmonic, np.zeros(op.n))
    assert np.abs(f - green).max() <= 1e-10


# ---------------------------------------------------------------------------
# 2D assembly


def test_tail_quadrature_accuracy_2d(monkeypatch):
    # includes cells hugging the box corner, the worst case for the angular rule
    pts = np.array([[0.3, -0.2], [0.01, 0.01], [-0.9, 0.85], [0.875, 0.875]])
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    alphas = (0.3, 0.5, 1.0, 1.5, 1.7)
    base = [_tail_2d(pts, lo, hi, alpha) for alpha in alphas]  # production rule
    monkeypatch.setattr(operator, "TAIL_ANGULAR_POINTS", 200)
    for alpha, b in zip(alphas, base):
        fine = _tail_2d(pts, lo, hi, alpha)
        assert (np.abs(b - fine) / fine).max() <= 1e-8


def test_tail_matches_brute_force_quadrature():
    # midpoint sum over a large annular neighborhood of the box complement
    pt = np.array([[0.2, -0.1]])
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    alpha = 1.0
    got = float(_tail_2d(pt, lo, hi, alpha)[0])
    step = 0.01
    extent = 60.0
    ax = np.arange(-extent, extent, step) + step / 2.0
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    outside = (np.abs(xx) > 1.0) | (np.abs(yy) > 1.0)
    r2 = (xx - pt[0, 0]) ** 2 + (yy - pt[0, 1]) ** 2
    brute = float(np.sum(outside * r2 ** (-(2.0 + alpha) / 2.0)) * step * step)
    # brute force misses the mass beyond the sampled extent, ~2*pi/extent
    missing = 2.0 * math.pi / extent
    assert got == pytest.approx(brute + missing, rel=5e-3)


def test_tail_2d_blocks_are_bitwise_equal(monkeypatch):
    grid = rasterize(Ball((0.0, 0.0), 1.0), 0.05)
    lo, hi = grid.box()
    monkeypatch.setattr(operator, "GATHER_BLOCK", 10**9)  # one block
    whole = _tail_2d(grid.centers, lo, hi, 1.3)
    monkeypatch.setattr(operator, "GATHER_BLOCK", 4 * operator.TAIL_ANGULAR_POINTS * 7)
    blocked = _tail_2d(grid.centers, lo, hi, 1.3)  # 7 points per block
    assert np.array_equal(whole, blocked)


def test_assembly_memory_stays_bounded_on_large_disk():
    # n = 49080: an unblocked polar tail alone would hold ~7 arrays of n x 128
    # doubles (~350 MB); blocked, the traced peak is ~17 MB
    grid = rasterize(Ball((0.0, 0.0), 1.0), 0.008)
    tracemalloc.start()
    try:
        op = assemble(grid, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.n == 49080
    assert peak <= 48 * 2**20


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_fft_kill_matches_pair_sum_2d(alpha):
    grid = rasterize(Ball((0.0, 0.0), 1.0), 0.03)
    op = assemble(grid, alpha)
    assert 1000 <= op.n <= 4000
    blocks = operator._gather_blocks(op.table, op.index, np.argwhere(~grid.inside))
    want = np.concatenate([w.sum(axis=1) for _, w in blocks]) + op.beyond
    assert (np.abs(op.kill - want) / want).max() <= 1e-11


def _full_fft_convolve(op, x, spectrum):
    """x placed in the lattice box, convolved by full rfftn/irfftn over the padded shape."""
    cells = tuple(op.index.T)
    box = np.zeros(op.table.shape)
    box[cells] = x
    axes = tuple(range(op.d))
    spec = np.fft.rfftn(box, s=op._fft_shape, axes=axes) * spectrum
    return np.fft.irfftn(spec, s=op._fft_shape, axes=axes)[cells]


@pytest.mark.parametrize(
    "dom, h",
    [(Ball((0.0, 0.0), 1.0), 0.05), (Box((0.0, 0.0), (3.0, 1.0)), 0.05), (interval(-1.0, 1.0), 0.01)],
    ids=["disk", "rectangle", "interval"],
)
def test_pruned_transforms_are_bitwise_the_full_ones(dom, h):
    op = assemble(rasterize(dom, h), 1.3)
    x = np.random.default_rng(4).standard_normal(op.n)
    assert np.array_equal(op._jumps(x), _full_fft_convolve(op, x, op._symbol))
    assert np.array_equal(op.precondition(x), _full_fft_convolve(op, x, op._inv_circulant))


@pytest.mark.parametrize(
    "dom", [Ball((0.0, 0.0), 1.0), Box((0.0, 0.0), (3.0, 1.0))], ids=["disk", "rectangle"]
)
def test_beyond_box_rate_is_exactly_symmetric(dom):
    grid = rasterize(dom, 0.05)  # both lattices and inside sets are symmetric here
    assert np.array_equal(grid.inside, grid.inside[::-1, ::-1])
    beyond = np.zeros(grid.dims)
    beyond[tuple(grid.index.T)] = assemble(grid, 1.0).beyond
    assert np.array_equal(beyond, beyond[::-1])
    assert np.array_equal(beyond, beyond[:, ::-1])
    if grid.dims[0] == grid.dims[1]:
        assert np.array_equal(beyond, beyond.T)


def test_kill_checked_on_construction():
    _, op = interval_op(-1.0, 1.0, 0.05)
    for beyond in (np.full(op.n, np.nan), -op.kill):  # non-finite, then negative
        with pytest.raises(AssemblyError, match="killing rates"):
            dataclasses.replace(op, beyond=beyond)


def test_disk_assembly_and_exit_time():
    grid = rasterize(Ball((0.0, 0.0), 1.0), 0.1)
    op = assemble(grid, 1.0)
    assert np.array_equal(op.weights, op.weights.T)
    assert (op.kill > 0.0).all()
    s = exit_time(op).values
    center = int(np.argmin(np.sum(op.centers**2, axis=1)))
    assert s[center] == pytest.approx(2.0 / math.pi, rel=0.05)
    assert s.max() == pytest.approx(s[center], rel=1e-9)


def test_node_cap_enforced():
    grid = rasterize(interval(-1.0, 1.0), 0.0002)  # 10000 inside cells
    op = assemble(grid, 1.0)  # the cap guards only the dense oracles
    with pytest.raises(ValueError, match="MAX_DENSE_NODES"):
        op.matrix()


def test_dense_oracles_refuse_above_cap():
    from fracgap.spectra import survival_profile

    _, op = interval_op(-1.0, 1.0, 0.0002)  # 10000 inside cells
    with pytest.raises(ValueError, match="MAX_DENSE_NODES"):
        survival_profile(op, 0, np.array([1.0]))


def test_dynkin_identity_above_old_dense_cap():
    _, op = interval_op(-1.0, 1.0, 0.0002)  # 10000 inside cells
    assert op.n > operator.MAX_DENSE_NODES
    f = np.cos(op.centers[:, 0])
    u = np.flatnonzero(np.abs(op.centers[:, 0]) < 0.5)
    harmonic, green = dynkin_decomposition(op, u, f)
    assert np.abs(f[u] - harmonic - green).max() <= 1e-10


def test_square_residual_on_disk_profile():
    # exact profile of the inscribed disk, extended by zero, has H f close to 1
    # well inside the disk
    grid = rasterize(Box((-1.0, -1.0), (1.0, 1.0)), 0.1)
    op = assemble(grid, 1.0)
    rho2 = np.sum(op.centers**2, axis=1)
    f = np.where(rho2 < 1.0, np.maximum(1.0 - rho2, 0.0) ** 0.5, 0.0) * ball_exit_constant(
        StableParams(1.0, 2)
    )
    resid = op.matrix() @ f - 1.0
    inner = rho2 <= 0.36
    assert np.abs(resid[inner]).max() <= 0.1


# ---------------------------------------------------------------------------
# Individual weights, recomputed from the scheme's formulas


def _self_cell(a_norm, h, alpha):
    return a_norm * (h / 2.0) ** (2.0 - alpha) / ((2.0 - alpha) * h * h)


def _rate_1d(k, h, alpha, a_norm):
    """Jump rate to the cell k >= 1 lattice steps away: exact cell integral."""
    dist = k * h
    w = a_norm * ((dist - h / 2.0) ** (-alpha) - (dist + h / 2.0) ** (-alpha)) / alpha
    return w + _self_cell(a_norm, h, alpha) if k == 1 else w


def _rate_2d(dx, dy, h, alpha, a_norm):
    """Jump rate to the cell at index offset (dx, dy) != (0, 0)."""
    e = -(2.0 + alpha) / 2.0
    if max(abs(dx), abs(dy)) > 2:  # plain midpoint
        return a_norm * h * h * ((dx * dx + dy * dy) * h * h) ** e
    w = 0.0  # 3x3 subdivided midpoint
    for sx in (-h / 3.0, 0.0, h / 3.0):
        for sy in (-h / 3.0, 0.0, h / 3.0):
            w += ((dx * h + sx) ** 2 + (dy * h + sy) ** 2) ** e
    w *= a_norm * (h / 3.0) ** 2
    return w + _self_cell(a_norm, h, alpha) if abs(dx) + abs(dy) == 1 else w


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize(
    "dom",
    [interval(-1.0, 1.0), Ball((0.0, 0.0), 1.0), Box((0.0, 0.0), (3.0, 1.0))],
    ids=["interval", "disk", "rectangle"],
)
def test_weights_and_kill_match_scheme_formulas(dom, alpha):
    grid = rasterize(dom, 0.25)
    op = assemble(grid, alpha)
    h, d = grid.h, grid.d
    a_norm = norm_constant(StableParams(alpha, d))

    def rate(i, cell):
        dx = [int(v) for v in cell - grid.index[i]]
        return _rate_1d(abs(dx[0]), h, alpha, a_norm) if d == 1 else _rate_2d(*dx, h, alpha, a_norm)

    for i in range(op.n):
        for j in range(op.n):
            want = 0.0 if i == j else rate(i, grid.index[j])
            assert op.weights[i, j] == pytest.approx(want, rel=1e-13, abs=0.0)

    lo, hi = grid.box()
    outside = np.argwhere(~grid.inside)
    for i in range(op.n):
        if d == 1:
            tail = _tail_1d(grid.centers[i, 0], lo[0], hi[0], alpha)
        else:
            tail = _tail_2d(grid.centers[i : i + 1], lo, hi, alpha)[0]
        want = sum(rate(i, cell) for cell in outside) + a_norm * tail
        assert op.kill[i] == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Matrix-free apply and CG solves against the dense oracle

# the suite's domains plus a box whose lattice is not square (no transpose fold)
SUITE_COARSE = [*suite_domains(h1d=0.02, h2d=0.1), ("rectangle", Box((0.0, 0.0), (3.0, 1.0)), 0.1)]


@pytest.fixture(scope="module", params=[0.5, 1.0, 1.5], ids=lambda a: f"alpha{a}")
def suite_ops(request):
    return [(label, assemble(rasterize(dom, h), request.param)) for label, dom, h in SUITE_COARSE]


def test_apply_matches_dense_matrix(suite_ops):
    rng = np.random.default_rng(11)
    for label, op in suite_ops:
        H = op.matrix()
        for x in (rng.standard_normal(op.n), np.ones(op.n)):
            want = H @ x
            got = op.apply(x)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), label


def test_cg_exit_times_match_cholesky(suite_ops):
    for label, op in suite_ops:
        H = op.matrix()
        want = cho_solve(cho_factor(H), np.ones(op.n))
        got = exit_time(op).values
        assert np.abs(got - want).max() <= 1e-11 * want.max(), label
        u = np.flatnonzero(want >= want.max() / 2.0)
        want_u = cho_solve(cho_factor(H[np.ix_(u, u)]), np.ones(len(u))).max()
        assert sup_exit_time(op, u) == pytest.approx(want_u, rel=1e-11), label


def test_dynkin_split_matches_cholesky(suite_ops):
    rng = np.random.default_rng(7)
    for label, op in suite_ops:
        H = op.matrix()
        s = cho_solve(cho_factor(H), np.ones(op.n))
        u = np.flatnonzero(s >= s.max() / 2.0)
        comp = np.setdiff1d(np.arange(op.n), u)
        f = rng.standard_normal(op.n)
        fac = cho_factor(H[np.ix_(u, u)])
        want_harmonic = cho_solve(fac, -H[np.ix_(u, comp)] @ f[comp])
        want_green = cho_solve(fac, (H @ f)[u])
        harmonic, green = dynkin_decomposition(op, u, f)
        assert np.abs(harmonic - want_harmonic).max() <= 1e-11 * np.abs(want_harmonic).max(), label
        assert np.abs(green - want_green).max() <= 1e-11 * np.abs(want_green).max(), label


def test_zero_right_hand_side_gives_zero():
    _, op = interval_op(-1.0, 1.0, 0.02)
    assert np.array_equal(operator.solve(op, np.zeros(op.n)), np.zeros(op.n))
    # f vanishes off U, so the harmonic part is exactly 0 and the Green part is f on U
    u = np.flatnonzero(np.abs(op.centers[:, 0]) < 0.5)
    f = np.zeros(op.n)
    f[u] = np.cos(op.centers[u, 0])
    harmonic, green = dynkin_decomposition(op, u, f)
    assert np.array_equal(harmonic, np.zeros(len(u)))
    assert np.abs(f[u] - green).max() <= 1e-12


def test_cg_without_convergence_raises(monkeypatch):
    _, op = interval_op(-1.0, 1.0, 0.02)
    monkeypatch.setattr(operator, "CG_MAX_ITER", 3)
    with pytest.raises(SolveError, match="did not converge"):
        exit_time(op)
    with pytest.raises(SolveError, match="did not converge"):
        sup_exit_time(op, np.arange(op.n // 2))


def test_circulant_pcg_converges_in_few_iterations(monkeypatch):
    # ~11 iterations with the circulant preconditioner; a diagonal (Jacobi) one needs ~2500
    _, op = interval_op(-1.0, 1.0, 5e-4, alpha=1.7)
    monkeypatch.setattr(operator, "CG_MAX_ITER", 50)
    s = exit_time(op).values
    resid = op.apply(s) - 1.0  # relative to the size of the terms apply cancels
    assert np.abs(resid).max() <= 1e-13 * float((op.diag * s).max())
    u = np.flatnonzero(s >= s.max() / 2.0)
    assert sup_exit_time(op, u) <= s.max()


def test_precondition_is_symmetric_positive_definite(suite_ops):
    rng = np.random.default_rng(3)
    for label, op in suite_ops:
        x, y = rng.standard_normal((2, op.n))
        mx, my = op.precondition(x), op.precondition(y)
        assert float(y @ mx) == pytest.approx(float(x @ my), rel=1e-12), label
        assert float(x @ mx) > 0.0, label
