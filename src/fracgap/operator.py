"""Discrete killed generator on a grid: assembly, matrix-free apply, exit times.

The operator is H = diag(sum_j w_ij + kill_i) - W acting on the inside cells
of a Grid. The kernel A * |x - y|^(-d-alpha) is translation invariant, so the
jump rate between two cells depends only on their index offset. One table,
indexed by the absolute offset over the lattice box, holds the kernel
integrated over the target cell (closed form in 1D; midpoint with 3x3
subdivision for near cells in 2D, plain midpoint beyond).

The self-cell principal value is folded into the table by adding
A * (h/2)^(2-alpha) / ((2-alpha) h^2) at every unit offset, the coefficient
that makes the scheme exact on quadratics across the diagonal.

w_ij is table[|index_i - index_j|], so W is the principal submatrix, over the
inside cells, of a (block-)Toeplitz matrix on the lattice box. The operator
stores only the table, kill and the diagonal; `apply` computes W x as the
table's even extension convolved with x placed in the bounding box of the
inside cells, by a zero-padded real FFT of about twice that box's size
(O(N log N) for N box cells), and the diagonal's row sums are that
convolution applied to ones. No offset between inside cells reaches the
lattice box's padding layers, so the transform leaves them out (on the disk
at n = 4003 it shrinks from 160^2 to 144^2). In 2D the
transforms are pruned: the forward pass transforms only the box's rows
along the last axis before the full transform along the first, and the
inverse pass keeps only the box's rows before the last-axis inverse, so no
transform runs over rows that are all zero or never read. The results are
bitwise those of the full rfftn/irfftn pair. `far_jumps` zeroes the
table's near offsets first. `weights_between` gathers any block of W, which
is how the dense eigensolve builds its blocks; `matrix` gathers the dense
n x n H, the oracle that tests check the matrix-free paths against, and
refuses more than MAX_DENSE_NODES cells.

kill_i is the kernel integrated over the complement of the inside cells,
plus the self-cell coefficient for each outside unit neighbour (the
Dirichlet condition for the second difference). In 1D it is in closed form
over the gaps of the complement. In 2D it is the table convolved over the
lattice box with the outside indicator (the same FFT), plus the mass beyond
the box by a polar quadrature, exact in the radius and Gauss-Legendre in
the angle between the box corner directions, evaluated once per class of
cells that the box's symmetries relate (about 8x fewer on a disk).

Exit times solve H s = 1 (or its restriction to a node subset) by conjugate
gradients on `apply`, preconditioned by the circulant that the padded FFT
already diagonalizes: M = mean(diag) - W extended circulantly over the
padded box, restricted to the inside cells. Its symbol is mean(diag) minus
the table's symbol, clamped below at min(kill), so M is SPD and costs one
FFT pair per iteration (Chan & Ng, SIAM Review 1996; Lei & Sun, J. Comput.
Phys. 2013). Systems on a node subset U, for the sup of the exit time of U,
run the same PCG on H and M restricted to U: extend by zero, apply, read
back on U. No factorization is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constants import StableParams, norm_constant
from .geometry import MAX_LATTICE_CELLS, Grid

__all__ = [
    "KilledOperator",
    "AssemblyError",
    "SolveError",
    "assemble",
    "solve",
    "exit_time",
    "sup_exit_time",
]

MAX_DENSE_NODES = 5000  # cap of the dense n x n arrays (dense eigh, matrix); ~70x70 cells in 2D
NEAR_RANGE = 2  # Chebyshev index distance treated with subdivided quadrature
SUBDIV = 3  # subdivision per axis for near cells in 2D
# Gauss-Legendre points per smooth angular segment (4 segments); 32 keeps the
# tail below 1e-12 relative even for cells hugging a box corner
TAIL_ANGULAR_POINTS = 32
# quadrature nodes per block of points in the 2D beyond-box tail; also the
# table entries that the pair sums of fracgap.reference gather at once
GATHER_BLOCK = 2**18
# spacings at which the scheme's powers of lattice distances stay normal float64
# numbers: the distances run from h / SUBDIV to 2 MAX_LATTICE_CELLS h, and every
# exponent, down to -(d + alpha) in the table and the gap bound and -2 alpha in
# the squared eigen-residuals, is below 4 in modulus
_TINY_ROOT = float(np.finfo(float).tiny) ** 0.25
H_RANGE = (SUBDIV * _TINY_ROOT, 1.0 / (2 * MAX_LATTICE_CELLS * _TINY_ROOT))
CG_RTOL = 1e-14  # on the recursively updated residual, relative to the right-hand side
# circulant PCG iterations measured: 6-11 on the suite's 1D domains and 8-21
# on its 2D ones (alpha 0.5-1.5), 9 / 11 on the interval at n = 4000
# (alpha 1 / 1.7), 13 at n = 20000 (alpha 1.7), 17 on the disk at n = 31428
# (alpha 1)
CG_MAX_ITER = 10_000


class AssemblyError(RuntimeError):
    """A computed weight came out negative or non-finite."""


class SolveError(RuntimeError):
    """A linear solve or eigensolve failed or did not converge."""


def cho_factor(a, *args, **kwargs):
    """scipy.linalg.cho_factor, imported on the first call. The package factors
    nothing; the name stays bound for the benchmark tracer, which wraps it, and
    importing scipy.linalg here would cost every command 0.14-0.22 s and ~28 MB."""
    from scipy.linalg import cho_factor as factor

    return factor(a, *args, **kwargs)


class _BoxConvolution:
    """Linear convolution over a box of lattice cells, read at given cells.

    Offsets in a box of m cells run over (-m, m), so a circular convolution
    of length >= 2m - 1 computes the linear one: the box array is zero-padded
    to that FFT shape, multiplied by a spectrum in frequency and transformed
    back. The same transforms as rfftn/irfftn over the padded shape, pruned in
    2D: the forward rfft runs over the m_0 box rows only (the padded rows are
    zero), and the inverse irfft over the m_0 rows that hold the box.
    """

    def __init__(self, shape: tuple[int, ...], cells: np.ndarray) -> None:
        self.shape = shape
        self.fft_shape = tuple(_smooth_len(2 * m - 1) for m in shape)
        # flat positions of the cells in the box, and in the m_0 x L_1 (2D) or
        # L_0 (1D) array that the pruned inverse transform returns
        self._in_box = np.ravel_multi_index(cells.T, shape)
        self._in_out = np.ravel_multi_index(cells.T, (*shape[:-1], self.fft_shape[-1]))

    def symbol(self, table: np.ndarray) -> np.ndarray:
        """Spectrum of the even extension of the table's offsets within the box."""
        # FFT index k holds the rate at offset min(k, L - k); offsets >= m get
        # the zero padded on
        folded = [
            np.minimum(np.minimum(np.arange(L), L - np.arange(L)), m) for m, L in zip(self.shape, self.fft_shape)
        ]
        within = table[tuple(slice(m) for m in self.shape)]
        even = np.pad(within, [(0, 1)] * len(self.shape))[np.ix_(*folded)]
        return np.fft.rfftn(even).real  # real: the extension is even

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """Values at the cells placed in an otherwise zero box."""
        box = np.zeros(math.prod(self.shape))
        box[self._in_box] = x
        return box.reshape(self.shape)

    def __call__(self, box: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        last = self.fft_shape[-1]
        spec = np.fft.rfft(box, n=last, axis=-1)
        # d <= 2, so the axes before the last are axis 0 in 2D and none in 1D
        for L in self.fft_shape[:-1]:
            spec = np.fft.fft(spec, n=L, axis=0)
        spec *= spectrum
        for m in self.shape[:-1]:
            spec = np.fft.ifft(spec, axis=0)[:m]
        return np.fft.irfft(spec, n=last, axis=-1).ravel()[self._in_out]


@dataclass
class KilledOperator:
    """Jump rates between inside cells, as one offset table, plus per-cell killing rates.

    `diag` (row sums of W plus kill) and the FFT symbol of the table that
    `apply` and `precondition` use are derived on construction. Raises
    AssemblyError unless every killing rate is positive and finite.
    """

    table: np.ndarray
    kill: np.ndarray
    h: float
    alpha: float
    d: int
    centers: np.ndarray
    index: np.ndarray
    diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.kill).all() or (self.kill <= 0.0).any():
            raise AssemblyError("killing rates must be positive and finite")
        # apply and precondition convolve over the bounding box of the inside
        # cells, the only offsets W x reads
        lo = self.index.min(axis=0)
        self._conv = _BoxConvolution(tuple(self.index.max(axis=0) - lo + 1), self.index - lo)
        self._symbol = self._conv.symbol(self.table)
        self.diag = self._jumps(np.ones(self.n)) + self.kill
        # inverse eigenvalues of the circulant mean(diag) - W on the padded box;
        # the clamp at min(kill) keeps it positive definite
        self._inv_circulant = 1.0 / np.maximum(self.diag.mean() - self._symbol, self.kill.min())

    @property
    def n(self) -> int:
        return len(self.index)

    def weights_between(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The block W[rows][:, cols] over node indices, gathered from the table."""
        return _gather(self.table, self.index[rows], self.index[cols])

    def _jumps(self, x: np.ndarray) -> np.ndarray:
        """W x: x placed in the inside cells' box, convolved with the table's even extension."""
        return self._conv(self._conv.scatter(x), self._symbol)

    def far_jumps(self, x: np.ndarray, k0: int) -> np.ndarray:
        """W x over the pairs of cells at least k0 apart along axis 0: the table is
        zeroed below k0, so the FFT rounds relative to the entries summed."""
        far = self.table.copy()
        far[:k0] = 0.0
        return self._conv(self._conv.scatter(x), self._conv.symbol(far))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x without forming H."""
        return self.diag * x - self._jumps(x)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r for the circulant M = mean(diag) - (W's circulant extension) on
        the padded box, restricted to the inside cells: one FFT pair, SPD."""
        return self._conv(self._conv.scatter(r), self._inv_circulant)

    def matrix(self) -> np.ndarray:
        """Dense H = diag - W, gathered from the table (n x n); symmetric positive definite."""
        if self.n > MAX_DENSE_NODES:
            raise ValueError(
                f"operator has {self.n} inside cells; the dense matrix is capped at "
                f"MAX_DENSE_NODES = {MAX_DENSE_NODES}, choose a coarser h"
            )
        H = -_gather(self.table, self.index, self.index)
        np.fill_diagonal(H, self.diag)
        return H


def _smooth_len(m: int) -> int:
    """Smallest length >= m with no prime factor above 5; pocketfft is slow on large primes."""
    n = m
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _tail_2d(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, alpha: float) -> np.ndarray:
    """Integral of |x - y|^(-2-alpha) over the complement of the box [lo, hi].

    In polar coordinates around x the radial part is exact,
    int_rho^inf r^(-1-alpha) dr = rho^(-alpha)/alpha, leaving the angular
    integral of rho(theta)^(-alpha). rho has kinks only at the directions of
    the box corners, so the circle is split there and each of the four
    smooth segments gets a Gauss-Legendre rule. Points are independent, so
    they go in blocks of about GATHER_BLOCK quadrature nodes: the temporaries
    stay a few MB at any n.
    """
    step = max(1, GATHER_BLOCK // (4 * TAIL_ANGULAR_POINTS))
    return np.concatenate(
        [_tail_2d_block(pts[i : i + step], lo, hi, alpha) for i in range(0, len(pts), step)]
    )


@lru_cache(maxsize=None)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count (~0.9 ms
    each) and read-only, since every caller shares them."""
    rule = np.polynomial.legendre.leggauss(points)
    for a in rule:
        a.flags.writeable = False
    return rule


def _tail_2d_block(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, alpha: float) -> np.ndarray:
    """_tail_2d on one block of points."""
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    rel = corners[None, :, :] - pts[:, None, :]
    ang = np.sort(np.arctan2(rel[:, :, 1], rel[:, :, 0]), axis=1)
    a = ang
    b = np.concatenate([ang[:, 1:], ang[:, :1] + 2.0 * np.pi], axis=1)
    t, w = _gauss_legendre(TAIL_ANGULAR_POINTS)
    theta = a[:, :, None] + (t + 1.0) / 2.0 * (b - a)[:, :, None]
    cos = np.cos(theta)
    sin = np.sin(theta)
    with np.errstate(divide="ignore", over="ignore"):
        tx = np.where(
            cos > 0.0,
            (hi[0] - pts[:, 0, None, None]) / cos,
            np.where(cos < 0.0, (lo[0] - pts[:, 0, None, None]) / cos, np.inf),
        )
        ty = np.where(
            sin > 0.0,
            (hi[1] - pts[:, 1, None, None]) / sin,
            np.where(sin < 0.0, (lo[1] - pts[:, 1, None, None]) / sin, np.inf),
        )
    rho = np.minimum(tx, ty)
    seg = np.sum(w * rho ** (-alpha), axis=2) * (b - a) / 2.0
    return seg.sum(axis=1) / alpha


def _self_cell(h: float, alpha: float, a_norm: float) -> float:
    """The self-cell coefficient that each unit offset carries, exact on quadratics."""
    return a_norm * (h / 2.0) ** (2.0 - alpha) / ((2.0 - alpha) * h * h)


def _kernel_table(dims: tuple[int, ...], h: float, alpha: float, a_norm: float) -> np.ndarray:
    """Jump rate to the cell at every non-negative index offset in the lattice box.

    Entry [k] integrates a_norm * |u|^(-d-alpha) over the cell whose center
    sits k * h away: exactly in 1D; in 2D by the midpoint rule, subdivided
    SUBDIV x SUBDIV when |k|_inf <= NEAR_RANGE. The entry at the origin is 0
    and each unit offset also carries the self-cell coefficient.
    """
    table = np.zeros(dims)
    if len(dims) == 1:
        dist = np.arange(1, dims[0]) * h
        table[1:] = a_norm * (((dist - h / 2.0) ** (-alpha) - (dist + h / 2.0) ** (-alpha)) / alpha)
    else:
        expo = -(2.0 + alpha) / 2.0
        dx, dy = np.indices(dims)
        far = np.maximum(dx, dy) > NEAR_RANGE
        table[far] = a_norm * h * h * ((dx[far] ** 2 + dy[far] ** 2) * h * h) ** expo
        sub = (np.arange(SUBDIV) - (SUBDIV - 1) / 2.0) * (h / SUBDIV)
        sx, sy = np.meshgrid(sub, sub, indexing="ij")
        for i, j in np.argwhere(~far):
            if i or j:
                r2 = (i * h + sx) ** 2 + (j * h + sy) ** 2
                table[i, j] = a_norm * (h / SUBDIV) ** 2 * float(np.sum(r2**expo))
    unit = tuple(np.eye(len(dims), dtype=int))  # rows of the identity: one unit offset per axis
    table[unit] += _self_cell(h, alpha, a_norm)
    return table


def _gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of table[|rows_i - cols_j|] over pairs of lattice indices."""
    offsets = (np.abs(np.subtract.outer(r, c)) for r, c in zip(rows.T, cols.T))
    return table[tuple(offsets)]


def _kill_1d(inside: np.ndarray, h: float, alpha: float, a_norm: float) -> np.ndarray:
    """Killing rate of each inside cell of a 1D lattice: the kernel integrated
    over each gap of the complement of the inside cells, plus the self-cell
    coefficient for each outside unit neighbour. From a cell, a gap whose
    edges lie a < b lattice units away (b infinite past the first and last
    runs of inside cells) carries ((a h)^(-alpha) - (b h)^(-alpha)) / alpha."""
    cells = np.flatnonzero(inside)
    step = np.diff(inside.astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)

    def power(edge: int) -> np.ndarray:  # (distance from each cell's center to the edge)^(-alpha)
        return (np.abs(cells - edge + 0.5) * h) ** (-alpha)

    gaps = power(starts[0]) + power(ends[-1])
    for a, b in zip(ends[:-1], starts[1:]):
        gaps += np.abs(power(a) - power(b))  # the nearer edge has the larger power
    outside_neighbours = 2 - inside[cells - 1].astype(int) - inside[cells + 1]
    return a_norm * gaps / alpha + outside_neighbours * _self_cell(h, alpha, a_norm)


def _beyond_box_rate(grid: Grid, alpha: float, a_norm: float) -> np.ndarray:
    """Killing rate of each inside cell of a 2D lattice to beyond its box, evaluated
    once per class of cells that the box's reflections (and, in a square box, its
    transpose) map onto each other: exactly symmetric under them."""
    lo, hi = grid.box()
    m = np.asarray(grid.dims)
    folded = np.minimum(grid.index, m - 1 - grid.index)
    if m[0] == m[1]:
        folded = np.sort(folded, axis=1)
    keys, cell_class = np.unique(np.ravel_multi_index(folded.T, grid.dims), return_inverse=True)
    reps = np.column_stack(np.unravel_index(keys, grid.dims))
    return a_norm * _tail_2d(grid.origin + (reps + 0.5) * grid.h, lo, hi, alpha)[cell_class]


def assemble(grid: Grid, alpha: float) -> KilledOperator:
    """Build the discrete killed generator for the given grid and index alpha."""
    if grid.d not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    if not H_RANGE[0] <= grid.h <= H_RANGE[1]:
        raise ValueError(
            f"h = {grid.h!r} is outside [{H_RANGE[0]:.3g}, {H_RANGE[1]:.3g}], where the operator's "
            "powers of h leave float64's range; rescale the domain"
        )
    a_norm = norm_constant(StableParams(alpha, grid.d))
    table = _kernel_table(grid.dims, grid.h, alpha, a_norm)
    if not np.isfinite(table).all() or (table < 0.0).any():
        raise AssemblyError("negative or non-finite jump weight")
    if grid.d == 1:
        kill = _kill_1d(grid.inside, grid.h, alpha, a_norm)
    else:
        # the table convolved over the whole lattice box, whose padding layers
        # hold the outside neighbours; within 1e-11 relative of the pair sum at
        # alpha = 1.7 up to n ~ 4000 (tested), 3.2e-12 measured at n = 31428
        lattice = _BoxConvolution(grid.dims, grid.index)
        kill = lattice(~grid.inside, lattice.symbol(table)) + _beyond_box_rate(grid, alpha, a_norm)
    return KilledOperator(
        table=table,
        kill=kill,
        h=grid.h,
        alpha=alpha,
        d=grid.d,
        centers=grid.centers.copy(),
        index=grid.index.copy(),
    )


def _pcg(apply, precondition, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system apply(x) = b by preconditioned conjugate gradients.

    Written out instead of calling scipy.sparse.linalg.cg so that exit-time
    runs do not import scipy.sparse (about 4 MB of resident memory).
    """
    x = np.zeros_like(b)
    if not b.any():  # the solution is 0; the iteration would divide by p.q = 0
        return x
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    stop = CG_RTOL * float(np.linalg.norm(b))
    for _ in range(CG_MAX_ITER):
        q = apply(p)
        pq = float(p @ q)
        if pq <= 0.0:
            raise SolveError("operator matrix is not positive definite")
        step = rz / pq
        x += step * p
        r -= step * q
        if np.linalg.norm(r) <= stop:
            return x
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    raise SolveError(f"conjugate gradients did not converge in {CG_MAX_ITER} iterations")


def solve(op: KilledOperator, b: np.ndarray) -> np.ndarray:
    """H x = b by conjugate gradients with the circulant preconditioner."""
    return _pcg(op.apply, op.precondition, b)


def exit_time(op: KilledOperator) -> np.ndarray:
    """Solve H s = 1; s_i > 0 is the expected exit time started from cell i."""
    s = solve(op, np.ones(op.n))
    if (s <= 0.0).any():
        raise SolveError("exit time field is not strictly positive")
    return s


def _subset_indices(op: KilledOperator, subset) -> np.ndarray:
    u = np.asarray(subset)
    if u.dtype == bool:
        if u.shape != (op.n,):
            raise ValueError(f"a boolean subset needs one entry per node ({op.n}), got shape {u.shape}")
        u = np.flatnonzero(u)
    elif u.size and u.dtype.kind not in "iu":
        raise ValueError(f"subset must hold integer node indices, got dtype {u.dtype}")
    u = u.astype(int)
    if len(u) == 0:
        raise ValueError("subset must be nonempty")
    if len(np.unique(u)) != len(u) or u.min() < 0 or u.max() >= op.n:
        raise ValueError("subset must be a set of valid node indices")
    return u


def _solve_on(op: KilledOperator, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """H_UU x = b over the nodes u, by the circulant PCG with H and M restricted to U."""

    def on_u(f):
        """f acting on vectors over U: extend by zero, apply, read back on U."""

        def restricted(y: np.ndarray) -> np.ndarray:
            x = np.zeros(op.n)
            x[u] = y
            return f(x)[u]

        return restricted

    return _pcg(on_u(op.apply), on_u(op.precondition), b)


def sup_exit_time(op: KilledOperator, subset: Sequence[int]) -> float:
    """Max expected exit time of the operator restricted to the given nodes."""
    u = _subset_indices(op, subset)
    return float(_solve_on(op, u, np.ones(len(u))).max())
