"""Discrete killed generator on a grid: assembly, matrix-free apply, exit times,
Green/harmonic split.

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
table's even extension convolved with x placed in the box, by a zero-padded
real FFT of about twice the box size (O(N log N) for N box cells), and the
diagonal's row sums are that convolution applied to ones. In 2D the
transforms are pruned: the forward pass transforms only the box's rows
along the last axis before the full transform along the first, and the
inverse pass keeps only the box's rows before the last-axis inverse, so no
transform runs over rows that are all zero or never read. The results are
bitwise those of the full rfftn/irfftn pair. `weights` and
`matrix` gather the dense n x n arrays on demand, for dense `eigh` and the
small-n oracles, and refuse more than MAX_DENSE_NODES cells.

kill_i is the table summed over the outside cells of the lattice box, so a
nearest neighbor outside feeds the self-cell coefficient into kill (the
Dirichlet condition for the second difference), plus the mass beyond the
box. The outside sum is an exact pair sum in 1D and the same FFT
convolution applied to the outside indicator in 2D. The mass beyond the box
is in closed form in 1D; in 2D a polar quadrature with the radial integral
exact and Gauss-Legendre in the angle, split at the box corner directions.
It depends only on a cell's place in the lattice box, so it is evaluated
once per class of cells related by the box's two reflections (and by the
transpose when the box is square) and copied to the rest: about 8x fewer
quadratures on a disk, and the beyond-box rate is exactly symmetric.

Exit times solve H s = 1 (or its restriction to a node subset) by conjugate
gradients on `apply`, preconditioned by the circulant that the padded FFT
already diagonalizes: M = mean(diag) - W extended circulantly over the
padded box, restricted to the inside cells. Its symbol is mean(diag) minus
the table's symbol, clamped below at min(kill), so M is SPD and costs one
FFT pair per iteration (Chan & Ng, SIAM Review 1996; Lei & Sun, J. Comput.
Phys. 2013). Systems on a node subset U, for the sup of the exit time of U
and for the Green/harmonic split, run the same PCG on H and M restricted to
U: extend by zero, apply, read back on U. No factorization is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constants import StableParams, norm_constant
from .geometry import Grid

__all__ = [
    "KilledOperator",
    "ExitTimeField",
    "AssemblyError",
    "SolveError",
    "assemble",
    "solve",
    "exit_time",
    "sup_exit_time",
    "dynkin_decomposition",
]

MAX_DENSE_NODES = 5000  # cap of the dense n x n arrays (weights, matrix); ~70x70 cells in 2D
NEAR_RANGE = 2  # Chebyshev index distance treated with subdivided quadrature
SUBDIV = 3  # subdivision per axis for near cells in 2D
# Gauss-Legendre points per smooth angular segment (4 segments); 32 keeps the
# tail below 1e-12 relative even for cells hugging a box corner
TAIL_ANGULAR_POINTS = 32
# table entries gathered at once (1D kill, blocked rows of W); also the
# quadrature nodes per block of points in the 2D beyond-box tail
GATHER_BLOCK = 2**18
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
    importing scipy.linalg here would cost every command ~0.4 s."""
    from scipy.linalg import cho_factor as factor

    return factor(a, *args, **kwargs)


@dataclass
class KilledOperator:
    """Jump rates between inside cells, as one offset table, plus per-cell killing rates.

    `kill` is derived on construction from the table, the inside cells and
    `beyond` (the killing rate to beyond the lattice box), and so are `diag`
    (row sums of W plus kill) and the FFT symbol of the table that `apply`
    and `precondition` use. Raises AssemblyError unless every killing rate is
    positive and finite.
    """

    table: np.ndarray
    beyond: np.ndarray
    h: float
    alpha: float
    d: int
    centers: np.ndarray
    index: np.ndarray
    kill: np.ndarray = field(init=False, repr=False)
    diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # offsets in a box of m cells run over (-m, m): a circular convolution
        # of length >= 2m - 1 computes the linear one
        self._fft_shape = tuple(_smooth_len(2 * m - 1) for m in self.table.shape)
        cells = self.index.T
        # flat positions of the inside cells in the lattice box, and in the
        # m_0 x L_1 (2D) or L_0 (1D) array that the pruned inverse transform returns
        self._in_box = np.ravel_multi_index(cells, self.table.shape)
        self._in_out = np.ravel_multi_index(cells, (*self.table.shape[:-1], self._fft_shape[-1]))
        # FFT index k holds the rate at offset min(k, L - k); offsets >= m get
        # the zero padded on
        folded = [
            np.minimum(np.minimum(np.arange(L), L - np.arange(L)), m)
            for m, L in zip(self.table.shape, self._fft_shape)
        ]
        even = np.pad(self.table, [(0, 1)] * self.d)[np.ix_(*folded)]
        self._symbol = np.fft.rfftn(even).real  # real: the extension is even
        outside = np.ones(self.table.size, dtype=bool)
        outside[self._in_box] = False
        outside = outside.reshape(self.table.shape)
        if self.d == 1:
            # exact pair sum: an FFT loses up to 1.4e-10 relative here at alpha = 1.7
            blocks = _gather_blocks(self.table, self.index, np.argwhere(outside))
            near = np.concatenate([w.sum(axis=1) for _, w in blocks])
        else:
            # within 1e-11 relative of the pair sum at alpha = 1.7 up to n ~ 4000
            # (tested); 3.2e-12 measured at n = 31428
            near = self._convolve(outside, self._symbol)
        self.kill = near + self.beyond
        if not np.isfinite(self.kill).all() or (self.kill <= 0.0).any():
            raise AssemblyError("killing rates must be positive and finite")
        self.diag = self._jumps(np.ones(self.n)) + self.kill
        # inverse eigenvalues of the circulant mean(diag) - W on the padded box;
        # the clamp at min(kill) keeps it positive definite
        self._inv_circulant = 1.0 / np.maximum(self.diag.mean() - self._symbol, self.kill.min())

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def weights(self) -> np.ndarray:
        """Dense W, gathered from the table on every access (n x n)."""
        if self.n > MAX_DENSE_NODES:
            raise ValueError(
                f"operator has {self.n} inside cells; the dense matrix is capped at "
                f"MAX_DENSE_NODES = {MAX_DENSE_NODES}, choose a coarser h"
            )
        return _gather(self.table, self.index, self.index)

    def weight_blocks(self):
        """Yield (rows, W[rows]) over row slices of about GATHER_BLOCK entries; any n."""
        return _gather_blocks(self.table, self.index, self.index)

    def _convolve(self, box: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """A lattice-box array, zero-padded to the FFT shape and multiplied by
        spectrum in frequency, read at the inside cells.

        The same transforms as rfftn/irfftn over the padded shape, pruned in
        2D: the forward rfft runs over the m_0 box rows only (the padded rows
        are zero), and the inverse irfft over the m_0 rows that hold the box.
        """
        last = self._fft_shape[-1]
        spec = np.fft.rfft(box, n=last, axis=-1)
        # d <= 2, so the axes before the last are axis 0 in 2D and none in 1D
        for L in self._fft_shape[:-1]:
            spec = np.fft.fft(spec, n=L, axis=0)
        spec *= spectrum
        for m in self.table.shape[:-1]:
            spec = np.fft.ifft(spec, axis=0)[:m]
        return np.fft.irfft(spec, n=last, axis=-1).ravel()[self._in_out]

    def _scatter(self, x: np.ndarray) -> np.ndarray:
        box = np.zeros(self.table.size)
        box[self._in_box] = x
        return box.reshape(self.table.shape)

    def _jumps(self, x: np.ndarray) -> np.ndarray:
        """W x: x placed in the lattice box, convolved with the table's even extension."""
        return self._convolve(self._scatter(x), self._symbol)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x without forming H."""
        return self.diag * x - self._jumps(x)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r for the circulant M = mean(diag) - (W's circulant extension) on
        the padded box, restricted to the inside cells: one FFT pair, SPD."""
        return self._convolve(self._scatter(r), self._inv_circulant)

    def matrix(self) -> np.ndarray:
        """Dense H = diag - W; symmetric positive definite."""
        H = -self.weights
        np.fill_diagonal(H, self.diag)
        return H


@dataclass
class ExitTimeField:
    """Expected exit time per inside cell; strictly positive."""

    values: np.ndarray


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


def _cell_integral_1d(dist: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Exact integral of |u|^(-1-alpha) over a width-h cell at center distance dist."""
    return ((dist - h / 2.0) ** (-alpha) - (dist + h / 2.0) ** (-alpha)) / alpha


def _tail_1d(x: np.ndarray, lo: float, hi: float, alpha: float) -> np.ndarray:
    """Integral of |x - y|^(-1-alpha) over the complement of [lo, hi]."""
    return ((x - lo) ** (-alpha) + (hi - x) ** (-alpha)) / alpha


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


def _tail_2d_block(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, alpha: float) -> np.ndarray:
    """_tail_2d on one block of points."""
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    rel = corners[None, :, :] - pts[:, None, :]
    ang = np.sort(np.arctan2(rel[:, :, 1], rel[:, :, 0]), axis=1)
    a = ang
    b = np.concatenate([ang[:, 1:], ang[:, :1] + 2.0 * np.pi], axis=1)
    t, w = np.polynomial.legendre.leggauss(TAIL_ANGULAR_POINTS)
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


def _kernel_table(dims: tuple[int, ...], h: float, alpha: float, a_norm: float) -> np.ndarray:
    """Jump rate to the cell at every non-negative index offset in the lattice box.

    Entry [k] integrates a_norm * |u|^(-d-alpha) over the cell whose center
    sits k * h away: exactly in 1D; in 2D by the midpoint rule, subdivided
    SUBDIV x SUBDIV when |k|_inf <= NEAR_RANGE. The entry at the origin is 0
    and each unit offset also carries the self-cell coefficient.
    """
    table = np.zeros(dims)
    if len(dims) == 1:
        table[1:] = a_norm * _cell_integral_1d(np.arange(1, dims[0]) * h, h, alpha)
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
    table[unit] += a_norm * (h / 2.0) ** (2.0 - alpha) / ((2.0 - alpha) * h * h)
    return table


def _gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of table[|rows_i - cols_j|] over pairs of lattice indices."""
    offsets = (np.abs(np.subtract.outer(r, c)) for r, c in zip(rows.T, cols.T))
    return table[tuple(offsets)]


def _gather_blocks(table: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Yield (slice, _gather(table, rows[slice], cols)) a block of about GATHER_BLOCK entries at a time."""
    step = max(1, GATHER_BLOCK // max(1, len(cols)))
    for i in range(0, len(rows), step):
        block = slice(i, i + step)
        yield block, _gather(table, rows[block], cols)


def assemble(grid: Grid, alpha: float) -> KilledOperator:
    """Build the discrete killed generator for the given grid and index alpha."""
    if grid.d not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    a_norm = norm_constant(StableParams(alpha, grid.d))
    table = _kernel_table(grid.dims, grid.h, alpha, a_norm)
    if not np.isfinite(table).all() or (table < 0.0).any():
        raise AssemblyError("negative or non-finite jump weight")
    lo, hi = grid.box()
    if grid.d == 1:
        tail = _tail_1d(grid.centers[:, 0], float(lo[0]), float(hi[0]), alpha)
    else:
        # the tail depends only on a cell's place in the lattice box, so it is
        # evaluated once per class of cells that the box's reflections (and,
        # in a square box, its transpose) map onto each other
        m = np.asarray(grid.dims)
        folded = np.minimum(grid.index, m - 1 - grid.index)
        if m[0] == m[1]:
            folded = np.sort(folded, axis=1)
        keys, cell_class = np.unique(np.ravel_multi_index(folded.T, grid.dims), return_inverse=True)
        reps = np.column_stack(np.unravel_index(keys, grid.dims))
        tail = _tail_2d(grid.origin + (reps + 0.5) * grid.h, lo, hi, alpha)[cell_class]
    return KilledOperator(
        table=table,
        beyond=a_norm * tail,
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


def exit_time(op: KilledOperator) -> ExitTimeField:
    """Solve H s = 1; s_i is the expected exit time started from cell i."""
    s = solve(op, np.ones(op.n))
    if (s <= 0.0).any():
        raise SolveError("exit time field is not strictly positive")
    return ExitTimeField(values=s)


def _subset_indices(op: KilledOperator, subset) -> np.ndarray:
    u = np.asarray(subset)
    if u.dtype == bool:
        u = np.flatnonzero(u)
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


def dynkin_decomposition(
    op: KilledOperator, subset: Sequence[int], f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split f over a node subset U into harmonic and Green parts.

    Returns (P f, G (H f)|_U) where P applies the discrete harmonic measure
    of U to the values of f outside U and G is the Green operator of U.
    The identity f|_U = P f + G (H f)|_U holds exactly; with f an
    eigenvector the Green part is lambda * G f|_U. Both parts are restricted
    solves, so the split runs at any n.
    """
    u = _subset_indices(op, subset)
    f = np.asarray(f, dtype=float)
    outside = f.copy()
    outside[u] = 0.0
    # -H_{U,U^c} f_{U^c} = (W f_{U^c})|_U: zero when f vanishes off U
    harmonic = _solve_on(op, u, -op.apply(outside)[u])
    green = _solve_on(op, u, op.apply(f)[u])
    return harmonic, green
