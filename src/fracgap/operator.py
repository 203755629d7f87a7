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
diagonal's row sums are that convolution applied to ones. `weights` and
`matrix` gather the dense n x n arrays on demand, for the small-n oracles.

kill_i is the table summed over the outside cells of the lattice box, so a
nearest neighbor outside feeds the self-cell coefficient into kill (the
Dirichlet condition for the second difference), plus the mass beyond the
box: closed form in 1D, and in 2D a polar quadrature with the radial
integral exact and Gauss-Legendre in the angle, split at the box corner
directions.

Exit times solve H s = 1 (or its restriction to a node subset) by conjugate
gradients on `apply` with a Jacobi preconditioner. The Green/harmonic split
stays dense and Cholesky-based: it is the reference the tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .constants import StableParams, norm_constant
from .geometry import Grid

__all__ = [
    "KilledOperator",
    "ExitTimeField",
    "AssemblyError",
    "SolveError",
    "assemble",
    "exit_time",
    "sup_exit_time",
    "dynkin_decomposition",
]

MAX_DENSE_NODES = 5000  # cap of the dense oracles and the 1D eigensolver; ~70x70 cells in 2D
NEAR_RANGE = 2  # Chebyshev index distance treated with subdivided quadrature
SUBDIV = 3  # subdivision per axis for near cells in 2D
# Gauss-Legendre points per smooth angular segment (4 segments); 32 keeps the
# tail below 1e-12 relative even for cells hugging a box corner
TAIL_ANGULAR_POINTS = 32
GATHER_BLOCK = 2**18  # table entries gathered at once when summing kill over outside cells
CG_RTOL = 1e-14  # on the recursively updated residual, relative to the right-hand side
CG_MAX_ITER = 10_000  # 1D alpha = 1.7 at n = 4000 needs ~2600


class AssemblyError(RuntimeError):
    """A computed weight came out negative or non-finite."""


class SolveError(RuntimeError):
    """A linear solve, factorization or eigensolve failed or did not converge."""


@dataclass
class KilledOperator:
    """Jump rates between inside cells, as one offset table, plus per-cell killing rates.

    `diag` (row sums of W plus kill) is derived on construction, together
    with the FFT symbol of the table that `apply` uses.
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
        self._cells = tuple(self.index.T)
        self._axes = tuple(range(self.d))
        # offsets in a box of m cells run over (-m, m): a circular convolution
        # of length >= 2m - 1 computes the linear one
        self._fft_shape = tuple(_smooth_len(2 * m - 1) for m in self.table.shape)
        # FFT index k holds the rate at offset min(k, L - k); offsets >= m get
        # the zero padded on
        folded = [
            np.minimum(np.minimum(np.arange(L), L - np.arange(L)), m)
            for m, L in zip(self.table.shape, self._fft_shape)
        ]
        even = np.pad(self.table, [(0, 1)] * self.d)[np.ix_(*folded)]
        self._symbol = np.fft.rfftn(even).real  # real: the extension is even
        self.diag = self._jumps(np.ones(self.n)) + self.kill

    @property
    def n(self) -> int:
        return len(self.kill)

    @property
    def weights(self) -> np.ndarray:
        """Dense W, gathered from the table on every access (n x n)."""
        return _gather(self.table, self.index, self.index)

    def _jumps(self, x: np.ndarray) -> np.ndarray:
        """W x: x placed in the lattice box, convolved with the table's even extension."""
        box = np.zeros(self.table.shape)
        box[self._cells] = x
        spec = np.fft.rfftn(box, s=self._fft_shape, axes=self._axes) * self._symbol
        return np.fft.irfftn(spec, s=self._fft_shape, axes=self._axes)[self._cells]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x without forming H."""
        return self.diag * x - self._jumps(x)

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


def _tail_2d(
    pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, alpha: float, n_gl: int = TAIL_ANGULAR_POINTS
) -> np.ndarray:
    """Integral of |x - y|^(-2-alpha) over the complement of the box [lo, hi].

    In polar coordinates around x the radial part is exact,
    int_rho^inf r^(-1-alpha) dr = rho^(-alpha)/alpha, leaving the angular
    integral of rho(theta)^(-alpha). rho has kinks only at the directions of
    the box corners, so the circle is split there and each of the four
    smooth segments gets a Gauss-Legendre rule.
    """
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    rel = corners[None, :, :] - pts[:, None, :]
    ang = np.sort(np.arctan2(rel[:, :, 1], rel[:, :, 0]), axis=1)
    a = ang
    b = np.concatenate([ang[:, 1:], ang[:, :1] + 2.0 * np.pi], axis=1)
    t, w = np.polynomial.legendre.leggauss(n_gl)
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


def _gather_row_sums(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row sums of _gather(table, rows, cols), built a block of rows at a time."""
    step = max(1, GATHER_BLOCK // len(cols))
    return np.concatenate(
        [_gather(table, rows[i : i + step], cols).sum(axis=1) for i in range(0, len(rows), step)]
    )


def assemble(grid: Grid, alpha: float) -> KilledOperator:
    """Build the discrete killed generator for the given grid and index alpha."""
    if grid.n > MAX_DENSE_NODES:
        raise ValueError(
            f"grid has {grid.n} inside cells; dense assembly is capped at {MAX_DENSE_NODES}, "
            "choose a coarser h"
        )
    if grid.d not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    a_norm = norm_constant(StableParams(alpha, grid.d))
    table = _kernel_table(grid.dims, grid.h, alpha, a_norm)
    lo, hi = grid.box()
    if grid.d == 1:
        tail = _tail_1d(grid.centers[:, 0], float(lo[0]), float(hi[0]), alpha)
    else:
        tail = _tail_2d(grid.centers, lo, hi, alpha)
    kill = _gather_row_sums(table, grid.index, np.argwhere(~grid.inside)) + a_norm * tail
    if not np.isfinite(table).all() or (table < 0.0).any():
        raise AssemblyError("negative or non-finite jump weight")
    if not np.isfinite(kill).all() or (kill <= 0.0).any():
        raise AssemblyError("killing rates must be positive and finite")
    return KilledOperator(
        table=table,
        kill=kill,
        h=grid.h,
        alpha=alpha,
        d=grid.d,
        centers=grid.centers.copy(),
        index=grid.index.copy(),
    )


def _chol(H: np.ndarray):
    try:
        return cho_factor(H, lower=True)
    except LinAlgError as exc:
        raise SolveError("operator matrix is not positive definite") from exc


def _pcg(apply, diag: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system apply(x) = b by conjugate gradients, Jacobi-preconditioned.

    Written out instead of calling scipy.sparse.linalg.cg so that exit-time
    runs do not import scipy.sparse (about 4 MB of resident memory).
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
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
        z = r / diag
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    raise SolveError(f"conjugate gradients did not converge in {CG_MAX_ITER} iterations")


def exit_time(op: KilledOperator) -> ExitTimeField:
    """Solve H s = 1; s_i is the expected exit time started from cell i."""
    s = _pcg(op.apply, op.diag, np.ones(op.n))
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


def sup_exit_time(op: KilledOperator, subset: Sequence[int]) -> float:
    """Max expected exit time of the operator restricted to the given nodes."""
    u = _subset_indices(op, subset)

    def apply_u(y: np.ndarray) -> np.ndarray:
        x = np.zeros(op.n)
        x[u] = y
        return op.apply(x)[u]

    return float(_pcg(apply_u, op.diag[u], np.ones(len(u))).max())


def dynkin_decomposition(
    op: KilledOperator, subset: Sequence[int], f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split f over a node subset U into harmonic and Green parts.

    Returns (P f, G (H f)|_U) where P applies the discrete harmonic measure
    of U to the values of f outside U and G is the Green operator of U.
    The identity f|_U = P f + G (H f)|_U holds exactly; with f an
    eigenvector the Green part is lambda * G f|_U.
    """
    u = _subset_indices(op, subset)
    f = np.asarray(f, dtype=float)
    comp = np.setdiff1d(np.arange(op.n), u, assume_unique=False)
    H = op.matrix()
    fac = _chol(H[np.ix_(u, u)])
    if len(comp):
        harmonic = cho_solve(fac, -H[np.ix_(u, comp)] @ f[comp])  # off-diagonal H is -W
    else:
        harmonic = np.zeros(len(u))
    green = cho_solve(fac, (H @ f)[u])
    return harmonic, green
