"""Discrete killed generator on a grid: assembly, exit times, Green/harmonic split.

The operator is the matrix H = diag(sum_j w_ij + kill_i) - W acting on the
inside cells of a Grid. The kernel A * |x - y|^(-d-alpha) is translation
invariant, so the jump rate between two cells depends only on their index
offset. One table, indexed by the absolute offset over the lattice box,
holds the kernel integrated over the target cell (closed form in 1D;
midpoint with 3x3 subdivision for near cells in 2D, plain midpoint beyond).

The self-cell principal value is folded into the table by adding
A * (h/2)^(2-alpha) / ((2-alpha) h^2) at every unit offset, the coefficient
that makes the scheme exact on quadratics across the diagonal.

w_ij is the table gathered at |index_i - index_j| over inside pairs, so W
is symmetric bitwise. kill_i is the same gather over outside cells of the
lattice box, so a nearest neighbor outside feeds the self-cell coefficient
into kill (the Dirichlet condition for the second difference), plus the
mass beyond the box: closed form in 1D, and in 2D a polar quadrature with
the radial integral exact and Gauss-Legendre in the angle, split at the box
corner directions.
"""

from __future__ import annotations

from dataclasses import dataclass
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

MAX_DENSE_NODES = 5000  # dense storage cap; ~70x70 inside cells in 2D
NEAR_RANGE = 2  # Chebyshev index distance treated with subdivided quadrature
SUBDIV = 3  # subdivision per axis for near cells in 2D
# Gauss-Legendre points per smooth angular segment (4 segments); 32 keeps the
# tail below 1e-12 relative even for cells hugging a box corner
TAIL_ANGULAR_POINTS = 32


class AssemblyError(RuntimeError):
    """A computed weight came out negative or non-finite."""


class SolveError(RuntimeError):
    """A linear solve or factorization failed; indicates an assembly bug."""


@dataclass
class KilledOperator:
    """Symmetric jump rates between inside cells plus per-cell killing rates."""

    weights: np.ndarray
    kill: np.ndarray
    h: float
    alpha: float
    d: int
    centers: np.ndarray
    index: np.ndarray

    @property
    def n(self) -> int:
        return len(self.kill)

    def matrix(self) -> np.ndarray:
        """Dense H = diag(row sums + kill) - W; symmetric positive definite."""
        H = -self.weights.copy()
        np.fill_diagonal(H, self.weights.sum(axis=1) + self.kill)
        return H


@dataclass
class ExitTimeField:
    """Expected exit time per inside cell; strictly positive."""

    values: np.ndarray


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
    W = _gather(table, grid.index, grid.index)
    lo, hi = grid.box()
    if grid.d == 1:
        tail = _tail_1d(grid.centers[:, 0], float(lo[0]), float(hi[0]), alpha)
    else:
        tail = _tail_2d(grid.centers, lo, hi, alpha)
    kill = _gather(table, grid.index, np.argwhere(~grid.inside)).sum(axis=1) + a_norm * tail
    if not np.isfinite(W).all() or (W < 0.0).any():
        raise AssemblyError("negative or non-finite jump weight")
    if not np.isfinite(kill).all() or (kill <= 0.0).any():
        raise AssemblyError("killing rates must be positive and finite")
    return KilledOperator(
        weights=W,
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


def exit_time(op: KilledOperator) -> ExitTimeField:
    """Solve H s = 1; s_i is the expected exit time started from cell i."""
    s = cho_solve(_chol(op.matrix()), np.ones(op.n))
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
    H = op.matrix()
    s = cho_solve(_chol(H[np.ix_(u, u)]), np.ones(len(u)))
    return float(s.max())


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
        harmonic = cho_solve(fac, op.weights[np.ix_(u, comp)] @ f[comp])
    else:
        harmonic = np.zeros(len(u))
    green = cho_solve(fac, (H @ f)[u])
    return harmonic, green
