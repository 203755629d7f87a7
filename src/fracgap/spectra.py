"""Eigenpairs of the discrete killed generator and the machinery built on them.

Covers: the low spectrum with a fixed deterministic sign convention (dense
LAPACK `eigh` on small grids; above a measured size crossover ARPACK on the
matrix-free operator, plain Lanczos on its FFT apply in 2D and shift-invert
with circulant-PCG solves in 1D), the spectral gap, the weighted nonlocal
Dirichlet form that the ground-state transform turns the gap into (exact in
finite dimensions, summed over blocks of rows), the antisymmetrized
double-sum normalization check (in O(n)), the half-maximum level set of the
ground state with its exit-time sandwich, and the discrete survival
function of the killed semigroup (dense, capped like the other oracles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import StableParams, ball_exit_constant, unit_ball_volume
from .operator import MAX_DENSE_NODES, KilledOperator, SolveError, solve, sup_exit_time

__all__ = [
    "EigenSolution",
    "LevelSetReport",
    "eigenpairs",
    "spectral_gap",
    "ground_state_ratio",
    "variational_energy",
    "orthogonality_identity_check",
    "level_set_report",
    "survival_profile",
    "export_eigenpairs_csv",
]

# Smallest n at which eigenpairs leaves dense eigh for ARPACK: plain Lanczos
# on op.apply in 2D, shift-invert with circulant-PCG inner solves in 1D.
# Measured for k = 6 on 2 cores (seconds, eigh / ARPACK):
# 2D n = 644: 0.022/0.026, 0.023/0.041, 0.035/0.042 (alpha 0.5, 1, 1.5);
# n = 873: 0.043/0.040, 0.044/0.037, 0.049/0.062; n = 1264: 0.14/0.043,
# 0.15/0.070, 0.17/0.078. 1D: n = 800 0.04/0.06-0.12, n = 1200
# 0.11/0.07-0.10, n = 4000 3.7-4.6/0.24-0.31. Plain Lanczos loses in 1D (the
# spectrum spreads as n^alpha, not n^(alpha/2)); shift-invert loses in 2D
# (4.4-5.2x slower than plain Lanczos at n = 4003, alpha 0.5-1.7; 4.4x and
# 2.5x at n = 31428, alpha 1 and 1.7).
LANCZOS_MIN_NODES = 1000
# ARPACK restarts; the disk needs 13 at n = 4003 (alpha 1) and 44 at n = 7860 (alpha 1.7)
LANCZOS_MAX_RESTARTS = 1000
EIG_RESIDUAL_TOL = 1e-8  # bound on max_j ||H phi_j - lambda_j phi_j|| / lambda_j


@dataclass
class EigenSolution:
    """Ordered low eigenvalues with grid-normalized eigenvectors.

    Normalization is sum_i phi^2 h^d = 1. Signs are fixed (first nonzero
    coordinate positive) and phi_1 is strictly positive, so repeated runs
    are bit-identical.
    """

    lambdas: np.ndarray
    phis: np.ndarray
    h: float
    alpha: float
    d: int

    @property
    def k(self) -> int:
        return len(self.lambdas)


@dataclass
class LevelSetReport:
    """Half-maximum level set U of the ground state and its exit-time sandwich."""

    sup_phi1: float
    node_indices: np.ndarray
    measure: float
    sup_exit: float
    sandwich: float  # lambda_1 * sup_exit, targeted bracket [1/2, 2] up to O(h)
    sup_bound_rhs: float  # 2 / sqrt(measure); sup_phi1 <= this holds exactly
    sup_bound_ok: bool
    volume_lower_rhs: float  # C0 * sup_exit^(d/alpha), isoperimetric volume bound
    volume_bound_ok: bool  # no discretization slack: the bound is an equality for balls
    volume_ratio: float  # measure / volume_lower_rhs; near 1 on near-ball level sets


def _dense_eigh(op: KilledOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the dense matrix by LAPACK."""
    # imported here, as in survival_profile: scipy.linalg takes ~0.4 s to import,
    # and commands that solve no eigenproblem (exit-time, constants) never load it
    from scipy.linalg import LinAlgError, eigh

    try:
        return eigh(op.matrix(), subset_by_index=(0, k - 1))
    except LinAlgError as exc:
        raise SolveError("eigensolver failed to converge; reduce the grid size") from exc


def _lanczos(op: KilledOperator, k: int, shift_invert: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs by implicitly restarted Lanczos (ARPACK): on op.apply,
    or with shift_invert on H^-1 applied by circulant-preconditioned CG.

    ARPACK stops once every Ritz pair has ||H phi - lambda phi|| <= tol * |lambda|,
    the relative residual that eigenpairs checks; tol is a hundredth of that
    check's bound, EIG_RESIDUAL_TOL. Against tol = 0 (machine precision) the disk
    at n = 4003 takes 186 applies instead of 238 and lambda moves by < 1e-14
    relative. With shift_invert the test applies to the pairs of H^-1, and the
    inner CG's accuracy sets the residual."""
    # imported here: it adds ~4 MB, and only solves above the crossover need it
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # a fixed start vector without symmetry: ones is orthogonal to every
    # antisymmetric eigenvector of a symmetric domain
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n)
    H = LinearOperator((op.n, op.n), matvec=op.apply, dtype=float)
    if shift_invert:
        inverse = LinearOperator((op.n, op.n), matvec=lambda b: solve(op, b), dtype=float)
        mode = {"sigma": 0.0, "OPinv": inverse}
    else:
        mode = {"which": "SA"}
    try:
        vals, vecs = eigsh(H, k=k, tol=EIG_RESIDUAL_TOL / 100, v0=v0, maxiter=LANCZOS_MAX_RESTARTS, **mode)
    except ArpackError as exc:
        raise SolveError(f"Lanczos eigensolver failed: {exc}") from exc
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def eigenpairs(op: KilledOperator, k: int) -> EigenSolution:
    """k smallest eigenvalues of H with deterministically signed eigenvectors.

    Dense eigh below LANCZOS_MIN_NODES inside cells (or when k is within 1
    of n); from there on ARPACK on the matrix-free operator, plain Lanczos in
    2D and shift-invert in 1D, while its n x (2k + 1) basis fits in
    MAX_DENSE_NODES^2 doubles, the dense matrix's footprint; past that, dense
    eigh up to MAX_DENSE_NODES cells and ValueError above. Every pair must
    satisfy ||H phi - lambda phi|| <= EIG_RESIDUAL_TOL * lambda.
    """
    if k < 2:
        raise ValueError("need at least two eigenvalues for a gap")
    if k > op.n:
        raise ValueError(f"k = {k} exceeds the number of nodes {op.n}")
    arpack_fits = op.n * (2 * k + 1) <= MAX_DENSE_NODES**2
    if op.n < LANCZOS_MIN_NODES or k >= op.n - 1 or not arpack_fits:  # ARPACK needs k < n - 1
        if op.n > MAX_DENSE_NODES:
            raise ValueError(
                f"k = {k} at n = {op.n}: ARPACK's n x (2k + 1) basis and the dense matrix both exceed "
                f"MAX_DENSE_NODES^2 = {MAX_DENSE_NODES**2} doubles; choose a smaller k or a coarser h"
            )
        vals, vecs = _dense_eigh(op, k)
    else:
        vals, vecs = _lanczos(op, k, shift_invert=op.d == 1)
    if vals[0] <= 0.0:
        raise SolveError("lowest eigenvalue is not positive; assembly bug")
    if not vals[1] > vals[0]:
        raise SolveError("lowest eigenvalue is not simple")
    resid = max(np.linalg.norm(op.apply(vecs[:, j]) - vals[j] * vecs[:, j]) / vals[j] for j in range(k))
    if not resid <= EIG_RESIDUAL_TOL:
        raise SolveError(f"eigen-residual {resid:.3g} exceeds {EIG_RESIDUAL_TOL:g} relative")
    for j in range(k):
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        if v[nz[0]] < 0.0:
            vecs[:, j] = -v
    phis = vecs / op.h ** (op.d / 2.0)
    if phis[:, 0].min() <= 0.0:
        raise SolveError("ground state is not strictly positive; assembly bug")
    return EigenSolution(lambdas=vals, phis=phis, h=op.h, alpha=op.alpha, d=op.d)


def spectral_gap(sol: EigenSolution) -> float:
    return float(sol.lambdas[1] - sol.lambdas[0])


def ground_state_ratio(sol: EigenSolution) -> np.ndarray:
    """The minimizing test function phi_2 / phi_1 of the gap's variational form."""
    return sol.phis[:, 1] / sol.phis[:, 0]


def variational_energy(op: KilledOperator, f: np.ndarray, phi1: np.ndarray) -> float:
    """Weighted nonlocal Dirichlet form of f, after projecting f to the
    admissible class (zero phi_1^2-mean, unit phi_1^2-norm).

    Computed with the operator's own jump rates,
        (h^d / 2) * sum_{i != j} w_ij (f_i - f_j)^2 phi_1(i) phi_1(j),
    which by the ground-state transform equals <(H - lambda_1) g, g> h^d for
    g = f phi_1. Its minimum over the admissible class is the spectral gap,
    attained at f = phi_2 / phi_1. A constant f projects to zero and returns
    energy 0.
    """
    f = np.asarray(f, dtype=float)
    phi1 = np.asarray(phi1, dtype=float)
    if (phi1 == 0.0).any():
        raise ValueError("phi1 must have no zero entries")
    hd = op.h**op.d
    w2 = phi1**2 * hd
    f = f - float(np.dot(f, w2)) / float(w2.sum())
    nrm2 = float(np.dot(f**2, w2))
    if nrm2 <= 1e-300:
        return 0.0
    f = f / np.sqrt(nrm2)
    rows = np.concatenate(
        [(w * (f[block, None] - f[None, :]) ** 2) @ phi1 for block, w in op.weight_blocks()]
    )
    return 0.5 * hd * float(phi1 @ rows)


def orthogonality_identity_check(sol: EigenSolution) -> float:
    """Double sum of (phi_2(x) phi_1(y) - phi_2(y) phi_1(x))^2 h^(2d).

    Equals 2 for any orthonormal pair; this is the normalization that turns
    the kernel-free part of the gap bound into an explicit constant. Expanded,
    the double sum is 2 (|a|^2 |b|^2 - (a.b)^2) for a = phi_2, b = phi_1: O(n).
    """
    a = sol.phis[:, 1]
    b = sol.phis[:, 0]
    return 2.0 * (float(a @ a) * float(b @ b) - float(a @ b) ** 2) * sol.h ** (2 * sol.d)


def level_set_report(sol: EigenSolution, op: KilledOperator) -> LevelSetReport:
    """Level set U = {phi_1 >= M/2} with its measure and exit-time sandwich.

    Ties at the threshold are included. Alongside the sandwich
    lambda_1 * sup s_U, two consequences are evaluated: the exact discrete
    bound sup phi_1 <= 2 |U|^(-1/2), and the isoperimetric volume bound
    |U| >= C0 (sup s_U)^(d/alpha) with C0 determined by the unit ball.
    """
    phi1 = sol.phis[:, 0]
    m = float(phi1.max())
    u = np.flatnonzero(phi1 >= m / 2.0)
    measure = len(u) * op.h**op.d
    sup_su = sup_exit_time(op, u)
    sandwich = float(sol.lambdas[0]) * sup_su
    p = StableParams(op.alpha, op.d)
    c0 = ball_exit_constant(p) ** (-op.d / op.alpha) * unit_ball_volume(op.d)
    vol_rhs = c0 * sup_su ** (op.d / op.alpha)
    sup_rhs = 2.0 / np.sqrt(measure)
    return LevelSetReport(
        sup_phi1=m,
        node_indices=u,
        measure=measure,
        sup_exit=sup_su,
        sandwich=sandwich,
        sup_bound_rhs=float(sup_rhs),
        sup_bound_ok=bool(m <= sup_rhs),
        volume_lower_rhs=float(vol_rhs),
        volume_bound_ok=bool(measure >= vol_rhs),
        volume_ratio=float(measure / vol_rhs),
    )


def survival_profile(op: KilledOperator, node: int, ts: np.ndarray) -> np.ndarray:
    """P(tau > t) of the discrete chain started at the given node.

    Evaluates exp(-t H) 1 at the node through the full spectral
    decomposition, which is exact for the discrete semigroup.
    """
    from scipy.linalg import eigh

    H = op.matrix()
    vals, vecs = eigh(H)
    weights = vecs[node, :] * (vecs.sum(axis=0))
    ts = np.asarray(ts, dtype=float)
    return np.exp(-np.outer(ts, vals)) @ weights


def _write_table(fh, header: list[str], columns) -> None:
    """Write a table as csv.writer would: comma-joined fields, CRLF line ends,
    no quoting (no header name, label or number needs any). Each column is
    converted once: labels as they are, numbers by repr, which reads back
    exactly and runs faster than str. Rows are streamed, so the whole text is
    never held at once."""
    cells = [map(str if col.dtype.kind == "U" else repr, col.tolist()) for col in map(np.asarray, columns)]
    fh.write(",".join(header) + "\r\n")
    fh.writelines(row + "\r\n" for row in map(",".join, zip(*cells)))


def export_eigenpairs_csv(sol: EigenSolution, op: KilledOperator, path) -> None:
    """CSV of node index, coordinates, phi_1, phi_2; header carries the run facts."""
    facts = (
        f"# lambda1={float(sol.lambdas[0])!r} lambda2={float(sol.lambdas[1])!r} "
        f"h={sol.h!r} alpha={sol.alpha!r}\n"
    )
    header = ["node", *(f"x{k+1}" for k in range(op.d)), "phi1", "phi2"]
    columns = [np.arange(op.n), *op.centers.T, sol.phis[:, 0], sol.phis[:, 1]]
    with open(path, "w", newline="") as fh:
        fh.write(facts)
        _write_table(fh, header, columns)
