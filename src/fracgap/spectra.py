"""Eigenpairs of the discrete killed generator and the machinery built on them.

Covers: the low spectrum with a fixed deterministic sign convention (dense
LAPACK `eigh` on small grids, on the odd and even blocks of H under a lattice
mirror, the even block being all of H without one: numpy's `eigh` on blocks
of at most 32 rows, scipy's subset `eigh` on larger ones; above a measured
size crossover thick-restart Lanczos in numpy on the matrix-free operator, on
its FFT apply in 2D and on H^-1 by circulant-PCG solves in 1D), the spectral
gap, and the half-maximum level set of the ground state with its exit-time
sandwich.
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
    "level_set_report",
    "export_eigenpairs_csv",
]

# Smallest n at which eigenpairs leaves dense eigh for Lanczos: on op.apply in
# 2D, on H^-1 by circulant-PCG inner solves in 1D. Measured when ARPACK (scipy's
# eigsh) ran there, for k = 6 on 2 cores (seconds, eigh / ARPACK); the Lanczos
# here took fewer applies than ARPACK on every case measured since:
# 2D n = 644: 0.022/0.026, 0.023/0.041, 0.035/0.042 (alpha 0.5, 1, 1.5);
# n = 873: 0.043/0.040, 0.044/0.037, 0.049/0.062; n = 1264: 0.14/0.043,
# 0.15/0.070, 0.17/0.078. 1D: n = 800 0.04/0.06-0.12, n = 1200
# 0.11/0.07-0.10, n = 4000 3.7-4.6/0.24-0.31. Plain Lanczos loses in 1D (the
# spectrum spreads as n^alpha, not n^(alpha/2)); shift-invert loses in 2D
# (4.4-5.2x slower than Lanczos on apply at n = 4003, alpha 0.5-1.7; 4.4x and
# 2.5x at n = 31428, alpha 1 and 1.7). The crossover was measured with eigh
# on all of H, as on a lattice without a mirror; the two half-size blocks of a
# mirror take 6.5 ms against 10.1 ms at n = 400 and 24 ms against 43 ms at
# n = 800 (1D, k = 2).
LANCZOS_MIN_NODES = 1000
# Rows of the Lanczos basis, or 2k + 1 if more. numpy's eigh solves a T of at
# most 25 rows (LAPACK's SMLSIZ) by QR iteration; from 26 rows on it takes
# divide and conquer, whose gemm wakes numpy's OpenBLAS threads, and they then
# spin against scipy's on the next dense solve: with 30 rows the suite's op
# took 0.43-0.47 s against 0.21-0.22 s with 25 (2 BLAS threads, alternated).
# Applies to convergence with m = 20 / 25 / 30 / 40 rows, against ARPACK
# (scipy's eigsh, 20 rows, same start vector and stopping rule), on the disk:
#   n = 4003,  h = 0.028, alpha 1,   k = 6:  167 / 165 / 162 / 159   ARPACK 186
#   n = 7860,  h = 0.02,  alpha 1.7, k = 2:  326 / 289 / 296 / 287   ARPACK 447
#   n = 16033, h = 0.014, alpha 1.7, k = 6:  993 / 745 / 630 / 567   ARPACK 793
# and the suite's nine 2D solves (k = 2, n = 1200-1600): 774 / 765 / 788 / 778,
# ARPACK 1070.
LANCZOS_BASIS = 25
# restarts of a full basis; the disk needs 14 at n = 4003 (alpha 1, k = 6),
# 22 at n = 7860 (alpha 1.7, k = 2) and 72 at n = 16033 (alpha 1.7, k = 6)
LANCZOS_MAX_RESTARTS = 1000
EIG_RESIDUAL_TOL = 1e-8  # bound on max_j ||H phi_j - lambda_j phi_j|| / lambda_j
# eigenvalues of the two mirror blocks this close (relative) form one cluster
MIRROR_CLUSTER_RTOL = 1e-10
# Largest dense block that numpy's full eigh solves; larger ones take scipy's
# subset eigh, so a solve whose blocks are all this small never imports
# scipy.linalg (0.14-0.22 s, ~28 MB). Best of 7 x 200 calls on 1D blocks of H
# at alpha 1, 2 BLAS threads, two runs (us):
#   rows  numpy full  scipy subset, k = 2 / 3 / 6
#   10    14-16       22-24 / 26-32 / 33-40
#   20    43-61       34-44 / 38-52 / 53-63
#   32    87-88       53-62 / 64-80 / 91-104
#   40    145-216     108-126 / 85-137 / 118-119
#   50    210-241     97-105 / 108-129 / 154-177
#   64    288-336     139-145 / 164-166 / 257-299
# Up to 32 rows numpy costs under 0.1 ms and at most 1.7x scipy.
NUMPY_EIGH_MAX_ROWS = 32


@dataclass
class EigenSolution:
    """Ordered low eigenvalues with grid-normalized eigenvectors.

    Normalization is sum_i phi^2 h^d = 1. Signs are fixed (first nonzero
    coordinate positive) and phi_1 is strictly positive, so repeated runs
    are bit-identical. On the dense path, eigenvalues of the odd and even
    mirror blocks within MIRROR_CLUSTER_RTOL of each other form a cluster
    that lists the odd ones first, which may put a larger value first by up
    to that much; a lattice without a mirror has no odd block.
    """

    lambdas: np.ndarray
    phis: np.ndarray
    h: float
    alpha: float
    d: int


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


def _mirror(op: KilledOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mirror pairs (p, q) and fixed cells f of a lattice reflection
    i_a -> min_a + max_a - i_a along one axis that maps the inside cells onto
    themselves; the trivial split (no pairs, every cell fixed) if no axis has
    one that pairs some cells and keeps diag symmetric to within a hundredth
    of EIG_RESIDUAL_TOL * min(kill).

    W is exactly invariant under the reflection, as w_ij depends only on
    |index_i - index_j|. The blocks take diag averaged over each pair; since
    lambda >= min(kill), that moves no relative eigen-residual by more than
    half the tolerance over min(kill), 1/200 of the bound that eigenpairs
    checks.
    """
    keys = np.ravel_multi_index(op.index.T, op.table.shape)
    order = np.argsort(keys)
    cells = np.arange(op.n)
    for axis in range(op.d):
        image = op.index.copy()
        image[:, axis] = image[:, axis].min() + image[:, axis].max() - image[:, axis]
        image_keys = np.ravel_multi_index(image.T, op.table.shape)
        mirror = order[np.minimum(np.searchsorted(keys, image_keys, sorter=order), op.n - 1)]
        if not np.array_equal(keys[mirror], image_keys):
            continue
        if np.abs(op.diag - op.diag[mirror]).max() > 1e-2 * EIG_RESIDUAL_TOL * op.kill.min():
            continue
        p = cells[cells < mirror]
        if len(p):
            return p, mirror[p], cells[cells == mirror]
    return cells[:0], cells[:0], cells


def _lapack_eigh(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, len(a)) smallest eigenpairs of a symmetric matrix by LAPACK:
    numpy's full eigh up to NUMPY_EIGH_MAX_ROWS rows, scipy's subset eigh above."""
    try:
        if len(a) <= NUMPY_EIGH_MAX_ROWS:
            vals, vecs = np.linalg.eigh(a)
            return vals[:k], vecs[:, :k]
        # imported here: a command whose blocks all take the numpy branch never loads it
        from scipy.linalg import eigh

        return eigh(a, subset_by_index=(0, min(k, len(a)) - 1))
    except np.linalg.LinAlgError as exc:  # scipy.linalg raises numpy's class too
        raise SolveError("eigensolver failed to converge; reduce the grid size") from exc


def _dense_eigh(op: KilledOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs by LAPACK on the odd and even blocks of H under
    the lattice mirror (p, q, f) of _mirror; refused above MAX_DENSE_NODES cells.

    H leaves invariant the odd vectors (v, -v, 0) and the even vectors
    (v, v, w) over (p, q, f), so it splits into two blocks,
        odd: H_pp - H_pq,  even: [[H_pp + H_pq, sqrt2 H_pf], [sqrt2 H_fp, H_ff]],
    gathered straight from the offset table. Without a mirror p is empty:
    there is no odd block and the even one is H itself, so the result is
    bitwise _lapack_eigh of H. Eigenvalues of the two blocks within
    MIRROR_CLUSTER_RTOL of each other form one cluster, ordered odd block
    first, so a degenerate pair split across the blocks comes out in the same
    order at any BLAS thread count.
    """
    if op.n > MAX_DENSE_NODES:
        raise ValueError(
            f"k = {k} at n = {op.n}: dense eigh is capped at MAX_DENSE_NODES = {MAX_DENSE_NODES} cells and "
            "the Lanczos basis of (max(LANCZOS_BASIS, 2k + 1) + 1) x n doubles at MAX_DENSE_NODES^2; "
            "choose a smaller k or a coarser h"
        )
    p, q, f = _mirror(op)
    m = len(p)
    # gathered before `even` exists: without a mirror W_ff is all of W, and
    # the gather's index temporaries then peak no higher than matrix()'s
    w_ff = op.weights_between(f, f)
    w_pq = op.weights_between(p, q)
    h_pp = -op.weights_between(p, p)
    np.fill_diagonal(h_pp, (op.diag[p] + op.diag[q]) / 2.0)
    odd = h_pp + w_pq
    even = np.empty((m + len(f), m + len(f)))
    np.subtract(h_pp, w_pq, out=even[:m, :m])
    del h_pp, w_pq
    even[:m, m:] = -np.sqrt(2.0) * op.weights_between(p, f)
    even[m:, :m] = even[:m, m:].T
    np.negative(w_ff, out=even[m:, m:])
    del w_ff
    np.fill_diagonal(even[m:, m:], op.diag[f])
    odd_vals, odd_vecs = _lapack_eigh(odd, k) if m else (np.empty(0), odd)
    even_vals, even_vecs = _lapack_eigh(even, k)
    del odd, even
    vals = np.concatenate([odd_vals, even_vals])
    from_odd = np.arange(len(vals)) < len(odd_vals)
    by_value = np.argsort(vals, kind="stable")
    ranked = vals[by_value]
    cluster = np.concatenate([[0], np.cumsum(np.diff(ranked) > MIRROR_CLUSTER_RTOL * ranked[1:])])
    chosen = by_value[np.lexsort((ranked, ~from_odd[by_value], cluster))][:k]
    vecs = np.zeros((op.n, len(chosen)))
    for j, c in enumerate(chosen):
        if from_odd[c]:
            vecs[p, j] = odd_vecs[:, c] / np.sqrt(2.0)
            vecs[q, j] = -vecs[p, j]
        else:
            u = even_vecs[:, c - len(odd_vals)]
            vecs[p, j] = vecs[q, j] = u[:m] / np.sqrt(2.0)
            vecs[f, j] = u[m:]
    return vals[chosen], vecs


def _basis_size(k: int) -> int:
    """Rows of the Lanczos basis for k pairs; _lanczos caps it at n."""
    return max(LANCZOS_BASIS, 2 * k + 1)


def _combine(coef: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows coef[:, j] @ basis, one gemv each: a gemm over the rows rounds
    differently at different BLAS thread counts."""
    return np.array([c @ basis for c in coef.T])


def _lanczos(op: KilledOperator, k: int, shift_invert: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000): the smallest Ritz pairs of op.apply, or with
    shift_invert the largest theta of H^-1 applied by circulant-preconditioned
    CG, lambda = 1 / theta, each vector then taking one more solve (one step of
    inverse iteration).

    Each new basis row loses its three-term part (alpha_j, and beta_(j-1) or
    the couplings to the kept rows), then is orthogonalized against all the
    others by classical Gram-Schmidt, with a second pass when the first leaves
    less than 1/sqrt(2) of the row's norm (Daniel, Gragg, Kaufman & Stewart,
    Math. Comp. 30, 1976). Every product with the basis is one gemv, so the
    bits do not depend on the BLAS thread count up to the sizes where BLAS
    splits a gemv or a dot product across threads (see the README). A full
    basis of m rows restarts from the Ritz vectors nearest the wanted end plus
    the residual row. The run stops once every wanted Ritz pair has
    |beta s_m| = ||A y - theta y|| <= tol |theta|, tol a hundredth of
    EIG_RESIDUAL_TOL, the bound eigenpairs checks on H. With shift_invert that
    rule bounds the pairs of H^-1, and the residual of H after the inverse
    iteration step sits near 1.5-1.7 eps max(diag) / lambda_1, a float64 floor
    that grows as h^-alpha and that neither CG_RTOL nor tol sets (8.0e-9 on
    the interval at h = 5e-5, alpha 1.7, n = 40000; 3.5e-3 without that step,
    whose input H magnifies along its high modes).
    """
    n = op.n
    m = min(_basis_size(k), n)
    apply = (lambda b: solve(op, b)) if shift_invert else op.apply
    tol = EIG_RESIDUAL_TOL / 100
    # a fixed start vector without symmetry: ones is orthogonal to every
    # antisymmetric eigenvector of a symmetric domain
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    basis = np.empty((m + 1, n))
    basis[0] = v0 / np.linalg.norm(v0)
    T = np.zeros((m, m))  # the projection of the operator on basis[:m]
    kept = 0
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        for j in range(kept, m):
            w = apply(basis[j])
            T[j, j] = basis[j] @ w
            # the three-term part first: alpha_j, and beta_(j-1) or the kept rows' couplings
            lo = j - 1 if j > kept else 0
            w -= T[lo : j + 1, j] @ basis[lo : j + 1]
            for _ in range(2):
                coef = basis[: j + 1] @ w
                w -= coef @ basis[: j + 1]
                T[j, j] += coef[j]
                beta = np.linalg.norm(w)
                if beta >= np.linalg.norm(coef):  # the pass kept over 1/sqrt(2) of the norm
                    break
            if not beta > 0.0:
                raise SolveError("Lanczos basis broke down: the start vector spans an invariant subspace")
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
            np.divide(w, beta, out=basis[j + 1])
            size = j + 1
            # a shift-invert step costs a CG solve and its Ritz values converge in a few
            # steps, so it tests after every step while eigh of T costs far less than a solve
            if size < k or not (size == m or (shift_invert and size <= LANCZOS_BASIS)):
                continue
            theta, s = np.linalg.eigh(T[:size, :size])
            # the Ritz pairs nearest the wanted end first
            near = np.arange(size)[::-1] if shift_invert else np.arange(size)
            wanted = near[:k]
            if (np.abs(beta * s[-1, wanted]) <= tol * np.abs(theta[wanted])).all():
                vals, vecs = theta[wanted], _combine(s[:, wanted], basis[:size])
                if shift_invert:  # one step of inverse iteration
                    vals, vecs = 1.0 / vals, np.array([solve(op, v) for v in vecs])
                    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
                return vals, vecs.T
        kept = (m + k) // 2
        keep = near[:kept]
        basis[:kept] = _combine(s[:, keep], basis[:m])
        basis[kept] = basis[m]
        T[:] = 0.0
        T[:kept, :kept] = np.diag(theta[keep])
        T[:kept, kept] = T[kept, :kept] = beta * s[-1, keep]
    raise SolveError(f"Lanczos eigensolver did not converge in {LANCZOS_MAX_RESTARTS} restarts")


def eigenpairs(op: KilledOperator, k: int) -> EigenSolution:
    """k smallest eigenvalues of H with deterministically signed eigenvectors.

    Dense eigh on the mirror blocks of H below LANCZOS_MIN_NODES inside
    cells (or when k is within 1 of n); from there on _lanczos on the
    matrix-free operator, on apply in 2D and on H^-1 in 1D, while its
    (m + 1) x n basis, m = max(LANCZOS_BASIS, 2k + 1), fits in
    MAX_DENSE_NODES^2 doubles, the dense matrix's footprint; past that, dense
    eigh, which refuses more than MAX_DENSE_NODES cells with ValueError.
    Every pair must satisfy ||H phi - lambda phi|| <= EIG_RESIDUAL_TOL * lambda.
    """
    if k < 2:
        raise ValueError("need at least two eigenvalues for a gap")
    if k > op.n:
        raise ValueError(f"k = {k} exceeds the number of nodes {op.n}")
    basis_fits = (_basis_size(k) + 1) * op.n <= MAX_DENSE_NODES**2
    if op.n < LANCZOS_MIN_NODES or k >= op.n - 1 or not basis_fits:
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


def _write_table(path, header: list[str], columns, facts: str = "") -> None:
    """Write a CSV file as csv.writer would, after an optional facts line:
    comma-joined fields, CRLF line ends, no quoting (no header name, label or
    number needs any). Each column is converted once: labels as they are,
    numbers by repr, which reads back exactly and runs faster than str. Rows
    are streamed, so the whole text is never held at once."""
    cells = [map(str if col.dtype.kind == "U" else repr, col.tolist()) for col in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(facts + ",".join(header) + "\r\n")
        fh.writelines(row + "\r\n" for row in map(",".join, zip(*cells)))


def export_eigenpairs_csv(sol: EigenSolution, op: KilledOperator, path) -> None:
    """CSV of node index, coordinates, phi_1, phi_2; header carries the run facts."""
    facts = (
        f"# lambda1={float(sol.lambdas[0])!r} lambda2={float(sol.lambdas[1])!r} "
        f"h={sol.h!r} alpha={sol.alpha!r}\n"
    )
    header = ["node", *(f"x{k+1}" for k in range(op.d)), "phi1", "phi2"]
    columns = [np.arange(op.n), *op.centers.T, sol.phis[:, 0], sol.phis[:, 1]]
    _write_table(path, header, columns, facts)
