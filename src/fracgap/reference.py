"""The paper's side identities, evaluated on the discrete operator.

The commands verify the gap bound through the variational formula and the
sup-norm estimate of phi_1; these functions check the identities around
that proof and are called by the tests alone: the weighted Dirichlet form
of any test function as an O(n^2) pair sum (the oracle of the two-component
experiment's far-field energy), the Green/harmonic (Dynkin)
split over a node subset, the survival function of the killed semigroup,
the antisymmetrized double-sum normalization, the Rayleigh quotient of the
inscribed-ball exit profile, the published gap constants next to the
pipeline's, and the isoperimetric survival comparison by Monte Carlo.
No command imports this module.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .bounds import _PUBLISHED, GridTooCoarseError, _canonical_pipeline_value
from .constants import StableParams, ball_exit_constant, lambda1_upper_ball
from .geometry import Domain
from .montecarlo import StableSamplerConfig, estimate_exit
from .operator import GATHER_BLOCK, KilledOperator, _gather, _solve_on, _subset_indices
from .spectra import EigenSolution, _dense_eigh

__all__ = [
    "variational_energy",
    "dynkin_decomposition",
    "survival_profile",
    "orthogonality_identity_check",
    "rayleigh_exit_profile_check",
    "canonical_published_cases",
    "survival_comparison",
]


def _gather_blocks(table: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Yield (slice, W block) over row slices of about GATHER_BLOCK entries:
    table[|rows_i - cols_j|] for the rows in the slice and every column."""
    step = max(1, GATHER_BLOCK // max(1, len(cols)))
    for i in range(0, len(rows), step):
        block = slice(i, i + step)
        yield block, _gather(table, rows[block], cols)


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
    blocks = _gather_blocks(op.table, op.index, op.index)
    rows = np.concatenate([(w * (f[block, None] - f[None, :]) ** 2) @ phi1 for block, w in blocks])
    return 0.5 * hd * float(phi1 @ rows)


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


def survival_profile(op: KilledOperator, node: int, ts: np.ndarray) -> np.ndarray:
    """P(tau > t) of the discrete chain started at the given node.

    Evaluates exp(-t H) 1 at the node through the full spectral
    decomposition by _dense_eigh, which is exact for the discrete semigroup.
    """
    vals, vecs = _dense_eigh(op, op.n)
    weights = vecs[node, :] * (vecs.sum(axis=0))
    ts = np.asarray(ts, dtype=float)
    return np.exp(-np.outer(ts, vals)) @ weights


def orthogonality_identity_check(sol: EigenSolution) -> float:
    """Double sum of (phi_2(x) phi_1(y) - phi_2(y) phi_1(x))^2 h^(2d).

    Equals 2 for any orthonormal pair; this is the normalization that turns
    the kernel-free part of the gap bound into an explicit constant. Expanded,
    the double sum is 2 (|a|^2 |b|^2 - (a.b)^2) for a = phi_2, b = phi_1: O(n).
    """
    a = sol.phis[:, 1]
    b = sol.phis[:, 0]
    return 2.0 * (float(a @ a) * float(b @ b) - float(a @ b) ** 2) * sol.h ** (2 * sol.d)


def rayleigh_exit_profile_check(
    op: KilledOperator, domain: Domain, p: StableParams
) -> tuple[float, float]:
    """Rayleigh quotient of the exact inscribed-ball exit profile extended by zero.

    The quotient <H f, f> / <f, f> is always >= lambda_1, and since H f is
    close to 1 on the ball it converges to the closed-form eigenvalue bound
    as h decreases (in practice from slightly above: the residual of H f - 1
    concentrates positively in the boundary cells). Returns
    (quotient, closed-form rhs).
    """
    r, center = domain.inscribed_radius()
    rho2 = np.sum((op.centers - center) ** 2, axis=1) / r**2
    f = np.where(rho2 < 1.0, np.maximum(1.0 - rho2, 0.0) ** (p.alpha / 2.0), 0.0)
    f = f * r**p.alpha * ball_exit_constant(p)
    if not f.any():
        raise GridTooCoarseError("inscribed ball contains no grid node")
    quotient = float(f @ op.apply(f)) / float(f @ f)
    return quotient, lambda1_upper_ball(p, r)


def canonical_published_cases() -> list[dict]:
    """The three canonical gap lower bounds at alpha = 1, next to the pipeline values.

    pipeline = stated-constant bound evaluated with lambda_1 replaced by the
    inscribed-ball bound at r = 1 and the exact diameter, lambda_1 carrying
    its exponent -d/alpha. The published 2D numbers correspond to exponent
    -1 instead and therefore differ; the mismatch is flagged, never patched.
    """
    cases = []
    for (domain, alpha), (label, published) in _PUBLISHED.items():
        p = StableParams(alpha, domain.d)
        pipeline = _canonical_pipeline_value(domain, p)
        cases.append(
            {
                "label": label,
                "alpha": alpha,
                "d": p.d,
                "lambda1_bound": lambda1_upper_ball(p, 1.0),
                "diam": domain.diameter(),
                "pipeline_stated": pipeline,
                "published_value": published,
                "published_mismatch": not math.isclose(pipeline, published, rel_tol=1e-9),
            }
        )
    return cases


def survival_comparison(
    cfg: StableSamplerConfig,
    domain_a: Domain,
    domain_b: Domain,
    ts,
    x0_a=None,
    x0_b=None,
) -> list[dict]:
    """Check P(tau_A >= t) <= P(tau_B >= t) + 2 * joint CI at each requested t.

    Intended for |A| = |B| with B a ball or interval, started at the
    respective centers; the continuum inequality is the isoperimetric
    exit-time comparison. The two domains use decorrelated seeds.
    """
    ts = np.asarray(ts, dtype=float)
    if x0_a is None:
        _, x0_a = domain_a.inscribed_radius()
    if x0_b is None:
        _, x0_b = domain_b.inscribed_radius()
    est_a = estimate_exit(cfg, domain_a, x0_a, ts=ts)
    est_b = estimate_exit(replace(cfg, seed=cfg.seed + 1), domain_b, x0_b, ts=ts)
    out = []
    for i, t in enumerate(ts):
        joint = math.hypot(float(est_a.survival_ci[i]), float(est_b.survival_ci[i]))
        out.append(
            {
                "t": float(t),
                "survival_a": float(est_a.survival[i]),
                "survival_b": float(est_b.survival[i]),
                "joint_ci": joint,
                "ok": bool(est_a.survival[i] <= est_b.survival[i] + 2.0 * joint),
            }
        )
    return out
