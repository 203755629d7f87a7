"""Direct simulation of the isotropic stable process for exit-time cross-checks.

Increments over a step dt are exact in distribution: in 1D by the
Chambers-Mallows-Stuck transform for the symmetric stable law, in 2D by
running a Brownian displacement at a one-sided stable subordinator time, so
the characteristic function is exp(-dt |z|^alpha) in both cases. Paths are
walked on the time lattice dt, so excursions that leave and re-enter between
checks are missed; the resulting bias on exit times is upward and shrinks
with dt.

Every path owns an independent random stream keyed by (seed, path index),
which makes all estimates reproducible bit for bit regardless of how paths
are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Domain, contains

__all__ = [
    "StableSamplerConfig",
    "ExitEstimate",
    "PathBudgetError",
    "sample_stable_increment",
    "estimate_exit",
    "survival_comparison",
    "survival_log_slope",
]

MAX_STEPS = 10**6
_FIRST_CHUNK = 1024
_MAX_CHUNK = 8192


class PathBudgetError(RuntimeError):
    """A path exceeded the step budget without leaving the domain."""


@dataclass(frozen=True)
class StableSamplerConfig:
    alpha: float
    d: int
    delta: float
    seed: int
    paths: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.d not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.delta <= 0.0:
            raise ValueError("time step must be positive")
        if self.paths < 1000:
            raise ValueError("need at least 1000 paths")


@dataclass
class ExitEstimate:
    """Sample mean of the exit time with a 95% CI and the survival table."""

    mean_exit_time: float
    ci_halfwidth: float
    ts: np.ndarray
    survival: np.ndarray
    survival_ci: np.ndarray
    paths: int


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))


def _symmetric_stable_1d(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.exponential(1.0, size)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def _one_sided_stable(rho: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive stable variable with Laplace transform exp(-u^rho), 0 < rho < 1."""
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    a = (np.sin(rho * theta) ** rho * np.sin((1.0 - rho) * theta) ** (1.0 - rho) / np.sin(theta)) ** (
        1.0 / (1.0 - rho)
    )
    return (a / w) ** ((1.0 - rho) / rho)


def sample_stable_increment(
    cfg: StableSamplerConfig, dt: float, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Increments of the process over time dt; shape (size, d), or (d,) if size is None.

    The characteristic function is exp(-dt |z|^alpha) exactly.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = 1 if size is None else int(size)
    if cfg.d == 1:
        out = dt ** (1.0 / cfg.alpha) * _symmetric_stable_1d(cfg.alpha, rng, m)
        out = out[:, None]
    else:
        # Brownian motion with variance 2t per axis, run at an (alpha/2)-stable time
        s = dt ** (2.0 / cfg.alpha) * _one_sided_stable(cfg.alpha / 2.0, rng, m)
        out = np.sqrt(2.0 * s)[:, None] * rng.standard_normal((m, 2))
    return out[0] if size is None else out


def _walk_exit_time(cfg: StableSamplerConfig, domain: Domain, x0: np.ndarray, path: int) -> float:
    rng = _path_rng(cfg.seed, path)
    pos = x0.copy()
    steps_done = 0
    chunk = _FIRST_CHUNK
    while steps_done < MAX_STEPS:
        inc = sample_stable_increment(cfg, cfg.delta, rng, size=chunk)
        traj = pos + np.cumsum(inc, axis=0)
        outside = ~contains(domain, traj)
        if outside.any():
            k = int(np.argmax(outside))
            return (steps_done + k + 1) * cfg.delta
        pos = traj[-1]
        steps_done += chunk
        chunk = min(2 * chunk, _MAX_CHUNK)
    raise PathBudgetError(f"path {path} exceeded {MAX_STEPS} steps")


def estimate_exit(
    cfg: StableSamplerConfig, domain: Domain, x0, ts: np.ndarray | None = None
) -> ExitEstimate:
    """Walk cfg.paths independent paths from x0 and estimate the exit time.

    The survival table P(tau >= t) is evaluated on ts; by default ts spans
    [0, ~99.9th percentile of the sampled exit times] on an even grid.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (cfg.d,):
        raise ValueError(f"starting point needs {cfg.d} coordinates, got {x0.size}")
    if not contains(domain, x0[None, :])[0]:
        raise ValueError("starting point must lie inside the domain")
    taus = np.empty(cfg.paths)
    for pth in range(cfg.paths):
        taus[pth] = _walk_exit_time(cfg, domain, x0, pth)
    mean = float(taus.mean())
    ci = 1.96 * float(taus.std(ddof=1)) / math.sqrt(cfg.paths)
    if ts is None:
        ts = np.linspace(0.0, float(np.quantile(taus, 0.999)), 81)
    ts = np.asarray(ts, dtype=float)
    surv = np.array([(taus >= t).mean() for t in ts])
    surv_ci = 1.96 * np.sqrt(surv * (1.0 - surv) / cfg.paths)
    return ExitEstimate(
        mean_exit_time=mean,
        ci_halfwidth=ci,
        ts=ts,
        survival=surv,
        survival_ci=surv_ci,
        paths=cfg.paths,
    )


def survival_log_slope(est: ExitEstimate, p_window: tuple[float, float] = (0.02, 0.5)) -> float:
    """Least-squares slope of log P(tau >= t) over the window where P is resolvable.

    For large t the slope approaches -lambda_1 of the domain.
    """
    keep = (est.survival >= p_window[0]) & (est.survival <= p_window[1])
    if keep.sum() < 3:
        raise ValueError("survival table has too few usable points for a slope fit")
    slope, _ = np.polyfit(est.ts[keep], np.log(est.survival[keep]), 1)
    return float(slope)


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
