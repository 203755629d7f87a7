"""Direct simulation of the isotropic stable process for exit-time cross-checks.

Increments over a step dt are exact in distribution: in 1D by the
Chambers-Mallows-Stuck transform for the symmetric stable law, in 2D by
running a Brownian displacement at a one-sided stable subordinator time, so
the characteristic function is exp(-dt |z|^alpha) in both cases. Each
increment is a fixed transform of k uniforms (k = 1 in 1D at alpha = 1, 2
for other 1D alphas, 4 in 2D). Paths are
walked on the time lattice dt, so excursions that leave and re-enter between
checks are missed; the resulting bias on exit times is upward and shrinks
with dt.

Every path owns an independent random stream keyed by (seed, path index)
and draws only uniforms from it, k per step, so its exit time is a function
of (config, seed, path index) alone: bit for bit the same however paths are
scheduled, blocked or chunked.
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
    "increments_from_uniforms",
    "sample_stable_increment",
    "estimate_exit",
    "survival_comparison",
    "survival_log_slope",
]

MAX_STEPS = 10**6
# paths walked together, and steps per round; exit times do not depend on either
_BLOCK = 128
_CHUNK = 128
# survival probabilities the log-slope fit uses: resolvable, past the start-up transient
SLOPE_WINDOW = (0.02, 0.5)


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

    @property
    def uniforms_per_increment(self) -> int:
        if self.d == 2:
            return 4
        return 1 if self.alpha == 1.0 else 2


@dataclass
class ExitEstimate:
    """Sample mean of the exit time with a 95% CI and the survival table.

    increments_drawn counts every increment sampled, including those past a
    path's exit in its last round; useful_ratio is the share that was walked.
    """

    mean_exit_time: float
    ci_halfwidth: float
    ts: np.ndarray
    survival: np.ndarray
    survival_ci: np.ndarray
    paths: int
    increments_drawn: int
    useful_ratio: float


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))


def _log_sin(x: np.ndarray) -> np.ndarray:
    """log sin x on (0, pi) from t = tan(x/2), avoiding the scalar libm sin."""
    t = np.tan(0.5 * x)
    return np.log(2.0 * t) - np.log1p(t * t)


def increments_from_uniforms(cfg: StableSamplerConfig, dt: float, u: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (n, k) in [0, 1) to increments over dt, shape (n, d).

    k is cfg.uniforms_per_increment; each row gives one increment whose
    characteristic function is exp(-dt |z|^alpha).

    1D: Chambers-Mallows-Stuck. 2D: Brownian motion with variance 2t per axis
    run at dt^(2/alpha) S, S one-sided (alpha/2)-stable by Kanter's formula,
    in polar form: radius 2 dt^(1/alpha) sqrt(S E') with E' exponential, and
    the direction from a Cauchy variate c as ((1 - c^2), 2c) / (1 + c^2).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != cfg.uniforms_per_increment:
        raise ValueError(f"need uniforms of shape (n, {cfg.uniforms_per_increment}), got {u.shape}")
    # 0 would give sin(0)/0 or a zero exponential; u + 2^-54 would round
    # 1 - 2^-53 up to 1, so the floor keeps every uniform inside (0, 1)
    u = np.maximum(u.T, 2.0**-54, order="C")
    alpha = cfg.alpha
    scale = dt ** (1.0 / alpha)
    if cfg.d == 1:
        v = np.pi * (u[0] - 0.5)
        if alpha == 1.0:
            x = np.tan(v)
        else:
            w = -np.log1p(-u[1])
            x = np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha) * (np.cos((1.0 - alpha) * v) / w) ** (
                (1.0 - alpha) / alpha
            )
        return (scale * x)[:, None]
    rho = alpha / 2.0
    theta = np.pi * u[0]
    log_s = (
        rho * _log_sin(rho * theta)
        + (1.0 - rho) * _log_sin((1.0 - rho) * theta)
        - _log_sin(theta)
        - (1.0 - rho) * np.log(-np.log1p(-u[1]))
    ) / rho
    radius = 2.0 * scale * np.exp(0.5 * (log_s + np.log(-np.log1p(-u[2]))))
    c = np.tan(np.pi * (u[3] - 0.5))
    c2 = c * c
    radius /= 1.0 + c2
    return np.stack([radius * (1.0 - c2), radius * (2.0 * c)], axis=-1)


def sample_stable_increment(
    cfg: StableSamplerConfig, dt: float, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Increments of the process over time dt; shape (size, d), or (d,) if size is None.

    The characteristic function is exp(-dt |z|^alpha) exactly.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = 1 if size is None else int(size)
    out = increments_from_uniforms(cfg, dt, rng.random((m, cfg.uniforms_per_increment)))
    return out[0] if size is None else out


def _walk_block(
    cfg: StableSamplerConfig, domain: Domain, x0: np.ndarray, first: int, exit_steps: np.ndarray
) -> int:
    """Walk paths first, first + 1, ... in lockstep rounds of _CHUNK steps.

    Fills exit_steps with the step at which each path is first outside and
    returns the number of increments drawn. Positions are summed one step
    at a time, so neither the round length nor the block changes a bit.
    """
    rngs = [_path_rng(cfg.seed, first + i) for i in range(len(exit_steps))]
    live = np.arange(len(exit_steps))
    pos = np.repeat(x0[None, :], len(live), axis=0)
    done = drawn = 0
    while live.size:
        c = min(_CHUNK, MAX_STEPS - done)
        if c <= 0:
            raise PathBudgetError(f"path {first + int(live[0])} exceeded {MAX_STEPS} steps")
        u = np.empty((live.size, c, cfg.uniforms_per_increment))
        for row, i in enumerate(live):
            rngs[i].random(out=u[row])
        traj = increments_from_uniforms(cfg, cfg.delta, u.reshape(-1, u.shape[2])).reshape(live.size, c, cfg.d)
        traj[:, 0] += pos
        np.cumsum(traj, axis=1, out=traj)
        outside = ~contains(domain, traj.reshape(-1, cfg.d)).reshape(live.size, c)
        left = outside.any(axis=1)
        exit_steps[live[left]] = done + 1 + np.argmax(outside[left], axis=1)
        pos = traj[~left, -1]
        live = live[~left]
        done += c
        drawn += u.shape[0] * c
    return drawn


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
    exit_steps = np.empty(cfg.paths, dtype=np.int64)
    drawn = 0
    for first in range(0, cfg.paths, _BLOCK):
        drawn += _walk_block(cfg, domain, x0, first, exit_steps[first : first + _BLOCK])
    taus = exit_steps * cfg.delta
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
        increments_drawn=drawn,
        useful_ratio=int(exit_steps.sum()) / drawn,
    )


def survival_log_slope(est: ExitEstimate) -> float:
    """Least-squares slope of log P(tau >= t) over SLOPE_WINDOW, where P is resolvable.

    For large t the slope approaches -lambda_1 of the domain.
    """
    keep = (est.survival >= SLOPE_WINDOW[0]) & (est.survival <= SLOPE_WINDOW[1])
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
