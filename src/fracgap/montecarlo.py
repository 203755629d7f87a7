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

Every path owns an independent random stream keyed by (seed, path index):
the PCG64 stream of default_rng(SeedSequence(seed, spawn_key=(index,))). It
draws only uniforms from it, k per step, so its exit time is a function of
(config, seed, path index) alone: bit for bit the same however paths are
scheduled, blocked or chunked. Paths run through a window of _BLOCK
generator slots in lockstep rounds of _CHUNK steps; a slot whose path has
left takes the next unstarted path, its generator re-seeded from states
that SeedSequence's hash yields for a whole window of path indices at once.
So a round is nearly always full, and the values for a given seed are
those of walking each path alone. One walk allocates the window's uniforms,
transform workspace and trajectories once and reuses them every round
(`_increments_into` writes through `out=`), so rounds allocate no array of
the window's size; the values are those of the plain transform
`increments_from_uniforms`, bit for bit. With workers > 1 the paths are split into
contiguous ranges of whole windows, walked at once in forked processes
(`parallel.fork_map`), and the same argument makes the split invisible in
every value. `_walk_workers` says how many processes pay off for a path count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, contains
from .parallel import fork_map, usable_cores

__all__ = [
    "StableSamplerConfig",
    "ExitEstimate",
    "PathBudgetError",
    "increments_from_uniforms",
    "sample_stable_increment",
    "estimate_exit",
    "survival_log_slope",
]

MAX_STEPS = 10**6
# generator slots walked together, and steps per round; exit times do not depend on either
_BLOCK = 128
_CHUNK = 128
# windows each worker process walks at least. On a 2-core x86 host, 8 windows of
# the cheapest default walk (1D, alpha = 1, delta = 1e-3) take ~45 ms, and each
# forked child costs the caller ~5 ms before it starts its own range, so with
# p processes (p - 1) forks stay well below the (p - 1) / p of the walk they save
_MIN_WINDOWS_PER_WORKER = 8
# numpy.random.SeedSequence's pool size and hash constants, and PCG64's multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
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
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"time step delta must be positive and finite, got {self.delta}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.paths < 1000:
            raise ValueError("need at least 1000 paths")
        if self.paths >= 2**32:
            raise ValueError("paths must be below 2^32, so that each path index is one 32-bit spawn word")

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
    increments_drawn: int
    useful_ratio: float


def _workspace(cfg: StableSamplerConfig, n: int) -> np.ndarray:
    """Scratch rows for _increments_into on n increments: the k uniforms and three more."""
    return np.empty((cfg.uniforms_per_increment + 3, n))


def _log_sin_into(x: np.ndarray, t: np.ndarray) -> None:
    """Overwrite x in (0, pi) with log sin x from tan(x/2), avoiding the scalar libm sin; t is scratch."""
    x *= 0.5
    np.tan(x, out=x)
    np.multiply(x, x, out=t)
    np.log1p(t, out=t)
    x *= 2.0
    np.log(x, out=x)
    x -= t


def _neg_log1p_neg(x: np.ndarray) -> None:
    """Overwrite a uniform x in (0, 1) with the exponential variate -log1p(-x)."""
    np.negative(x, out=x)
    np.log1p(x, out=x)
    np.negative(x, out=x)


def _increments_into(cfg: StableSamplerConfig, dt: float, u: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    """Write the increments of uniforms u, shape (n, k), into out, shape (n, d).

    work is a _workspace(cfg, n) of float rows, overwritten; nothing else is
    allocated beyond views, so a caller that keeps work and out walks in
    place. Every operation is the ufunc the textbook expression would run, in
    the same order, so the values do not depend on whether work is reused.
    """
    k = cfg.uniforms_per_increment
    # 0 would give sin(0)/0 or a zero exponential; u + 2^-54 would round
    # 1 - 2^-53 up to 1, so the floor keeps every uniform inside (0, 1)
    np.maximum(u.T, 2.0**-54, out=work[:k])
    alpha = cfg.alpha
    scale = dt ** (1.0 / alpha)
    # powers are in-place ** so that numpy takes the scalar-exponent paths (a square root for 0.5)
    # of the `array ** exponent` expressions they replace
    if cfg.d == 1:
        v, x = work[0], out[:, 0]
        v -= 0.5
        v *= np.pi
        if alpha == 1.0:
            np.tan(v, out=x)
        else:
            # sin(alpha v) / cos(v)^(1/alpha) * (cos((1 - alpha) v) / w)^((1 - alpha) / alpha)
            w, t = work[1:3]
            _neg_log1p_neg(w)
            np.multiply(v, alpha, out=x)
            np.sin(x, out=x)
            np.cos(v, out=t)
            t **= 1.0 / alpha
            x /= t
            v *= 1.0 - alpha
            np.cos(v, out=v)
            v /= w
            v **= (1.0 - alpha) / alpha
            x *= v
        x *= scale
        return
    rho = alpha / 2.0
    theta, e1, e2, c = work[:k]
    log_s, t, scratch = work[k:]
    theta *= np.pi
    # log S = (rho log sin(rho theta) + (1 - rho) log sin((1 - rho) theta) - log sin theta - (1 - rho) log E1) / rho
    np.multiply(theta, rho, out=log_s)
    _log_sin_into(log_s, scratch)
    log_s *= rho
    if rho == 1.0 - rho:
        log_s += log_s
    else:
        np.multiply(theta, 1.0 - rho, out=t)
        _log_sin_into(t, scratch)
        t *= 1.0 - rho
        log_s += t
    _log_sin_into(theta, scratch)
    log_s -= theta
    _neg_log1p_neg(e1)
    np.log(e1, out=e1)
    e1 *= 1.0 - rho
    log_s -= e1
    log_s /= rho
    # radius 2 dt^(1/alpha) sqrt(S E2), turned by the Cauchy variate c as ((1 - c^2), 2c) / (1 + c^2)
    _neg_log1p_neg(e2)
    np.log(e2, out=e2)
    log_s += e2
    log_s *= 0.5
    radius = np.exp(log_s, out=log_s)
    radius *= 2.0 * scale
    c -= 0.5
    c *= np.pi
    np.tan(c, out=c)
    np.multiply(c, c, out=scratch)
    np.add(scratch, 1.0, out=t)
    radius /= t
    np.subtract(1.0, scratch, out=t)
    np.multiply(radius, t, out=out[:, 0])
    c *= 2.0
    np.multiply(radius, c, out=out[:, 1])


def increments_from_uniforms(cfg: StableSamplerConfig, dt: float, u: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (n, k) in [0, 1) to increments over dt, shape (n, d).

    k is cfg.uniforms_per_increment; each row gives one increment whose
    characteristic function is exp(-dt |z|^alpha).

    1D: Chambers-Mallows-Stuck. 2D: Brownian motion with variance 2t per axis
    run at dt^(2/alpha) S, S one-sided (alpha/2)-stable by Kanter's formula,
    in polar form: radius 2 dt^(1/alpha) sqrt(S E') with E' exponential, and
    the direction from a Cauchy variate c as ((1 - c^2), 2c) / (1 + c^2).
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"time step dt must be positive and finite, got {dt}")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != cfg.uniforms_per_increment:
        raise ValueError(f"need uniforms of shape (n, {cfg.uniforms_per_increment}), got {u.shape}")
    out = np.empty((len(u), cfg.d))
    _increments_into(cfg, dt, u, _workspace(cfg, len(u)), out)
    return out


def sample_stable_increment(
    cfg: StableSamplerConfig, dt: float, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Increments of the process over time dt; shape (size, d), or (d,) if size is None.

    The characteristic function is exp(-dt |z|^alpha) exactly.
    """
    m = 1 if size is None else int(size)
    out = increments_from_uniforms(cfg, dt, rng.random((m, cfg.uniforms_per_increment)))
    return out[0] if size is None else out


def _hash_consts(init: int, mult: int):
    """SeedSequence's running hash constant: a hash step xors with it, then multiplies by its next value."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, consts):
    """One step of SeedSequence's 32-bit hash, on an int or a uint64 array of 32-bit words."""
    x, m = next(consts)
    value = ((value ^ x) * m) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(SeedSequence(seed, spawn_key=(i,))) for first <= i < first + count.

    SeedSequence hashes the seed's 32-bit words, padded with zeros to its
    pool of 4, then the spawn word i. Everything before the spawn word is
    the same for every path; the rest runs over all indices at once in
    uint64 arrays masked to 32 bits. PCG64 then seeds its 128-bit state from
    the 8 words the pool generates, in Python ints.
    """
    seed = int(seed)
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, consts) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for w in [*words[_POOL:], np.arange(first, first + count, dtype=np.uint64)]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL], consts) for i in range(8)]
    # little-endian pairs of words -> the 4 uint64 of generate_state(4, np.uint64)
    hi_s, lo_s, hi_i, lo_i = ((out[2 * j] | (out[2 * j + 1] << 32)).tolist() for j in range(4))
    states = []
    for a, b, c, e in zip(hi_s, lo_s, hi_i, lo_i):
        inc = (((c << 64) | e) << 1 | 1) & _MASK128
        states.append((((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _walk(cfg: StableSamplerConfig, domain: Domain, x0: np.ndarray, exit_steps: np.ndarray, first: int = 0) -> int:
    """Walk paths first, first + 1, ... through a window of _BLOCK slots in lockstep rounds of _CHUNK steps.

    When a path leaves, its slot takes the next unstarted path, re-seeded in
    place. Fills exit_steps[i] with the step at which path first + i is first
    outside and returns the number of increments drawn. Every path's rounds
    start at its own step 0 and positions are summed one step at a time, so
    neither the window, the round length nor the schedule changes a bit.
    The uniforms, the transform's workspace and the trajectories live in
    buffers allocated once for the window; each round works in leading views
    of them, and only copies outlive it.
    """
    paths = len(exit_steps)
    gens = [np.random.Generator(np.random.PCG64(0)) for _ in range(min(_BLOCK, paths))]
    k, d = cfg.uniforms_per_increment, cfg.d
    window = len(gens) * _CHUNK
    uniforms, work, trajs = np.empty(window * k), _workspace(cfg, window), np.empty(window * d)
    queue: list[tuple[int, int]] = []
    started = 0

    def start(gen: np.random.Generator) -> int:
        nonlocal queue, started
        if not queue:
            queue = _seed_states(cfg.seed, first + started, min(_BLOCK, paths - started))[::-1]
        state, inc = queue.pop()
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        started += 1
        return started - 1

    path = np.array([start(gen) for gen in gens])
    done = np.zeros(len(gens), dtype=np.int64)
    pos = np.repeat(x0[None, :], len(gens), axis=0)
    drawn = 0
    while gens:
        c = min(_CHUNK, MAX_STEPS - int(done.max()))
        if c <= 0:
            raise PathBudgetError(f"path {first + int(path[np.argmax(done)])} exceeded {MAX_STEPS} steps")
        m = len(gens) * c
        u = uniforms[: m * k].reshape(len(gens), c, k)
        for gen, row in zip(gens, u):
            gen.random(out=row)
        traj = trajs[: m * d].reshape(len(gens), c, d)
        _increments_into(cfg, cfg.delta, u.reshape(m, k), work[:, :m], traj.reshape(m, d))
        traj[:, 0] += pos
        np.cumsum(traj, axis=1, out=traj)
        outside = ~contains(domain, traj.reshape(m, d)).reshape(len(gens), c)
        left = outside.any(axis=1)
        exit_steps[path[left]] = done[left] + 1 + np.argmax(outside[left], axis=1)
        drawn += m
        pos = traj[:, -1].copy()
        done += c
        # each slot whose path left takes the next path, while any is unstarted
        refill = np.flatnonzero(left)[: paths - started]
        path[refill] = [start(gens[row]) for row in refill]
        done[refill] = 0
        pos[refill] = x0
        keep = ~left
        keep[refill] = True
        gens = [gen for gen, kept in zip(gens, keep) if kept]
        path, done, pos = path[keep], done[keep], pos[keep]
    return drawn


def _walk_part(
    cfg: StableSamplerConfig, domain: Domain, x0: np.ndarray, first: int, count: int
) -> tuple[np.ndarray, int]:
    """Exit steps of paths first, ..., first + count - 1 and the increments drawn for them."""
    exit_steps = np.empty(count, dtype=np.int64)
    return exit_steps, _walk(cfg, domain, x0, exit_steps, first)


def _walk_workers(paths: int) -> int:
    """Processes worth walking `paths` paths on: the usable cores, each with _MIN_WINDOWS_PER_WORKER windows or more."""
    return max(1, min(usable_cores(), -(-paths // _BLOCK) // _MIN_WINDOWS_PER_WORKER))


def estimate_exit(
    cfg: StableSamplerConfig, domain: Domain, x0, ts: np.ndarray | None = None, workers: int = 1
) -> ExitEstimate:
    """Walk cfg.paths independent paths from x0 and estimate the exit time.

    The survival table P(tau >= t) is evaluated on ts; by default ts spans
    [0, ~99.9th percentile of the sampled exit times] on an even grid.
    The paths are split into up to `workers` contiguous ranges of whole
    windows, walked at once in this process and in forked children; every
    value is the same for any worker count.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (cfg.d,):
        raise ValueError(f"starting point needs {cfg.d} coordinates, got {x0.size}")
    if not contains(domain, x0[None, :])[0]:
        raise ValueError("starting point must lie inside the domain")
    windows = -(-cfg.paths // _BLOCK)
    parts = max(1, min(workers, windows))
    cuts = [min(cfg.paths, _BLOCK * (windows * w // parts)) for w in range(parts + 1)]
    walked = fork_map(_walk_part, [(cfg, domain, x0, a, b - a) for a, b in zip(cuts, cuts[1:])], workers)
    exit_steps = np.concatenate([steps for steps, _ in walked])
    drawn = sum(n for _, n in walked)
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
