import math
import multiprocessing
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__
from scipy.stats import ks_2samp

import fracgap.montecarlo as mc
from fracgap.geometry import Ball, IntervalUnion, contains, interval
from fracgap.montecarlo import (
    StableSamplerConfig,
    estimate_exit,
    increments_from_uniforms,
    sample_stable_increment,
    survival_log_slope,
)
from fracgap.reference import survival_comparison


def cfg(alpha=1.0, d=1, delta=1e-2, seed=1, paths=2000):
    return StableSamplerConfig(alpha=alpha, d=d, delta=delta, seed=seed, paths=paths)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(alpha=2.0)
    with pytest.raises(ValueError):
        cfg(delta=0.0)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time step delta must be positive and finite"):
            cfg(delta=delta)
    with pytest.raises(ValueError):
        cfg(paths=10)
    with pytest.raises(ValueError):
        cfg(d=3)
    for seed in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            cfg(seed=seed)
    # a path index must stay one 32-bit spawn word; checked before anything is allocated
    assert cfg(paths=2**32 - 1).paths == 2**32 - 1
    with pytest.raises(ValueError, match="below 2\\^32"):
        cfg(paths=2**32)


def test_config_refuses_bool_seeds_and_takes_numpy_integers():
    for seed in (True, False, np.True_):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            cfg(seed=seed)
    assert cfg(seed=np.uint64(2**63 + 5)).seed == 2**63 + 5


def test_characteristic_function_1d():
    rng = np.random.default_rng(101)
    x = sample_stable_increment(cfg(alpha=1.0), 1.0, rng, size=100000)[:, 0]
    assert abs(np.cos(x).mean() - math.exp(-1.0)) <= 0.01


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4, 1.7])
def test_characteristic_function_1d_alphas(alpha):
    rng = np.random.default_rng(202)
    dt = 0.7
    x = sample_stable_increment(cfg(alpha=alpha), dt, rng, size=100000)[:, 0]
    for z in (0.5, 1.0, 2.0):
        target = math.exp(-dt * abs(z) ** alpha)
        assert abs(np.cos(z * x).mean() - target) <= 0.01


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.2, 1.7])
def test_characteristic_function_2d(alpha):
    rng = np.random.default_rng(303)
    x = sample_stable_increment(cfg(alpha=alpha, d=2), 1.0, rng, size=100000)
    for z in (np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([0.0, 1.5])):
        target = math.exp(-np.linalg.norm(z) ** alpha)
        assert abs(np.cos(x @ z).mean() - target) <= 0.01


def test_increment_time_scaling_distribution():
    rng = np.random.default_rng(404)
    c = cfg(alpha=1.3)
    dt = 0.25
    a = sample_stable_increment(c, dt, rng, size=10000)[:, 0]
    b = dt ** (1.0 / c.alpha) * sample_stable_increment(c, 1.0, rng, size=10000)[:, 0]
    stat = ks_2samp(a, b)
    assert stat.pvalue > 0.01


def test_increment_symmetry():
    rng = np.random.default_rng(505)
    n = 100000
    x = sample_stable_increment(cfg(alpha=0.9, d=2), 1.0, rng, size=n)
    signs = np.sign(x[:, 0])
    assert abs(signs.mean()) <= 3.0 / math.sqrt(n)


def test_single_increment_shape():
    rng = np.random.default_rng(1)
    one = sample_stable_increment(cfg(d=2), 0.5, rng)
    assert one.shape == (2,)
    with pytest.raises(ValueError, match=r"shape \(n, 4\)"):
        increments_from_uniforms(cfg(d=2), 0.5, np.full((3, 2), 0.5))


@pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf")])
def test_bad_time_step_is_refused(dt):
    c = cfg(d=2)
    with pytest.raises(ValueError, match=f"time step dt must be positive and finite, got {dt}"):
        increments_from_uniforms(c, dt, np.full((3, 4), 0.5))
    with pytest.raises(ValueError, match=f"time step dt must be positive and finite, got {dt}"):
        sample_stable_increment(c, dt, np.random.default_rng(1), size=3)


class _CornerUniforms:
    """Stands in for a Generator: every row is one corner of [0, 1 - 2^-53]^k."""

    def random(self, shape):
        m, k = shape
        corners = np.array(np.meshgrid(*[[0.0, 1.0 - 2.0**-53]] * k, indexing="ij")).reshape(k, -1).T
        return np.resize(corners, (m, k))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
def test_increments_finite_at_uniform_endpoints(alpha, d):
    # rng.random can return exactly 0; u + 2^-54 would round 1 - 2^-53 up to 1
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x = sample_stable_increment(cfg(alpha=alpha, d=d), 1e-3, _CornerUniforms(), size=16)
    assert x.shape == (16, d)
    assert np.isfinite(x).all()


def _exit_steps(c, domain, x0):
    steps = np.empty(c.paths, dtype=np.int64)
    mc._walk(c, domain, x0, steps)
    return steps


SEEDS = [0, 1, 2**32 + 7, 2**100 + 3, 2**130 + 11, 340282366920938463463374607431768211507]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_states_are_the_seed_sequence_streams(seed):
    for first, count in [(0, 129), (4095, 1), (2**32 - 1, 1)]:
        states = mc._seed_states(seed, first, count)
        assert len(states) == count
        for i in {first, first + count - 1, min(first + 127, first + count - 1)}:
            want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).bit_generator.state
            assert states[i - first] == (want["state"]["state"], want["state"]["inc"])


@pytest.mark.parametrize("alpha, d", [(1.0, 1), (1.3, 2)])
def test_window_refill_keeps_rounds_full(monkeypatch, alpha, d):
    c = cfg(alpha=alpha, d=d, delta=0.01, seed=23, paths=1000)
    domain = interval(-1.0, 1.0) if d == 1 else Ball((0.0, 0.0), 1.0)
    calls = []
    transform = mc._increments_into

    def counted(*args):
        calls.append(args[2].shape[0])
        return transform(*args)

    monkeypatch.setattr(mc, "_increments_into", counted)
    steps = _exit_steps(c, domain, np.zeros(d))
    path_rounds = -(-steps // mc._CHUNK)
    # every round but those after the last path starts has all _BLOCK slots busy
    assert len(calls) <= -(-int(path_rounds.sum()) // mc._BLOCK) + int(path_rounds.max())
    assert sum(calls) == int(path_rounds.sum()) * mc._CHUNK


# recorded before the walker moved into reused buffers: exit steps of paths 0, 127, 128, 511
# and 999, their sum, and the increments drawn
GOLDEN_WALKS = [
    (1, 1.0, [13, 74, 44, 13, 3], 53458, 137600),
    (1, 1.3, [3, 41, 98, 15, 39], 46140, 133632),
    (2, 1.0, [2, 30, 23, 2, 47], 31961, 129152),
    (2, 1.3, [2, 30, 23, 2, 37], 26415, 128000),
]


@pytest.mark.parametrize("d, alpha, picked, total, drawn", GOLDEN_WALKS)
def test_walk_matches_recorded_exit_steps(d, alpha, picked, total, drawn):
    c = cfg(alpha=alpha, d=d, delta=0.02, seed=2**70 + 19, paths=1000)
    domain = interval(-1.0, 1.0) if d == 1 else Ball((0.0, 0.0), 1.0)
    steps = np.empty(c.paths, dtype=np.int64)
    assert mc._walk(c, domain, np.zeros(d), steps) == drawn
    assert steps[[0, 127, 128, 511, 999]].tolist() == picked
    assert int(steps.sum()) == total


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0, 1.3, 1.7])
def test_workspace_transform_matches_increments_from_uniforms(alpha, d):
    c = cfg(alpha=alpha, d=d)
    k = c.uniforms_per_increment
    u = np.random.default_rng(606).random((1000, k))
    corners = np.array(np.meshgrid(*[[0.0, 2.0**-54, 0.5, 1.0 - 2.0**-53]] * k, indexing="ij")).reshape(k, -1).T
    u = np.vstack([u, corners])
    n = len(u)
    # leading views of larger buffers left dirty by an earlier round, as the walker passes them
    work = mc._workspace(c, 2 * n)
    work.fill(np.nan)
    out = np.full(2 * n * d, np.inf)[: n * d].reshape(n, d)
    mc._increments_into(c, 0.3, u, work[:, :n], out)
    assert out.tobytes() == increments_from_uniforms(c, 0.3, u).tobytes()


# increments_from_uniforms(cfg(alpha, d), 0.3, u) as float.hex, recorded on an AVX-512 (AVX512_SKX)
# host, where u is row i of PINNED_UNIFORMS rolled by 0, ..., k - 1 places in columns 0, ..., k - 1
PINNED_UNIFORMS = [0.0, 0.0625, 0.2, 0.3, 0.45, 0.7, 0.9, 1.0 - 2.0**-53]
PINNED_INCREMENTS = {
    (1, 1.0): [
        ("-0x1.e197d185182dap+49",),
        ("-0x1.8219842b5ef52p+0",),
        ("-0x1.a6d314224675dp-2",),
        ("-0x1.be634238a5983p-3",),
        ("-0x1.853edfad55f79p-5",),
        ("0x1.be634238a5981p-3",),
        ("0x1.d8bb70e3c3602p-1",),
        ("0x1.0df99c2cdceadp+49",),
    ],
    (1, 0.5): [
        ("-0x1.8a956a711fb95p+93",),
        ("-0x1.28dcbc14b3991p+54",),
        ("-0x1.a1fa726338576p+0",),
        ("-0x1.72e76ccdea9b7p-3",),
        ("-0x1.4b79ec9a1c0fcp-6",),
        ("0x1.14e185903b8e9p-4",),
        ("0x1.7d2fb785feb62p-2",),
        ("0x1.ee98db6210df1p+95",),
    ],
    (2, 1.0): [
        ("0x1.7c4294b635574p-6", "0x1.24947e0b82658p-4"),
        ("-0x1.7a69adce7442dp+27", "0x1.12eed8fb880a0p+27"),
        ("-0x1.3dddf1267be39p-27", "0x1.69b205df12d53p-77"),
        ("-0x1.72d746f5e2bb0p-3", "-0x1.d91b31870c5fep-54"),
        ("-0x1.273884811dd0cp-2", "-0x1.e923463b1b00cp-4"),
        ("-0x1.43058ec93e927p-3", "-0x1.f1144cf8cebedp-2"),
        ("0x1.ab9dc1ecccbc4p-2", "-0x1.4904515077f93p+0"),
        ("0x1.4b328dfa9dec5p+49", "-0x1.ae734948dca18p+47"),
    ],
    (2, 1.5): [
        ("0x1.447d74e41fe77p-3", "0x1.f356bfe07ae88p-2"),
        ("-0x1.839cdc0a41fb9p+10", "0x1.199dfc88529f4p+10"),
        ("-0x1.feb6a449cdd94p-28", "0x1.2290e9b158d71p-77"),
        ("-0x1.b4191ebc5309dp-3", "-0x1.162df82c85479p-53"),
        ("-0x1.775b87c1b6605p-2", "-0x1.36f4d48544ff6p-3"),
        ("-0x1.7ceba3f0b36f4p-3", "-0x1.251691fcb9ef4p-1"),
        ("0x1.8fb31f832580bp-2", "-0x1.33898c403feb9p+0"),
        ("0x1.19310589f6d88p+33", "-0x1.6d7567cbd03a4p+31"),
    ],
}


@pytest.mark.parametrize("d, alpha", PINNED_INCREMENTS)
def test_increments_match_recorded_bits(d, alpha):
    c = cfg(alpha=alpha, d=d)
    u = np.stack([np.roll(PINNED_UNIFORMS, s) for s in range(c.uniforms_per_increment)], axis=1)
    got = increments_from_uniforms(c, 0.3, u)
    want = np.array([[float.fromhex(v) for v in row] for row in PINNED_INCREMENTS[(d, alpha)]])
    if __cpu_features__["AVX512_SKX"]:
        # the recording host's SIMD tan, log and exp: every bit is pinned, so reordering the
        # arithmetic (pi * u - pi / 2 for pi * (u - 0.5)) fails here
        assert [[v.hex() for v in row] for row in got.tolist()] == [[v.hex() for v in row] for row in want.tolist()]
    else:
        # numpy's AVX2 and baseline loops of these functions round differently in the last
        # bits; with them disabled through NPY_DISABLE_CPU_FEATURES the table is met to 2 ulp
        np.testing.assert_array_max_ulp(got, want, maxulp=4)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0, 1.3, 1.7])
def test_workspace_transform_allocates_no_arrays(alpha, d):
    c = cfg(alpha=alpha, d=d)
    n = mc._BLOCK * mc._CHUNK
    u = np.random.default_rng(707).random((n, c.uniforms_per_increment))
    work, out = mc._workspace(c, n), np.empty((n, d))
    tracemalloc.start()
    try:
        mc._increments_into(c, 1e-3, u, work, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # views and ufunc bookkeeping only: one row of the window alone is 128 KB
    assert peak < 4096


@pytest.mark.parametrize("block, chunk", [(1, 1), (7, 333)])
@pytest.mark.parametrize("alpha, d", [(1.0, 1), (1.3, 1), (1.3, 2)])
def test_exit_times_independent_of_block_and_chunk(monkeypatch, alpha, d, block, chunk):
    c = cfg(alpha=alpha, d=d, delta=0.1, seed=21, paths=1000)
    domain = interval(-1.0, 1.0) if d == 1 else Ball((0.0, 0.0), 1.0)
    x0 = np.zeros(d)
    ref_steps, ref = _exit_steps(c, domain, x0), estimate_exit(c, domain, x0)
    monkeypatch.setattr(mc, "_BLOCK", block)
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    assert np.array_equal(_exit_steps(c, domain, x0), ref_steps)
    est = estimate_exit(c, domain, x0)
    assert est.mean_exit_time == ref.mean_exit_time
    assert est.ci_halfwidth == ref.ci_halfwidth
    assert np.array_equal(est.ts, ref.ts)
    assert np.array_equal(est.survival, ref.survival)


def test_increments_drawn_counts_whole_rounds(monkeypatch):
    c = cfg(delta=0.05, seed=22, paths=1000)
    domain = interval(-1.0, 1.0)
    steps = _exit_steps(c, domain, np.zeros(1))
    est = estimate_exit(c, domain, 0.0)
    rounds = -(-steps // mc._CHUNK)
    assert est.increments_drawn == int(rounds.sum()) * mc._CHUNK
    assert est.useful_ratio == int(steps.sum()) / est.increments_drawn
    monkeypatch.setattr(mc, "_CHUNK", 1)
    assert estimate_exit(c, domain, 0.0).useful_ratio == 1.0


def test_estimate_exit_interval():
    est = estimate_exit(cfg(paths=4000, seed=9), interval(-1.0, 1.0), 0.0)
    # delta = 1e-2 has a visible upward step bias on top of the CI
    assert est.mean_exit_time == pytest.approx(1.0, abs=0.1)
    assert est.ci_halfwidth < 0.05


def test_estimate_exit_reproducible():
    c = cfg(paths=1500, seed=77)
    a = estimate_exit(c, interval(-1.0, 1.0), 0.0)
    b = estimate_exit(c, interval(-1.0, 1.0), 0.0)
    assert a.mean_exit_time == b.mean_exit_time
    assert a.ci_halfwidth == b.ci_halfwidth
    assert np.array_equal(a.survival, b.survival)


def test_path_streams_keyed_by_index():
    # streams must not depend on evaluation order
    def stream(seed, index):
        return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))

    r5 = stream(123, 5).standard_normal(4)
    r3 = stream(123, 3).standard_normal(4)
    again5 = stream(123, 5).standard_normal(4)
    assert np.array_equal(r5, again5)
    assert not np.array_equal(r5, r3)


def test_walker_draws_each_path_from_its_seed_sequence_stream():
    c = cfg(alpha=1.3, delta=0.05, seed=2**100 + 3, paths=1000)
    domain = interval(-1.0, 1.0)
    steps = _exit_steps(c, domain, np.zeros(1))
    # first and last path of the first window, the first refill, the last path
    for i in (0, 127, 128, 999):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=c.seed, spawn_key=(i,)))
        x = np.cumsum(increments_from_uniforms(c, c.delta, rng.random((steps[i], 2))), axis=0)
        inside = contains(domain, x)
        assert inside[:-1].all() and not inside[-1]


def test_survival_monotone_nonincreasing():
    est = estimate_exit(cfg(paths=2000, seed=4), interval(-1.0, 1.0), 0.0)
    assert (np.diff(est.survival) <= 1e-15).all()
    assert est.survival[0] == 1.0


def test_step_bias_direction():
    # larger steps can only miss exits, so tau estimates grow with delta
    fine = estimate_exit(cfg(delta=1e-3, paths=20000, seed=6), interval(-1.0, 1.0), 0.0)
    coarse = estimate_exit(cfg(delta=1e-2, paths=20000, seed=6), interval(-1.0, 1.0), 0.0)
    assert fine.mean_exit_time <= coarse.mean_exit_time + 2.0 * (
        fine.ci_halfwidth + coarse.ci_halfwidth
    )


def test_exit_scaling_with_dilation():
    small = estimate_exit(cfg(delta=1e-3, paths=5000, seed=8), interval(-1.0, 1.0), 0.0)
    big = estimate_exit(cfg(delta=1e-3, paths=5000, seed=8), interval(-2.0, 2.0), 0.0)
    assert big.mean_exit_time == pytest.approx(2.0 * small.mean_exit_time, rel=0.06)


def test_start_point_must_be_inside():
    with pytest.raises(ValueError):
        estimate_exit(cfg(), interval(-1.0, 1.0), 2.0)


@pytest.mark.parametrize("x0", [[0.0, 5.0, 7.0], [0.0, 0.0]])
def test_start_point_needs_d_coordinates(x0):
    with pytest.raises(ValueError, match="1 coordinates"):
        estimate_exit(cfg(), interval(-1.0, 1.0), x0)
    with pytest.raises(ValueError, match="1 coordinates"):
        survival_comparison(cfg(), interval(-1.0, 1.0), interval(-1.0, 1.0), [0.1], x0_a=x0)


def test_path_budget_error(monkeypatch):
    import fracgap.montecarlo as mc

    monkeypatch.setattr(mc, "MAX_STEPS", 8)
    with pytest.raises(mc.PathBudgetError):
        estimate_exit(cfg(delta=1e-6, paths=1000, seed=1), interval(-1.0, 1.0), 0.0)


WORKER_CASES = [(1.3, 1, 1001, interval(-1.0, 1.0)), (1.0, 2, 1000, Ball((0.0, 0.0), 1.0))]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("alpha, d, paths, domain", WORKER_CASES)
def test_estimate_exit_identical_for_any_worker_count(monkeypatch, alpha, d, paths, domain, block):
    if block is not None:
        # ranges of whole 7-path windows end inside the default windows
        monkeypatch.setattr(mc, "_BLOCK", block)
    c = cfg(alpha=alpha, d=d, seed=31, paths=paths)
    ref = estimate_exit(c, domain, np.zeros(d))
    for workers in (2, 3):
        est = estimate_exit(c, domain, np.zeros(d), workers=workers)
        assert multiprocessing.active_children() == []
        assert est.mean_exit_time == ref.mean_exit_time
        assert est.ci_halfwidth == ref.ci_halfwidth
        assert np.array_equal(est.ts, ref.ts)
        assert np.array_equal(est.survival, ref.survival)
        assert np.array_equal(est.survival_ci, ref.survival_ci)
        assert est.increments_drawn == ref.increments_drawn
        assert est.useful_ratio == ref.useful_ratio


def test_path_budget_error_from_a_child_names_the_global_path(monkeypatch):
    c = cfg(alpha=1.3, seed=1, paths=1000)
    domain = interval(-1.0, 1.0)
    steps = _exit_steps(c, domain, np.zeros(1))
    # 2 workers split the 8 windows at path 512; let every path of the first range exit in budget,
    # so the error comes from whichever worker took the second range
    assert steps[512:].max() > steps[:512].max()
    monkeypatch.setattr(mc, "MAX_STEPS", int(steps[:512].max()))
    with pytest.raises(mc.PathBudgetError) as info:
        estimate_exit(c, domain, 0.0, workers=2)
    assert multiprocessing.active_children() == []
    path = int(re.match(r"path (\d+) exceeded", str(info.value)).group(1))
    assert 512 <= path < 1000 and steps[path] > mc.MAX_STEPS


@pytest.mark.parametrize(
    "cores, paths, workers",
    [(64, 1000, 1), (64, 1920, 1), (64, 1921, 2), (64, 10000, 9), (2, 10000, 2), (1, 10000, 1)],
)
def test_walk_workers_gives_each_process_enough_windows(monkeypatch, cores, paths, workers):
    monkeypatch.setattr(mc, "usable_cores", lambda: cores)
    assert mc._walk_workers(paths) == workers


def test_survival_comparison_identical_domains():
    rows = survival_comparison(
        cfg(paths=2000, seed=10), interval(-1.0, 1.0), interval(-1.0, 1.0), [0.5, 1.0]
    )
    assert all(r["ok"] for r in rows)


def test_survival_comparison_isoperimetric():
    # two unit intervals vs the single interval of the same total measure
    two = IntervalUnion(((-4.5, -3.5), (3.5, 4.5)))
    one = interval(-1.0, 1.0)
    rows = survival_comparison(
        cfg(delta=1e-3, paths=20000, seed=11),
        two,
        one,
        [0.5, 1.0, 2.0],
        x0_a=np.array([-4.0]),
        x0_b=np.array([0.0]),
    )
    assert all(r["ok"] for r in rows)
    # far-separated thin components die much faster than the ball
    assert rows[1]["survival_a"] < rows[1]["survival_b"]


def test_survival_matches_grid_semigroup():
    from fracgap.bounds import solve_domain
    from fracgap.reference import survival_profile

    est = estimate_exit(
        cfg(delta=1e-3, paths=20000, seed=12), interval(-1.0, 1.0), 0.0, ts=np.array([1.0])
    )
    _, op, _ = solve_domain(interval(-1.0, 1.0), 1.0, 0.01)
    node = int(np.argmin(np.abs(op.centers[:, 0])))
    grid_surv = float(survival_profile(op, node, np.array([1.0]))[0])
    assert abs(est.survival[0] - grid_surv) <= 0.03


def test_survival_log_slope_near_lambda1():
    est = estimate_exit(cfg(delta=1e-3, paths=20000, seed=13), interval(-1.0, 1.0), 0.0)
    slope = survival_log_slope(est)
    assert -slope == pytest.approx(1.1578, rel=0.1)
