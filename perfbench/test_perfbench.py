"""Self-tests of the benchmark: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_match_benchmark_json():
    m, problems = tracer.layer_metrics(tracer.Tracer(), 0.0)
    emitted = set(m) | {"cli.bytes_written", "trace.overhead_s"}
    emitted |= {f"{layer}.thread_speedup" for layer in ("spectra.eigenpairs", "operator.cho_factor")}
    assert emitted == {s["name"] for s in SPEC["per_layer"]}
    assert not problems


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_passes_its_checks_at_reduced_size(name, tmp_path):
    runner = run.Runner(name, seed=3, scratch=tmp_path, small=True)
    res = runner.op()
    assert runner.failures == [] and runner.failed == 0
    assert res.values.keys() == runner.refs.keys()
    if name in ("exit-interval", "suite"):
        assert 0.0 < res.ref_rel_err < 0.05


def test_perturbed_reference_makes_failed_ratio_nonzero(tmp_path):
    runner = run.Runner("exit-interval", seed=1, scratch=tmp_path, small=True)
    runner.refs = {k: v * (1.0 + 1e-12) for k, v in runner.refs.items()}  # inside 1e-10
    runner.op()
    assert runner.failed == 0
    runner.refs = {k: v * (1.0 + 1e-8) for k, v in runner.refs.items()}
    runner.op()
    assert runner.failed == 1 and runner.failed / runner.attempted > 0.0
    assert "differs from reference" in runner.failures[0]


def test_failed_verdict_and_mc_miss_are_failures():
    disk = {"bound_report": {"lambda1": 1.0, "lambda2": 2.0,
                             "verdicts": {"thm1": True, "thm2_derived": False, "prop": True}}}  # fmt: skip
    assert workloads.WORKLOADS["solve-disk"].check([disk]).failures == ["verdict thm2_derived is false"]
    far = {"alpha": 1.0, "d": 1, "mean_exit_time": 1.2, "ci_halfwidth": 0.05,
           "grid_lambda1": 1.0, "grid_mean_exit_at_start": 1.0}  # fmt: skip
    assert len(workloads.WORKLOADS["mc"].check([far]).failures) == 1


def test_closed_form_exit_time_matches_the_library():
    from fracgap.constants import StableParams, ball_exit_time_exact

    for alpha, d in ((0.5, 1), (1.0, 1), (1.0, 2), (1.5, 2)):
        ours = workloads.ball_exit_time_center(alpha, d, 1.3)
        assert ours == pytest.approx(ball_exit_time_exact(StableParams(alpha, d), 1.3, [0.0] * d), rel=1e-12)


def _bindings():
    mods = tracer._modules()
    out = {(name, attr): val for name, mod in mods.items() for attr, val in vars(mod).items() if callable(val)}
    out[("KilledOperator", "matrix")] = mods["operator"].KilledOperator.matrix
    return mods, out


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    mods, before = _bindings()
    runner = run.Runner("mc", seed=1, scratch=tmp_path, small=True)
    with pytest.raises(RuntimeError), tracer.Tracer().patched():
        for mod, attr in [("cli", "exit_time"), ("cli", "level_set_report"), ("cli", "estimate_exit"),
                          ("cli", "main"), ("bounds", "assemble"), ("bounds", "rasterize"),
                          ("bounds", "eigenpairs"), ("spectra", "sup_exit_time"), ("montecarlo", "contains"),
                          ("montecarlo", "sample_stable_increment"), ("operator", "cho_factor"),
                          ("geometry", "contains"), ("fracgap", "assemble")]:  # fmt: skip
            now = getattr(mods[mod], attr)
            assert now is not before[(mod, attr)] and now.__wrapped__ is before[(mod, attr)], (mod, attr)
        assert mods["operator"].KilledOperator.matrix is not before[("KilledOperator", "matrix")]
        raise RuntimeError("leave the block early")
    assert _bindings()[1] == before
    res, t, metrics, problems = run.traced_op(runner)
    assert _bindings()[1] == before
    assert not problems and runner.failed == 0
    assert metrics["geometry.contains.calls"] > 1000 and metrics["montecarlo.increments_sampled"] > 0
    assert 0.0 < metrics["montecarlo.useful_ratio"] <= 1.0


def test_traced_spans_nest_and_self_times_are_nonnegative(tmp_path):
    runner = run.Runner("solve-disk", seed=1, scratch=tmp_path, small=True)
    res, t, metrics, problems = run.traced_op(runner)
    assert not problems and runner.failed == 0
    self_s, calls, bad = tracer.self_times(t.spans)
    assert not bad and min(self_s.values()) >= 0.0
    assert calls[tracer.ROOT_SPAN] == 1 and calls["operator.assemble"] == 1
    assert metrics["spectra.eigenpairs.calls"] == 1 and metrics["operator.dense_builds"] == 2
    n = metrics["operator.n_max"]
    assert metrics["operator.dense_bytes"] == 2 * 8 * n * n


def test_self_times_flag_a_child_outside_its_parent():
    spans = [["p", 0.0, 1.0, -1], ["c", 0.2, 1.5, 0]]
    _, _, bad = tracer.self_times(spans)
    assert any("not inside" in b for b in bad) and any("negative" in b for b in bad)
    self_s, calls, bad = tracer.self_times([["p", 0.0, 1.0, -1], ["c", 0.25, 0.5, 0], ["c", 0.5, 0.75, 0]])
    assert not bad and self_s == {"p": 0.5, "c": 0.5} and calls["c"] == 2


def test_untraced_ops_load_no_wrapper():
    code = (
        "import sys, tempfile, pathlib, run\n"
        "sys.path.insert(0, str(run.SRC))\n"
        "with tempfile.TemporaryDirectory(dir=run.ROOT) as d:\n"
        "    r = run.Runner('exit-interval', 1, pathlib.Path(d), small=True); r.op()\n"
        "print(r.failed, 'tracer' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(run.__file__).parent, capture_output=True, text=True)
    assert out.stdout.split() == ["0", "False"], out.stderr


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*SPEC["command"], "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run([sys.executable, *cmd[1:]], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
