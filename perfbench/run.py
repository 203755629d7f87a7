#!/usr/bin/env python3
"""fracgap benchmark: one closed-loop client drives `fracgap.cli.main` in-process.

    python3 perfbench/run.py --workload solve-disk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15   # table of all four

Run it from the root of a source checkout; it imports `src/fracgap` from
there and writes only under `.bench_build/perfbench/`. BLAS threads are
pinned to the number of usable cores before numpy loads.

--trace 0 measures the end-to-end metrics: setup_s (median over fresh
interpreters that import the CLI and run a tiny solve plus exit-time),
op_s_p50 (median warm op wall time) and peak_rss_mb (ru_maxrss of this
process). --trace 1 alternates untraced and traced ops, derives the
per-layer metrics from the spans, and repeats one traced op at 1 BLAS
thread for the thread speed-ups.

The last stdout line is {"correct", "attempted", "failed", "metrics"}, with
the metrics and units that BENCHMARK.json lists. The line before it
("summary {...}") adds ref_rel_err, failed_ratio, the op count, the first
failures and the environment. The full result, spans included, goes to a
JSON file under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# Tiny CLI calls that load the package and pay the first LAPACK calls.
WARM_ARGVS = [
    ["solve", "--domain", "interval:-1,1", "--alpha", "1", "--h", "0.05", "--k", "2"],
    ["exit-time", "--domain", "interval:-1,1", "--alpha", "1", "--h", "0.05"],
]
SETUP_CODE = f"""
import sys
from fracgap import cli
sys.exit(max(cli.main(argv + ["--out", sys.argv[1]]) for argv in {WARM_ARGVS!r}))
"""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # child of a traced run: one traced op at 1 BLAS thread, printed as JSON
    ap.add_argument("--single-op", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: str(threads) for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# environment


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "fracgap").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(threads: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind = _read(base + "/level"), _read(base + "/type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(base + "/size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": usable_cores(),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# ops


class Runner:
    """Runs and checks the ops of one workload inside a scratch directory."""

    def __init__(self, name: str, seed: int, scratch: Path, small: bool = False):
        import jsonschema
        from fracgap import cli

        self.workload = workloads.WORKLOADS[name]
        self.cli = cli
        self.seed = seed
        self.scratch = scratch
        self.small = small
        refs = json.loads((Path(__file__).parent / "references.json").read_text())
        self.refs = refs["small" if small else "full"][name]
        schema = json.loads((SRC / "fracgap" / "schema" / "report.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ref_rel_errs: list[float] = []

    def record(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{label}: {f}" for f in failures]

    def op(self):
        """One checked op; its report directory is removed afterwards."""
        index = self.attempted
        op_dir = self.scratch / f"op{index}"
        # the op seed reaches only workloads that take one (mc); the others have fixed inputs
        res = workloads.run_op(
            self.workload, self.cli, op_dir, self.seed * 100_000 + index, self.refs, self.validator, self.small
        )
        self.record(f"op {index}", res.failures)
        if res.ref_rel_err is not None:
            self.ref_rel_errs.append(res.ref_rel_err)
        shutil.rmtree(op_dir, ignore_errors=True)
        return res

    def warm(self) -> None:
        """Load LAPACK in this process without a full-size op."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = max(self.cli.main([*argv, "--out", str(self.scratch / "warm")]) for argv in WARM_ARGVS)
        self.record("warm-up", [] if rc == 0 else [f"exit code {rc}"])


def measure_setup(runner: Runner) -> list[float]:
    """Wall times of fresh interpreters running SETUP_CODE; each is a checked op."""
    times = []
    for i in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(runner.scratch / f"setup{i}")],
            cwd=ROOT,
            env=child_env(usable_cores()),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        runner.record(f"setup {i}", [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-300:]}"])
    return times


def traced_op(runner: Runner):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    with tracer.patched():
        res = runner.op()
    metrics, problems = layer_metrics(tracer, res.wall_s)
    metrics["cli.bytes_written"] = res.bytes_written
    return res, tracer, metrics, problems


# ---------------------------------------------------------------------------
# runs


def run_end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    setup = measure_setup(runner)
    runner.warm()
    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.op().wall_s)
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"setup_s": setup, "op_s": walls}


def single_thread_child(args) -> dict:
    """The same op, traced once, at 1 BLAS thread in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "1", "--single-op",
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(1), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return {"attempted": 1, "failed": 1, "problems": [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(runner: Runner, args) -> tuple[dict, dict, list[str]]:
    runner.warm()
    plain, traced, per_op, spans, problems = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.op().wall_s)
        res, tracer, metrics, bad = traced_op(runner)
        traced.append(res.wall_s)
        per_op.append(metrics)
        spans.append(tracer.spans)
        problems += bad
    values = {k: statistics.median_low(m[k] for m in per_op) for k in per_op[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    child = single_thread_child(args)
    runner.attempted += child["attempted"]
    runner.failed += child["failed"]
    problems += [f"1-thread op: {p}" for p in child["problems"]]
    one = child.get("metrics", {})
    for layer in ("spectra.eigenpairs", "operator.cho_factor"):
        t_many, t_one = values[f"{layer}.self_s"], one.get(f"{layer}.self_s", 0.0)
        values[f"{layer}.thread_speedup"] = t_one / t_many if t_many > 0.0 and t_one > 0.0 else 0.0
    detail = {"op_s_plain": plain, "op_s_traced": traced, "per_op": per_op, "single_thread": one, "spans": spans}
    return values, detail, problems


def single_op_main(runner: Runner) -> None:
    runner.warm()
    _, _, metrics, problems = traced_op(runner)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "problems": problems + runner.failures, "metrics": metrics}))  # fmt: skip


def run_all(args) -> int:
    """Every workload in its own process; prints one table with units."""
    rows, ok, attempted, failed, metrics = [], True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        summary = json.loads(lines[-2].removeprefix("summary "))
        result = json.loads(lines[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        shown = dict(summary["metrics"])
        shown["ref_rel_err"] = summary["ref_rel_err"]
        shown["failed_ratio"] = summary["failed_ratio"]
        for key, m in shown.items():
            text = "not defined" if m is None else f"{m['value']:.6g} {m['unit']}"
            rows.append(f"{name:14s} {key:38s} {text}")
        rows.append(f"{name:14s} {'timed_ops':38s} {summary['timed_ops']}")
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print("\n".join(rows))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracgap" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no src/fracgap or BENCHMARK.json under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = 1 if args.single_op else usable_cores()
    # before numpy loads, here and in every child
    os.environ.update({v: str(threads) for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import fracgap

    if SRC not in Path(fracgap.__file__).resolve().parents:
        print(f"perfbench: imported fracgap from {fracgap.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        runner = Runner(args.workload, args.seed, scratch)
        if args.single_op:
            single_op_main(runner)
            return 0
        if args.trace:
            values, detail, problems = run_traced(runner, args)
        else:
            values, detail = run_end_to_end(runner, args)
            problems = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if set(values) != {s["name"] for s in specs}:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {s['name'] for s in specs})}")
    metrics = {s["name"]: {"value": values.get(s["name"], 0.0), "unit": s["unit"]} for s in specs}
    ref = runner.ref_rel_errs
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timed_ops": len(detail["op_s_traced" if args.trace else "op_s"]),
        "metrics": metrics,
        "ref_rel_err": {"value": statistics.median(ref), "unit": "1"} if ref else None,
        "failed_ratio": {"value": runner.failed / runner.attempted, "unit": "1"},
        "failures": (runner.failures + problems)[:10],
        "env": environment(threads),
    }
    result_file = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary["result_file"] = str(result_file.relative_to(ROOT))
    result_file.write_text(json.dumps({**summary, "failures": runner.failures + problems, "detail": detail}))
    for line in (runner.failures + problems)[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    print("summary " + json.dumps(summary))
    correct = runner.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
