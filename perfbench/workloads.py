"""The four benchmark workloads: the CLI calls that make up one op, and the
checks that decide whether an op failed.

One op is one or two `fracgap.cli.main([...])` calls, each writing its
reports into its own directory. An op fails when a call exits nonzero or
raises, a JSON report does not validate against the report schema, a verdict
the workload asserts is false, a Monte Carlo mean lies more than three
confidence half-widths from the closed-form exit time, or a discrete value
(lambda_1, lambda_2, the max exit time) differs from the value recorded at
the seed commit in `references.json` by more than 1e-10 relative.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REL_TOL = 1e-10  # cross-check tolerance for discrete values against the seed commit
MC_CI_FACTOR = 3.0  # an MC mean may lie at most this many 95% half-widths from the exact value

# lambda_1 of (-1, 1) at alpha = 1: Kulczycki, Kwasnicki, Malecki & Stos, Proc. LMS 2010
INTERVAL_LAMBDA1_ALPHA1 = 1.1577738836977


def ball_exit_time_center(alpha: float, d: int, r: float) -> float:
    """E tau from the center of a radius-r ball: C(d, alpha) r^alpha with
    C = Gamma(d/2) / (2^alpha Gamma(1 + alpha/2) Gamma((d + alpha)/2)).

    Written out here rather than taken from the library under test.
    """
    c = math.gamma(d / 2.0) / (
        2.0**alpha * math.gamma(1.0 + alpha / 2.0) * math.gamma((d + alpha) / 2.0)
    )
    return c * r**alpha


@dataclass
class CallResult:
    """One CLI call: exit code (None if it raised), captured stdout, its report directory."""

    rc: int | None
    stdout: str
    out_dir: Path
    error: str | None = None


@dataclass
class OpResult:
    wall_s: float
    failures: list[str]
    values: dict[str, float]
    ref_rel_err: float | None
    bytes_written: int


@dataclass
class Checked:
    """What a workload's check extracts from one op."""

    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    ref_rel_err: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    # (op_seed, small) -> argv of each CLI call in the op, without --out
    calls: Callable[[int, bool], list[list[str]]]
    # reports parsed from stdout, one per call -> Checked
    check: Callable[[list[dict]], Checked]


def _solve_disk_calls(op_seed: int, small: bool) -> list[list[str]]:
    h = "0.1" if small else "0.028"
    return [["solve", "--domain", "ball:0,0,1", "--alpha", "1", "--h", h, "--k", "6"]]


def _solve_disk_check(reports: list[dict]) -> Checked:
    br = reports[0]["bound_report"]
    out = Checked(values={"lambda1": br["lambda1"], "lambda2": br["lambda2"]})
    for verdict in ("thm1", "thm2_derived", "prop"):
        if not br["verdicts"][verdict]:
            out.failures.append(f"verdict {verdict} is false")
    return out


def _exit_interval_calls(op_seed: int, small: bool) -> list[list[str]]:
    h = "0.01" if small else "0.0005"
    return [["exit-time", "--domain", "interval:-1,1", "--alpha", "1", "--h", h]]


def _exit_interval_check(reports: list[dict]) -> Checked:
    rep = reports[0]
    out = Checked(values={"max_exit_time": rep["max_exit_time"]}, ref_rel_err=rep["center_rel_err"])
    exact = ball_exit_time_center(1.0, 1, 1.0)
    if not math.isclose(rep["exact_center_value"], exact, rel_tol=1e-12):
        out.failures.append(f"exact_center_value {rep['exact_center_value']!r} != closed form {exact!r}")
    return out


def _suite_calls(op_seed: int, small: bool) -> list[list[str]]:
    argv = ["suite", "--workers", "1"]
    if small:
        argv += ["--alphas", "1.0", "--h1d", "0.02", "--h2d", "0.1", "--two-ball-h", "0.04"]
    return [argv]


def _suite_check(reports: list[dict]) -> Checked:
    rep = reports[0]
    out = Checked()
    if not rep["passed"]:
        out.failures.append("suite reports passed = false")
    for r in rep["reports"]:
        key = f"{r['label']}@{r['alpha']!r}"
        out.values[key + ".lambda1"] = r["lambda1"]
        out.values[key + ".lambda2"] = r["lambda2"]
        if r["label"] == "interval" and r["alpha"] == 1.0:
            out.ref_rel_err = abs(r["lambda1"] - INTERVAL_LAMBDA1_ALPHA1) / INTERVAL_LAMBDA1_ALPHA1
    tb = rep["two_ball"]
    for sep, lam1, gap in zip(tb["separations"], tb["lambda1s"], tb["gaps"]):
        out.values[f"two_ball@{sep!r}.lambda1"] = lam1
        out.values[f"two_ball@{sep!r}.lambda2"] = lam1 + gap
    out.values["two_ball.lambda1_single"] = tb["lambda1_single"]
    if out.ref_rel_err is None:
        out.failures.append("suite has no interval alpha = 1 report")
    return out


def _mc_calls(op_seed: int, small: bool) -> list[list[str]]:
    paths_1d, paths_2d = ("1000", "1000") if small else ("5000", "2000")
    common = ["--alpha", "1", "--delta", "1e-3", "--seed", str(op_seed)]
    return [
        ["mc", "--domain", "interval:-1,1", *common, "--paths", paths_1d],
        ["mc", "--domain", "ball:0,0,1", *common, "--paths", paths_2d],
    ]


def _mc_check(reports: list[dict]) -> Checked:
    out = Checked()
    for rep in reports:
        exact = ball_exit_time_center(rep["alpha"], rep["d"], 1.0)
        miss = abs(rep["mean_exit_time"] - exact)
        if miss > MC_CI_FACTOR * rep["ci_halfwidth"]:
            out.failures.append(
                f"d={rep['d']}: MC mean {rep['mean_exit_time']!r} is {miss:.3g} from exact {exact!r}, "
                f"more than {MC_CI_FACTOR} x ci_halfwidth {rep['ci_halfwidth']!r}"
            )
    grid = reports[0]
    out.values["interval.grid_lambda1"] = grid["grid_lambda1"]
    out.values["interval.grid_mean_exit_at_start"] = grid["grid_mean_exit_at_start"]
    return out


# Why each workload exists is stated in BENCHMARK.json. solve-disk and
# exit-interval load the dense operator near its 5000-cell cap, suite runs
# many small solves, and mc barely touches the operator: a change to one
# layer shows on some workloads and must leave the others unchanged.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("solve-disk", _solve_disk_calls, _solve_disk_check),
        Workload("exit-interval", _exit_interval_calls, _exit_interval_check),
        Workload("suite", _suite_calls, _suite_check),
        Workload("mc", _mc_calls, _mc_check),
    )
}


def compare_references(values: dict[str, float], refs: dict[str, float]) -> list[str]:
    """Failures for every discrete value that is missing, extra, or off its reference."""
    failures = [f"{k}: no reference value" for k in sorted(set(values) - set(refs))]
    for key, ref in sorted(refs.items()):
        v = values.get(key)
        if v is None:
            failures.append(f"{key}: missing from the output")
        elif not abs(v - ref) <= REL_TOL * abs(ref):
            failures.append(f"{key}: {v!r} differs from reference {ref!r} by {abs(v - ref) / abs(ref):.3g} relative")
    return failures


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(
    workload: Workload,
    cli,
    op_dir: Path,
    op_seed: int,
    refs: dict[str, float],
    validator,
    small: bool = False,
) -> OpResult:
    """Run one op and check it. Only the CLI calls are timed.

    `cli.main` is looked up at each call, so a tracer that patched it sees it.
    """
    results: list[CallResult] = []
    wall = 0.0
    for i, argv in enumerate(workload.calls(op_seed, small)):
        out_dir = op_dir / f"call{i}"
        buf = io.StringIO()
        rc: int | None = None
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([*argv, "--out", str(out_dir)])
        except Exception:  # any raise is a failed op, not a benchmark crash
            error = traceback.format_exc(limit=3)
        wall += time.perf_counter() - t0
        results.append(CallResult(rc, buf.getvalue(), out_dir, error))

    failures: list[str] = []
    reports: list[dict] = []
    for i, res in enumerate(results):
        if res.error is not None:
            failures.append(f"call {i} raised: {res.error}")
            continue
        if res.rc != 0:
            failures.append(f"call {i} exited with code {res.rc}")
        try:
            report = json.loads(res.stdout)
        except json.JSONDecodeError as exc:
            failures.append(f"call {i}: stdout is not one JSON report: {exc}")
            continue
        docs = [("stdout", report)]
        for path in sorted(res.out_dir.glob("*.json")):
            try:
                docs.append((path.name, json.loads(path.read_text())))
            except json.JSONDecodeError as exc:
                failures.append(f"call {i} {path.name}: not JSON: {exc}")
        for where, doc in docs:
            for err in validator.iter_errors(doc):
                failures.append(f"call {i} {where}: schema: {err.message[:200]}")
        reports.append(report)

    checked = Checked()
    if not failures:
        try:
            checked = workload.check(reports)
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"report lacks an expected field: {exc!r}")
        failures += checked.failures
        failures += compare_references(checked.values, refs)
    written = sum(len(r.stdout.encode()) + (_dir_bytes(r.out_dir) if r.out_dir.exists() else 0) for r in results)
    return OpResult(wall, failures, checked.values, checked.ref_rel_err, written)
