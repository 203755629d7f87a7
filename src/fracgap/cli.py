"""Command-line front end: single computations, the verification suite, and
the canonical experiments, with JSON/CSV reports.

Every JSON report is built by `_report`: its kind, then the fields of the
result dataclasses it reports, then command-specific extras. `_emit` is the one
writer of JSON text, to stdout and to the report file under --out;
`spectra._write_table` writes every CSV table. Every command's report lists
the files it wrote in its `files` block; without --out no command writes a
file, and that block is empty.

Every value a command reads is an argv flag declared once in `FLAGS`, which
argparse converts, defaults and requires; a bad, missing or unknown flag
exits 2 from argparse, naming the flag.

Exit codes: 0 success, 1 failed verdict, 2 usage error, 3 numerical failure.
Every subcommand is deterministic given its flags (including the seed) at a
fixed BLAS thread count: identical invocations then produce
identical bytes. The process count changes no value: `suite` results are the
same for any --workers, and `mc` results for any number of usable cores.
Across BLAS thread counts the last bits of eigenvalues, eigenvectors and exit
times can change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bounds, geometry
from .constants import (
    StableParams,
    ball_exit_constant,
    bound_constants,
    lambda1_upper_ball,
)
from .geometry import Ball, BallUnion, Box, Domain, IntervalUnion, _check_ball, load_mask
from .operator import AssemblyError, SolveError, assemble, exit_time
from .spectra import _write_table, export_eigenpairs_csv, level_set_report
from .montecarlo import PathBudgetError, StableSamplerConfig, estimate_exit, survival_log_slope, _walk_workers

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

CLI_ALPHA_RANGE = (0.3, 1.7)  # outside this the self-cell correction degrades


class UsageError(ValueError):
    pass


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError("must be a finite number")
    return x


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None


def _workers(text: str) -> int:
    n = _integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _alpha(text: str) -> float:
    alpha = _finite(text)
    if not 0.0 < alpha < 2.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 2), got {alpha}")
    if not CLI_ALPHA_RANGE[0] <= alpha <= CLI_ALPHA_RANGE[1]:
        warnings.warn(
            f"alpha = {alpha} is outside the recommended range {CLI_ALPHA_RANGE}; "
            "the near-diagonal correction degrades toward alpha = 2",
            stacklevel=2,
        )
    return alpha


def _list_of(item):
    return lambda text: [item(t) for t in text.split(",")]


REQUIRED = object()  # default of a flag that has to be given

# subcommand -> {flag key: (converter, default)}. The flag is --key with "_"
# spelled "-", and argparse builds it from this entry alone: the converter is
# its type, applied once to the argv string, and the default is used as it
# stands. A flag whose default is REQUIRED has to be given.
FLAGS: dict[str, dict] = {
    "constants": {"alpha": (_alpha, 1.0), "dim": (_integer, 1), "out": (str, None)},
    "solve": {
        "domain": (str, REQUIRED),
        "alpha": (_alpha, 1.0),
        "h": (_finite, REQUIRED),
        "k": (_integer, 6),
        "out": (str, None),
    },
    "exit-time": {
        "domain": (str, REQUIRED),
        "alpha": (_alpha, 1.0),
        "h": (_finite, REQUIRED),
        "out": (str, None),
    },
    "suite": {
        "alphas": (_list_of(_alpha), (0.5, 1.0, 1.5)),
        "h1d": (_finite, 0.005),
        "h2d": (_finite, 0.05),
        "workers": (_workers, 1),
        "two_ball_h": (_finite, 0.02),
        "out": (str, None),
    },
    "two-ball": {
        "separations": (_list_of(_finite), (4.0, 8.0, 16.0, 32.0)),
        "alpha": (_alpha, 1.0),
        "dim": (_integer, 1),
        "h": (_finite, 0.02),
        "out": (str, None),
    },
    "mc": {
        "domain": (str, REQUIRED),
        "alpha": (_alpha, 1.0),
        "x0": (_list_of(_finite), None),
        "delta": (_finite, 1e-3),
        "paths": (_integer, 10000),
        "seed": (_integer, 1),
        "grid_h": (_finite, None),
        "out": (str, None),
    },
}


def parse_domain(text: str) -> Domain:
    """Parse a --domain value: interval:a,b | intervals:a,b;c,d | box:x0,y0,x1,y1 |
    ball:c...,r | balls:c...,r;c...,r | mask:path.

    One point set comes back as one kind: a 1D box, ball or balls is built as
    the IntervalUnion of its pieces, and a one-ball 2D balls as its Ball."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"bad domain {text!r}; expected kind:params")
    try:
        if kind in ("interval", "intervals"):
            pieces = [rest] if kind == "interval" else rest.split(";")
            return IntervalUnion(tuple(tuple(float(t) for t in piece.split(",")) for piece in pieces))  # type: ignore[arg-type]
        if kind == "box":
            vals = tuple(float(t) for t in rest.split(","))
            if len(vals) not in (2, 4):
                raise UsageError("box needs 2 numbers (1D) or 4 numbers (2D)")
            return IntervalUnion((vals,)) if len(vals) == 2 else Box(vals[:2], vals[2:])
        if kind in ("ball", "balls"):
            specs = []
            for piece in [rest] if kind == "ball" else rest.split(";"):
                *center, radius = (float(t) for t in piece.split(","))
                if len(center) not in (1, 2):
                    raise UsageError("a ball needs 1 or 2 center coordinates then its radius")
                _check_ball(center, radius)
                specs.append((tuple(center), radius))
            if len({len(center) for center, _ in specs}) > 1:
                raise ValueError("all balls must share one dimension")
            if len(specs[0][0]) == 1:
                return IntervalUnion(tuple((c - r, c + r) for (c,), r in specs))
            balls = tuple(Ball(*spec) for spec in specs)
            return balls[0] if len(balls) == 1 else BallUnion(balls)
        if kind == "mask":
            return load_mask(rest)
    except UsageError:
        raise
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad domain {text!r}: {exc}") from exc
    raise UsageError(f"unknown domain kind {kind!r}")


def _out_dir(cfg: dict) -> Path | None:
    """The --out directory, created; None without --out, when nothing is written."""
    if not cfg["out"]:
        return None
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _listed(paths: dict[str, Path]) -> dict[str, str]:
    """A report's `files` block: each written file by name."""
    return {name: str(path) for name, path in paths.items()}


def _report(kind: str, *results, **extra) -> dict:
    """A JSON report: its kind, the fields of each result dataclass, then extra."""
    fields = {key: val for res in results for key, val in dataclasses.asdict(res).items()}
    return {"kind": kind, **fields, **extra}


def _emit(obj: dict, path: Path | None = None, stdout: bool = True) -> None:
    """Write obj as indented JSON text to stdout and, given a path, to that file."""
    text = json.dumps(obj, indent=2) + "\n"
    if stdout:
        sys.stdout.write(text)
    if path is not None:
        path.write_text(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(cfg: dict) -> int:
    p = StableParams(cfg["alpha"], cfg["dim"])
    out = _out_dir(cfg)
    paths = {"report": out / "constants.json"} if out else {}
    bound_r1 = lambda1_upper_ball(p, 1.0)
    report = _report("constants_report", p, bound_constants(p), ball_bound_r1=bound_r1, files=_listed(paths))
    _emit(report, paths.get("report"))
    return EXIT_OK


def cmd_solve(cfg: dict) -> int:
    domain = parse_domain(cfg["domain"])
    p = StableParams(cfg["alpha"], domain.d)
    grid, op, sol = bounds.solve_domain(domain, p.alpha, cfg["h"], k=cfg["k"])
    bound = _report("bound_report", bounds.build_report(sol, domain, p, cfg["domain"].partition(":")[0]))
    # the level set's nodes are reported by their count, in the same place
    level_set = dict(
        ("size", len(val)) if key == "node_indices" else (key, val)
        for key, val in _report("level_set_report", level_set_report(sol, op)).items()
    )
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {
            "eigenpairs": out / "eigenpairs.csv",
            "bound_report": out / "bound_report.json",
            "level_set": out / "level_set.json",
        }
        export_eigenpairs_csv(sol, op, paths["eigenpairs"])
        _emit(bound, paths["bound_report"], stdout=False)
        _emit(level_set, paths["level_set"], stdout=False)
    _emit(_report("solve_report", bound_report=bound, level_set=level_set, files=_listed(paths)))
    return EXIT_OK


def _exact_center_value(domain: Domain, p: StableParams) -> float | None:
    """Exact max exit time, attained at the center, when the domain is a ball
    of radius r (an interval in 1D): r^alpha times the unit-ball constant.

    Every domain's diameter is exact or an upper bound and its inscribed radius
    exact or a lower bound, so 2 r equals the diameter only on a ball."""
    r, _ = domain.inscribed_radius()
    if 2.0 * r != domain.diameter():
        return None
    return r**p.alpha * ball_exit_constant(p)


def cmd_exit_time(cfg: dict) -> int:
    domain = parse_domain(cfg["domain"])
    p = StableParams(cfg["alpha"], domain.d)
    grid = geometry.rasterize(domain, cfg["h"])
    op = assemble(grid, p.alpha)
    s = exit_time(op)
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {"exit_time": out / "exit_time.csv", "report": out / "exit_time.json"}
        columns = [np.arange(op.n), *op.centers.T, s]
        _write_table(paths["exit_time"], ["node", *(f"x{k+1}" for k in range(op.d)), "s"], columns)
    exact = _exact_center_value(domain, p)
    max_s = float(s.max())
    report = _report(
        "exit_time_report",
        p,
        h=cfg["h"],
        n=op.n,
        max_exit_time=max_s,
        exact_center_value=exact,
        center_rel_err=None if exact is None else abs(max_s - exact) / exact,
        files=_listed(paths),
    )
    _emit(report, paths.get("report"))
    return EXIT_OK


def cmd_suite(cfg: dict) -> int:
    alphas = cfg["alphas"]
    reports = bounds.run_suite(alphas=alphas, h1d=cfg["h1d"], h2d=cfg["h2d"], workers=cfg["workers"])
    tb_alpha = 1.0 if 1.0 in alphas else alphas[0]
    _, separations = FLAGS["two-ball"]["separations"]
    two_ball = bounds.two_ball_experiment(separations, StableParams(tb_alpha, 1), cfg["two_ball_h"])
    passed = bounds.suite_passed(reports) and all(
        l <= g for l, g in zip(two_ball.lower_bounds, two_ball.gaps)
    )
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {"csv": out / "suite.csv", "json": out / "suite.json"}
        # one row per run; the margins are the lhs/rhs ratios of the verdicts
        rows = [
            (r.label, r.alpha, r.lambda1, r.lambda2, r.gap, r.sup_phi1 / r.thm1_rhs, r.gap / r.thm2_rhs_derived)
            for r in reports
        ]
        header = ["domain", "alpha", "lambda1", "lambda2", "gap", "thm1_margin", "thm2_margin"]
        _write_table(paths["csv"], header, zip(*rows))
    report = _report(
        "suite_report",
        passed=bool(passed),
        asserted_variant="derived",
        reports=[_report("bound_report", r) for r in reports],
        two_ball=_report("two_ball_report", two_ball),
        files=_listed(paths),
    )
    _emit(report, paths.get("json"))
    return EXIT_OK if passed else EXIT_VERDICT


def cmd_two_ball(cfg: dict) -> int:
    p = StableParams(cfg["alpha"], cfg["dim"])
    res = bounds.two_ball_experiment(cfg["separations"], p, cfg["h"])
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {"two_ball": out / "two_ball.csv", "report": out / "two_ball.json"}
        _write_table(
            paths["two_ball"],
            ["separation", "gap", "lambda1", "upper_bound", "lower_bound", "reference_decay"],
            [res.separations, res.gaps, res.lambda1s, res.upper_bounds, res.lower_bounds, res.reference_decay],
        )
    _emit(_report("two_ball_report", res, files=_listed(paths)), paths.get("report"))
    return EXIT_OK


def cmd_mc(cfg: dict) -> int:
    domain = parse_domain(cfg["domain"])
    d = domain.d
    alpha = cfg["alpha"]
    sampler = StableSamplerConfig(alpha=alpha, d=d, delta=cfg["delta"], seed=cfg["seed"], paths=cfg["paths"])
    if cfg["x0"] is None:
        _, x0 = domain.inscribed_radius()
    else:
        x0 = np.array(cfg["x0"])
    est = estimate_exit(sampler, domain, x0, workers=_walk_workers(sampler.paths))
    try:
        slope = survival_log_slope(est)
    except ValueError:
        slope = None
    grid_h = cfg["grid_h"]
    if grid_h is None and d == 1:
        grid_h = domain.diameter() / 400  # 0.005 on (-1, 1)
    grid_lambda1 = grid_exit = None
    if grid_h is not None:
        grid, op, sol = bounds.solve_domain(domain, alpha, grid_h)
        grid_lambda1 = float(sol.lambdas[0])
        node = int(np.argmin(np.sum((op.centers - x0) ** 2, axis=1)))
        grid_exit = float(exit_time(op)[node])
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {"survival": out / "survival.csv", "report": out / "mc_report.json"}
        _write_table(paths["survival"], ["t", "survival", "ci"], [est.ts, est.survival, est.survival_ci])
    report = _report(
        "mc_report",
        alpha=alpha,
        d=d,
        delta=sampler.delta,
        paths=sampler.paths,
        seed=sampler.seed,
        mean_exit_time=est.mean_exit_time,
        ci_halfwidth=est.ci_halfwidth,
        survival_log_slope=slope,
        grid_lambda1=grid_lambda1,
        grid_mean_exit_at_start=grid_exit,
        mc_vs_grid_exit_delta=None if grid_exit is None else est.mean_exit_time - grid_exit,
        mc_slope_vs_grid_lambda1=None
        if (grid_lambda1 is None or slope is None)
        else abs(-slope - grid_lambda1) / grid_lambda1,
        increments_drawn=est.increments_drawn,
        useful_ratio=est.useful_ratio,
        files=_listed(paths),
    )
    _emit(report, paths.get("report"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgap",
        description="Killed stable process toolkit: spectra, exit times, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("constants", cmd_constants, "closed-form constants for (alpha, d)"),
        ("solve", cmd_solve, "eigenpairs plus bound and level-set reports"),
        ("exit-time", cmd_exit_time, "expected exit time field"),
        ("suite", cmd_suite, "full verification suite plus decay experiment"),
        ("two-ball", cmd_two_ball, "gap decay across two separating components"),
        ("mc", cmd_mc, "Monte Carlo exit-time estimate with survival table"),
    ):
        sp = sub.add_parser(command, help=help_text)
        for key, (convert, default) in FLAGS[command].items():
            out_help = "output directory for report files" if key == "out" else None
            sp.add_argument(
                "--" + key.replace("_", "-"), type=convert, default=default, required=default is REQUIRED, help=out_help
            )
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(vars(args))
    except (AssemblyError, SolveError, PathBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # UsageError, bad domain/mask values, too-coarse grids
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
