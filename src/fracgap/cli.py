"""Command-line front end: single computations, the verification suite, and
the canonical experiments, with JSON/CSV reports.

Every JSON report is built by `_report`: its kind, then the fields of the
result dataclasses it reports, then command-specific extras. `_emit` is the one
writer of JSON text, to stdout and to the report file under --out; `_write_csv`
writes the CSV tables. Every command's report lists the files it wrote in its
`files` block; without --out no command writes a file, and that block is empty.

Exit codes: 0 success, 1 failed verdict, 2 usage error, 3 numerical failure.
Every subcommand is deterministic given its full configuration (including
the seed) at a fixed BLAS thread count: identical invocations then produce
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
from .geometry import Ball, BallUnion, Box, Domain, IntervalUnion, load_mask
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


def _finite(value) -> float:
    x = float(value)
    if not np.isfinite(x):
        raise ValueError("must be a finite number")
    return x


def _integer(value) -> int:
    """An integer given as an int, an integral float or a decimal string; bools are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("must be an integer")
    return int(value)


def _workers(value) -> int:
    n = _integer(value)
    if n < 1:
        raise ValueError("must be at least 1")
    return n


def _alpha(value) -> float:
    alpha = _finite(value)
    if not 0.0 < alpha < 2.0:
        raise UsageError(f"alpha must lie in (0, 2), got {alpha}")
    if not CLI_ALPHA_RANGE[0] <= alpha <= CLI_ALPHA_RANGE[1]:
        warnings.warn(
            f"alpha = {alpha} is outside the recommended range {CLI_ALPHA_RANGE}; "
            "the near-diagonal correction degrades toward alpha = 2",
            stacklevel=2,
        )
    return alpha


def _list_of(item):
    return lambda value: [item(t) for t in str(value).split(",")]


def _variant(value) -> str:
    if value not in ("stated", "derived"):
        raise ValueError("variant must be 'stated' or 'derived'")
    return value


REQUIRED = object()  # default of a flag that has to be given

# subcommand -> {flag key: (converter, default)}. The flag is --key with "_"
# spelled "-"; the --config file key is the key itself. Defaults are used as
# they stand. Any other value, from the file or a flag, goes through the
# converter once, so a JSON null is accepted only where the default is None.
FLAGS: dict[str, dict] = {
    "constants": {"alpha": (_alpha, 1.0), "dim": (_integer, 1), "out": (str, None)},
    "solve": {
        "domain": (str, REQUIRED),
        "alpha": (_alpha, 1.0),
        "h": (_finite, REQUIRED),
        "k": (_integer, 6),
        "label": (str, None),
        "prop_slack": (_finite, bounds.PROP_SLACK_PER_H),
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
        "k": (_integer, 6),
        "workers": (_workers, 1),
        "variant": (_variant, "derived"),
        "separations": (_list_of(_finite), (4.0, 8.0, 16.0, 32.0)),
        "two_ball_h": (_finite, 0.02),
        "prop_slack": (_finite, bounds.PROP_SLACK_PER_H),
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


def _parse_ball(piece: str) -> Ball:
    *center, radius = (float(t) for t in piece.split(","))
    if len(center) not in (1, 2):
        raise UsageError("a ball needs 1 or 2 center coordinates then its radius")
    return Ball(tuple(center), radius)


def parse_domain(text: str) -> Domain:
    """Parse a --domain value: interval:a,b | intervals:a,b;c,d | box:x0,y0,x1,y1 |
    ball:c...,r | balls:c...,r;c...,r | mask:path."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"bad domain {text!r}; expected kind:params")
    try:
        if kind in ("interval", "intervals"):
            pieces = [rest] if kind == "interval" else rest.split(";")
            return IntervalUnion(tuple(tuple(float(t) for t in piece.split(",")) for piece in pieces))  # type: ignore[arg-type]
        if kind == "box":
            vals = [float(t) for t in rest.split(",")]
            if len(vals) not in (2, 4):
                raise UsageError("box needs 2 numbers (1D) or 4 numbers (2D)")
            half = len(vals) // 2
            return Box(tuple(vals[:half]), tuple(vals[half:]))
        if kind == "ball":
            return _parse_ball(rest)
        if kind == "balls":
            return BallUnion(tuple(_parse_ball(piece) for piece in rest.split(";")))
        if kind == "mask":
            return load_mask(rest)
    except UsageError:
        raise
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad domain {text!r}: {exc}") from exc
    raise UsageError(f"unknown domain kind {kind!r}")


def _resolve(args: argparse.Namespace) -> dict:
    """Each flag's value: its default, then the --config file, then the flag itself."""
    flags = FLAGS[args.command]
    given = {}
    if args.config:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(given, dict):
            raise UsageError(f"config file {args.config!r} must hold a JSON object")
        unknown = set(given) - set(flags)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
    given.update({key: val for key, val in vars(args).items() if key in flags and val is not None})
    cfg = {}
    for key, (convert, default) in flags.items():
        flag = "--" + key.replace("_", "-")
        value = given.get(key, default)
        if value is REQUIRED:
            raise UsageError(f"{args.command} requires {flag}")
        if value is not default:
            try:
                value = convert(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value {value!r} for {flag}: {exc}") from exc
        cfg[key] = value
    return cfg


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


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a CSV table given column by column; each float as repr, which reads back exactly."""
    with open(path, "w", newline="") as fh:
        _write_table(fh, header, columns)


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
    label = cfg["label"] or cfg["domain"].partition(":")[0]
    bound = _report("bound_report", bounds.build_report(sol, domain, p, label, cfg["prop_slack"]))
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
    (or a single interval, or a 1D box) of radius r: r^alpha times the
    unit-ball constant."""
    if (
        isinstance(domain, Ball)
        or (isinstance(domain, IntervalUnion) and len(domain.intervals) == 1)
        or (isinstance(domain, Box) and domain.d == 1)
    ):
        r, _ = domain.inscribed_radius()
        return r**p.alpha * ball_exit_constant(p)
    return None


def cmd_exit_time(cfg: dict) -> int:
    domain = parse_domain(cfg["domain"])
    p = StableParams(cfg["alpha"], domain.d)
    grid = geometry.rasterize(domain, cfg["h"])
    op = assemble(grid, p.alpha)
    field = exit_time(op)
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {"exit_time": out / "exit_time.csv", "report": out / "exit_time.json"}
        columns = [np.arange(op.n), *op.centers.T, field.values]
        _write_csv(paths["exit_time"], ["node", *(f"x{k+1}" for k in range(op.d)), "s"], columns)
    exact = _exact_center_value(domain, p)
    max_s = float(field.values.max())
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
    reports = bounds.run_suite(
        alphas=alphas,
        h1d=cfg["h1d"],
        h2d=cfg["h2d"],
        k=cfg["k"],
        workers=cfg["workers"],
        prop_slack_per_h=cfg["prop_slack"],
    )
    tb_alpha = 1.0 if 1.0 in alphas else alphas[0]
    two_ball = bounds.two_ball_experiment(cfg["separations"], StableParams(tb_alpha, 1), cfg["two_ball_h"])
    passed = bounds.suite_passed(reports, cfg["variant"]) and all(
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
        _write_csv(paths["csv"], header, zip(*rows))
    report = _report(
        "suite_report",
        passed=bool(passed),
        asserted_variant=cfg["variant"],
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
        _write_csv(
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
        grid_h = 0.005
    grid_lambda1 = grid_exit = None
    if grid_h is not None:
        grid, op, sol = bounds.solve_domain(domain, alpha, grid_h, k=2)
        grid_lambda1 = float(sol.lambdas[0])
        node = int(np.argmin(np.sum((op.centers - x0) ** 2, axis=1)))
        grid_exit = float(exit_time(op).values[node])
    out = _out_dir(cfg)
    paths = {}
    if out:
        paths = {"survival": out / "survival.csv", "report": out / "mc_report.json"}
        _write_csv(paths["survival"], ["t", "survival", "ci"], [est.ts, est.survival, est.survival_ci])
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
        for key in FLAGS[command]:
            out_help = "output directory for report files" if key == "out" else None
            sp.add_argument("--" + key.replace("_", "-"), help=out_help)
        sp.add_argument("--config", help="JSON file of flag values keyed by flag name; flags override")
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (AssemblyError, SolveError, PathBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # UsageError, bad domain/mask/config values, too-coarse grids
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
