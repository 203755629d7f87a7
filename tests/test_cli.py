import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from fracgap.cli import main, parse_domain
from fracgap.geometry import Ball, BallUnion, Box, IntervalUnion, save_mask
from fracgap import geometry
from fracgap.operator import assemble, exit_time


@pytest.fixture(scope="module")
def schema():
    with resources.files("fracgap").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


def validate(obj, schema, kind):
    assert obj["kind"] == kind
    jsonschema.validate(obj, {**schema, "oneOf": [{"$ref": f"#/$defs/{kind}"}]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_domain_forms():
    assert parse_domain("interval:-1,1") == IntervalUnion(((-1.0, 1.0),))
    assert parse_domain("intervals:-2,-1;1,2") == IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
    assert parse_domain("box:-1,-1,1,1") == Box((-1.0, -1.0), (1.0, 1.0))
    assert parse_domain("ball:0,0,1") == Ball((0.0, 0.0), 1.0)
    assert parse_domain("ball:0.5,2") == Ball((0.5,), 2.0)
    two = parse_domain("balls:-4,0,1;4,0,1")
    assert isinstance(two, BallUnion) and len(two.balls) == 2


@pytest.mark.parametrize(
    "bad", ["interval:1", "wedge:1,2", "ball:1", "box:1,2,3", "interval:a,b", "plain"]
)
def test_parse_domain_errors(bad):
    from fracgap.cli import UsageError

    with pytest.raises(UsageError):
        parse_domain(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("ball:0,nan,1", "center coordinate 2 must be finite, got nan"),
        ("ball:inf,0,1", "center coordinate 1 must be finite, got inf"),
        ("balls:0,0,1;nan,5,1", "center coordinate 1 must be finite, got nan"),
        ("interval:-1,1,2,3", "interval piece (-1.0, 1.0, 2.0, 3.0) needs 2 numbers"),
        ("intervals:0,1,2;3,4", "interval piece (0.0, 1.0, 2.0) needs 2 numbers"),
        ("intervals:0,1;3", "interval piece (3.0,) needs 2 numbers"),
    ],
)
def test_bad_centres_and_interval_pieces_are_named(tmp_path, capsys, text, message):
    from fracgap.cli import UsageError

    with pytest.raises(UsageError) as exc:
        parse_domain(text)
    assert message in str(exc.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        assert main(["exit-time", "--domain", text, "--h", "0.05", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and message in err
    assert "numpy" not in err and "unpack" not in err and "convert" not in err
    assert list(tmp_path.iterdir()) == []


def test_exit_time_and_constants_import_no_scipy(tmp_path):
    # a fresh interpreter: the test session has long imported scipy itself
    code = f"""
import sys
from fracgap.cli import main
assert main(["exit-time", "--domain", "interval:-1,1", "--h", "0.02", "--out", {str(tmp_path)!r}]) == 0
assert main(["exit-time", "--domain", "ball:0,0,1", "--h", "0.2"]) == 0
assert main(["constants", "--alpha", "1.5", "--dim", "2"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    src = str(resources.files("fracgap").parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_constants_command(capsys, schema):
    code, out = run_cli(capsys, "constants", "--alpha", "1", "--dim", "1")
    assert code == 0
    obj = json.loads(out)
    validate(obj, schema, "constants_report")
    assert obj["c_sup"] == pytest.approx(2.0, rel=1e-12)
    assert obj["c_gap_stated"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert obj["ball_bound_r1"] == pytest.approx(3.0 * math.pi / 8.0, rel=1e-12)


def test_constants_command_2d(capsys, schema):
    code, out = run_cli(capsys, "constants", "--alpha", "1", "--dim", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["c_gap_stated"] == pytest.approx(math.sqrt(math.pi) / 16.0, rel=1e-12)
    assert obj["c_gap_stated"] * obj["c_sup"] == pytest.approx(obj["a_norm"], rel=1e-12)


def test_constants_usage_error(capsys):
    code, _ = run_cli(capsys, "constants", "--alpha", "2.5", "--dim", "1")
    assert code == 2


def test_oversized_lattice_is_a_usage_error(tmp_path, capsys):
    assert main(["solve", "--domain", "ball:0,0,1", "--h", "1e-5", "--out", str(tmp_path)]) == 2
    assert "choose a coarser h" in capsys.readouterr().err


def test_too_many_eigenpairs_is_a_usage_error(tmp_path, capsys):
    # n = 10000: ARPACK's arrays for k = 5000 would take ~1.6 GB, and the dense matrix is capped
    argv = ["solve", "--domain", "interval:-1,1", "--h", "2e-4", "--k", "5000", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "k = 5000 at n = 10000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_command(tmp_path, capsys, schema):
    code, out = run_cli(
        capsys,
        "solve",
        "--domain",
        "interval:-1,1",
        "--alpha",
        "1",
        "--h",
        "0.02",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    obj = json.loads(out)
    validate(obj, schema, "solve_report")
    validate(obj["bound_report"], schema, "bound_report")
    validate(obj["level_set"], schema, "level_set_report")
    assert obj["bound_report"]["lambda1"] > 1.0
    assert obj["bound_report"]["gap"] > obj["bound_report"]["lambda1"]
    assert (tmp_path / "eigenpairs.csv").exists()
    assert (tmp_path / "bound_report.json").exists()
    assert (tmp_path / "level_set.json").exists()


def test_solve_with_mask_domain(tmp_path, capsys, schema):
    mask = np.zeros((40, 40), dtype=bool)
    xs = (np.arange(40) + 0.5) * 0.05 - 1.0
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    mask[(xx**2 + yy**2) < 1.0] = True
    path = tmp_path / "disk.mask"
    save_mask(geometry.RasterMask(mask, 0.05, (-1.0, -1.0)), path)
    code, out = run_cli(
        capsys,
        "solve",
        "--domain",
        f"mask:{path}",
        "--alpha",
        "1",
        "--h",
        "0.1",
        "--out",
        str(tmp_path / "run"),
    )
    assert code == 0
    obj = json.loads(out)
    validate(obj, schema, "solve_report")
    assert obj["bound_report"]["d"] == 2


def test_solve_requires_domain(capsys):
    code, _ = run_cli(capsys, "solve", "--alpha", "1", "--h", "0.02")
    assert code == 2


def test_exit_time_command(tmp_path, capsys, schema):
    code, out = run_cli(
        capsys,
        "exit-time",
        "--domain",
        "interval:-1,1",
        "--alpha",
        "1",
        "--h",
        "0.01",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    obj = json.loads(out)
    validate(obj, schema, "exit_time_report")
    assert obj["exact_center_value"] == pytest.approx(1.0, rel=1e-12)
    assert obj["center_rel_err"] < 0.02
    assert (tmp_path / "exit_time.csv").exists()


@pytest.mark.parametrize(
    "centred, shifted",
    [("ball:0,0,1", "ball:3,0,1"), ("ball:0,0,1", "ball:0.5,0,1"), ("ball:0,1", "ball:3,1")],
)
def test_exit_time_exact_value_on_shifted_balls(tmp_path, capsys, centred, shifted):
    reports = []
    for i, domain in enumerate((centred, shifted)):
        code, out = run_cli(capsys, "exit-time", "--domain", domain, "--h", "0.05", "--out", str(tmp_path / str(i)))
        assert code == 0
        reports.append(json.loads(out))
    assert reports[1]["exact_center_value"] == reports[0]["exact_center_value"]
    assert reports[1]["center_rel_err"] < 0.01


def test_exit_time_exact_value_on_1d_box(tmp_path, capsys):
    reports = []
    for i, domain in enumerate(("interval:-1,1", "box:-1,1")):
        code, out = run_cli(capsys, "exit-time", "--domain", domain, "--h", "0.01", "--out", str(tmp_path / str(i)))
        assert code == 0
        reports.append(json.loads(out))
    assert reports[1]["exact_center_value"] == pytest.approx(1.0, rel=1e-12)
    assert reports[1]["center_rel_err"] == reports[0]["center_rel_err"]


def test_mc_command_deterministic(tmp_path, capsys, schema):
    argv = [
        "mc",
        "--domain",
        "interval:-1,1",
        "--alpha",
        "1",
        "--delta",
        "0.01",
        "--paths",
        "1500",
        "--seed",
        "3",
        "--out",
        str(tmp_path),
    ]
    code, out1 = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out1)
    validate(obj, schema, "mc_report")
    assert obj["grid_lambda1"] is not None  # 1D gets an automatic grid cross-check
    surv1 = (tmp_path / "survival.csv").read_bytes()
    code, out2 = run_cli(capsys, *argv)
    assert code == 0
    assert out1 == out2
    assert (tmp_path / "survival.csv").read_bytes() == surv1


def test_two_ball_command(tmp_path, capsys, schema):
    code, out = run_cli(
        capsys,
        "two-ball",
        "--separations",
        "4,8",
        "--alpha",
        "1",
        "--h",
        "0.05",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    obj = json.loads(out)
    validate(obj, schema, "two_ball_report")
    assert obj["slope"] < -1.5
    assert (tmp_path / "two_ball.csv").exists()


def test_suite_command(tmp_path, capsys, schema):
    code, out = run_cli(
        capsys,
        "suite",
        "--alphas",
        "1.0",
        "--h1d",
        "0.02",
        "--h2d",
        "0.1",
        "--separations",
        "4,8",
        "--two-ball-h",
        "0.05",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    obj = json.loads(out)
    validate(obj, schema, "suite_report")
    assert obj["passed"] is True
    assert len(obj["reports"]) == 6
    published = {r["label"] for r in obj["reports"] if r["published_value"] is not None}
    assert published == {"interval", "square", "disk"}
    # one row per run, as csv.writer renders it from the reported values
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["domain", "alpha", "lambda1", "lambda2", "gap", "thm1_margin", "thm2_margin"])
    for r in obj["reports"]:
        values = (r["lambda1"], r["lambda2"], r["gap"], r["sup_phi1"] / r["thm1_rhs"], r["gap"] / r["thm2_rhs_derived"])
        writer.writerow([r["label"], r["alpha"], *map(repr, values)])
    assert (tmp_path / "suite.csv").read_bytes() == want.getvalue().encode()


def test_published_value_only_on_canonical_domains(tmp_path, capsys):
    def published(*argv):
        code, out = run_cli(capsys, "solve", *argv, "--out", str(tmp_path))
        assert code == 0
        return json.loads(out)["bound_report"]["published_value"]

    # the labels match a published case, the domains do not
    assert published("--domain", "interval:0,5", "--h", "0.05") is None
    assert published("--domain", "box:0,0,3,1", "--label", "square", "--h", "0.1") is None
    assert published("--domain", "interval:-1,1", "--h", "0.05") == pytest.approx(1.0 / (3.0 * math.pi**2), rel=1e-12)


# command line -> {JSON file written under --out: its key in the printed report, or None for all of it}
WRITTEN_REPORTS = {
    "constants": (["constants", "--alpha", "1", "--dim", "2"], {"constants.json": None}),
    "solve": (
        ["solve", "--domain", "interval:-1,1", "--h", "0.05"],
        {"bound_report.json": "bound_report", "level_set.json": "level_set"},
    ),
    "exit-time": (["exit-time", "--domain", "interval:-1,1", "--h", "0.05"], {"exit_time.json": None}),
    "two-ball": (["two-ball", "--separations", "4,8", "--h", "0.05"], {"two_ball.json": None}),
    "suite": (
        ["suite", "--alphas", "1.0", "--h1d", "0.02", "--h2d", "0.1", "--separations", "4,8", "--two-ball-h", "0.05"],
        {"suite.json": None},
    ),
    "mc": (["mc", "--domain", "interval:-1,1", "--delta", "0.01", "--paths", "1000"], {"mc_report.json": None}),
}


@pytest.mark.parametrize("command", WRITTEN_REPORTS)
def test_written_json_is_the_printed_report(tmp_path, capsys, schema, command):
    argv, files = WRITTEN_REPORTS[command]
    code, out = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    printed = json.loads(out)
    assert sorted(path.name for path in tmp_path.glob("*.json")) == sorted(files)
    for name, key in files.items():
        obj = printed if key is None else printed[key]
        text = (tmp_path / name).read_text()
        validate(json.loads(text), schema, obj["kind"])
        assert text == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("command", WRITTEN_REPORTS)
def test_every_written_file_is_listed(tmp_path, capsys, command):
    argv, _ = WRITTEN_REPORTS[command]
    code, out = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    listed = json.loads(out)["files"]
    assert sorted(listed.values()) == sorted(str(path) for path in tmp_path.iterdir())


@pytest.mark.parametrize("command", WRITTEN_REPORTS)
def test_without_out_nothing_is_written(tmp_path, monkeypatch, capsys, command):
    argv, _ = WRITTEN_REPORTS[command]
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    assert json.loads(out)["files"] == {}


def test_exit_time_csv_is_the_csv_writer_rendering(tmp_path, capsys):
    code, out = run_cli(capsys, "exit-time", "--domain", "ball:0,0,1", "--h", "0.1", "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["files"] == {
        "exit_time": str(tmp_path / "exit_time.csv"),
        "report": str(tmp_path / "exit_time.json"),
    }
    grid = geometry.rasterize(Ball((0.0, 0.0), 1.0), 0.1)
    values = exit_time(assemble(grid, 1.0)).values
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["node", "x1", "x2", "s"])
    for i, ((x, y), s) in enumerate(zip(grid.centers, values)):
        writer.writerow([i, repr(float(x)), repr(float(y)), repr(float(s))])
    assert (tmp_path / "exit_time.csv").read_bytes() == want.getvalue().encode()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 1.0, "dim": 2}))
    code, out = run_cli(capsys, "constants", "--config", str(cfg_path), "--dim", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 1  # flag overrides file
    assert obj["alpha"] == 1.0  # file overrides default


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    code, _ = run_cli(capsys, "constants", "--config", str(cfg_path))
    assert code == 2


def test_alpha_out_of_recommended_range_warns_but_runs(capsys):
    with pytest.warns(UserWarning):
        code, out = run_cli(capsys, "constants", "--alpha", "1.9", "--dim", "1")
    assert code == 0
    assert json.loads(out)["alpha"] == 1.9


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["solve"], {"domain": 5, "h": 0.1}, id="solve-config-domain-number"),
        pytest.param(["solve"], {"domain": "interval:-1,1", "h": 0.05, "k": None}, id="solve-config-k-null"),
        pytest.param(["exit-time"], {"domain": 5, "h": 0.1}, id="exit-time-config-domain-number"),
        pytest.param(["mc", "--domain", "interval:-1,1", "--delta", "nan"], None, id="mc-delta-nan"),
        pytest.param(
            ["solve", "--domain", "interval:-1,1", "--h", "0.05", "--prop-slack", "nan"], None, id="solve-prop-slack-nan"
        ),
        pytest.param(["two-ball", "--dim", "3", "--separations", "4,8", "--h", "0.1"], None, id="two-ball-dim-3"),
        pytest.param(["two-ball", "--separations", "4", "--h", "0.05"], None, id="two-ball-one-separation"),
        pytest.param(
            ["mc", "--domain", "interval:-1,1", "--x0", "0,5,7", "--delta", "0.01", "--paths", "1000"],
            None,
            id="mc-x0-length-mismatch",
        ),
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, config):
    argv = [*argv, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert "NaN" not in captured.out


@pytest.mark.parametrize(
    "flag, value, message",
    [("--seed", "-1", "seed must be a non-negative integer"), ("--paths", str(2**32), "paths must be below 2^32")],
)
def test_mc_sampler_inputs_are_usage_errors(tmp_path, capsys, flag, value, message):
    # the sampler config rejects these on construction, before any path is allocated
    assert main(["mc", "--domain", "interval:-1,1", flag, value, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["mc", "--domain", "interval:-1,1"], {"seed": 3.7}, id="seed-fraction"),
        pytest.param(["mc", "--domain", "interval:-1,1"], {"seed": True}, id="seed-bool"),
        pytest.param(["mc", "--domain", "interval:-1,1"], {"paths": 1000.9}, id="paths-fraction"),
        pytest.param(["solve", "--domain", "interval:-1,1", "--h", "0.05"], {"k": 2.5}, id="k-fraction"),
        pytest.param(["constants"], {"dim": 1.9}, id="dim-fraction"),
        pytest.param(["suite"], {"workers": 1.5}, id="workers-fraction"),
        pytest.param(["suite", "--workers", "0"], None, id="workers-zero"),
    ],
)
def test_integer_flags_reject_other_values(tmp_path, capsys, argv, config):
    argv = [*argv, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert "usage error: bad value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_flags_accept_integral_numbers(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"alpha": 1.0, "dim": 2.0}))
    code, out = run_cli(capsys, "constants", "--config", str(tmp_path / "cfg.json"))
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_mc_report_independent_of_workers(tmp_path, capsys, monkeypatch):
    import fracgap.montecarlo as mc

    fork_map, used = mc.fork_map, []

    def recording_fork_map(fn, tasks, workers):
        used.append(workers)
        return fork_map(fn, tasks, workers)

    monkeypatch.setattr(mc, "fork_map", recording_fork_map)
    # 17 windows, the last holding one path: 1 worker on one core, 2 on two
    argv = ["mc", "--domain", "ball:0,0,1", "--delta", "0.01", "--paths", "2049", "--seed", "4"]
    reports = {}
    for workers in ("1", "2"):
        monkeypatch.setattr(mc, "usable_cores", lambda: int(workers))
        code, out = run_cli(capsys, *argv, "--out", str(tmp_path / workers))
        assert code == 0
        assert used.pop() == int(workers)
        reports[workers] = {key: val for key, val in json.loads(out).items() if key != "files"}
    assert reports["1"] == reports["2"]
    assert (tmp_path / "1" / "survival.csv").read_bytes() == (tmp_path / "2" / "survival.csv").read_bytes()


def test_config_file_matches_flags(tmp_path, capsys):
    values = {
        "domain": "interval:-1,1",
        "alpha": 1.2,
        "h": 0.05,
        "k": 4,
        "label": "unit",
        "prop_slack": 2.5,
    }
    flags = [t for key, val in values.items() for t in ("--" + key.replace("_", "-"), str(val))]
    code, by_flags = run_cli(capsys, "solve", *flags, "--out", str(tmp_path / "flags"))
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**values, "out": str(tmp_path / "config")}))
    code, by_config = run_cli(capsys, "solve", "--config", str(cfg_path))
    assert code == 0
    assert by_config.replace(str(tmp_path / "config"), "OUT") == by_flags.replace(str(tmp_path / "flags"), "OUT")
