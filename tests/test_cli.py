"""Command-line interface: tables, manifests, exit statuses."""

import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinwire
import spinwire.verify
from spinwire import cli
from spinwire.cli import main

T_STAR_21 = 21 * math.pi / 4
T_STAR_20 = 20 * math.pi / 4


@pytest.fixture()
def runner():
    return CliRunner()


def rows_of(output: str) -> list[list[str]]:
    lines = output.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout.startswith("spinwire, version ")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == spinwire.__version__


def test_transfer_perfect_mirror_row(runner):
    grid = f"{T_STAR_21}:{T_STAR_21}:1"
    result = runner.invoke(main, ["transfer", "--n", "21", "--grid", grid])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,tau,site,correlation"
    assert len(lines) == 1 + 21
    by_site = {int(r[2]): float(r[3]) for r in rows_of(result.stdout)}
    assert by_site[21] == pytest.approx(1.0, abs=1e-9)
    assert by_site[1] == pytest.approx(0.0, abs=1e-9)
    tau = float(rows_of(result.stdout)[0][1])
    assert tau == pytest.approx(math.pi / 2, abs=1e-12)


def test_transfer_dq_staggered_sign(runner):
    args = ["transfer", "--n", "6", "--grid", "1.234:1.234:1"]
    xx = runner.invoke(main, args + ["--model", "xx"])
    dq = runner.invoke(main, args + ["--model", "dq"])
    assert xx.exit_code == 0 and dq.exit_code == 0
    for row_xx, row_dq in zip(rows_of(xx.stdout), rows_of(dq.stdout)):
        l = int(row_xx[2])
        assert float(row_dq[3]) == (-1) ** (1 - l) * float(row_xx[3])


def test_transfer_single_target_and_empty_grid(runner):
    result = runner.invoke(
        main, ["transfer", "--n", "8", "--grid", "0:2:3", "--l", "8"]
    )
    assert result.exit_code == 0
    assert len(rows_of(result.stdout)) == 3
    empty = runner.invoke(main, ["transfer", "--n", "8", "--grid", "0:2:0"])
    assert empty.exit_code == 0
    assert empty.stdout == "t,tau,site,correlation\n"


def test_transfer_disorder_is_seeded(runner):
    args = ["transfer", "--n", "6", "--grid", "0:3:4", "--sigma", "0.05"]
    first = runner.invoke(main, args + ["--seed", "3"])
    second = runner.invoke(main, args + ["--seed", "3"])
    other = runner.invoke(main, args + ["--seed", "4"])
    assert first.stdout == second.stdout
    assert first.stdout != other.stdout


def test_usage_and_domain_errors(runner):
    bad_grid = runner.invoke(main, ["transfer", "--n", "8", "--grid", "0:2"])
    assert bad_grid.exit_code == 2
    bad_steps = runner.invoke(main, ["transfer", "--n", "8", "--grid", "0:2:-1"])
    assert bad_steps.exit_code == 2
    domain = runner.invoke(
        main, ["transfer", "--n", "1", "--family", "engineered", "--grid", "0:1:2"]
    )
    assert domain.exit_code == 1
    assert domain.stderr.startswith("error: ")


def test_logical_header_and_initial_row(runner):
    result = runner.invoke(main, ["logical", "--n", "8", "--grid", "0:0:1"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,c_x,c_y,c_z,c_1,fidelity"
    assert lines[1] == "0,0,0,0,0.5,0.125"


def test_logical_mirror_fidelity(runner):
    grid = f"{T_STAR_20}:{T_STAR_20}:1"
    result = runner.invoke(main, ["logical", "--n", "20", "--grid", grid])
    assert result.exit_code == 0
    assert float(rows_of(result.stdout)[0][5]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", ["0", "1", "2", "3"])
def test_logical_on_a_chain_without_two_end_pairs_is_a_length_error(runner, tmp_path, n):
    out = tmp_path / "table.csv"
    result = runner.invoke(main, ["logical", "--n", n, "--grid", "0:1:2", "--out", str(out)])
    assert_clean_domain_error(result)
    assert result.stderr == f"error: chain length must be >= 4, got {n}\n"
    assert list(tmp_path.iterdir()) == []


def test_logical_raw_dq_flips_two_channels(runner):
    args = ["logical", "--n", "6", "--model", "dq", "--grid", "0.9:0.9:1"]
    fixed = rows_of(runner.invoke(main, args).stdout)[0]
    raw = rows_of(runner.invoke(main, args + ["--raw"]).stdout)[0]
    assert float(raw[1]) == float(fixed[1])  # c_x unchanged
    assert float(raw[2]) == -float(fixed[2])  # c_y flips
    assert float(raw[3]) == -float(fixed[3])  # c_z flips
    assert float(raw[4]) == float(fixed[4])  # c_1 unchanged


def test_mqc_initial_intensities(runner):
    result = runner.invoke(main, ["mqc", "--n", "21", "--grid", "0:0:1"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,j0,j2"
    t, j0, j2 = (float(v) for v in lines[1].split(","))
    assert (t, j2) == (0.0, 0.0)
    assert j0 == pytest.approx(1.0, abs=1e-12)


def test_mqc_engines_agree(runner):
    args = ["mqc", "--n", "8", "--grid", "0.3:1.5:3"]
    analytic = rows_of(runner.invoke(main, args).stdout)
    oracle = rows_of(runner.invoke(main, args + ["--engine", "oracle"]).stdout)
    for row_a, row_o in zip(analytic, oracle):
        for a, o in zip(row_a, row_o):
            assert float(o) == pytest.approx(float(a), abs=1e-8)


def test_mqc_x_logical_is_dark(runner):
    result = runner.invoke(
        main, ["mqc", "--n", "8", "--initial", "x-logical", "--grid", "0:2:5"]
    )
    assert result.exit_code == 0
    for row in rows_of(result.stdout):
        assert float(row[1]) == 0.0
        assert float(row[2]) == 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["mqc", "--n", "3", "--initial", "y-logical", "--grid", "0:1:0"],
        ["mqc", "--n", "1", "--grid", "0:1:0"],
        ["mqc", "--n", "8", "--d", "-1", "--grid", "0:1:0"],
    ],
)
def test_mqc_validates_an_empty_grid(runner, args):
    assert_clean_domain_error(runner.invoke(main, args))


@pytest.mark.parametrize("phase_steps", ["-5", "4"])
def test_analytic_mqc_refuses_a_cycle_that_cannot_resolve_its_orders(
    runner, tmp_path, phase_steps
):
    # the analytic engine runs no cycle, but the manifest would record this one
    base = ["mqc", "--n", "6", "--grid", "0:1:2"]
    out = tmp_path / "table.csv"
    result = runner.invoke(main, base + ["--phase-steps", phase_steps, "--out", str(out)])
    assert_clean_domain_error(result)
    assert list(tmp_path.iterdir()) == []
    # the smallest cycle that resolves order 2 leaves the analytic table as it was
    tables = [runner.invoke(main, base + extra) for extra in ([], ["--phase-steps", "5"])]
    assert tables[0].exit_code == tables[1].exit_code == 0
    assert tables[0].stdout == tables[1].stdout


# 10^11 phases would not fit in memory; 2^63 and 10^30 do not fit in an int64 either
@pytest.mark.parametrize("phase_steps", [10**11, 2**63, 10**30])
def test_oracle_folds_a_long_phase_cycle_without_forming_its_phases(runner, phase_steps):
    # every cycle longer than 2 (n + 2) resolves each order alike
    base = ["mqc", "--n", "6", "--engine", "oracle", "--grid", "0:3:4"]
    long = runner.invoke(main, base + ["--phase-steps", str(phase_steps)])
    short = runner.invoke(main, base + ["--phase-steps", "16"])
    assert long.exit_code == short.exit_code == 0, long.output
    got, want = (np.array(rows_of(r.stdout), dtype=float) for r in (long, short))
    assert got.shape == want.shape == (4, 3)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_mqc_oracle_respects_budget(runner):
    result = runner.invoke(
        main, ["mqc", "--n", "21", "--engine", "oracle", "--grid", "0:1:2"]
    )
    assert result.exit_code == 1
    assert "error: " in result.stderr


def test_manifest_round_trip(runner, tmp_path):
    out = tmp_path / "table.csv"
    args = ["logical", "--n", "8", "--grid", "0:4:9", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    text = out.read_text()
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert set(manifest) == {
        "schema", "command", "parameters", "artifact-version",
        "timestamp", "output-files",
    }
    assert manifest["schema"] == "spinwire.manifest/1"
    assert manifest["command"] == "logical"
    assert manifest["parameters"]["n"] == 8
    (entry,) = manifest["output-files"]
    assert entry["path"] == "table.csv"
    assert entry["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert entry["bytes"] == len(text)
    # reproduction: same command, bit-identical table
    out2 = tmp_path / "again.csv"
    assert runner.invoke(main, args[:-1] + [str(out2)]).exit_code == 0
    assert out2.read_text() == text


DEFAULT_PARAMETERS = {
    "transfer": {"n": 6, "d": 1.0, "family": "engineered", "model": "xx",
                 "grid": [0.0, 2.0, 5], "j": 1, "l": None, "sigma": 0.0, "seed": 0},
    "logical": {"n": 6, "d": 1.0, "family": "engineered", "model": "xx", "corrected": True,
                "grid": [0.0, 2.0, 5]},
    "mqc": {"n": 6, "d": 1.0, "initial": "z-ends", "engine": "analytic", "phase_steps": 8,
            "grid": [0.0, 2.0, 5]},
}
SET_PARAMETERS = {
    "transfer": (["--d", "0.5", "--family", "homogeneous", "--model", "dq", "--j", "2",
                  "--l", "5", "--sigma", "0.1", "--seed", "3"],
                 {"d": 0.5, "family": "homogeneous", "model": "dq", "j": 2, "l": 5,
                  "sigma": 0.1, "seed": 3}),
    "logical": (["--d", "2", "--family", "homogeneous", "--model", "dq", "--raw"],
                {"d": 2.0, "family": "homogeneous", "model": "dq", "corrected": False}),
    "mqc": (["--d", "0.5", "--initial", "y-logical", "--engine", "oracle",
             "--phase-steps", "6"],
            {"d": 0.5, "initial": "y-logical", "engine": "oracle", "phase_steps": 6}),
}


@pytest.mark.parametrize("command", sorted(DEFAULT_PARAMETERS))
@pytest.mark.parametrize("options", ["defaults", "set", "empty grid"])
def test_manifest_records_every_resolved_option_but_out(runner, tmp_path, command, options):
    out = tmp_path / "table.csv"
    grid = "0:1:0" if options == "empty grid" else "0:2:5"
    args = [command, "--n", "6", "--grid", grid, "--out", str(out)]
    want = dict(DEFAULT_PARAMETERS[command])
    if options == "set":
        args += SET_PARAMETERS[command][0]
        want.update(SET_PARAMETERS[command][1])
    if options == "empty grid":
        want["grid"] = [0.0, 0.0, 0]
    assert runner.invoke(main, args).exit_code == 0
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["parameters"] == want
    # bool, int and float values keep their JSON types
    got = manifest["parameters"]
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


def test_verify_command_passes(runner):
    result = runner.invoke(main, ["verify", "--max-n", "4"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[-1] == "20/20 checks passed"
    assert sum(line.startswith("ok  ") for line in lines[:-1]) == 20


def test_verify_failure_reports_inputs(runner):
    result = runner.invoke(main, ["verify", "--max-n", "4", "--tolerance", "0"])
    assert result.exit_code == 1
    summary = result.stdout.strip().splitlines()[-1]
    passed = int(summary.split("/")[0])
    assert summary.endswith("/20 checks passed")
    assert passed < 20
    assert result.stderr.splitlines()[0] == "failing inputs:"
    assert "slater_vs_oracle" in result.stderr


def test_verify_rejects_out_of_range_max_n(runner):
    for bad in ("3", "13"):
        result = runner.invoke(main, ["verify", "--max-n", bad])
        assert result.exit_code == 1
        assert "max_n must be in 4..12" in result.stderr


@pytest.mark.parametrize("budget", ["2", "3"])
def test_verify_refuses_an_oracle_budget_below_4(runner, monkeypatch, budget):
    # the logical checks need both end pairs of a 4-site chain; no check runs
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", budget)
    result = runner.invoke(main, ["verify", "--max-n", "8"])
    assert_clean_domain_error(result)
    assert "SPINWIRE_ORACLE_MAX_N >= 4" in result.stderr


def test_verify_passes_at_an_oracle_budget_of_4(runner, monkeypatch):
    monkeypatch.setenv("SPINWIRE_ORACLE_MAX_N", "4")
    result = runner.invoke(main, ["verify", "--max-n", "8"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-1] == "20/20 checks passed"


@pytest.mark.parametrize(
    "args, code",
    [(["verify", "--max-n", "4"], 0),
     (["mqc", "--n", "4", "--phase-steps", "4", "--grid", "0:1:2"], 1)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_module_form_runs_the_command(args, code):
    # python -m spinwire.cli, the form that needs no installed console script
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "spinwire.cli", *args], capture_output=True,
                          text=True, cwd=src, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.splitlines()[-1] == "20/20 checks passed"
    else:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def assert_clean_domain_error(result):
    """Exit 1 through the domain-error handler: one ``error:`` line, no traceback."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in result.output
    assert result.stdout == ""


@pytest.mark.parametrize("d", ["-1", "nan", "0", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ["logical", "--n", "8", "--family", "homogeneous", "--grid", "0:2:3"],
        ["logical", "--n", "8", "--family", "engineered", "--grid", "0:2:3"],
        ["mqc", "--n", "8", "--grid", "0:2:3"],
        ["mqc", "--n", "8", "--initial", "x-logical", "--grid", "0:2:3"],
    ],
)
def test_bad_coupling_scale_is_a_domain_error(runner, args, d):
    assert_clean_domain_error(runner.invoke(main, args + ["--d", d]))


def test_negative_disorder_seed_is_a_domain_error(runner):
    result = runner.invoke(
        main, ["transfer", "--n", "6", "--grid", "0:1:2", "--sigma", "0.1", "--seed", "-1"]
    )
    assert_clean_domain_error(result)


# 10^17 steps is past any address space, so the grid fails at once on any machine
BAD_GRIDS = [
    ("0:inf:2", "must be finite"),
    ("-inf:1:2", "must be finite"),
    ("nan:1:2", "must be finite"),
    ("0:nan:0", "must be finite"),
    ("0:1:100000000000000000", "do not fit in memory"),
    ("a:b:3", "expected start:end:steps numbers"),
]


@pytest.mark.parametrize("grid, message", BAD_GRIDS, ids=[grid for grid, _ in BAD_GRIDS])
def test_non_finite_grid_is_a_usage_error(runner, grid, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["transfer", "--n", "4", "--grid", grid])
    assert result.exit_code == 2
    assert message in result.stderr
    assert "Traceback" not in result.output


# numpy names the allocation that failed; a bare MemoryError still names its cause
@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 29.8 GiB"), "error: Unable to allocate 29.8 GiB"),
        (MemoryError(), "error: out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_exhausted_memory_is_a_domain_error(runner, monkeypatch, error, line):
    # never allocate for real: the transport path raises as an oversized grid would
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, "propagate_grid", exhausted)
    result = runner.invoke(main, ["transfer", "--n", "4", "--grid", "0:1:2"])
    assert_clean_domain_error(result)
    assert result.stderr == line + "\n"


def test_bad_sites_are_domain_errors(runner):
    for extra in (["--j", "9"], ["--l", "0"]):
        result = runner.invoke(main, ["transfer", "--n", "8", "--grid", "0:1:2"] + extra)
        assert_clean_domain_error(result)
    assert_clean_domain_error(runner.invoke(main, ["logical", "--n", "3", "--grid", "0:1:2"]))


@pytest.mark.parametrize(
    "extra",
    [["--seed", "-1"], ["--tolerance", "nan"], ["--tolerance", "-1"], ["--tolerance", "inf"]],
)
def test_verify_rejects_bad_seed_and_tolerance(runner, extra):
    assert_clean_domain_error(runner.invoke(main, ["verify", "--max-n", "4"] + extra))


def assert_table_or_one_error(result, header, rows):
    """Exit 0 with a finite table of ``rows`` rows, or exit 1 or 2 with one error line."""
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        lines = result.stdout.splitlines()
        assert lines[0] == header and len(lines) == 1 + rows
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))
        return
    assert_one_error(result)


def assert_one_error(result):
    """Exit 1 with one ``error:`` line, or exit 2 with Click's usage and one ``Error:`` line."""
    assert isinstance(result.exception, SystemExit) and result.stdout == ""
    if result.exit_code == 1:
        assert_clean_domain_error(result)
        return
    # usage errors: Click's usage and hint lines, then one error line
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and result.stderr.endswith(errors[0] + "\n")


def test_mqc_engines_agree_on_a_time_only_the_chains_rate_bounds(runner):
    # t = 2^31 turns A(4t) of the d = 1e-3 chain by 8e-3 t = 1.7e7 rad, inside the 2^32 rad range
    args = ["mqc", "--n", "4", "--d", "1e-3", "--grid", "2147483648:2147483648:1"]
    rows = {}
    for engine in ("analytic", "oracle"):
        result = runner.invoke(main, args + ["--engine", engine])
        assert result.exit_code == 0, result.output
        (row,) = rows_of(result.stdout)
        rows[engine] = [float(v) for v in row]
    assert rows["analytic"] == pytest.approx(rows["oracle"], abs=1e-8)


# unbounded finite floats reach +-1.8e308, where every phase w t overflows
GRID_ENDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["nan", "inf", "-inf"]),
)
SCALES = st.sampled_from(["1", "0.5", "0", "-1", "nan", "inf", "1e300"])


@given(
    n=st.integers(0, 12),
    d=SCALES,
    initial=st.sampled_from(["z-ends", "y-logical", "x-logical"]),
    engine=st.sampled_from(["analytic", "oracle"]),
    phase_steps=st.integers(-1, 20),
    start=GRID_ENDS,
    end=GRID_ENDS,
    steps=st.integers(0, 4),
)
@example(n=6, d="1", initial="z-ends", engine="analytic", phase_steps=8,
         start=0.0, end=1e308, steps=2)  # the phase w t overflows
@example(n=6, d="1", initial="y-logical", engine="oracle", phase_steps=8,
         start=0.0, end=1.7e308, steps=2)
@example(n=6, d="1", initial="z-ends", engine="analytic", phase_steps=8,
         start=-1e308, end=1e308, steps=3)  # the grid span overflows
@settings(max_examples=80, deadline=None)
def test_mqc_argv_gives_a_finite_table_or_one_error_line(
    n, d, initial, engine, phase_steps, start, end, steps
):
    args = [
        "mqc", "--n", str(n), "--d", d, "--initial", initial, "--engine", engine,
        "--phase-steps", str(phase_steps), "--grid", f"{start}:{end}:{steps}",
    ]
    assert_table_or_one_error(CliRunner().invoke(main, args), "t,j0,j2", steps)


@given(
    n=st.integers(1, 40),
    d=SCALES,
    family=st.sampled_from(["homogeneous", "engineered", "dipolar"]),
    model=st.sampled_from(["xx", "dq"]),
    source=st.integers(0, 41),
    target=st.none() | st.integers(0, 41),
    sigma=st.sampled_from(["0", "0.05", "-0.1", "nan"]),
    seed=st.integers(-1, 3),
    start=GRID_ENDS,
    end=GRID_ENDS,
    steps=st.integers(0, 4),
)
@example(n=6, d="1", family="engineered", model="xx", source=1, target=None, sigma="0",
         seed=0, start=0.0, end=1e308, steps=2)  # the phase w t overflows
@example(n=6, d="1", family="homogeneous", model="dq", source=1, target=6, sigma="0",
         seed=0, start=-1e308, end=0.0, steps=2)
@settings(max_examples=80, deadline=None)
def test_transfer_argv_gives_a_finite_table_or_one_error_line(
    n, d, family, model, source, target, sigma, seed, start, end, steps
):
    args = [
        "transfer", "--n", str(n), "--d", d, "--family", family, "--model", model,
        "--j", str(source), "--sigma", sigma, "--seed", str(seed),
        "--grid", f"{start}:{end}:{steps}",
    ]
    if target is not None:
        args += ["--l", str(target)]
    rows = steps * (n if target is None else 1)
    assert_table_or_one_error(CliRunner().invoke(main, args), "t,tau,site,correlation", rows)


@given(
    n=st.integers(1, 40),
    d=SCALES,
    family=st.sampled_from(["homogeneous", "engineered"]),
    model=st.sampled_from(["xx", "dq"]),
    corrected=st.sampled_from(["--corrected", "--raw"]),
    start=GRID_ENDS,
    end=GRID_ENDS,
    steps=st.integers(0, 4),
)
@example(n=8, d="1", family="homogeneous", model="xx", corrected="--corrected",
         start=0.0, end=1e308, steps=2)  # the phase w t overflows
@settings(max_examples=80, deadline=None)
def test_logical_argv_gives_a_finite_table_or_one_error_line(
    n, d, family, model, corrected, start, end, steps
):
    args = [
        "logical", "--n", str(n), "--d", d, "--family", family, "--model", model,
        corrected, "--grid", f"{start}:{end}:{steps}",
    ]
    header = "t,c_x,c_y,c_z,c_1,fidelity"
    assert_table_or_one_error(CliRunner().invoke(main, args), header, steps)


@given(
    max_n=st.integers(-2, 15),
    seed=st.integers(-2, 3),
    tolerance=st.none() | st.sampled_from(["0", "1e-8", "nan", "inf", "-1", "x"]),
)
@example(max_n=4, seed=0, tolerance=None)  # every check passes
@example(max_n=4, seed=0, tolerance="0")  # the report with its failing checks
@example(max_n=3, seed=0, tolerance=None)  # a domain error
@example(max_n=4, seed=0, tolerance="x")  # a usage error
@settings(max_examples=30, deadline=None)
def test_verify_argv_gives_the_report_or_one_error_line(max_n, seed, tolerance):
    args = ["verify", "--max-n", str(max_n), "--seed", str(seed)]
    if tolerance is not None:
        args += ["--tolerance", tolerance]
    result = CliRunner().invoke(main, args)
    assert "Traceback" not in result.output
    if not result.stdout:
        assert_one_error(result)
        return
    *lines, summary = result.stdout.splitlines()
    assert len(lines) == 20 and all(line[:5] in ("ok   ", "FAIL ") for line in lines)
    failing = [line[5:].split(":")[0] for line in lines if line.startswith("FAIL")]
    assert summary == f"{20 - len(failing)}/20 checks passed"
    if result.exit_code == 0:
        assert not failing and result.stderr == ""
        return
    # exit 1 with the full report: the failing checks and their inputs go to stderr
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit) and failing
    header, *inputs = result.stderr.splitlines()
    assert header == "failing inputs:"
    assert [line.split(":")[0].strip() for line in inputs] == failing


def test_decomposition_size_cap_is_a_domain_error(runner):
    result = runner.invoke(main, ["transfer", "--n", "10001", "--grid", "0:1:2"])
    assert_clean_domain_error(result)
    assert "n <= 10000" in result.stderr


def test_phase_past_two_to_the_32_is_a_domain_error(runner):
    # the n = 5 engineered chain's largest frequency is 1.6, so t = 1e10 puts its phase at
    # 1.6e10 rad, where a float phase leaves an error of about 2e-6 in exp(-i w t)
    result = runner.invoke(main, ["transfer", "--n", "5", "--grid", "1e10:1e10:1"])
    assert_clean_domain_error(result)
    assert "time out of range" in result.stderr


def test_phase_just_under_two_to_the_32_runs(runner):
    # the table's tau = 2 d t / n holds t to the rate 2 d, above the chain's 1.6
    t = 0.99 * 2**32 / 2.0
    result = runner.invoke(main, ["transfer", "--n", "5", "--grid", f"{t!r}:{t!r}:1"])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 5 and all(math.isfinite(float(r[-1])) for r in rows)


@pytest.mark.parametrize(
    "args",
    [
        ["transfer", "--grid", "0:1:2"],
        ["transfer", "--family", "homogeneous", "--grid", "0:1:2"],
        ["transfer", "--family", "dipolar", "--grid", "0:1:2"],
        ["logical", "--grid", "0:1:2"],
        ["mqc", "--grid", "0:1:2"],
        ["mqc", "--engine", "oracle", "--grid", "0:1:2"],
    ],
    ids=lambda args: " ".join(args),
)
def test_huge_length_fails_before_any_chain_is_built(runner, args):
    # 10^12 couplings would need 8 TB; the length cap is checked first
    result = runner.invoke(main, args + ["--n", "1000000000000"])
    assert_clean_domain_error(result)
    assert "n <= 10000" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["transfer", "--n", "30", "--grid", "-2:5:41"],
        ["transfer", "--n", "7", "--model", "dq", "--l", "4", "--grid", "-0:1:3"],
        ["logical", "--n", "6", "--model", "dq", "--raw", "--grid", "-1:3:17"],
        ["mqc", "--n", "6", "--initial", "y-logical", "--grid", "-1:3:17"],
    ],
    ids=lambda args: " ".join(args),
)
def test_stdout_and_out_file_hold_the_same_bytes(runner, tmp_path, args):
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0
    out = tmp_path / "table.csv"
    assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
    data = out.read_bytes()
    assert printed.stdout_bytes == data
    (entry,) = json.loads((tmp_path / "table.csv.manifest.json").read_text())["output-files"]
    assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    assert entry["bytes"] == len(data)


def test_stdout_tables_skip_the_ansi_stripping_pass(runner, tmp_path, monkeypatch):
    args = ["transfer", "--n", "30", "--grid", "-2:5:41"]
    out = tmp_path / "table.csv"
    assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0

    def never(*args):
        raise AssertionError("the table went through click's ANSI stripping")

    monkeypatch.setattr(click.utils, "strip_ansi", never)
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0, printed.exception
    assert printed.stdout_bytes == out.read_bytes()


@pytest.mark.parametrize("parent", ["missing directory", "regular file"])
@pytest.mark.parametrize(
    "args",
    [
        ["transfer", "--n", "4", "--grid", "0:1:2"],
        ["logical", "--n", "4", "--grid", "0:1:2"],
        ["mqc", "--n", "4", "--grid", "0:1:2"],
        ["verify", "--max-n", "4"],
    ],
    ids=lambda args: args[0],
)
def test_an_unwritable_out_is_one_error_line(runner, tmp_path, args, parent):
    if parent == "regular file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x.out"
    else:
        out = tmp_path / "missing" / "x.out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]
    assert "Traceback" not in result.output


def test_a_manifest_path_that_cannot_be_written_leaves_no_table(runner, tmp_path):
    # the table and its manifest are moved into place together or not at all
    (tmp_path / "x.csv.manifest.json").mkdir()
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["transfer", "--n", "4", "--grid", "0:1:2", "--out", str(out)])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "x.csv.manifest.json" in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv.manifest.json"]


def test_a_written_table_leaves_no_temporary_behind(runner, tmp_path):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["transfer", "--n", "4", "--grid", "0:1:2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.csv.manifest.json"]
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["output-files"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_verify_checks_its_out_directory_before_any_check(runner, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(spinwire.verify, "CHECKS", (never,))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x.json"
    result = runner.invoke(main, ["verify", "--max-n", "4", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]


def test_a_reader_closing_stdout_early_gets_no_error_line():
    # a 13 MB table: the writer is still writing when the pipe closes
    src = Path(cli.__file__).resolve().parents[1]
    args = ["transfer", "--n", "200", "--grid", "0:100:2001"]
    with subprocess.Popen([sys.executable, "-m", "spinwire.cli", *args], cwd=src,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=300)
    assert head.startswith(b"t,tau,site,correlation\n")
    assert proc.returncode == 1
    assert stderr == b""


# -- BLAS thread policy ----------------------------------------------------------

def _blas_threads():
    """numpy's BLAS thread count now, or None when it cannot be read."""
    api = cli._numpy_blas()
    return None if api is None else api[0]()


requires_blas_threads = pytest.mark.skipif(
    _blas_threads() is None, reason="numpy's BLAS thread count cannot be read on this build"
)


@requires_blas_threads
@pytest.mark.parametrize(
    "args, code",
    [
        (["transfer", "--n", "12", "--grid", "0:2:5"], 0),
        (["logical", "--n", "8", "--grid", "0:2:5"], 0),
        (["mqc", "--n", "6", "--grid", "0:2:5"], 0),
        (["mqc", "--n", "6", "--engine", "oracle", "--grid", "0:2:3"], 0),
        (["verify", "--max-n", "4"], 0),
        (["verify", "--max-n", "4", "--tolerance", "0"], 1),
        (["transfer", "--n", "6", "--d", "-1", "--grid", "0:1:2"], 1),
        (["mqc", "--n", "6", "--engine", "oracle", "--phase-steps", "2", "--grid", "0:1:2"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_each_command_restores_the_blas_thread_count(runner, args, code):
    # a count other than the command's own 1, so a missed restore shows
    with cli._blas_thread_limit(2):
        before = _blas_threads()
        assert runner.invoke(main, args).exit_code == code
        assert _blas_threads() == before


def _recording(monkeypatch, name):
    """Wrap ``cli.<name>`` so each call records numpy's BLAS thread count; return the record."""
    seen, inner = [], getattr(cli, name)

    def recorder(*args, **kwargs):
        seen.append(_blas_threads())
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorder)
    return seen


@requires_blas_threads
@pytest.mark.parametrize(
    "engine, args",
    [
        ("propagate_grid", ["transfer", "--n", "12", "--grid", "0:2:5"]),
        ("mqc_phase_cycled_grid", ["mqc", "--n", "6", "--engine", "oracle", "--grid", "0:2:3"]),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_engines_run_on_one_blas_thread(runner, monkeypatch, engine, args):
    seen = _recording(monkeypatch, engine)
    with cli._blas_thread_limit(2):
        assert runner.invoke(main, args).exit_code == 0
    assert seen == [1]


@requires_blas_threads
def test_import_resolves_nothing_and_keeps_the_blas_thread_count():
    # a fresh interpreter with this one's environment starts at this one's count
    code = (
        "import spinwire.cli as cli; "
        "assert cli._numpy_blas.cache_info().currsize == 0; "
        "print(cli._numpy_blas()[0]())"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=src, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == _blas_threads()


def test_a_table_command_leaves_scipy_linalg_unimported():
    # scipy.linalg's package __init__ was half of a fresh start-up; dstevd
    # comes from its _flapack extension alone, and a later import of the
    # package must still work and agree bit for bit
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from spinwire.cli import main\n"
        "try:\n"
        "    main(args=['transfer', '--n', '4', '--grid', '0:1:2'], prog_name='spinwire')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert 'scipy.linalg' not in sys.modules, [m for m in sys.modules if 'scipy' in m]\n"
        "from spinwire.chain import engineered_couplings\n"
        "from spinwire.propagator import _eigh_tridiagonal, spectral_decompose\n"
        "spec = engineered_couplings(12)\n"
        "dec = spectral_decompose(spec)\n"
        "from scipy.linalg import eigh_tridiagonal\n"
        "w, v = eigh_tridiagonal(np.zeros(12), np.array(spec.couplings))\n"
        "assert np.array_equal(dec.frequencies, w)\n"
        "assert np.array_equal(dec.modes, v)\n"
        "got = _eigh_tridiagonal(np.array(spec.couplings))\n"
        "assert np.array_equal(got[0], w) and np.array_equal(got[1], v)\n"
        "print('ok')\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=src, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
