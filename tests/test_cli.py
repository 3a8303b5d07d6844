"""Command-line interface: tables, manifests, exit statuses."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

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


@pytest.mark.parametrize("grid", ["0:inf:2", "-inf:1:2", "nan:1:2", "0:nan:0"])
def test_non_finite_grid_is_a_usage_error(runner, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["transfer", "--n", "4", "--grid", grid])
    assert result.exit_code == 2
    assert "must be finite" in result.stderr


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
