"""Golden tables: every CLI table must keep matching the reference output.

Each file under ``tests/golden/`` is the CSV that ``spinwire <argv>``
printed before the batched time-grid engine replaced the per-time
propagator and the closed-form sums in the CLI. The analytic ``mqc_z_ends``
and ``mqc_y_logical`` tables come from the per-time closed-form series
that ``mqc_propagator_grid`` later replaced; the
``mqc_oracle_*`` tables were printed by the per-time dense phase cycle
before the sector-blocked grid engine replaced it, except
``mqc_oracle_n10_y_logical``, printed by that engine while it still
sliced its sector blocks out of the dense 2^n x 2^n operators.
``transfer_dipolar_dq`` pins the implanted-geometry path of ``--family
dipolar``; it was printed before the all-pairs ``dipolar`` chain model
was removed. The files are fixed references, not snapshots to refresh: a change that
moves a value by more than ``TOL`` is a regression. Header, row count and the exact
``t``/``tau``/``site`` columns must be identical; every other value may
move in its last digits only.
"""

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spinwire import cli
from spinwire.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12
EXACT_COLUMNS = ("t", "tau", "site")

CASES = {
    "transfer_engineered_xx": ["transfer", "--n", "12", "--grid", "0:10:31"],
    "transfer_engineered_dq": ["transfer", "--n", "12", "--model", "dq", "--grid", "0:10:31"],
    "transfer_homogeneous_xx": ["transfer", "--n", "9", "--family", "homogeneous",
                                "--d", "0.7", "--j", "3", "--grid", "-2:6:17"],
    "transfer_dipolar_dq": ["transfer", "--n", "10", "--family", "dipolar", "--model", "dq",
                            "--grid", "0:10:21"],
    "transfer_disordered_target": ["transfer", "--n", "200", "--l", "200", "--sigma", "0.05",
                                   "--seed", "7", "--grid", "0:100:101"],
    "logical_homogeneous_xx": ["logical", "--n", "10", "--family", "homogeneous",
                               "--grid", "0:16:81"],
    "logical_homogeneous_dq_raw": ["logical", "--n", "10", "--family", "homogeneous",
                                   "--model", "dq", "--raw", "--grid", "0:16:81"],
    "logical_homogeneous_long": ["logical", "--n", "200", "--family", "homogeneous",
                                 "--grid", "0:16:41"],
    "logical_engineered_even": ["logical", "--n", "20", "--family", "engineered",
                                "--grid", "0:16:81"],
    "logical_engineered_odd": ["logical", "--n", "21", "--family", "engineered",
                               "--d", "1.3", "--grid", "0:16:81"],
    "logical_engineered_dq_raw": ["logical", "--n", "20", "--family", "engineered",
                                  "--model", "dq", "--raw", "--grid", "0:16:81"],
    "mqc_z_ends": ["mqc", "--n", "12", "--grid", "0:5:51"],
    "mqc_y_logical": ["mqc", "--n", "12", "--initial", "y-logical", "--grid", "0:5:51"],
    "mqc_oracle_z_ends": ["mqc", "--n", "6", "--engine", "oracle", "--grid", "0:3:16"],
    "mqc_oracle_y_logical": ["mqc", "--n", "8", "--engine", "oracle", "--phase-steps", "16",
                             "--initial", "y-logical", "--grid", "0:3.5:11"],
    "mqc_oracle_x_logical_odd": ["mqc", "--n", "7", "--engine", "oracle",
                                 "--initial", "x-logical", "--grid", "-1:2:7"],
    "mqc_oracle_n10": ["mqc", "--n", "10", "--engine", "oracle", "--grid", "1.5:1.5:1"],
    "mqc_oracle_n10_y_logical": ["mqc", "--n", "10", "--engine", "oracle", "--initial",
                                 "y-logical", "--phase-steps", "16", "--grid", "0:3:4"],
}


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    result = CliRunner().invoke(main, CASES[name])
    assert result.exit_code == 0, result.output
    want_header, want = _table((GOLDEN / f"{name}.csv").read_text())
    got_header, got = _table(result.stdout)
    assert got_header == want_header
    assert len(got) == len(want)
    for col, label in enumerate(want_header):
        got_col = [row[col] for row in got]
        want_col = [row[col] for row in want]
        if label in EXACT_COLUMNS:
            assert got_col == want_col, label
        else:
            err = np.max(np.abs(np.array(got_col, float) - np.array(want_col, float)), initial=0.0)
            assert err <= TOL, f"{label}: max error {err:.3e}"


@pytest.mark.parametrize("name", ["transfer_disordered_target", "mqc_oracle_n10_y_logical"])
def test_tables_match_golden_where_the_blas_thread_count_cannot_be_set(monkeypatch, name):
    # as on an MKL, Accelerate or system-BLAS numpy: the thread policy is then a no-op
    monkeypatch.setattr(cli, "_numpy_blas", lambda: None)
    test_cli_matches_golden(name)
