"""Golden verify reports: ``spinwire verify`` must keep its exact bytes.

Each ``tests/golden/verify/<name>.json`` is the ``--out`` report and
``<name>.txt`` the stdout of ``spinwire verify <argv>``. The test is
byte-exact: the registry must run the same checks on the same random
draws in the same order, to the last rounding bit. The files change
only through ``tests/rebaseline_verify.py``, which regenerates them
and refuses any change but a deviation that moves by at most 1e-13.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from spinwire.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify"

CASES = {
    "verify_n4_s0": (["--max-n", "4", "--seed", "0"], 0),
    "verify_n4_s3": (["--max-n", "4", "--seed", "3"], 0),
    "verify_n8_s0": (["--max-n", "8", "--seed", "0"], 0),
    "verify_n8_s1": (["--max-n", "8", "--seed", "1"], 0),
    "verify_n12_s0": (["--max-n", "12", "--seed", "0"], 0),
    "verify_n5_s0_tol0": (["--max-n", "5", "--seed", "0", "--tolerance", "0"], 1),
}


def run_case(name: str, report: Path):
    """``spinwire verify`` with the arguments of case ``name`` and ``--out report``."""
    args, _ = CASES[name]
    return CliRunner().invoke(main, ["verify", *args, "--out", str(report)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_matches_golden(name, tmp_path):
    report = tmp_path / "report.json"
    result = run_case(name, report)
    assert result.exit_code == CASES[name][1], result.output
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text()
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
