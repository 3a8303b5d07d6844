"""Regenerate the golden ``verify`` reports, refusing every change but rounding.

    PYTHONPATH=src python tests/rebaseline_verify.py

Runs ``spinwire verify`` on each case of ``test_verify_golden.CASES`` and
holds the new report against its golden ``.json``. If, in any case, the
schema, the parameters or the exit code changed, a check was added,
dropped, renamed or moved, a check's ``inputs``, ``tolerance`` or
``passed`` changed, or a deviation moved by more than ``SLACK``, it prints
why, writes nothing and exits 1. Otherwise it writes the ``.json`` and
``.txt`` files that changed and prints an old -> new table of every
deviation that moved. Run again on the same tree, it moves nothing.

pytest does not collect this file; ``test_rebaseline_verify.py`` tests
the guard.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from test_verify_golden import CASES, GOLDEN, run_case

# below the smallest nonzero check tolerance, 1e-12, so no rounding move can flip a verdict
SLACK = 1e-13


def refusals(old: dict, new: dict) -> list[str]:
    """Why the report ``new`` may not replace the golden report ``old``; empty if it may."""
    reasons = [f"{key} changed" for key in ("schema", "parameters", "passed")
               if old.get(key) != new.get(key)]
    names = [c["name"] for c in old["checks"]], [c["name"] for c in new["checks"]]
    if names[0] != names[1]:
        return reasons + [f"check names or order changed: {names[0]} -> {names[1]}"]
    for a, b in zip(old["checks"], new["checks"]):
        if set(a) != set(b):
            reasons.append(f"{a['name']}: fields changed: {sorted(a)} -> {sorted(b)}")
            continue
        reasons += [f"{a['name']}: {key} changed" for key in ("inputs", "tolerance", "passed")
                    if a[key] != b[key]]
        if not abs(b["deviation"] - a["deviation"]) <= SLACK:
            reasons.append(f"{a['name']}: deviation {a['deviation']!r} -> {b['deviation']!r} "
                           f"moved by more than {SLACK:g}")
    return reasons


def moves(old: dict, new: dict) -> list[tuple[str, float, float]]:
    """(check, old deviation, new deviation) of each check whose deviation moved."""
    return [(a["name"], a["deviation"], b["deviation"])
            for a, b in zip(old["checks"], new["checks"]) if a["deviation"] != b["deviation"]]


def main() -> int:
    refused, table, files = [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for name in sorted(CASES):
            result = run_case(name, report)
            if result.exit_code != CASES[name][1]:
                refused.append(f"{name}: exit code {result.exit_code}, "
                               f"golden {CASES[name][1]}\n{result.output}")
                continue
            old = json.loads((GOLDEN / f"{name}.json").read_text())
            new = json.loads(report.read_text())
            refused += [f"{name}: {reason}" for reason in refusals(old, new)]
            table += [(name, *move) for move in moves(old, new)]
            files[GOLDEN / f"{name}.json"] = report.read_bytes()
            files[GOLDEN / f"{name}.txt"] = result.stdout.encode()
    if refused:
        print("refused, nothing written:", *refused, sep="\n", file=sys.stderr)
        return 1
    if table:
        print("| case | check | old | new |\n| --- | --- | --- | --- |")
    for name, check, old, new in table:
        print(f"| {name} | {check} | {old!r} | {new!r} |")
    print(f"{len(table)} deviations moved")
    for path, data in files.items():
        if path.read_bytes() != data:
            path.write_bytes(data)
            print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
