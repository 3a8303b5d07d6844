"""Self-test of the benchmark harness at tiny workload sizes.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _measure(workload: str, trace: bool) -> dict:
    return harness.measure(workload, SEED, 0.0, trace, ROOT, workloads.TINY[workload])


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture
def one_setup_start(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)


def test_untraced_run_reports_every_end_to_end_metric(one_setup_start):
    result = _measure("transport_long", trace=False)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _measure(workload, trace=True)
    assert result["correct"], result["detail"]["failures"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    commands = workloads.build(workload, SEED, workloads.TINY[workload])
    # verify writes its JSON report itself; every other command goes through _write_table
    assert metrics["cli.write_calls"]["value"] == sum(c.sub != "verify" for c in commands)
    if workload == "oracle_dense":
        points = sum(c.opts["grid"][2] for c in commands if c.opts.get("engine") == "oracle")
        assert metrics["mqc.phase_cycle_hamiltonian_calls"]["value"] == points
        assert metrics["verify.run_calls"]["value"] == 1
    else:
        assert metrics["propagator.propagate_calls"]["value"] > 0
        assert metrics["oracle.hamiltonian_calls"]["value"] == 0


def test_computed_counts_repeat_exactly():
    runs = [_measure("transport_long", trace=True)["metrics"] for _ in range(2)]
    exact = [k for k in runs[0] if k.endswith(("_calls", "_flop", "_bytes"))]
    assert exact
    assert all(runs[0][k] == runs[1][k] for k in exact)


def test_corrupted_reference_counts_as_failure(monkeypatch, one_setup_start):
    real = checks.couplings
    monkeypatch.setattr(checks, "couplings", lambda *a, **k: real(*a, **k) * (1 + 1e-6))
    result = _measure("transport_long", trace=False)
    assert not result["correct"] and result["failed"] > 0
    assert result["detail"]["error_rate"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1


def test_corrupted_table_is_caught(tmp_path):
    cmd = workloads.build("transport_long", SEED, workloads.TINY["transport_long"])[0]
    path = tmp_path / "table.csv"
    assert harness.invoke(cmd.argv() + ["--out", str(path)])[0] == 0
    assert checks.check(cmd, path) is None

    lines = path.read_text().splitlines()
    t, tau, site, corr = lines[-1].split(",")
    lines[-1] = ",".join([t, tau, site, repr(float(corr) + 1e-9)])
    path.write_text("\n".join(lines) + "\n")
    assert "manifest" in checks.check(cmd, path)

    data = path.read_bytes()
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["output-files"][0].update(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
    manifest_path.write_text(json.dumps(manifest))
    assert "correlation" in checks.check(cmd, path)


def test_missing_layer_is_left_out_not_zero(monkeypatch):
    from spinwire import oracle

    monkeypatch.delattr(oracle, "trace_overlap")
    assert [layer.name for layer in spans.missing_layers()] == ["oracle.trace_overlap"]
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    summary = tracer.summary()
    assert not any(k.startswith("oracle.trace_overlap") for k in summary)
    assert "oracle.hamiltonian_calls" in summary
