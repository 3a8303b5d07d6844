"""Measurement loop: warm pass, timed passes, reference checks, metrics.

Imported by ``run.py`` after the BLAS thread cap is set and ``src/`` is
on the import path.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import spans
import workloads
from spinwire import cli

MIN_PASSES = 2
SETUP_REPS = 5
SUBCOMMANDS = ("transfer", "logical", "mqc", "verify")
# a fresh interpreter importing the CLI and finishing one tiny command
SETUP_ARGS = ["transfer", "--n", "4", "--grid", "0:1:2"]
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from spinwire.cli import main; "
    "main(args=sys.argv[2:], prog_name='spinwire')"
)

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flop"):
        return "flop"
    if name.endswith("_bytes"):
        return "byte"
    return "count"


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process as the shell would; return exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="spinwire")
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing command is a failure; the run goes on
            return 1, traceback.format_exc()
    if code is None:
        return 0, err.getvalue()
    return (code if isinstance(code, int) else 1), err.getvalue()


class Run:
    """The commands of one workload, their output paths and the verified digests."""

    def __init__(self, commands, workdir: Path):
        self.commands = commands
        self.paths = [
            workdir / f"{i}.{'json' if c.sub == 'verify' else 'csv'}" for i, c in enumerate(commands)
        ]
        self.verified: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> list[float]:
        """Time each command of one pass, traced if a tracer is given, then check every output."""
        times, codes = [], []
        with tracer.installed() if tracer else nullcontext():
            for cmd, path in zip(self.commands, self.paths):
                argv = cmd.argv() + ["--out", str(path)]
                start = perf_counter()
                with tracer.span(spans.COMMAND_PREFIX + cmd.sub) if tracer else nullcontext():
                    code, err = invoke(argv)
                times.append(perf_counter() - start)
                codes.append((code, err))
        for i, (code, err) in enumerate(codes):
            self.check(i, code, err)
        return times

    def check(self, i: int, code: int, err: str) -> None:
        """Count command ``i`` and record a failure if it exited non-zero or missed its reference.

        A table byte-identical to one that already passed its reference
        check is not checked again.
        """
        self.attempted += 1
        cmd, path = self.commands[i], self.paths[i]
        if code != 0:
            self.failures.append(f"{' '.join(cmd.argv())}: exit {code}: {err.strip()[-300:]}")
            return
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            self.failures.append(f"{' '.join(cmd.argv())}: {exc}")
            return
        if self.verified.get(i) == digest and _manifest_digest(cmd, path) in (digest, None):
            return
        reason = checks.check(cmd, path)
        if reason is None:
            self.verified[i] = digest
        else:
            self.failures.append(f"{' '.join(cmd.argv())}: {reason}")


def _manifest_digest(cmd, path: Path) -> str | None:
    if cmd.sub == "verify":
        return None
    try:
        manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        return manifest["output-files"][0]["sha256"]
    except (OSError, ValueError, KeyError, IndexError):
        return ""


def setup_times(run: Run) -> list[float]:
    """Seconds for fresh interpreters to import the CLI and finish a tiny command.

    The first start compiles bytecode and is not counted.
    """
    times = []
    for rep in range(SETUP_REPS + 1):
        start = perf_counter()
        run.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(Path(cli.__file__).parents[1]), *SETUP_ARGS],
                capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            run.failures.append("setup: timed out")
            continue
        elapsed = perf_counter() - start
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or lines[:1] != ["t,tau,site,correlation"] or len(lines) != 9:
            run.failures.append(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif rep:
            times.append(elapsed)
    return times


def machine(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "threads_source": "OPENBLAS_NUM_THREADS",
        },
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from its files; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_sub(commands, passes: list[list[float]]) -> dict[str, float]:
    """Median over passes of the seconds spent in each subcommand."""
    out = {}
    for sub in SUBCOMMANDS:
        idx = [i for i, c in enumerate(commands) if c.sub == sub]
        out[sub] = _median([sum(p[i] for i in idx) for p in passes]) if idx else 0.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            sizes: dict | None = None) -> dict:
    """Run one benchmark and return the result object plus a ``detail`` record."""
    commands = workloads.build(workload, seed, sizes)
    work = root / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        run = Run(commands, Path(tmp))
        setup = [] if trace else setup_times(run)
        run.run_pass()  # warm: caches, lazy imports, first reference checks
        untraced, traced = [], []
        layer_passes = []
        deadline = perf_counter() + seconds
        while len(untraced) < MIN_PASSES or perf_counter() < deadline:
            untraced.append(run.run_pass())
            if trace:
                tracer = spans.Tracer()
                traced.append(run.run_pass(tracer))
                layer_passes.append(tracer.summary())
    try:
        work.rmdir()  # only if no other run is using it
    except OSError:
        pass

    walls = [sum(p) for p in untraced]
    per_sub = _per_sub(commands, untraced)
    if trace:
        keys = layer_passes[0].keys()
        values = {k: _median([p[k] for p in layer_passes]) for k in keys}
        values.update({f"cmd.{sub}_s": v for sub, v in per_sub.items()})
        values["trace.overhead_s"] = _median([sum(p) for p in traced]) - _median(walls)
    else:
        values = {
            "wall_s": _median(walls),
            "cmd_p50_ms": 1000.0 * _median([t for p in untraced for t in p]),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - len(run.failures) / run.attempted,
        }
    units = END_TO_END if not trace else {k: _unit(k) for k in values}
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(root),
        "samples": {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "commands_per_pass": len(commands),
            "command_latencies": len(commands) * len(untraced),
            "setup_starts": len(setup),
        },
        "pass_s": walls,
        "per_command_s": per_sub,
        "error_rate": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        "missing_layers": [layer.name for layer in spans.missing_layers()],
        "computed_not_measured": list(spans.COMPUTED),
        "commands": [" ".join(c.argv()) for c in commands],
    }
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "detail": detail,
    }
