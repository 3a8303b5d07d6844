"""Spans recorded from outside the program around calls into each layer.

Tracing replaces the public functions of each layer, as the names that
``spinwire.cli``, ``spinwire.mqc`` and ``spinwire.verify`` look up, with
wrappers that record a span (name, start, end, parent) in memory. No
source under ``src/`` changes. Hot leaf calls are not given a span each;
their count and busy time are added up, and the busy time is charged to
the enclosing span so that its self time stays right.

A layer whose functions no longer exist is reported as missing, and
its metrics are left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


def _written_bytes(args, kwargs) -> float:
    out = args[0] if args else kwargs.get("out")
    if out is None:
        return 0.0
    out = Path(out)
    return float(out.stat().st_size + out.with_name(out.name + ".manifest.json").stat().st_size)


def _propagate_flop(args, kwargs) -> float:
    decomposition = args[0] if args else kwargs["decomposition"]
    return 8.0 * decomposition.n ** 3


def _trace_overlap_flop(args, kwargs) -> float:
    a = args[0] if args else kwargs["a"]
    return 8.0 * a.shape[0] ** 3


@dataclass(frozen=True)
class Layer:
    """Functions of one module timed together under one span name.

    ``leaves`` are hot functions aggregated into count and busy time.
    ``work`` computes a quantity per call from the call's arguments,
    summed into the metric ``work_metric``.
    """

    name: str
    module: str
    functions: tuple[str, ...]
    leaves: tuple[str, ...] = ()
    work: Callable | None = None
    work_metric: str | None = None


LAYERS = (
    Layer("cli.write", "spinwire.cli", ("_write_table",),
          work=_written_bytes, work_metric="cli.output_bytes"),
    Layer("chain.build", "spinwire.chain",
          ("homogeneous_couplings", "engineered_couplings", "dipolar_couplings",
           "perturb_couplings", "implant_spacings"),
          leaves=("normalized_time",)),
    Layer("propagator.decompose", "spinwire.propagator", ("spectral_decompose",)),
    Layer("propagator.propagate", "spinwire.propagator", ("propagate",),
          work=_propagate_flop, work_metric="propagator.propagate_flop"),
    Layer("propagator.observable", "spinwire.propagator", (),
          leaves=("polarization_from_propagator",)),
    Layer("logical.closed_form", "spinwire.logical",
          ("logical_transport_homogeneous", "logical_transport_engineered")),
    Layer("mqc.analytic", "spinwire.mqc", ("mqc_analytic",)),
    Layer("mqc.phase_cycle", "spinwire.mqc", ("mqc_phase_cycled",)),
    Layer("oracle.hamiltonian", "spinwire.oracle", ("build_hamiltonian",)),
    Layer("oracle.dense_state", "spinwire.oracle",
          ("deviation_to_dense", "total_z", "collective_rotation_diag")),
    Layer("oracle.trace_overlap", "spinwire.oracle", ("trace_overlap",),
          work=_trace_overlap_flop, work_metric="oracle.trace_overlap_flop"),
    Layer("verify.run", "spinwire.verify", ("run_verification",)),
)

# modules whose global names the program calls through
CALLERS = ("spinwire.cli", "spinwire.mqc", "spinwire.verify")

# computed from array sizes, not measured
COMPUTED = ("propagator.propagate_flop", "oracle.trace_overlap_flop")

COMMAND_PREFIX = "cmd."


class Tracer:
    """In-memory spans of one traced pass, plus aggregated leaf calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, leaf busy]
        self._stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_busy: defaultdict = defaultdict(float)
        self.work: defaultdict = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap_span(self, layer: Layer, fn):
        def traced(*args, **kwargs):
            with self.span(layer.name):
                result = fn(*args, **kwargs)
            if layer.work is not None:
                self.work[layer.work_metric] += layer.work(args, kwargs)
            return result

        return traced

    def _wrap_leaf(self, layer: Layer, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                self.leaf_calls[layer.name] += 1
                self.leaf_busy[layer.name] += busy
                if self._stack:
                    self.spans[self._stack[-1]][4] += busy

        return traced

    @contextmanager
    def installed(self, layers=LAYERS):
        """Patch every present layer's functions for the duration of the block."""
        patches = []
        absent = missing_layers(layers)
        for layer in layers:
            if layer in absent:
                continue
            home = importlib.import_module(layer.module)
            for fname in layer.functions + layer.leaves:
                original = getattr(home, fname)
                wrap = self._wrap_leaf if fname in layer.leaves else self._wrap_span
                traced = wrap(layer, original)
                for modname in {layer.module, *CALLERS}:
                    module = importlib.import_module(modname)
                    if module.__dict__.get(fname) is original:
                        patches.append((module, fname, original))
                        setattr(module, fname, traced)
        try:
            yield
        finally:
            for module, fname, original in reversed(patches):
                setattr(module, fname, original)

    def _name(self, index: int) -> str | None:
        return self.spans[index][0] if index >= 0 else None

    def summary(self, layers=LAYERS) -> dict[str, float]:
        """Per-layer metrics of the recorded pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        time, calls, self_time = defaultdict(float), Counter(), defaultdict(float)
        for (name, start, end, _, leaf_busy), child_time in zip(self.spans, child):
            time[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time - leaf_busy
        out = {}
        absent = missing_layers(layers)
        for layer in layers:
            if layer in absent:
                continue
            out[f"{layer.name}_s"] = time[layer.name] + self.leaf_busy[layer.name]
            out[f"{layer.name}_calls"] = calls[layer.name] + self.leaf_calls[layer.name]
            if layer.work_metric:
                out[layer.work_metric] = self.work[layer.work_metric]
        out["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith(COMMAND_PREFIX))
        if not {"mqc.phase_cycle", "oracle.hamiltonian"} & {layer.name for layer in absent}:
            out["mqc.phase_cycle_self_s"] = self_time["mqc.phase_cycle"]
            # builds made by the mqc command's own phase cycles, not by verify's
            out["mqc.phase_cycle_hamiltonian_calls"] = sum(
                name == "oracle.hamiltonian"
                and self._name(parent) == "mqc.phase_cycle"
                and self._name(self.spans[parent][3]) == COMMAND_PREFIX + "mqc"
                for name, _, _, parent, _ in self.spans
            )
        return out


def missing_layers(layers=LAYERS) -> list[Layer]:
    """Layers with a function that the program no longer defines."""
    out = []
    for layer in layers:
        try:
            home = importlib.import_module(layer.module)
        except ImportError:
            out.append(layer)
            continue
        if not all(callable(getattr(home, f, None)) for f in layer.functions + layer.leaves):
            out.append(layer)
    return out
