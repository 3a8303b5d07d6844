"""Command lists for the benchmark workloads.

Each workload is a list of ``spinwire`` commands generated from the
benchmark seed. The CLI sees only the generated arguments; the
reference checks in ``checks.py`` read the same ``Command`` objects, so
they know every parameter without parsing the command line back.

Sizes are scaled so that one pass is short next to the run length in
``BENCHMARK.json`` (several passes per run give a steady median).
``TINY`` holds sizes for the harness self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand plus its options (``--out`` is added later)."""

    sub: str
    opts: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        out = [self.sub]
        for key, value in self.opts.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                out.append(flag)
            elif key == "grid":
                start, end, steps = value
                out += [flag, f"{start!r}:{end!r}:{steps}"]
            else:
                out += [flag, str(value)]
        return out

    def grid(self) -> np.ndarray:
        start, end, steps = self.opts["grid"]
        return np.linspace(start, end, steps)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def transport_long(rng, n=200, grid_steps=201, logical_n=20, logical_steps=81,
                   engineered_steps=801) -> list[Command]:
    """Single-excitation transport on long chains: propagator, observables, CSV.

    Three disorder realisations of the single-target table put the median
    command inside one latency cluster rather than between two.
    """
    grid = (0.0, 100.0 * n / 200, grid_steps)
    disordered = [
        Command("transfer", {"n": n, "l": n, "sigma": 0.05, "seed": _seed(rng), "grid": grid})
        for _ in range(3)
    ]
    return [
        Command("transfer", {"n": n, "grid": grid}),
        *disordered,
        Command("logical", {"n": n, "family": "homogeneous", "grid": (0.0, 16.0, logical_steps)}),
        Command("logical", {"n": logical_n, "family": "engineered", "model": "dq", "raw": True,
                            "grid": (0.0, 16.0, engineered_steps)}),
        Command("mqc", {"n": n, "grid": (0.0, 16.0, engineered_steps)}),
    ]


def oracle_dense(rng, big_n=10, small_n=8, small_steps=11, verify_n=8) -> list[Command]:
    """Dense phase cycling and the invariant suite: H builds, eigh, trace overlaps.

    Two tables of the smaller chain put the median command inside their
    latency cluster and give it twice the samples.
    """
    t_big = float(np.round(rng.uniform(0.5, 3.0), 6))
    small = [
        Command("mqc", {"n": small_n, "engine": "oracle", "phase_steps": 16,
                        "initial": "y-logical",
                        "grid": (0.0, float(np.round(rng.uniform(2.5, 3.5), 6)), small_steps)})
        for _ in range(2)
    ]
    return [
        Command("mqc", {"n": big_n, "engine": "oracle", "grid": (t_big, t_big, 1)}),
        *small,
        Command("verify", {"max_n": verify_n, "seed": _seed(rng)}),
    ]


BUILDERS = {
    "transport_long": transport_long,
    "oracle_dense": oracle_dense,
}

TINY = {
    "transport_long": {"n": 12, "grid_steps": 11, "logical_n": 8, "logical_steps": 9,
                       "engineered_steps": 9},
    "oracle_dense": {"big_n": 5, "small_n": 4, "small_steps": 3, "verify_n": 4},
}


def build(name: str, seed: int, sizes: dict | None = None) -> list[Command]:
    """The workload's command list for ``seed``; ``sizes`` overrides the defaults."""
    return BUILDERS[name](np.random.default_rng(seed), **(sizes or {}))
