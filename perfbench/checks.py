"""Reference checks for every table the benchmark makes.

Each check compares a command's output with a path that does not go
through the code the command ran, to absolute error ``TOL``:

- ``transfer``: rows of ``scipy.linalg.expm(-i M t)`` for the chain's
  single-excitation matrix M, built here from the coupling formulas.
- ``logical``, homogeneous: ``logical_correlation_from_spec`` (the
  propagator path; the CLI uses the closed-form double sums).
- ``logical``, engineered: the sin(tau) closed forms, written out here.
- ``mqc``, oracle engine: ``mqc_analytic`` (the CLI's z-ends scale makes
  the two agree).
- ``mqc``, analytic engine: J0 = (1 + Re A_11(4t)) / 2 and
  J2 = (1 - Re A_11(4t)) / 4 with A from ``expm`` on the uniform chain.
- ``verify``: exit 0 and a JSON report in which every check passed.

Expensive references are taken at ``SAMPLES`` evenly spaced grid rows,
first and last included; structure (header, row count, time columns) is
checked on every row. CSV tables must also match their manifest digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from spinwire.chain import ChainSpec
from spinwire.logical import logical_correlation_from_spec
from spinwire.mqc import mqc_analytic

TOL = 1e-12
SAMPLES = 5

_HEADERS = {
    "transfer": "t,tau,site,correlation",
    "logical": "t,c_x,c_y,c_z,c_1,fidelity",
    "mqc": "t,j0,j2",
}
_INITIALS = {"z-ends": "z_ends", "y-logical": "y_logical", "x-logical": "x_logical"}


class Mismatch(Exception):
    """A table that disagrees with its reference."""


def couplings(family: str, n: int, d: float = 1.0, sigma: float = 0.0, seed: int = 0) -> np.ndarray:
    """Bond couplings of a nearest-neighbour chain, with optional multiplicative disorder."""
    j = np.arange(1, n)
    if family == "homogeneous":
        vals = np.full(n - 1, float(d))
    elif family == "engineered":
        vals = 2.0 * d * np.sqrt(j * (n - j)) / n
    else:
        raise ValueError(f"no reference couplings for family {family!r}")
    if sigma:
        vals = vals * (1.0 + sigma * np.random.default_rng(seed).standard_normal(n - 1))
    return vals


def _sample_rows(count: int) -> np.ndarray:
    return np.unique(np.linspace(0, count - 1, SAMPLES).round().astype(int))


def _expm_row(vals: np.ndarray, t: float, row: int) -> np.ndarray:
    m = np.diag(vals, 1) + np.diag(vals, -1)
    return expm(-1j * m * t)[row]


def _close(name: str, got, want, relative: bool = False) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape} != {want.shape}")
    tol = TOL * np.maximum(1.0, np.abs(want)) if relative else TOL
    err = np.abs(got - want)
    if not np.all(err <= tol):
        raise Mismatch(f"{name}: max error {float(np.nanmax(err)):.3e}")


def _read_table(cmd, path: Path) -> np.ndarray:
    data = path.read_bytes()
    manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
    (entry,) = manifest["output-files"]
    if manifest["command"] != cmd.sub or entry["sha256"] != hashlib.sha256(data).hexdigest() \
            or entry["bytes"] != len(data):
        raise Mismatch("manifest does not describe the table")
    text = data.decode()
    header, _, body = text.partition("\n")
    if header != _HEADERS[cmd.sub]:
        raise Mismatch(f"header {header!r}")
    ncols = header.count(",") + 1
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2) if body else np.empty((0, ncols))
    if table.shape[1] != ncols or not np.all(np.isfinite(table)):
        raise Mismatch("malformed or non-finite table")
    return table


def _check_transfer(cmd, table: np.ndarray) -> None:
    o = cmd.opts
    n, d, model, j = o["n"], o.get("d", 1.0), o.get("model", "xx"), o.get("j", 1)
    targets = np.arange(1, n + 1) if "l" not in o else np.array([o["l"]])
    grid = cmd.grid()
    if table.shape[0] != grid.size * targets.size:
        raise Mismatch(f"{table.shape[0]} rows, expected {grid.size * targets.size}")
    rows = table.reshape(grid.size, targets.size, 4)
    _close("t", rows[:, :, 0], np.repeat(grid[:, None], targets.size, 1), relative=True)
    _close("tau", rows[:, :, 1], np.repeat(2.0 * d * grid[:, None] / n, targets.size, 1), relative=True)
    _close("site", rows[:, :, 2], np.broadcast_to(targets, (grid.size, targets.size)))
    vals = couplings(o.get("family", "engineered"), n, d, o.get("sigma", 0.0), o.get("seed", 0))
    sign = (-1.0) ** (j - targets) if model == "dq" else 1.0
    for i in _sample_rows(grid.size):
        amp = _expm_row(vals, grid[i], j - 1)[targets - 1]
        _close(f"correlation at t={grid[i]}", rows[i, :, 3], sign * np.abs(amp) ** 2)


def _engineered_channels(n: int, d: float, t: np.ndarray) -> np.ndarray:
    tau = 2.0 * d * t / n
    s2, c2 = np.sin(tau) ** 2, np.cos(tau) ** 2
    cx = s2 ** (n - 2)
    cy = s2 ** (n - 2) * (1.0 - 2.0 * (n - 1) * c2)
    cz = 0.5 * (s2 ** (n - 3) * ((n - 1) * c2 - 1.0) ** 2 + s2 ** (n - 1)
                - 2.0 * (n - 1) * c2 * s2 ** (n - 2))
    c1 = 0.5 * (1.0 + s2 ** (2 * (n - 2)))
    return np.stack([cx, cy, cz, c1], axis=1)


def _check_logical(cmd, table: np.ndarray) -> None:
    o = cmd.opts
    n, d, model = o["n"], o.get("d", 1.0), o.get("model", "xx")
    family, corrected = o.get("family", "engineered"), not o.get("raw", False)
    grid = cmd.grid()
    if table.shape[0] != grid.size:
        raise Mismatch(f"{table.shape[0]} rows, expected {grid.size}")
    _close("t", table[:, 0], grid, relative=True)
    if family == "engineered":
        rows = np.arange(grid.size)
        want = _engineered_channels(n, d, grid)
        if model == "dq" and not corrected and n % 2 == 0:
            want[:, 1:3] *= -1.0
    else:
        rows = _sample_rows(grid.size)
        spec = ChainSpec(n, model, tuple(couplings(family, n, d)))
        want = np.array([
            [logical_correlation_from_spec(spec, a, grid[i], corrected=corrected) for a in "xyz1"]
            for i in rows
        ])
    _close("channels", table[rows, 1:5], want)
    _close("fidelity", table[rows, 5], want.mean(axis=1))


def _check_mqc(cmd, table: np.ndarray) -> None:
    o = cmd.opts
    n, d = o["n"], o.get("d", 1.0)
    kind = _INITIALS[o.get("initial", "z-ends")]
    grid = cmd.grid()
    if table.shape[0] != grid.size:
        raise Mismatch(f"{table.shape[0]} rows, expected {grid.size}")
    _close("t", table[:, 0], grid, relative=True)
    if o.get("engine") == "oracle":
        rows = np.arange(grid.size)
        spectra = [mqc_analytic(n, d, kind, t) for t in grid]
        want = np.array([[s.intensity(0), s.intensity(2)] for s in spectra])
    elif kind == "z_ends":
        rows = _sample_rows(grid.size)
        vals = couplings("homogeneous", n, d)
        a11 = np.array([_expm_row(vals, 4.0 * grid[i], 0)[0].real for i in rows])
        want = np.stack([(1.0 + a11) / 2.0, (1.0 - a11) / 4.0], axis=1)
    else:
        raise ValueError(f"no independent reference for analytic {kind}")
    _close("intensities", table[rows, 1:3], want)


def _check_verify(path: Path) -> None:
    report = json.loads(path.read_text())
    if not report["passed"] or not all(c["passed"] for c in report["checks"]):
        raise Mismatch("verification report has failing checks")


def check(cmd, path: Path) -> str | None:
    """None if the command's output at ``path`` matches its reference, else the reason."""
    try:
        if cmd.sub == "verify":
            _check_verify(path)
            return None
        table = _read_table(cmd, path)
        {"transfer": _check_transfer, "logical": _check_logical, "mqc": _check_mqc}[cmd.sub](
            cmd, table
        )
    except (Mismatch, OSError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
