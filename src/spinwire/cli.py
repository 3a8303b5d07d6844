"""Command-line interface.

Four subcommands cover the main workflows: ``transfer`` tabulates
polarisation transfer along a chain, ``logical`` tabulates logical
channel correlations and entanglement fidelity, ``mqc`` tabulates
coherence-order intensities, and ``verify`` runs the invariant suite.

Tabular output is CSV with a header row and 15-significant-digit
values. With ``--out`` the table goes to a file and a JSON manifest
(same path plus ``.manifest.json``) records the command, resolved
parameters, artifact version, and a digest of the output so any run
can be reproduced bit for bit; without ``--out`` the table goes to
stdout. Domain validation failures exit with status 1, usage errors
with status 2.
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .chain import (
    FAMILIES,
    ChainSpec,
    dipolar_couplings,
    engineered_couplings,
    homogeneous_couplings,
    implant_spacings,
    normalized_time,
    perturb_couplings,
)
from .errors import SpinwireError
from .logical import channel_correlations, channel_fidelity
from .mqc import mqc_phase_cycled_grid, mqc_propagator_grid, prepare_state
from .propagator import propagate_grid, spectral_decompose
from .verify import run_verification

_INITIALS = {"z-ends": "z_ends", "y-logical": "y_logical", "x-logical": "x_logical"}


def _parse_grid(_ctx, _param, value: str) -> np.ndarray:
    """Parse a start:end:steps time grid into a linspace array."""
    parts = value.split(":")
    if len(parts) != 3:
        raise click.BadParameter(f"expected start:end:steps, got {value!r}")
    try:
        start, end = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise click.BadParameter(f"expected start:end:steps numbers, got {value!r}")
    if not math.isfinite(end - start):
        raise click.BadParameter(f"start, end and their span must be finite, got {value!r}")
    if steps < 0:
        raise click.BadParameter(f"steps must be >= 0, got {steps}")
    # near the float range the last k * step may overflow; linspace then writes end there
    with np.errstate(over="ignore"):
        return np.linspace(start, end, steps)


def _grid_record(grid: np.ndarray) -> list:
    """The grid as the manifest records it: [start, end, steps]."""
    if not len(grid):
        return [0.0, 0.0, 0]
    return [float(grid[0]), float(grid[-1]), len(grid)]


_BLOCK_ROWS = 2048


def _cells(values, line: str = "%.15g") -> list[str]:
    """One ``line`` per row of ``values``; +0.0 folds negative zero into plain 0."""
    return [line % tuple(row) for row in (np.asarray(values, dtype=float) + 0.0).tolist()]


def _csv_blocks(header: list[str], keys, values, sites=None, block_rows: int = _BLOCK_ROWS):
    """CSV text of a time-keyed table in chunks of about ``block_rows`` rows, header first.

    ``keys`` (shape (T, K)) holds the key cells of each time. Without
    ``sites`` time k gives one row: keys[k], then values[k] (shape (T, V)).
    With ``sites`` (shape (S,)) it gives S rows: keys[k], sites[s] and
    values[k, s] (shape (T, S)). Key and site cells are formatted once
    each; only the value cells are formatted per row.
    """
    yield ",".join(header) + "\n"
    keys, values = np.asarray(keys, dtype=float), np.asarray(values, dtype=float)
    prefixes = _cells(keys, ",".join(["%.15g"] * keys.shape[1]))
    if sites is None:
        tails = [",%.15g" * values.shape[1]]
    else:
        tails = ["," + site + ",%.15g" for site in _cells(np.asarray(sites)[:, None])]
    step = max(1, block_rows // len(tails))
    for start in range(0, len(prefixes), step):
        template = "".join(
            key + ("\n" + key).join(tails) + "\n" for key in prefixes[start:start + step]
        )
        yield template % tuple((values[start:start + step] + 0.0).ravel().tolist())


def _write_table(out: Path | None, chunks, command: str, parameters: dict) -> None:
    """Write the CSV ``chunks`` of ``_csv_blocks`` to ``out`` with a manifest, or to stdout."""
    if out is None:
        for chunk in chunks:
            click.echo(chunk, nl=False)
        return
    out = Path(out)
    digest = hashlib.sha256()
    size = 0
    with out.open("wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            fh.write(data)
            digest.update(data)
            size += len(data)
    manifest = {
        "schema": "spinwire.manifest/1",
        "command": command,
        "parameters": parameters,
        "artifact-version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "output-files": [{"path": out.name, "sha256": digest.hexdigest(), "bytes": size}],
    }
    out.with_name(out.name + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _domain_errors(f):
    """Map domain errors and floating-point overflow to exit status 1 with a clean message."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return f(*args, **kwargs)
        except (SpinwireError, FloatingPointError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _build_chain(family: str, n: int, d: float, model: str) -> ChainSpec:
    if family == "homogeneous":
        return homogeneous_couplings(n, d, model)
    if family == "engineered":
        return engineered_couplings(n, d, model)
    # implanted geometry: unit minimum spacing, prefactor tuned so the
    # inverse-cube couplings reproduce the engineered profile with scale d
    positions = implant_spacings(n, r_min=1.0)
    return dipolar_couplings(positions, prefactor=-d / 2.0, model=model)


@click.group()
@click.version_option(version=__version__, prog_name="spinwire")
def main() -> None:
    """Spin-chain state transfer: transport tables, logical fidelities,
    coherence distributions, and a self-verification suite."""


@main.command()
@click.option("--n", type=int, required=True, help="Chain length.")
@click.option("--d", type=float, default=1.0, show_default=True, help="Coupling scale.")
@click.option("--family", type=click.Choice(FAMILIES), default="engineered", show_default=True)
@click.option("--model", type=click.Choice(("xx", "dq")), default="xx", show_default=True)
@click.option("--grid", callback=_parse_grid, required=True, metavar="START:END:STEPS",
              help="Time grid as start:end:steps.")
@click.option("--j", "source", type=int, default=1, show_default=True, help="Source site.")
@click.option("--l", "target", type=int, default=None, help="Target site (default: all).")
@click.option("--sigma", type=float, default=0.0, show_default=True,
              help="Relative coupling disorder.")
@click.option("--seed", type=int, default=0, show_default=True, help="Disorder seed.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="CSV output path (stdout if omitted).")
@_domain_errors
def transfer(n, d, family, model, grid, source, target, sigma, seed, out) -> None:
    """Tabulate polarisation correlations Tr[Z_j(t) Z_l]/2^n.

    Columns: t, tau (= 2 d t / n), site l, correlation. Under the dq
    model the correlation carries the staggered sign (-1)^(j-l).
    """
    spec = _build_chain(family, n, d, model)
    if sigma:
        spec = perturb_couplings(spec, sigma, seed)
    sites = np.arange(1, n + 1) if target is None else np.array([target])
    amp = propagate_grid(spectral_decompose(spec), grid, (source,), sites)[:, 0, :]
    corr = np.abs(amp) ** 2
    if model == "dq":
        corr = np.where((source - sites) % 2, -corr, corr)
    keys = np.column_stack([grid, normalized_time(n, d, grid)])
    params = {
        "n": n, "d": d, "family": family, "model": model, "grid": _grid_record(grid),
        "j": source, "l": target, "sigma": sigma, "seed": seed,
    }
    header = ["t", "tau", "site", "correlation"]
    _write_table(out, _csv_blocks(header, keys, corr, sites), "transfer", params)


@main.command()
@click.option("--n", type=int, required=True, help="Chain length (>= 4).")
@click.option("--d", type=float, default=1.0, show_default=True, help="Coupling scale.")
@click.option("--family", type=click.Choice(("homogeneous", "engineered")),
              default="engineered", show_default=True)
@click.option("--model", type=click.Choice(("xx", "dq")), default="xx", show_default=True)
@click.option("--corrected/--raw", default=True, show_default=True,
              help="Apply the pi-x parity correction to dq readout.")
@click.option("--grid", callback=_parse_grid, required=True, metavar="START:END:STEPS")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
@_domain_errors
def logical(n, d, family, model, corrected, grid, out) -> None:
    """Tabulate logical channel correlations and entanglement fidelity.

    Columns: t, c_x, c_y, c_z, c_1, fidelity. The fidelity is the
    channel average; it reaches 1 at the engineered mirror time.
    """
    spec = _build_chain(family, n, d, model)
    amp = propagate_grid(spectral_decompose(spec), grid, (1, 2))
    vals = channel_correlations(amp, model, corrected)
    cols = np.column_stack([vals["x"], vals["y"], vals["z"], vals["1"], channel_fidelity(vals)])
    params = {
        "n": n, "d": d, "family": family, "model": model, "corrected": corrected,
        "grid": _grid_record(grid),
    }
    header = ["t", "c_x", "c_y", "c_z", "c_1", "fidelity"]
    _write_table(out, _csv_blocks(header, grid[:, None], cols), "logical", params)


@main.command()
@click.option("--n", type=int, required=True, help="Chain length.")
@click.option("--d", type=float, default=1.0, show_default=True, help="Coupling scale.")
@click.option("--initial", type=click.Choice(tuple(_INITIALS)), default="z-ends",
              show_default=True, help="Prepared deviation state.")
@click.option("--engine", type=click.Choice(("analytic", "oracle")), default="analytic",
              show_default=True, help="Single-excitation propagator or dense phase cycling.")
@click.option("--phase-steps", type=int, default=8, show_default=True,
              help="Phase increments per cycle (oracle engine).")
@click.option("--grid", callback=_parse_grid, required=True, metavar="START:END:STEPS")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
@_domain_errors
def mqc(n, d, initial, engine, phase_steps, grid, out) -> None:
    """Tabulate coherence-order intensities on the homogeneous dq chain.

    Columns: t, j0, j2 (orders +-2 are equal), read from the end block of
    A(4t) (analytic) or by dense phase cycling (oracle). The z-ends
    intensities are normalised so J0(0) = 1; logical initial states are
    reported raw, their total being zero.
    """
    kind = _INITIALS[initial]
    spec = homogeneous_couplings(n, d, model="dq")
    if engine == "analytic":
        spectra = mqc_propagator_grid(spec, kind, grid)
    else:
        spectra = mqc_phase_cycled_grid(spec, prepare_state(n, kind), grid, phase_steps=phase_steps)
    # conserved total Tr[rho Z]/2^n: 2 for z_ends, 0 for logical states
    scale = 0.5 if kind == "z_ends" else 1.0
    cols = np.reshape([(scale * s.intensity(0), scale * s.intensity(2)) for s in spectra], (-1, 2))
    params = {
        "n": n, "d": d, "initial": initial, "engine": engine,
        "phase_steps": phase_steps, "grid": _grid_record(grid),
    }
    _write_table(out, _csv_blocks(["t", "j0", "j2"], grid[:, None], cols), "mqc", params)


@main.command()
@click.option("--max-n", type=int, default=8, show_default=True,
              help="Working chain length for the checks (4..12).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=None,
              help="Override every check's own tolerance.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="JSON report path.")
@_domain_errors
def verify(max_n, seed, tolerance, out) -> None:
    """Run the cross-module invariant suite.

    Prints one line per check and exits 1 if any fails. The JSON
    report is byte-identical across runs with the same parameters.
    """
    report = run_verification(max_n=max_n, seed=seed, tolerance=tolerance)
    for check in report.checks:
        click.echo(check.line())
    passed = sum(c.passed for c in report.checks)
    click.echo(f"{passed}/{len(report.checks)} checks passed")
    if out is not None:
        Path(out).write_text(report.to_json())
    if not report.passed:
        failing = [c for c in report.checks if not c.passed]
        click.echo("failing inputs:", err=True)
        for c in failing:
            click.echo(f"  {c.name}: {json.dumps(c.inputs, sort_keys=True)}", err=True)
        sys.exit(1)
