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

import contextlib
import ctypes
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .chain import (
    FAMILIES,
    MODELS,
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
from .mqc import _check_phase_steps, mqc_phase_cycled_grid, mqc_propagator_grid, prepare_state
from .propagator import _check_mode_count, _gauge_sign, propagate_grid, spectral_decompose
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
    try:
        with np.errstate(over="ignore"):
            return np.linspace(start, end, steps)
    except MemoryError:
        raise click.BadParameter(f"{steps} steps do not fit in memory")


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


def _write_table(out: Path | None, chunks) -> None:
    """Write the CSV ``chunks`` of ``_csv_blocks`` to ``out`` with a manifest, or to stdout.

    The manifest records the current command's options, every one but
    ``--out``, with the grid as [start, end, steps].
    """
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
    ctx = click.get_current_context()
    parameters = {key: value for key, value in ctx.params.items() if key != "out"}
    grid = parameters["grid"]
    start, end = (float(grid[0]), float(grid[-1])) if len(grid) else (0.0, 0.0)
    parameters["grid"] = [start, end, len(grid)]
    manifest = {
        "schema": "spinwire.manifest/1",
        "command": ctx.command.name,
        "parameters": parameters,
        "artifact-version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "output-files": [{"path": out.name, "sha256": digest.hexdigest(), "bytes": size}],
    }
    out.with_name(out.name + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


@functools.cache
def _numpy_blas():
    """The (get, set) thread-count functions of numpy's vendored OpenBLAS, or None.

    Resolved on the first command, not at import. Only a library that
    numpy has already loaded is opened (RTLD_NOLOAD); other BLAS builds
    (MKL, Accelerate, a system OpenBLAS) give None. scipy's own OpenBLAS
    is a separate library and is left alone.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
            get, set_threads = (lib.scipy_openblas_get_num_threads64_,
                                lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


@contextlib.contextmanager
def _blas_thread_limit(count: int):
    """Run the block with numpy's BLAS on ``count`` threads, then restore the count before it.

    Does nothing when the count cannot be set. The count is process-global.
    """
    api = _numpy_blas()
    if api is None:
        yield
        return
    get, set_threads = api
    previous = get()
    set_threads(count)
    try:
        yield
    finally:
        set_threads(previous)


def _domain_errors(f):
    """Map domain errors, float overflow and exhausted memory to exit 1 with a clean message.

    The command runs on one BLAS thread: its products are too small to
    share, and waking a second thread slows the Python code after them.
    """

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"), _blas_thread_limit(1):
                return f(*args, **kwargs)
        except (SpinwireError, FloatingPointError, MemoryError) as exc:
            # numpy's MemoryError names the allocation; a bare one has no message
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            sys.exit(1)

    return wrapper


def _build_chain(family: str, n: int, d: float, model: str) -> ChainSpec:
    # a length past the propagator's cap fails here, before its couplings are allocated
    _check_mode_count(n)
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


# options shared by the table commands, each declared once
_n = click.option("--n", type=int, required=True, help="Chain length.")
_d = click.option("--d", type=float, default=1.0, show_default=True, help="Coupling scale.")
_model = click.option("--model", type=click.Choice(MODELS), default="xx", show_default=True)
_grid = click.option("--grid", callback=_parse_grid, required=True, metavar="START:END:STEPS",
                     help="Time grid as start:end:steps.")
_out = click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
                    help="CSV table path, with a manifest beside it (stdout if omitted); "
                         "for verify, the JSON report path.")


@main.command()
@_n
@_d
@click.option("--family", type=click.Choice(FAMILIES), default="engineered", show_default=True)
@_model
@_grid
@click.option("--j", type=int, default=1, show_default=True, help="Source site.")
@click.option("--l", type=int, default=None, help="Target site (default: all).")
@click.option("--sigma", type=float, default=0.0, show_default=True,
              help="Relative coupling disorder.")
@click.option("--seed", type=int, default=0, show_default=True, help="Disorder seed.")
@_out
@_domain_errors
def transfer(n, d, family, model, grid, j, l, sigma, seed, out) -> None:
    """Tabulate polarisation correlations Tr[Z_j(t) Z_l]/2^n.

    Columns: t, tau (= 2 d t / n), site l, correlation. Under the dq
    model the correlation carries the staggered sign (-1)^(j-l).
    """
    spec = _build_chain(family, n, d, model)
    if sigma:
        spec = perturb_couplings(spec, sigma, seed)
    sites = np.arange(1, n + 1) if l is None else np.array([l])
    amp = propagate_grid(spectral_decompose(spec), grid, (j,), sites)[:, 0, :]
    corr = _gauge_sign(model, j, sites) * np.abs(amp) ** 2
    keys = np.column_stack([grid, normalized_time(n, d, grid)])
    header = ["t", "tau", "site", "correlation"]
    _write_table(out, _csv_blocks(header, keys, corr, sites))


@main.command()
@_n
@_d
@click.option("--family", type=click.Choice(("homogeneous", "engineered")),
              default="engineered", show_default=True)
@_model
@click.option("--corrected/--raw", default=True, show_default=True,
              help="Apply the pi-x parity correction to dq readout.")
@_grid
@_out
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
    header = ["t", "c_x", "c_y", "c_z", "c_1", "fidelity"]
    _write_table(out, _csv_blocks(header, grid[:, None], cols))


@main.command()
@_n
@_d
@click.option("--initial", type=click.Choice(tuple(_INITIALS)), default="z-ends",
              show_default=True, help="Prepared deviation state.")
@click.option("--engine", type=click.Choice(("analytic", "oracle")), default="analytic",
              show_default=True, help="Single-excitation propagator or dense phase cycling.")
@click.option("--phase-steps", type=int, default=8, show_default=True,
              help="Phase increments per cycle, more than 4 for either engine "
                   "(only the oracle engine runs the cycle).")
@_grid
@_out
@_domain_errors
def mqc(n, d, initial, engine, phase_steps, grid, out) -> None:
    """Tabulate coherence-order intensities on the homogeneous dq chain.

    Columns: t, j0, j2 (orders +-2 are equal), from one decomposition of
    the chain (analytic) or by dense phase cycling (oracle). The z-ends
    intensities are normalised so J0(0) = 1; logical initial states are
    reported raw, their total being zero.
    """
    spec = _build_chain("homogeneous", n, d, "dq")
    state = prepare_state(n, _INITIALS[initial])
    # the analytic engine runs no cycle, but the manifest records one: the table's
    # orders reach 2, so both engines hold it to the oracle engine's own rule
    _check_phase_steps(phase_steps, 2)
    if engine == "analytic":
        intensities = mqc_propagator_grid(spec, state, grid)
    else:
        intensities = mqc_phase_cycled_grid(spec, state, grid, phase_steps=phase_steps)
    # conserved total Tr[rho Z]/2^n: 2 for z-ends, 0 for logical states; columns J_0, J_2
    scale = 0.5 if initial == "z-ends" else 1.0
    cols = scale * intensities[:, [2, 4]]
    _write_table(out, _csv_blocks(["t", "j0", "j2"], grid[:, None], cols))


@main.command()
@click.option("--max-n", type=int, default=8, show_default=True,
              help="Working chain length for the checks (4..12).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=None,
              help="Override every check's own tolerance.")
@_out
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


if __name__ == "__main__":
    main()
