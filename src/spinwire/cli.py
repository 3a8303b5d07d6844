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
    _check_length,
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

# A formatted cell is 6 little-endian uint64 words, 48 bytes; unused bytes are 0:
#   word 0     sign, then "0." and up to three zeros when -4 <= E < 0
#   words 1-4  16 (digit, point) byte pairs: pair 0 is blank, pair i + 1 holds
#              digit i and the decimal point when it follows digit i
#   word 5     "e" sign and 2 or 3 exponent digits, then a comma in byte 7
_WORDS = 6
# tables run over the exponents E = floor(log10 |x|) of |x| in [1e-290, 1e290], one more each way
_E_MAX = 291


@functools.cache
def _format_tables():
    """Lookup tables of ``_format_cells``, built from Python ints on the first call.

    Row E + _E_MAX holds the scale 10^(14 - E) as the double-double
    hi + lo (hi correctly rounded, lo the rounded remainder), with hi split
    into two 26-bit halves for exact products, and words 0 and 5 of a cell
    with exponent E.
    """
    powers = []
    for k in range(14 + _E_MAX, 13 - _E_MAX, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        mantissa, exponent = math.frexp(hi)
        split = 134217729.0 * mantissa
        top = split - (split - mantissa)
        powers.append((hi, (num * hi_den - hi_num * den) / (den * hi_den),
                       math.ldexp(top, exponent), math.ldexp(mantissa - top, exponent)))
    hi, lo, hi_top, hi_bottom = (np.array(column) for column in zip(*powers))
    # r = 0..9999 as four (digit, 0) pairs, and its count of trailing zero digits
    r = np.arange(10_000, dtype=np.uint64)
    quads = sum((r // 10 ** (3 - i) % 10 + 48) << np.uint64(16 * i) for i in range(4))
    zeros = np.zeros(10_000, dtype=np.int64)
    for i in range(1, 4):
        zeros[r % 10**i == 0] = i
    zeros[0] = 4
    # masks of words 1-4 when only the first ``kept`` pairs are kept
    keep = np.array([[(1 << 16 * min(max(kept - 4 * w, 0), 4)) - 1 for w in range(4)]
                     for kept in range(17)], dtype=np.uint64)
    lead, tail = np.zeros((2, 2 * _E_MAX + 1), dtype=np.uint64)
    for e in range(-_E_MAX, _E_MAX + 1):
        if -4 <= e < 0:
            lead[e + _E_MAX] = int.from_bytes(b"\0" + b"0." + b"0" * (-e - 1), "little")
        elif not -4 <= e < 15:
            tail[e + _E_MAX] = int.from_bytes(b"e%+03d" % e, "little")
    tail |= np.uint64(ord(",") << 56)
    return hi, lo, hi_top, hi_bottom, quads, zeros, keep, lead, tail


def _format_cells(values) -> np.ndarray:
    """Every cell of ``values`` as ``'%.15g,' % (x + 0.0)``, byte for byte.

    Returns uint64 words of shape ``values.shape + (_WORDS,)``; their
    bytes with the zero bytes dropped are the text (see the layout above).
    With E = floor(log10 |x|), the 15 digits are x 10^(14 - E) rounded,
    and that product is formed in double-double arithmetic, about 30
    digits. Zero is written as "0". A cell goes through ``%.15g`` itself
    when this cannot decide it: any other |x| outside [1e-290, 1e290],
    NaN, and a remainder within 1e-6 of one half, which takes in every
    exact tie.
    """
    hi, lo, hi_top, hi_bottom, quads, zeros, keep, lead, tail = _format_tables()
    x = np.asarray(values, dtype=float).ravel() + 0.0
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    # log10 may miss E by one next to a power of ten; the product's size tells
    p = a * hi[e + _E_MAX]
    e += (p >= 1e15).view(np.int8)
    e -= (p < 1e14).view(np.int8)
    row = e + _E_MAX
    p = a * hi[row]
    # a 10^(14 - E) = p + low: Dekker's exact product with hi, then a lo
    split = 134217729.0 * a
    a_top = split - (split - a)
    a_bottom = a - a_top
    top, bottom = hi_top[row], hi_bottom[row]
    low = ((a_top * top - p) + a_top * bottom + a_bottom * top) + a_bottom * bottom + a * lo[row]
    digits = np.floor(p)
    rem = (p - digits) + low
    whole = np.floor(rem)
    digits += whole
    rem -= whole
    digits += rem > 0.5
    fast &= (np.abs(rem - 0.5) > 1e-6) & (digits >= 1e14) & (digits <= 1e15)
    carry = digits == 1e15
    digits[carry] = 1e14
    e += carry
    row += carry
    m = digits.astype(np.int64)
    # four groups of four digits; the first holds a blank and d0 d1 d2
    m, r3 = np.divmod(m, 10_000)
    r0, r2 = np.divmod(m, 10_000)
    r0, r1 = np.divmod(r0, 10_000)
    tz = zeros[r3] + (r3 == 0) * (zeros[r2] + (r2 == 0) * (zeros[r1] + (r1 == 0) * zeros[r0]))
    last = 14 - tz  # index of the last nonzero digit
    sci = (e < -4) | (e >= 15)
    small = ~sci & (e < 0)
    # fixed notation keeps every integer digit, zeros included
    kept = np.where(sci | small, last, np.maximum(last, e)) + 2  # pairs kept, pair 0 included
    out = np.empty((x.size, _WORDS), dtype=np.uint64)
    out[:, 0] = lead[row]
    out[x < 0, 0] |= np.uint64(ord("-"))
    for word, group in enumerate((r0, r1, r2, r3), 1):
        out[:, word] = quads[group]
    out[:, 1] &= ~np.uint64(0xFF)  # pair 0, the leading "0" of r0 < 1000
    trim = np.flatnonzero(kept < 16)  # cells with trailing zeros to drop
    out[trim, 1:5] &= keep[kept[trim]]
    out[:, 5] = tail[row]
    point = np.where(sci, 0, e)
    cells = np.flatnonzero(~small & (last > point))
    chars = out.view(np.uint8).reshape(-1)
    chars[cells * (8 * _WORDS) + 11 + 2 * point[cells]] = ord(".")
    out[x == 0, 1] = ord("0") << 16
    for cell in np.flatnonzero(~fast & (x != 0)).tolist():
        text = b"%.15g" % x[cell]
        out[cell] = 0
        out[cell, 5] = ord(",") << 56
        chars[cell * 8 * _WORDS:cell * 8 * _WORDS + len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(np.shape(values) + (_WORDS,))


def _joined(cells) -> np.ndarray:
    """Each row of cells (shape (R, C, _WORDS)) as its text, left-aligned in a
    zero-padded (R, width) byte array."""
    raw = cells.view(np.uint8).reshape(len(cells), 8 * _WORDS * cells.shape[1])
    used = raw != 0
    count = used.sum(axis=1)
    text = np.zeros((len(raw), count.max(initial=0)), dtype=np.uint8)
    # boolean indexing runs in row order, so row i takes its count[i] bytes in order
    text[np.arange(text.shape[1]) < count[:, None]] = raw[used]
    return text


def _csv_blocks(header: list[str], keys, values, sites=None, block_rows: int = _BLOCK_ROWS):
    """CSV text of a time-keyed table in chunks of about ``block_rows`` rows, header first.

    ``keys`` (shape (T, K)) holds the key cells of each time. Without
    ``sites`` time k gives one row: keys[k], then values[k] (shape (T, V)).
    With ``sites`` (shape (S,)) it gives S rows: keys[k], sites[s] and
    values[k, s] (shape (T, S)). Key and site cells are formatted once
    each and joined into text up front; each block's value cells are
    formatted in one ``_format_cells`` call, and the rows are joined by
    dropping the zero bytes of their cell words.
    """
    yield ",".join(header) + "\n"
    keys, values = np.asarray(keys, dtype=float), np.asarray(values, dtype=float)
    if sites is None and not values.shape[1]:  # rows of keys only: the last key ends the row
        keys, values = keys[:, :-1], keys[:, -1:]
    prefixes = _joined(_format_cells(keys))[:, None]
    if sites is None:
        tails = np.zeros((1, 0), dtype=np.uint8)
        values = values[:, None, :]
    else:
        tails = _joined(_format_cells(np.asarray(sites, dtype=float))[:, None])
        values = values[:, :, None]
    width = prefixes.shape[2] + tails.shape[1]
    step = max(1, block_rows // values.shape[1])
    for start in range(0, len(keys), step):
        block = values[start:start + step]
        cells = _format_cells(block)
        cells[..., -1, -1] ^= np.uint64((ord(",") ^ ord("\n")) << 56)
        text = cells.view(np.uint8).reshape(block.shape[:2] + (8 * _WORDS * block.shape[2],))
        line = np.empty(text.shape[:2] + (width + text.shape[2],), dtype=np.uint8)
        line[..., :prefixes.shape[2]] = prefixes[start:start + step]
        line[..., prefixes.shape[2]:width] = tails
        line[..., width:] = text
        yield line.tobytes().translate(None, b"\0").decode()


@contextlib.contextmanager
def _staged(paths: list[Path]):
    """Yield a new temporary path beside each of ``paths``, in its directory, and move
    each onto its target when the block completes.

    The temporaries are made first, so a directory that cannot take a file fails
    before any work, with the target's path in the error. On any error every
    temporary is removed, and so is each target already moved, so no file of
    the set is left without the others.
    """
    temps = []
    try:
        for path in paths:
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            try:
                temp.open("xb").close()
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            temps.append(temp)
        yield temps
        moved = []
        try:
            for temp, path in zip(temps, paths):
                os.replace(temp, path)
                moved.append(path)
        except OSError as exc:
            for path in moved:
                path.unlink(missing_ok=True)
            raise OSError(exc.errno, exc.strerror, str(paths[len(moved)])) from None
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_table(out: Path | None, chunks) -> None:
    """Write the CSV ``chunks`` of ``_csv_blocks`` to ``out`` with a manifest, or to stdout.

    The manifest records the current command's options, every one but
    ``--out``, with the grid as [start, end, steps]. Both files are written
    to temporaries and moved into place together (``_staged``).
    """
    if out is None:
        for chunk in chunks:
            # color=True: the writer emits no escape codes, so skip click's ANSI-stripping pass
            click.echo(chunk, nl=False, color=True)
        return
    out = Path(out)
    with _staged([out, out.with_name(out.name + ".manifest.json")]) as (table, manifest):
        digest = hashlib.sha256()
        size = 0
        with table.open("wb") as fh:
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
        record = {
            "schema": "spinwire.manifest/1",
            "command": ctx.command.name,
            "parameters": parameters,
            "artifact-version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "output-files": [{"path": out.name, "sha256": digest.hexdigest(), "bytes": size}],
        }
        manifest.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


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
    """Map domain errors, float overflow, exhausted memory and unwritable output to exit 1.

    Each prints one ``error:`` line; a closed stdout pipe is left to click.
    The command runs on one BLAS thread: its products are too small to
    share, and waking a second thread slows the Python code after them.
    """

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"), _blas_thread_limit(1):
                return f(*args, **kwargs)
        except BrokenPipeError:
            raise
        except (SpinwireError, FloatingPointError, MemoryError, OSError) as exc:
            # numpy's MemoryError names the allocation; a bare one has no message
            fallback = "out of memory" if isinstance(exc, MemoryError) else type(exc).__name__
            click.echo(f"error: {str(exc) or fallback}", err=True)
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
    # the two end pairs need n >= 4: one length message for every short chain
    spec = _build_chain(family, _check_length(n, minimum=4), d, model)
    amp = propagate_grid(spectral_decompose(spec), grid, (1, 2), (n - 1, n))
    vals = channel_correlations(amp, n, model, corrected)
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
    report is byte-identical across runs with the same parameters. Its
    directory is checked before any check runs, and the report is moved
    into place at the end (``_staged``).
    """
    with _staged([] if out is None else [Path(out)]) as temps:
        report = run_verification(max_n=max_n, seed=seed, tolerance=tolerance)
        for check in report.checks:
            click.echo(check.line())
        passed = sum(c.passed for c in report.checks)
        click.echo(f"{passed}/{len(report.checks)} checks passed")
        for temp in temps:
            temp.write_text(report.to_json())
    if not report.passed:
        failing = [c for c in report.checks if not c.passed]
        click.echo("failing inputs:", err=True)
        for c in failing:
            click.echo(f"  {c.name}: {json.dumps(c.inputs, sort_keys=True)}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
