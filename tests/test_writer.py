"""The bulk ``%.15g`` formatter behind every CSV table.

``cli._format_cells`` must give the bytes of ``'%.15g,' % (x + 0.0)`` for
every float. A hypothesis test draws any finite float (subnormals and
both zeros included), and fixed lists hold the hard cases: every power
of ten with both neighbours, decimal half-way values (exact ties among
them), and the switch between fixed and scientific notation with its
rounding carries, each with its negative copy. The writer's memory and
the full ``transfer --n 200`` table are checked against per-cell
formatting as well.
"""

import math
import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.chain import engineered_couplings, normalized_time
from spinwire.cli import _csv_blocks, _format_cells
from spinwire.propagator import propagate_grid, spectral_decompose


def formatted(values) -> list[str]:
    """The text of each cell of ``_format_cells``: its bytes with the zero bytes dropped."""
    words = _format_cells(np.asarray(values, dtype=float))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in words.reshape(-1, 6)]


def mismatches(values) -> list[tuple[float, str, str]]:
    values = np.asarray(values, dtype=float).ravel().tolist()
    with np.errstate(all="raise"):
        got = formatted(values)
    return [(x, g, "%.15g," % (x + 0.0)) for x, g in zip(values, got) if g != "%.15g," % (x + 0.0)]


BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
# a full 53-bit mantissa at any scale: hypothesis's own floats favour short ones
MANTISSAS = st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 971))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), BITS.filter(math.isfinite),
                   MANTISSAS)


@given(st.lists(FLOATS, max_size=40))
@settings(max_examples=400, deadline=None)
def test_every_float_formats_as_percent_g(values):
    assert mismatches(values) == []


def powers_of_ten() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def half_way_values(count: int = 20_000) -> np.ndarray:
    """(m + 1/2) 10^k for 15-digit m; at k = 0, 1 and 2 most are exact ties."""
    rng = np.random.default_rng(30)
    m = rng.integers(10**14, 10**15, count).tolist()
    k = np.concatenate([rng.integers(-310, 295, count // 2),
                        rng.integers(0, 3, count - count // 2)])
    return np.array([float(f"{digits}5e{power - 1}") for digits, power in zip(m, k.tolist())])


SWITCH = [
    9.999999999999995e-05, 9.9999999999999995e-05, 1e-05, 1e-4, 0.0001, 0.00010000000000000005,
    999999999999999.5, 999999999999998.5, 99999999999999.95, 1e15, 1e16, 1e14,
    0.5, 2.5, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]


def test_powers_of_ten_and_their_neighbours():
    values = powers_of_ten()
    assert mismatches(np.concatenate([values, -values])) == []


def test_decimal_half_way_values():
    values = half_way_values()
    assert mismatches(np.concatenate([values, -values])) == []


def test_notation_switch_and_rounding_carries():
    values = np.array(SWITCH)
    assert mismatches(np.concatenate([values, -values])) == []
    carries = formatted([999999999999999.5, 9.999999999999995e-05, -0.0])
    assert carries == ["1e+15,", "0.0001,", "0,"]


def transfer_table(n: int = 200, steps: int = 201):
    """The keys, values and sites of ``transfer --n 200 --grid 0:100:201``."""
    grid = np.linspace(0.0, 100.0, steps)
    sites = np.arange(1, n + 1)
    amp = propagate_grid(spectral_decompose(engineered_couplings(n)), grid, (1,), sites)[:, 0]
    keys = np.column_stack([grid, normalized_time(n, 1.0, grid)])
    return keys, np.abs(amp) ** 2, sites


def test_transfer_table_equals_per_cell_format():
    keys, values, sites = transfer_table()
    text = "".join(_csv_blocks(["t", "tau", "site", "correlation"], keys, values, sites))
    rows = (
        f"{'%.15g' % t},{'%.15g' % tau},{site},{'%.15g' % (c + 0.0)}\n"
        for (t, tau), row in zip(keys.tolist(), values.tolist())
        for site, c in zip(sites.tolist(), row)
    )
    assert text == "t,tau,site,correlation\n" + "".join(rows)


def test_writing_the_transfer_table_stays_small():
    # 40,200 rows, 1.3 MB of text: the writer holds one block of about 2048 rows
    # as cell words (48 bytes a value cell) and its text, 0.9 MiB at the peak
    keys, values, sites = transfer_table()
    for _ in _csv_blocks(["t"], keys[:1], values[:1], sites):  # build the lookup tables
        pass
    tracemalloc.start()
    try:
        chunks = _csv_blocks(["t", "tau", "site", "c"], keys, values, sites)
        size = sum(len(chunk) for chunk in chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 10**6
    assert peak < 2 * 2**20
