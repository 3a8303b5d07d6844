"""Batched time-grid engine and block CSV writer.

``propagate_grid`` is the one evaluation path behind every CLI table, so
its validated range (n = 2..60, |t| <= 50, random couplings and row
subsets) is pinned here against the single-time ``propagate`` and
against ``scipy.linalg.expm``. The closed forms stay as independent
references for the channel correlations it feeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinwire.chain import ChainSpec, engineered_couplings, homogeneous_couplings, random_couplings
from spinwire.cli import _csv_blocks
from spinwire.errors import InvalidParameterError, SpinwireError
from spinwire.logical import (
    CHANNELS,
    channel_correlations,
    logical_transport_engineered,
    logical_transport_homogeneous,
)
from spinwire.mqc import (
    mqc_phase_cycled,
    mqc_phase_cycled_grid,
    mqc_x_analytic,
    mqc_y_analytic,
    mqc_z_analytic,
    prepare_state,
)
from spinwire.propagator import (
    chain_propagator,
    end_autocorrelation,
    end_autocorrelation_grid,
    homogeneous_amplitude,
    propagate,
    propagate_grid,
    spectral_decompose,
)

TIMES = st.lists(st.floats(-50, 50, allow_nan=False), max_size=4)


@given(st.integers(2, 60), st.integers(0, 2**32 - 1), TIMES, st.data())
@settings(max_examples=60, deadline=None)
def test_grid_matches_single_time_propagator(n, seed, times, data):
    couplings = random_couplings(np.random.default_rng(seed), n)
    dec = spectral_decompose(ChainSpec(n, "xx", couplings))
    rows = data.draw(st.lists(st.integers(1, n), max_size=4), label="rows")
    cols = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="cols")
    block = propagate_grid(dec, times, rows, cols)
    assert block.shape == (len(times), len(rows), len(cols))
    full = propagate_grid(dec, times)
    m = np.diag(couplings, 1) + np.diag(couplings, -1)
    r, c = np.array(rows, dtype=int) - 1, np.array(cols) - 1
    for k, t in enumerate(times):
        single = propagate(dec, t).amplitudes
        assert np.max(np.abs(block[k] - single[np.ix_(r, c)]), initial=0.0) <= 1e-13
        assert np.max(np.abs(full[k] - expm(-1j * m * t))) <= 1e-12


@pytest.mark.parametrize("rows", [None, (1,), (3, 1, 3)])
def test_empty_grid_has_zero_leading_axis(rows):
    dec = spectral_decompose(engineered_couplings(5))
    block = propagate_grid(dec, [], rows)
    width = 5 if rows is None else len(rows)
    assert block.shape == (0, width, 5)


def test_grid_is_exact_at_time_zero():
    dec = spectral_decompose(homogeneous_couplings(30))
    assert np.array_equal(propagate_grid(dec, [0.0])[0], np.eye(30))


@pytest.mark.parametrize(
    "times, rows",
    [
        ([0.0, np.nan], None),
        ([np.inf], None),
        ([-np.inf, 1.0], (1,)),
        ([[0.0, 1.0]], None),
        (["soon"], None),
        ([1.0], (0,)),
        ([1.0], (1, 7)),
        ([1.0], (1.5,)),
        ([], (9,)),
    ],
)
def test_grid_rejects_bad_times_and_rows(times, rows):
    dec = spectral_decompose(engineered_couplings(6))
    with pytest.raises(SpinwireError):
        propagate_grid(dec, times, rows)


@pytest.mark.parametrize("n", [20, 21, 200])
def test_engineered_grid_channels_match_closed_forms(n):
    times = np.linspace(0.0, n * np.pi / 2, 41)
    vals = channel_correlations(
        propagate_grid(spectral_decompose(engineered_couplings(n)), times, (1, 2))
    )
    for alpha in CHANNELS:
        want = [logical_transport_engineered(n, 1.0, alpha, t) for t in times]
        assert np.max(np.abs(vals[alpha] - want)) <= 1e-12, alpha


@pytest.mark.parametrize("n", [10, 200])
def test_homogeneous_grid_channels_match_closed_forms(n):
    times = np.linspace(0.0, 16.0, 41)
    vals = channel_correlations(
        propagate_grid(spectral_decompose(homogeneous_couplings(n, 0.8)), times, (1, 2))
    )
    for alpha in CHANNELS:
        want = [logical_transport_homogeneous(n, 0.8, alpha, t) for t in times]
        assert np.max(np.abs(vals[alpha] - want)) <= 1e-12, alpha


def _per_cell_csv(header, rows):
    """The writer the block writer replaced: one ``format`` call per cell."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(x) + 0.0, ".15g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -3.0]),
    st.integers(-(2**60), 2**60).map(float),
)


@given(st.integers(1, 5), st.lists(FINITE, max_size=60), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_block_writer_matches_per_cell_format(width, values, block_rows):
    header = [f"c{k}" for k in range(width)]
    rows = np.array(values[: len(values) // width * width]).reshape(-1, width)
    text = "".join(_csv_blocks(header, rows, block_rows))
    assert text == _per_cell_csv(header, rows)


@given(
    st.sampled_from(("z_ends", "y_logical")),
    st.sampled_from(("xx", "dq")),
    st.integers(0, 2**32 - 1),
    TIMES,
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_autocorrelation_grid_equals_single_time_calls(kind, model, seed, times, data):
    n = data.draw(st.integers(2 if kind == "z_ends" else 4, 30), label="n")
    couplings = tuple(np.random.default_rng(seed).uniform(-1.5, 1.5, n - 1))
    spec = ChainSpec(n, model, couplings)
    curve = end_autocorrelation_grid(spec, kind, times)
    single = [end_autocorrelation(spec, kind, t) for t in times]
    assert curve.shape == (len(times),)
    assert np.array_equal(curve, single)


BAD_TIMES = ("a", None, float("nan"), float("inf"))
TIME_ENTRY_POINTS = {
    "chain_propagator": lambda t: chain_propagator(homogeneous_couplings(4), t),
    "propagate_grid": lambda t: propagate_grid(spectral_decompose(homogeneous_couplings(4)), [t]),
    "end_autocorrelation": lambda t: end_autocorrelation(homogeneous_couplings(4), "z_ends", t),
    "end_autocorrelation_grid": lambda t: end_autocorrelation_grid(
        homogeneous_couplings(4), "z_ends", [0.0, t]
    ),
    "homogeneous_amplitude": lambda t: homogeneous_amplitude(4, 1.0, 1, 4, t),
    "mqc_z_analytic": lambda t: mqc_z_analytic(4, 1.0, t),
    "mqc_y_analytic": lambda t: mqc_y_analytic(4, 1.0, t),
    "mqc_x_analytic": lambda t: mqc_x_analytic(4, 1.0, t),
    "mqc_phase_cycled": lambda t: mqc_phase_cycled(
        homogeneous_couplings(4, model="dq"), prepare_state(4, "z_ends"), t
    ),
    "mqc_phase_cycled_grid": lambda t: mqc_phase_cycled_grid(
        homogeneous_couplings(4, model="dq"), prepare_state(4, "z_ends"), [t]
    ),
    "logical_transport_homogeneous": lambda t: logical_transport_homogeneous(6, 1.0, "x", t),
    "logical_transport_engineered": lambda t: logical_transport_engineered(6, 1.0, "x", t),
}


@pytest.mark.parametrize("t", BAD_TIMES, ids=repr)
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_entry_points_reject_bad_times(entry, t):
    with pytest.raises(InvalidParameterError):
        TIME_ENTRY_POINTS[entry](t)
