"""Batched time-grid engine, block CSV writer and the input contract.

``propagate_grid`` is the one evaluation path behind every CLI table, so
its validated range (n = 2..60, |t| <= 50, random couplings and row
subsets) is pinned here against the single-time ``propagate`` and
against ``scipy.linalg.expm``. The closed forms stay as independent
references for the channel correlations it feeds.

The input contract is the product of two tables. ``CALLS`` holds one
valid call of each public callable, by keyword; ``ROLES`` holds, for
each argument name, the rules of its input kind in ``spinwire.chain``:
bad values with the error each raises, NumPy values with their Python
twin, and how a value is placed into the argument. Each case swaps one
argument of one call for one value, with the id
``<call>-<argument>-<value>``. A completeness test reads the signatures
in every module's ``__all__``, ``spinwire.oracle`` included, and names
each callable with no call, each call that leaves out an argument or
raises, and each argument name with no role.
"""

import ast
import inspect
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinwire
from spinwire import chain, errors, logical, mqc, oracle, pauli, propagator, verify
from spinwire.chain import (
    ChainSpec,
    dipolar_couplings,
    engineered_couplings,
    homogeneous_couplings,
    implant_spacings,
    normalized_time,
    perturb_couplings,
    random_couplings,
    transfer_timing,
)
from spinwire.cli import _csv_blocks
from spinwire.errors import (
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    SpinwireError,
    UnsupportedModelError,
)
from spinwire.logical import (
    CHANNELS,
    channel_correlations,
    channel_fidelity,
    dq_parity_correction,
    logical_basis,
    logical_correlation_from_spec,
    logical_transport_engineered,
    logical_transport_homogeneous,
)
from spinwire.mqc import (
    mqc_analytic,
    mqc_phase_cycled,
    mqc_phase_cycled_grid,
    mqc_propagator_grid,
    prepare_state,
)
from spinwire.oracle import (
    basis_index,
    build_hamiltonian,
    collective_rotation_diag,
    conserved_sectors,
    deviation_to_dense,
    evolve_deviation,
    evolve_unitary,
    excitation_operator,
    oracle_budget,
    pauli_string_to_dense,
    popcount,
    require_within_budget,
    similarity_residual,
    similarity_transform,
    staggered_z,
    total_z,
    trace_overlap,
)
from spinwire.pauli import DeviationState
from spinwire.propagator import (
    _TIME_BLOCK,
    end_autocorrelation_grid,
    engineered_frequencies,
    homogeneous_amplitude,
    mixed_state_overlap,
    polarization_from_propagator,
    propagate,
    propagate_grid,
    slater_amplitude,
    spectral_decompose,
)
from spinwire.verify import run_verification
from support import MQC_SERIES

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
        single = propagate(dec, t)
        assert np.max(np.abs(block[k] - single[np.ix_(r, c)]), initial=0.0) <= 1e-13
        assert np.max(np.abs(full[k] - expm(-1j * m * t))) <= 1e-12


@pytest.mark.parametrize("rows", [None, (1,), (3, 1, 3)])
def test_empty_grid_has_zero_leading_axis(rows):
    dec = spectral_decompose(engineered_couplings(5))
    block = propagate_grid(dec, [], rows)
    width = 5 if rows is None else len(rows)
    assert block.shape == (0, width, 5)


def test_grid_longer_than_one_time_block_matches_single_times():
    dec = spectral_decompose(ChainSpec(9, "xx", random_couplings(np.random.default_rng(5), 9)))
    times = np.linspace(-40.0, 40.0, 2 * _TIME_BLOCK + 3)
    block = propagate_grid(dec, times, (1, 9), (2, 9))
    single = [propagate_grid(dec, [t], (1, 9), (2, 9))[0] for t in times]
    assert np.array_equal(block, single)


def test_grid_is_exact_at_time_zero():
    dec = spectral_decompose(homogeneous_couplings(30))
    assert np.array_equal(propagate_grid(dec, [0.0])[0], np.eye(30))


@pytest.mark.parametrize(
    "times, rows",
    [
        ([0.0, np.nan], None),
        ([np.inf], None),
        ([-np.inf, 1.0], (1,)),
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
    want = logical_transport_engineered(n, 1.0, times)
    for alpha in CHANNELS:
        assert np.max(np.abs(vals[alpha] - want[alpha])) <= 1e-12, alpha


@pytest.mark.parametrize("n", [10, 200])
def test_homogeneous_grid_channels_match_closed_forms(n):
    times = np.linspace(0.0, 16.0, 41)
    vals = channel_correlations(
        propagate_grid(spectral_decompose(homogeneous_couplings(n, 0.8)), times, (1, 2))
    )
    want = logical_transport_homogeneous(n, 0.8, times)
    for alpha in CHANNELS:
        assert np.max(np.abs(vals[alpha] - want[alpha])) <= 1e-12, alpha


@given(st.integers(2, 60), st.floats(0.2, 1.5), TIMES, st.data())
@settings(max_examples=60, deadline=None)
def test_homogeneous_amplitude_matches_the_grid_engine(n, d, times, data):
    rows = data.draw(st.lists(st.integers(1, n), max_size=4), label="rows")
    cols = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="cols")
    got = homogeneous_amplitude(n, d, times, rows, cols)
    want = propagate_grid(spectral_decompose(homogeneous_couplings(n, d)), times, rows, cols)
    assert got.shape == want.shape == (len(times), len(rows), len(cols))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


# each closed form that takes a time grid, as a function of (n, times) returning one array
CLOSED_FORM_GRIDS = {
    "homogeneous_amplitude": lambda n, times: homogeneous_amplitude(n, 0.8, times),
    "logical_transport_homogeneous": lambda n, times: np.stack(
        list(logical_transport_homogeneous(n, 0.8, times).values())
    ).T,
    "logical_transport_engineered": lambda n, times: np.stack(
        list(logical_transport_engineered(n, 0.8, times).values())
    ).T,
    "normalized_time": lambda n, times: normalized_time(n, 0.8, times),
}


@given(st.sampled_from(sorted(CLOSED_FORM_GRIDS)), st.integers(4, 30), TIMES)
@settings(max_examples=80, deadline=None)
def test_closed_form_grid_equals_single_time_calls(form, n, times):
    curve = CLOSED_FORM_GRIDS[form](n, times)
    single = [CLOSED_FORM_GRIDS[form](n, [t])[0] for t in times]
    assert len(curve) == len(times)
    assert np.array_equal(curve, np.reshape(single, curve.shape))


@pytest.mark.parametrize(
    "closed", [logical_transport_homogeneous, logical_transport_engineered], ids=lambda f: f.__name__
)
def test_logical_closed_forms_return_every_channel_on_the_grid(closed):
    vals = closed(8, 1.0, [0.0, 0.5, 1.5])
    assert list(vals) == list(CHANNELS)
    assert all(v.shape == (3,) for v in vals.values())
    assert [v.shape for v in closed(8, 1.0, []).values()] == [(0,)] * len(CHANNELS)


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
    text = "".join(_csv_blocks(header, rows[:, :1], rows[:, 1:], block_rows=block_rows))
    assert text == _per_cell_csv(header, rows)


@given(st.integers(0, 5), st.integers(1, 5), st.integers(1, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_site_keyed_writer_matches_per_cell_format(steps, width, block_rows, data):
    def draw(size, label):
        return np.array(data.draw(st.lists(FINITE, min_size=size, max_size=size), label=label))

    keys = draw(2 * steps, "t, tau").reshape(steps, 2)
    sites = draw(width, "sites")
    values = draw(steps * width, "values").reshape(steps, width)
    header = ["t", "tau", "site", "correlation"]
    rows = np.column_stack([
        np.repeat(keys[:, 0], width),
        np.repeat(keys[:, 1], width),
        np.tile(sites, steps),
        values.ravel(),
    ])
    text = "".join(_csv_blocks(header, keys, values, sites, block_rows))
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
    single = [end_autocorrelation_grid(spec, kind, [t])[0] for t in times]
    assert curve.shape == (len(times),)
    assert np.array_equal(curve, single)


def test_phase_bound_is_two_to_the_32_rad():
    # normalized_time holds t to the rate 2 d = 1: a phase of 2^32 rad runs, the next float not
    assert normalized_time(4, 0.5, [2.0**32]).tolist() == [2.0**30]
    with pytest.raises(InvalidParameterError, match="time out of range"):
        normalized_time(4, 0.5, [np.nextafter(2.0**32, np.inf)])


# -- the input contract: one valid call per callable, one rule per argument name --------------

SITE_DEC = spectral_decompose(homogeneous_couplings(4))
SITE_PROP = propagate(SITE_DEC, 0.7)
DQ_SPEC = homogeneous_couplings(4, model="dq")
Z_ENDS = prepare_state(4, "z_ends")
LABEL_N = 3

# one valid call of each public callable, naming every argument; each call with a site
# argument runs on 4 sites, and each with basis labels on LABEL_N sites
CALLS = {
    "ChainSpec": (ChainSpec, dict(n=3, model="xx", couplings=(1.0, 1.0))),
    "homogeneous_couplings": (homogeneous_couplings, dict(n=4, d=1.0, model="xx")),
    "engineered_couplings": (engineered_couplings, dict(n=4, d=1.0, model="xx")),
    "dipolar_couplings": (
        dipolar_couplings, dict(positions=[0.0, 1.0, 3.0], prefactor=1.0, model="xx")
    ),
    "implant_spacings": (implant_spacings, dict(n=4, r_min=1.0)),
    "random_couplings": (random_couplings, dict(rng=np.random.default_rng(0), n=4)),
    "perturb_couplings": (perturb_couplings, dict(spec=DQ_SPEC, sigma=0.1, seed=0)),
    "transfer_timing": (transfer_timing, dict(spec=engineered_couplings(4))),
    "normalized_time": (normalized_time, dict(n=4, d=1.0, times=[0.5])),
    "DeviationState": (DeviationState, dict(n=4, terms=((1.0, ((1, "X"),)),))),
    "DeviationState.from_terms": (
        DeviationState.from_terms, dict(n=4, terms=[(1.0, ((1, "X"),))])
    ),
    "spectral_decompose": (spectral_decompose, dict(spec=DQ_SPEC)),
    "propagate": (propagate, dict(decomposition=SITE_DEC, t=0.7)),
    "propagate_grid": (
        propagate_grid, dict(decomposition=SITE_DEC, times=[0.7], rows=(1,), cols=(1, 2))
    ),
    "homogeneous_amplitude": (
        homogeneous_amplitude, dict(n=4, d=1.0, times=[0.7], rows=(1,), cols=(4,))
    ),
    "engineered_frequencies": (engineered_frequencies, dict(n=4, d=1.0)),
    "slater_amplitude": (slater_amplitude, dict(amplitudes=SITE_PROP, sources=(1,), targets=(1,))),
    "mixed_state_overlap": (mixed_state_overlap, dict(
        amplitudes=SITE_PROP, a={((1,), (1,)): 1.0}, b={((2,), (2,)): 1.0}
    )),
    "polarization_from_propagator": (
        polarization_from_propagator, dict(amplitudes=SITE_PROP, j=1, l=2, model="xx")
    ),
    "end_autocorrelation_grid": (
        end_autocorrelation_grid, dict(spec=DQ_SPEC, initial="z_ends", times=[0.5])
    ),
    "logical_basis": (logical_basis, dict(model="xx", n=4, pair="source")),
    "dq_parity_correction": (dq_parity_correction, dict(n=4)),
    "channel_correlations": (
        channel_correlations, dict(amplitudes=SITE_PROP, model="xx", corrected=True)
    ),
    "channel_fidelity": (channel_fidelity, dict(vals=channel_correlations(SITE_PROP))),
    **{f.__name__: (f, dict(n=6, d=1.0, times=[0.5]))
       for f in (logical_transport_homogeneous, logical_transport_engineered)},
    "logical_correlation_from_spec": (logical_correlation_from_spec, dict(
        spec=homogeneous_couplings(6), alpha="x", t=0.5, corrected=True
    )),
    "prepare_state": (prepare_state, dict(n=4, kind="z_ends")),
    **{label: (mqc_analytic, dict(n=4, d=1.0, kind=kind, t=0.5))
       for label, kind in MQC_SERIES.items()},
    "mqc_propagator_grid": (mqc_propagator_grid, dict(spec=DQ_SPEC, initial=Z_ENDS, times=[0.5])),
    "mqc_phase_cycled": (mqc_phase_cycled, dict(
        spec=DQ_SPEC, initial=Z_ENDS, t=0.5, phase_steps=16, max_order=2
    )),
    "mqc_phase_cycled_grid": (mqc_phase_cycled_grid, dict(
        spec=DQ_SPEC, initial=Z_ENDS, times=[0.5], phase_steps=16, max_order=2
    )),
    "run_verification": (run_verification, dict(max_n=4, seed=0, tolerance=None)),
    "oracle_budget": (oracle_budget, dict()),
    "require_within_budget": (require_within_budget, dict(n=4)),
    "pauli_string_to_dense": (pauli_string_to_dense, dict(n=4, string=((1, "X"),))),
    "deviation_to_dense": (
        deviation_to_dense, dict(state=prepare_state(LABEL_N, "z_ends"), labels=None)
    ),
    "excitation_operator": (excitation_operator, dict(n=4, blocks={((1,), (2,)): 1.0})),
    "basis_index": (basis_index, dict(n=4, sites=(1,))),
    "build_hamiltonian": (
        build_hamiltonian, dict(spec=homogeneous_couplings(LABEL_N), labels=None)
    ),
    "conserved_sectors": (conserved_sectors, dict(spec=DQ_SPEC)),
    "popcount": (popcount, dict(labels=[1, 4], n=LABEL_N)),
    "evolve_unitary": (evolve_unitary, dict(h=np.eye(2), t=0.1)),
    "evolve_deviation": (evolve_deviation, dict(h=np.eye(2), rho=np.eye(2), t=0.1)),
    "trace_overlap": (trace_overlap, dict(a=np.eye(2), b=np.eye(2))),
    "total_z": (total_z, dict(n=4)),
    "staggered_z": (staggered_z, dict(n=4)),
    "collective_rotation_diag": (collective_rotation_diag, dict(n=4, phi=0.5)),
    "similarity_transform": (similarity_transform, dict(n=4)),
    "similarity_residual": (similarity_residual, dict(h_xx=np.eye(2), h_dq=np.eye(2))),
}


class Rule(NamedTuple):
    """Values of one input kind: bad ones with the error each raises, numpy ones with the
    Python twin that gives the same result, and how a value is placed into its argument."""

    bad: tuple
    same: tuple = ()
    place: Callable | None = None


def _raising(error, *values):
    return tuple((value, error) for value in values)


def _at(rule, place):
    return rule._replace(place=place)


# 1e308 is finite, but its phases w t lie far past 2^32 rad or overflow;
# the x_logical series forms no phase, and holds times to the y_logical range
TIME = Rule(_raising(InvalidParameterError, "a", None, float("nan"), float("inf"), 1e308, "0.5",
                     True, 10**400, np.complex128(1 + 1j)))
# a scalar, or a grid that is not one-dimensional
GRID_SHAPE = Rule(_raising(InvalidParameterError, 0.5, np.float64(0.5), np.array(0.5),
                           np.zeros((1, 2)), [[0.0, 1.0]]))
# a float, a bool, a missing value, a string, and a numpy float of a valid size
LENGTH = Rule(_raising(InvalidDimensionError, 2.5, 4.5, True, None, "a", np.float64(6.0)))
# strings, bools, complex, missing, non-finite, non-positive and past the float range
SCALE = Rule(
    _raising(InvalidParameterError, "1", "abc", True, np.True_, None, 1 + 0j, float("nan"),
             float("inf"), 0.0, -1.0, 10**400),
    same=((np.float64(0.8), 0.8), (np.float32(0.5), 0.5), (np.int64(2), 2.0), (2, 2.0)),
)
# strings, bools, missing, complex, non-finite and past the float range
REAL = Rule(
    _raising(InvalidParameterError, "1", True, np.True_, None, 1 + 0j, float("nan"),
             float("inf"), 10**400),
    same=((2, 2.0), (np.int64(2), 2.0), (np.float64(2.5), 2.5), (np.float32(2.5), 2.5)),
)
# a float, bools, missing, a string, a numpy float of a valid size, and below the minimum
# (a negative phase_steps cannot resolve order 0: AliasingError, an InvalidParameterError)
INT = Rule(
    _raising(InvalidParameterError, 1.5, True, np.True_, None, "7", np.float64(7.0), -1),
    same=((np.int64(7), 7), (np.int32(7), 7), (np.uint8(7), 7)),
)
# not integers, then outside the 4 sites of every call
SITE = Rule(
    _raising(InvalidConfigurationError, 1.5, True, "a") + _raising(IndexOutOfRangeError, 0, 5),
    same=((np.int64(2), 2),),
)
# sites that are not a sequence at all
NOT_A_SEQUENCE = Rule(_raising(InvalidConfigurationError, 1, np.int64(2), 1.5))
# strings, bools, missing, a list, non-finite and past the float range
WEIGHT = Rule(
    _raising(InvalidConfigurationError, "a", "1", True, np.True_, None, [1.0], float("nan"),
             complex(0, float("inf")), 10**400),
    same=((2, 2 + 0j), (np.int64(2), 2 + 0j), (np.float32(0.5), 0.5 + 0j),
          (np.complex64(1 + 2j), 1 + 2j)),
)
# floats, bools, strings, missing, ragged, mixed and too wide for 64 bits
LABELS = Rule(
    _raising(InvalidConfigurationError, [1.5], np.array([1.5]), np.array([True]), "a", None,
             [[1], [1, 2]], [1, "a"], [2**64]),
    same=((np.array([1, 4]), [1, 4]), (np.array([1, 4], dtype=np.uint8), (1, 4))),
)


def _choice(error):
    # "dipolar" names a coupling family, not a chain model
    return Rule(_raising(error, "bogus", "", None, 1, ["xx"], b"xx", "dipolar"))


# the rules of each value argument, by name
ROLES = {
    **dict.fromkeys(("n", "max_n"), (LENGTH,)),
    "d": (SCALE,),
    "t": (TIME,),
    "times": (_at(TIME, lambda t: [0.0, t]), GRID_SHAPE),
    **dict.fromkeys(("j", "l"), (SITE,)),
    **dict.fromkeys(("rows", "cols", "sources", "targets", "sites"),
                    (_at(SITE, lambda j: (j,)), NOT_A_SEQUENCE)),
    "string": (_at(SITE, lambda j: ((j, "X"),)), NOT_A_SEQUENCE),
    "terms": (_at(SITE, lambda j: ((1.0, ((j, "Z"),)),)),
              _at(NOT_A_SEQUENCE, lambda s: ((1.0, s),)),
              _at(WEIGHT, lambda w: ((w, ((1, "X"),)),))),
    # mixed states: {(sources, targets): weight}
    **dict.fromkeys(("blocks", "a", "b"), (_at(SITE, lambda j: {((j,), (1,)): 1.0}),
                                          _at(NOT_A_SEQUENCE, lambda s: {(s, (1,)): 1.0}),
                                          _at(WEIGHT, lambda w: {((1,), (2,)): w}))),
    "couplings": (_at(REAL, lambda x: (1.0, x)),),
    "positions": (_at(REAL, lambda x: [0.0, 1.0, x]),),
    **dict.fromkeys(("prefactor", "r_min", "sigma", "tolerance", "phi"), (REAL,)),
    **dict.fromkeys(("seed", "phase_steps", "max_order"), (INT,)),
    "model": (_choice(UnsupportedModelError),),
    **dict.fromkeys(("kind", "initial", "pair", "alpha"), (_choice(InvalidConfigurationError),)),
    "labels": (LABELS,),
}
# objects and flags, outside the value rules (object arguments are not checked by type);
# so is any argument annotated as an ndarray operand or a prepared DeviationState, but for
# popcount's labels, which follow the label rule
OBJECT_ARGUMENTS = ("spec", "decomposition", "amplitudes", "vals", "corrected", "rng")
OBJECT_ANNOTATIONS = ("np.ndarray", "DeviationState")


def _is_value(func, name) -> bool:
    """Whether argument ``name`` of ``func`` follows a value rule, not an object's."""
    annotation = inspect.signature(func).parameters[name].annotation
    return (func, name) == (popcount, "labels") or not (
        name in OBJECT_ARGUMENTS or annotation in OBJECT_ANNOTATIONS
    )


def _run(call, **swap):
    """The call with the arguments in ``swap`` replaced."""
    func, kwargs = CALLS[call]
    return func(**{**kwargs, **swap})


def _cases(values):
    """pytest params (call, name, argument value, *rest), id ``<call>-<name>-<value>``, for
    each (value, *rest) that ``values`` yields from each rule of each value argument."""
    cases = []
    for call, (func, kwargs) in CALLS.items():
        for name in (name for name in kwargs if _is_value(func, name)):
            default = inspect.signature(func).parameters[name].default
            for rule in ROLES.get(name, ()):
                for value, *rest in values(rule):
                    value = value if rule.place is None else rule.place(value)
                    # a bad value that is the default (tolerance=None, labels=None) is valid
                    if value is not default:
                        cases.append(pytest.param(call, name, value, *rest,
                                                  id=f"{call}-{name}-{value!r}"))
    return cases


@pytest.mark.parametrize("call, name, value, error", _cases(lambda rule: rule.bad))
def test_a_bad_value_raises_the_error_of_its_role(call, name, value, error):
    # warnings are errors (pyproject.toml), so a phase that warns fails here too
    with pytest.raises(error):
        _run(call, **{name: value})


def _same(got, want) -> bool:
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    return np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


@pytest.mark.parametrize("call, name, value, twin", _cases(
    lambda rule: ((value, twin if rule.place is None else rule.place(twin))
                  for value, twin in rule.same)
))
def test_a_numpy_value_gives_the_result_of_its_python_twin(call, name, value, twin):
    assert _same(_run(call, **{name: value}), _run(call, **{name: twin}))


MODULES = (chain, errors, pauli, propagator, logical, mqc, verify, oracle)
RESULT_TYPES = (
    "TransferTiming", "SpectralDecomposition", "MqcSpectrum", "CheckResult",
    "VerificationReport",
)


def test_every_public_callable_has_a_call_and_every_argument_a_role():
    called = [func for func, _ in CALLS.values()]
    problems = [
        f"{module.__name__}.{name}: no CALLS row"
        for module in MODULES for name in module.__all__
        if callable(obj := getattr(module, name)) and name not in RESULT_TYPES
        and not (isinstance(obj, type) and issubclass(obj, Exception)) and obj not in called
    ]
    for call, (func, kwargs) in CALLS.items():
        for name in inspect.signature(func).parameters:
            if name not in kwargs:
                problems.append(f"{call}: the call leaves out argument {name!r}")
            elif _is_value(func, name) and name not in ROLES:
                problems.append(f"{call}: no role for argument {name!r}")
        try:
            _run(call)
        except Exception as exc:
            problems.append(f"{call}: the call raises {exc!r}")
    assert not problems, "\n".join(problems)


# unsorted, repeated and not one-dimensional block labels
BLOCK_ENTRY_POINTS = ("build_hamiltonian", "deviation_to_dense")


@pytest.mark.parametrize("labels", ([2, 1], [1, 1], [[0, 1]], np.array(0)), ids=repr)
@pytest.mark.parametrize("entry", BLOCK_ENTRY_POINTS)
def test_block_entry_points_reject_unsorted_labels(entry, labels):
    with pytest.raises(InvalidConfigurationError):
        _run(entry, labels=labels)


@pytest.mark.parametrize("labels", ([-1, 0], [0, 2**LABEL_N]), ids=repr)
@pytest.mark.parametrize("entry", BLOCK_ENTRY_POINTS)
def test_block_entry_points_reject_labels_outside_the_basis(entry, labels):
    with pytest.raises(IndexOutOfRangeError):
        _run(entry, labels=labels)


@pytest.mark.parametrize("n", (65, 70))
def test_popcount_rejects_more_bits_than_a_label_holds(n):
    with pytest.raises(InvalidDimensionError):
        popcount(np.array([-1]), n)


# operands that are lists, vectors, scalars, missing, empty, not square or three-dimensional,
# then 2 x 2 ones of strings, with an infinite entry and of NaN; these ndarray arguments sit
# outside the value rules above, so each is listed here with the error it raises
BAD_OPERANDS = (
    *((op, InvalidDimensionError) for op in (
        [[1.0]], np.ones(3), 1.0, None, np.ones((0, 0)), np.ones((2, 3)), np.ones((2, 2, 2))
    )),
    *((op, InvalidParameterError) for op in (
        np.full((2, 2), "a"), np.diag([np.inf, 0.0]), np.full((2, 2), np.nan)
    )),
)
OPERAND_ENTRY_POINTS = {
    "trace_overlap[a]": lambda op: trace_overlap(op, np.eye(2)),
    "trace_overlap[b]": lambda op: trace_overlap(np.eye(2), op),
    "trace_overlap": lambda op: trace_overlap(op, op),
    "evolve_unitary": lambda op: evolve_unitary(op, 0.1),
    "evolve_deviation[h]": lambda op: evolve_deviation(op, np.eye(2), 0.1),
    "evolve_deviation[rho]": lambda op: evolve_deviation(np.eye(2), op, 0.1),
    "similarity_residual[h_xx]": lambda op: similarity_residual(op, np.eye(2)),
    "similarity_residual[h_dq]": lambda op: similarity_residual(np.eye(2), op),
    "slater_amplitude": lambda op: slater_amplitude(op, (1,), (1,)),
    "mixed_state_overlap": lambda op: mixed_state_overlap(
        op, {((1,), (1,)): 1.0}, {((2,), (2,)): 1.0}
    ),
    "polarization_from_propagator": lambda op: polarization_from_propagator(op, 1, 1),
}


@pytest.mark.parametrize("op, error", BAD_OPERANDS, ids=[repr(op) for op, _ in BAD_OPERANDS])
@pytest.mark.parametrize("entry", sorted(OPERAND_ENTRY_POINTS))
def test_operand_entry_points_reject_non_matrices(entry, op, error):
    with pytest.raises(error):
        OPERAND_ENTRY_POINTS[entry](op)


@pytest.mark.parametrize("entry", sorted(e for e in OPERAND_ENTRY_POINTS if "[" in e))
def test_operand_entry_points_reject_unequal_shapes(entry):
    # np.eye(3) against the table's np.eye(2), as in evolve_deviation(np.eye(2), np.eye(3), t)
    with pytest.raises(InvalidDimensionError):
        OPERAND_ENTRY_POINTS[entry](np.eye(3))


@pytest.mark.parametrize("entry", ("mixed_state_overlap", "polarization_from_propagator",
                                   "slater_amplitude"))
def test_amplitude_entry_points_take_a_slice_of_the_grid(entry):
    # the A(t) observables read a propagate_grid slice as they read propagate's symmetrised array
    got = OPERAND_ENTRY_POINTS[entry](propagate_grid(SITE_DEC, [0.7])[0])
    assert got == pytest.approx(OPERAND_ENTRY_POINTS[entry](SITE_PROP), abs=1e-15)


# finite operands whose result overflows, one row per entry point; the finite-result rule
# turns each into an InvalidParameterError, and the suite's warnings-as-errors filter fails a
# row that warns on the way
HUGE = np.full((2, 2), 1e308)
HUGE_MIXED = {((1,), (1,)): 1e308}
# a determinant of 1e400, and a square |A_11|^2 of 1e400 in Python float arithmetic
HUGE_UPPER = np.eye(3) * 1e200
HUGE_UPPER[0, 1] = 1e200
OVERFLOWING_OPERANDS = {
    "trace_overlap": lambda: trace_overlap(np.array([[1e308]]), np.array([[1e308]])),
    "similarity_residual": lambda: similarity_residual(HUGE, -HUGE),
    # exp(-i Y pi/4) turns the all-ones rho onto |1><1| with twice its weight
    "evolve_deviation": lambda: evolve_deviation(np.array([[0, -1j], [1j, 0]]), HUGE, np.pi / 4),
    "mixed_state_overlap": lambda: mixed_state_overlap(SITE_PROP, HUGE_MIXED, HUGE_MIXED),
    "slater_amplitude": lambda: slater_amplitude(HUGE_UPPER, (1, 2), (1, 2)),
    "polarization_from_propagator": lambda: polarization_from_propagator(
        np.eye(3) * 1e200, 1, 1
    ),
    "channel_correlations": lambda: channel_correlations(np.full((2, 4), 1e300)),
}


@pytest.mark.parametrize("entry", sorted(OVERFLOWING_OPERANDS))
def test_overflowing_results_raise_without_warning(entry):
    with pytest.raises(InvalidParameterError, match="overflows the float range"):
        OVERFLOWING_OPERANDS[entry]()


# the public callables that still take a single time ``t``: the names that the benchmark's checks
# and spans read as they are, the literal phase cycle, and the dense oracle's evolution
SINGLE_TIME_NAMES = (
    "propagate", "mqc_analytic", "logical_correlation_from_spec", "mqc_phase_cycled",
    "evolve_unitary", "evolve_deviation",
)


def test_only_the_listed_callables_take_a_single_time():
    single = sorted(
        f"{module.__name__}.{name}"
        for module in MODULES for name in module.__all__
        if callable(obj := getattr(module, name)) and not (
            isinstance(obj, type) and issubclass(obj, Exception)
        )
        and "t" in inspect.signature(obj).parameters
    )
    assert single == sorted(
        f"{module.__name__}.{name}"
        for module in MODULES for name in module.__all__ if name in SINGLE_TIME_NAMES
    )


def test_package_exports_each_module_list_once():
    reexported = [m for m in MODULES if m is not oracle]
    assert spinwire.__all__ == ["__version__", *(name for m in reexported for name in m.__all__)]
    assert len(set(spinwire.__all__)) == len(spinwire.__all__)
    for m in reexported:
        for name in m.__all__:
            assert getattr(spinwire, name) is getattr(m, name), name
    # the dense oracle keeps its own namespace
    assert not set(oracle.__all__) & set(spinwire.__all__)


# public names whose only callers are the tests: dense references for the grid engines
TEST_REFERENCES = ("evolve_deviation", "mqc_phase_cycled")
# public methods whose only callers are the tests: the tests read prepared states through it
TEST_METHOD_REFERENCES = ("DeviationState.weight",)
ROOT = Path(__file__).resolve().parents[1]


def _annotated_class(node) -> str | None:
    """The class an annotation names as a bare name or a string, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _attribute_reads(tree, classes, returns):
    """(attribute node, receiver class or None) for every attribute read in ``tree``.

    The receiver's class is read where the code names it: a class named
    directly (``ChainSpec.from_json``), the first parameter of a method of
    that class, a call of the class or of a function whose return annotation
    names it, a parameter annotated with it, and a name bound in the
    enclosing functions to one of these. Anything else, such as a loop
    variable or a comprehension target, is None: without a type checker its
    class is not written in the code.
    """
    def resolve(node, bound):
        if isinstance(node, ast.Name):
            return node.id if node.id in classes else bound.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            return name if name in classes else returns.get(name)
        return None

    def visit(node, bound, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            bound = dict(bound)
            for i, arg in enumerate(args):
                bound[arg.arg] = _annotated_class(arg.annotation)
                if i == 0 and owner is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
                ):
                    bound[arg.arg] = owner
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AnnAssign)) and inner.value is not None:
                    targets = inner.targets if isinstance(inner, ast.Assign) else [inner.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            cls = resolve(inner.value, bound)
                            # a name bound twice to different things has no one class
                            bound[target.id] = cls if bound.get(target.id, cls) == cls else None
            owner = None
        elif isinstance(node, ast.Attribute):
            yield node, resolve(node.value, bound)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, bound, owner)

    yield from visit(tree, {}, None)


def test_every_public_name_has_a_program_caller():
    # each name in a module's __all__, and each public non-dunder method of an exported class,
    # must be read under src/ or perfbench/ outside its own definition; neither the __all__
    # string nor the def statement counts as a read, and a method is read as an attribute.
    # A method read counts for its owning class: for the class of the receiver where the code
    # names it (``_attribute_reads``), and otherwise only when no other exported class has a
    # method or field of that name. So ChainSpec.to_json and VerificationReport.to_json, or
    # VerificationReport.passed and the CheckResult field ``passed``, never count each other's
    # reads, and a read whose receiver is not named counts for neither.
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    tops = {
        path: [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for path, tree in trees.items()
    }
    exported = {
        (path, cls.name): cls
        for module in MODULES
        for path in [Path(module.__file__).resolve()]
        for cls in tops[path] if isinstance(cls, ast.ClassDef) and cls.name in module.__all__
    }
    owners = defaultdict(set)  # member name -> exported classes with a method or field of it
    for (_, name), cls in exported.items():
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                owners[node.name].add(name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                owners[node.target.id].add(name)
    annotated = defaultdict(set)  # function name -> classes its return annotations name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotated[node.name].add(_annotated_class(node.returns))
    classes = {name for _, name in exported}
    returns = {
        name: cls for name, found in annotated.items()
        if len(found) == 1 for cls in found if cls in classes
    }
    reads = defaultdict(list)  # name -> (path, node id) of each read
    method_reads = defaultdict(list)  # (class, method) -> (path, node id) of each read
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id].append((path, id(node)))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append((path, id(node)))
        for node, cls in _attribute_reads(tree, classes, returns):
            if cls is None and len(owners[node.attr]) == 1:
                cls = next(iter(owners[node.attr]))
            method_reads[cls, node.attr].append((path, id(node)))
    unused = []
    for module in MODULES:
        path = Path(module.__file__).resolve()
        own = {node.name: {(path, id(inner)) for inner in ast.walk(node)} for node in tops[path]}
        unused += [
            f"{module.__name__}.{name}" for name in module.__all__
            if name not in TEST_REFERENCES and set(reads[name]) <= own.get(name, set())
        ]
        methods = [
            (cls.name, node)
            for cls in tops[path] if (path, cls.name) in exported
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        unused += [
            f"{module.__name__}.{owner}.{node.name}" for owner, node in methods
            if f"{owner}.{node.name}" not in TEST_METHOD_REFERENCES
            and set(method_reads[owner, node.name])
            <= {(path, id(inner)) for inner in ast.walk(node)}
        ]
    assert not unused
