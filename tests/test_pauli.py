"""Symbolic Pauli-string state algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.chain import homogeneous_couplings
from spinwire.errors import (
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
)
from spinwire.oracle import excitation_operator
from spinwire.pauli import DeviationState, parse_string_label
from spinwire.propagator import mixed_state_overlap, propagate, spectral_decompose


def dense_label(n, sparse):
    """Label like 'XIIZ' of a sparse string on n sites."""
    letters = dict(sparse)
    return "".join(letters.get(site, "I") for site in range(1, n + 1))


def test_validation_rejects_bad_strings():
    with pytest.raises(InvalidDimensionError):
        DeviationState(0, ())
    with pytest.raises(IndexOutOfRangeError):
        DeviationState(3, ((1.0, ((4, "Z"),)),))
    with pytest.raises(InvalidConfigurationError):
        DeviationState(3, ((1.0, ((2, "Z"), (1, "X"))),))  # not increasing
    with pytest.raises(InvalidConfigurationError):
        DeviationState(3, ((1.0, ((1, "Q"),)),))
    with pytest.raises(InvalidConfigurationError):
        DeviationState(3, ((float("nan"), ((1, "Z"),)),))
    with pytest.raises(InvalidConfigurationError):
        DeviationState(3, ((1.0, ((1, "Z"),)), (2.0, ((1, "Z"),))))


# a bare factor, a non-iterable string, a factor of three, a factor of one
NOT_PAIRS = ((1, "X"), 5, ((1, "X", "Y"),), ((1,),))


@pytest.mark.parametrize("string", NOT_PAIRS, ids=repr)
def test_factors_must_be_site_letter_pairs(string):
    from spinwire.oracle import pauli_string_to_dense

    with pytest.raises(InvalidConfigurationError):
        DeviationState(2, ((1.0, string),))
    with pytest.raises(InvalidConfigurationError):
        DeviationState.from_terms(2, [(1.0, string)])
    with pytest.raises(InvalidConfigurationError):
        DeviationState(2, ()).weight(string)
    with pytest.raises(InvalidConfigurationError):
        pauli_string_to_dense(2, string)


@pytest.mark.parametrize("terms", (5, (1.0,), ((1.0, ((1, "X"),), 2),), [((1, "X"),)]), ids=repr)
def test_terms_must_be_weight_string_pairs(terms):
    with pytest.raises(InvalidConfigurationError):
        DeviationState(2, terms)
    with pytest.raises(InvalidConfigurationError):
        DeviationState.from_terms(2, terms)


def test_from_terms_checks_strings_before_it_sorts_them():
    # a letter that is not a str cannot be sorted against one that is
    with pytest.raises(InvalidConfigurationError):
        DeviationState.from_terms(2, [(1.0, ((1, "X"),)), (1.0, ((1, 2),))])


PROP = propagate(spectral_decompose(homogeneous_couplings(3)), 0.4)


@pytest.mark.parametrize("state", ({(1,): 1.0}, {((1,), (1,), (1,)): 1.0}, {1: 1.0},
                                   [(((1,), (1,)), 1.0)]), ids=repr)
def test_mixed_states_map_site_tuple_pairs_to_weights(state):
    with pytest.raises(InvalidConfigurationError):
        mixed_state_overlap(PROP, state, {})
    with pytest.raises(InvalidConfigurationError):
        excitation_operator(3, state)


def test_from_terms_merges_and_prunes():
    state = DeviationState.from_terms(
        2, [(0.5, ((1, "Z"),)), (0.5, ((1, "Z"),)), (1e-16, ((2, "Z"),))]
    )
    assert state.terms == ((1.0 + 0j, ((1, "Z"),)),)
    # a merged weight past the float range is kept for the finiteness check, not pruned
    with pytest.raises(InvalidConfigurationError):
        DeviationState.from_terms(1, [(1e308, ((1, "X"),)), (1e308, ((1, "X"),))])


# distinct sparse strings on sites 1..3 of a 4-site chain; site 4 is left for a residue
STRINGS = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from("XYZ")), max_size=3, unique_by=lambda f: f[0]
).map(lambda factors: tuple(sorted(factors)))


@given(
    st.dictionaries(STRINGS, st.floats(0.1, 10) | st.floats(-10, -0.1), min_size=1, max_size=6),
    st.integers(-300, 300),
)
@settings(max_examples=100, deadline=None)
def test_pruning_follows_the_scale_of_the_state(weights, exponent):
    scale = 10.0**exponent
    terms = [(w * scale, string) for string, w in weights.items()]
    state = DeviationState.from_terms(4, terms)
    # weights within a factor 100 of each other: nothing is pruned, at any scale
    assert len(state.terms) == len(weights)
    assert state.reflected().reflected() == state
    largest = max(abs(w) for w in weights.values()) * scale
    residue = DeviationState.from_terms(4, [*terms, (1e-17 * largest, ((4, "X"),))])
    assert residue == state
    kept = DeviationState.from_terms(4, [*terms, (1e-14 * largest, ((4, "X"),))])
    assert kept.weight(((4, "X"),)) == 1e-14 * largest


def test_weight_lookup():
    a = DeviationState(3, ((0.25, ((1, "X"), (2, "Y"))), (0.5, ((3, "Z"),))))
    assert a.weight(((3, "Z"),)) == 0.5
    assert a.weight(((1, "Z"),)) == 0


def test_reflection_is_an_involution():
    state = DeviationState(5, ((1.0, ((1, "X"), (2, "Y"))), (0.5, ((3, "Z"),))))
    mirrored = state.reflected()
    assert mirrored.weight(((4, "Y"), (5, "X"))) == 1.0
    assert mirrored.weight(((3, "Z"),)) == 0.5
    back = mirrored.reflected()
    assert set(back.terms) == set(state.terms)


def test_labels_round_trip():
    sparse = ((1, "X"), (3, "Z"))
    assert parse_string_label("XIZI") == sparse
    with pytest.raises(InvalidConfigurationError):
        parse_string_label("XA")


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from("XYZ")),
        max_size=4,
        unique_by=lambda p: p[0],
    )
)
@settings(max_examples=50, deadline=None)
def test_label_round_trip_property(pairs):
    sparse = tuple(sorted(pairs))
    assert parse_string_label(dense_label(5, sparse)) == sparse


def test_dense_equivalence_of_string_product():
    # (X Y I)(I Z X) = X (Y Z) X = i X X X, from the single-site table Y Z = i X
    from spinwire.oracle import pauli_string_to_dense

    a = ((1, "X"), (2, "Y"))
    b = ((2, "Z"), (3, "X"))
    n = 3
    left = pauli_string_to_dense(n, a) @ pauli_string_to_dense(n, b)
    right = 1j * pauli_string_to_dense(n, "XXX")
    np.testing.assert_allclose(left, right, atol=1e-15)
