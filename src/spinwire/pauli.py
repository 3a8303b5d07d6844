"""Weighted Pauli-string operators on a spin-1/2 chain.

A deviation state (the traceless part of a high-temperature density
operator) is stored symbolically as a sum of weighted Pauli strings.
Each string is a sparse tuple of (site, letter) factors with sites in
1..n; the empty string is the identity. The symbolic form keeps state
preparation and trace algebra exact; dense realisation lives in
:mod:`spinwire.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import (
    _check_choice,
    _check_length,
    _check_number,
    _check_pairs,
    _check_sites,
)
from .errors import InvalidConfigurationError

__all__ = ["DeviationState"]

_LETTERS = ("X", "Y", "Z")

PauliString = tuple[tuple[int, str], ...]


def _validate_string(n: int, string: PauliString) -> PauliString:
    """Check a sparse Pauli string on n sites: (site, letter) pairs, sites by
    ``_check_sites``, then letters."""
    string = _check_pairs(string, "a Pauli string", InvalidConfigurationError)
    sites = _check_sites(n, [site for site, _ in string])
    letters = [
        _check_choice(letter, "Pauli letter", _LETTERS, InvalidConfigurationError)
        for _, letter in string
    ]
    return tuple(zip(sites, letters))


def _check_terms(n: int, terms) -> list[tuple[complex, PauliString]]:
    """(weight, string) pairs on n sites, each string by ``_validate_string``."""
    return [
        (_check_number(w, "weight", InvalidConfigurationError), _validate_string(n, s))
        for w, s in _check_pairs(terms, "terms", InvalidConfigurationError)
    ]


@dataclass(frozen=True)
class DeviationState:
    """Operator on an n-site chain written as weighted Pauli strings.

    Attributes
    ----------
    n : int
        Chain length.
    terms : tuple
        Pairs (weight, string) with complex weight and a sparse string
        of (site, letter) factors sorted by site. Strings are unique.
    """

    n: int
    terms: tuple[tuple[complex, PauliString], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _check_length(self.n))
        terms = _check_terms(self.n, self.terms)
        if len({sites for _, sites in terms}) < len(terms):
            raise InvalidConfigurationError(f"duplicate string in {terms!r}")
        object.__setattr__(self, "terms", tuple(terms))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms) -> "DeviationState":
        """Build from an iterable of (weight, string), merging repeats.

        A merged weight at most 1e-15 of the largest one (rounding residue,
        exact zeros included) is dropped, so the bound follows the scale
        of the state. Sizes are max(|Re w|, |Im w|), which cannot overflow;
        a weight that overflowed to infinity is kept, and rejected.
        """
        acc: dict[PauliString, complex] = {}
        for weight, sites in _check_terms(_check_length(n), terms):
            acc[sites] = acc.get(sites, 0j) + weight
        size = {s: max(abs(w.real), abs(w.imag)) for s, w in acc.items()}
        largest = max(size.values(), default=0.0)
        floor = 1e-15 * largest if math.isfinite(largest) else 0.0
        return cls(n, tuple((w, s) for s, w in sorted(acc.items()) if size[s] > floor))

    # -- queries ---------------------------------------------------------

    def weight(self, sites: PauliString) -> complex:
        """Weight of one string (0 when absent)."""
        sites = _validate_string(self.n, sites)
        for w, s in self.terms:
            if s == sites:
                return w
        return 0j

    # -- algebra ----------------------------------------------------------

    def reflected(self) -> "DeviationState":
        """Mirror the chain: site j -> n + 1 - j."""
        out = []
        for weight, sites in self.terms:
            mirrored = tuple(
                sorted((self.n + 1 - site, letter) for site, letter in sites)
            )
            out.append((weight, mirrored))
        return DeviationState.from_terms(self.n, out)


def parse_string_label(label: str) -> PauliString:
    """Sparse string of a dense label like 'XIIZ'; raises on unknown characters."""
    chars = [
        _check_choice(ch, "label character", ("I", "1", *_LETTERS), InvalidConfigurationError)
        for ch in label
    ]
    return tuple((pos, ch) for pos, ch in enumerate(chars, start=1) if ch in _LETTERS)
