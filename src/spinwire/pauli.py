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
    _check_real,
    _check_sites,
)
from .errors import InvalidConfigurationError, InvalidDimensionError, InvalidParameterError

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
        """Build from an iterable of (weight, string), merging repeats."""
        acc: dict[PauliString, complex] = {}
        for weight, sites in _check_terms(_check_length(n), terms):
            acc[sites] = acc.get(sites, 0j) + weight
        kept = tuple(
            (w, s) for s, w in sorted(acc.items()) if abs(w) > 1e-15
        )
        return cls(n, kept)

    # -- queries ---------------------------------------------------------

    def weight(self, sites: PauliString) -> complex:
        """Weight of one string (0 when absent)."""
        sites = _validate_string(self.n, sites)
        for w, s in self.terms:
            if s == sites:
                return w
        return 0j

    # -- algebra ----------------------------------------------------------

    def scaled(self, factor: complex) -> "DeviationState":
        """Return factor * self."""
        factor = _check_number(factor, "factor", InvalidParameterError)
        return DeviationState.from_terms(
            self.n, ((factor * w, s) for w, s in self.terms)
        )

    def __add__(self, other: "DeviationState") -> "DeviationState":
        if not isinstance(other, DeviationState):
            return NotImplemented
        if other.n != self.n:
            raise InvalidDimensionError("cannot add states of different length")
        return DeviationState.from_terms(self.n, (*self.terms, *other.terms))

    def overlap(self, other: "DeviationState") -> complex:
        """Normalised trace overlap Tr[self . other] / 2**n.

        Pauli strings are orthogonal under the normalised trace, so the
        overlap is a weight dot product over shared strings.
        """
        if other.n != self.n:
            raise InvalidDimensionError("cannot overlap states of different length")
        table = {s: w for w, s in other.terms}
        return sum(w * table.get(s, 0j) for w, s in self.terms)

    def rotated_z(self, phi: float) -> "DeviationState":
        """Conjugate by the collective z rotation exp(-i phi Sum_j Z_j / 2).

        X and Y mix pairwise per site; Z factors are invariant. Each
        string maps to a sum over its transverse factors.
        """
        phi = _check_real(phi, "phi", InvalidParameterError)
        c, s = math.cos(phi), math.sin(phi)
        out: list[tuple[complex, PauliString]] = []
        for weight, sites in self.terms:
            expanded: list[tuple[complex, list[tuple[int, str]]]] = [(weight, [])]
            for site, letter in sites:
                nxt: list[tuple[complex, list[tuple[int, str]]]] = []
                if letter == "Z":
                    for w, acc in expanded:
                        nxt.append((w, acc + [(site, "Z")]))
                elif letter == "X":
                    # X -> cos X + sin Y under exp(-i phi Z/2) conjugation
                    for w, acc in expanded:
                        if abs(c) > 0:
                            nxt.append((w * c, acc + [(site, "X")]))
                        if abs(s) > 0:
                            nxt.append((w * s, acc + [(site, "Y")]))
                else:
                    # Y -> cos Y - sin X
                    for w, acc in expanded:
                        if abs(c) > 0:
                            nxt.append((w * c, acc + [(site, "Y")]))
                        if abs(s) > 0:
                            nxt.append((-w * s, acc + [(site, "X")]))
                expanded = nxt
            out.extend((w, tuple(acc)) for w, acc in expanded)
        return DeviationState.from_terms(self.n, out)

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
