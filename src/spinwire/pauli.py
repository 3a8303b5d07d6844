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

from .errors import (
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
)

_LETTERS = ("X", "Y", "Z")

PauliString = tuple[tuple[int, str], ...]


def _validate_string(n: int, sites: PauliString) -> PauliString:
    """Check a sparse Pauli string against chain length n."""
    prev = 0
    for site, letter in sites:
        if not isinstance(site, int) or isinstance(site, bool):
            raise InvalidConfigurationError(f"site index must be int, got {site!r}")
        if site < 1 or site > n:
            raise IndexOutOfRangeError(f"site {site} outside 1..{n}")
        if site <= prev:
            raise InvalidConfigurationError(
                f"sites must be strictly increasing, got {sites!r}"
            )
        if letter not in _LETTERS:
            raise InvalidConfigurationError(f"unknown Pauli letter {letter!r}")
        prev = site
    return tuple((int(site), str(letter)) for site, letter in sites)


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
        if self.n < 1:
            raise InvalidDimensionError(f"chain length must be >= 1, got {self.n}")
        seen: dict[PauliString, complex] = {}
        norm = []
        for weight, sites in self.terms:
            weight = complex(weight)
            if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
                raise InvalidConfigurationError("weights must be finite")
            sites = _validate_string(self.n, tuple(sites))
            if sites in seen:
                raise InvalidConfigurationError(f"duplicate string {sites!r}")
            seen[sites] = weight
            norm.append((weight, sites))
        object.__setattr__(self, "terms", tuple(norm))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms) -> "DeviationState":
        """Build from an iterable of (weight, string), merging repeats."""
        acc: dict[PauliString, complex] = {}
        for weight, sites in terms:
            sites = tuple(sites)
            acc[sites] = acc.get(sites, 0j) + complex(weight)
        kept = tuple(
            (w, s) for s, w in sorted(acc.items()) if abs(w) > 1e-15
        )
        return cls(n, kept)

    # -- queries ---------------------------------------------------------

    def weight(self, sites: PauliString) -> complex:
        """Weight of one string (0 when absent)."""
        sites = _validate_string(self.n, tuple(sites))
        for w, s in self.terms:
            if s == sites:
                return w
        return 0j

    # -- algebra ----------------------------------------------------------

    def scaled(self, factor: complex) -> "DeviationState":
        """Return factor * self."""
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
    sites = []
    for pos, ch in enumerate(label, start=1):
        if ch in _LETTERS:
            sites.append((pos, ch))
        elif ch not in ("I", "1"):
            raise InvalidConfigurationError(f"unknown character {ch!r} in {label!r}")
    return tuple(sites)
