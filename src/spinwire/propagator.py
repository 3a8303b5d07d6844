"""Single-excitation propagator and the observables built from it.

Both chain models conserve (or, for the double-quantum model, stagger)
excitation number, so all dynamics reduce to the n x n tridiagonal
single-excitation matrix M with M_{j,j+1} = d_j. The transfer amplitude
matrix A(t) = exp(-i M t) is obtained spectrally; many-body amplitudes
follow from determinants of its submatrices, and two-point observables
from quadratic forms in its entries.

Site indices are 1-based throughout the public API, matching the
convention that site 1 is the most significant bit of a basis label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chain import (
    ChainSpec,
    _check_choice,
    _check_length,
    _check_number,
    _check_pairs,
    _check_scale,
    _check_site,
    _check_sites,
    _check_time,
    _check_times,
)
from .errors import (
    DimensionMismatchError,
    InvalidConfigurationError,
    InvalidDimensionError,
    UnsupportedModelError,
)

__all__ = [
    "SpectralDecomposition",
    "Propagator",
    "spectral_decompose",
    "propagate",
    "propagate_grid",
    "chain_propagator",
    "homogeneous_amplitude",
    "engineered_frequencies",
    "slater_amplitude",
    "mixed_state_overlap",
    "polarization_from_propagator",
    "polarization_correlation",
    "end_autocorrelation",
    "end_autocorrelation_grid",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of the single-excitation matrix.

    Attributes
    ----------
    n : int
        Chain length.
    frequencies : ndarray
        Eigenvalues in ascending order.
    modes : ndarray
        Orthonormal eigenvectors as columns, sign-fixed so the first
        significant entry of each column is positive.
    """

    n: int
    frequencies: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Propagator:
    """Transfer amplitude matrix A(t) = exp(-i M t) at one time.

    A is symmetric (M is real symmetric, so A equals its transpose);
    unitarity ties |A_{jl}|^2 into doubly stochastic transfer
    probabilities.
    """

    n: int
    time: float
    amplitudes: np.ndarray = field(repr=False)

    def amplitude(self, j: int, l: int) -> complex:
        """A_{jl} with 1-based site indices."""
        return complex(self.amplitudes[_check_site(self.n, j) - 1, _check_site(self.n, l) - 1])

    def probability(self, j: int, l: int) -> float:
        """Transfer probability |A_{jl}|^2."""
        return abs(self.amplitude(j, l)) ** 2


# every eigenvector is kept: n^2 float64 modes, 800 MB at this cap
_MAX_N = 10_000


def spectral_decompose(spec: ChainSpec) -> SpectralDecomposition:
    """Diagonalise the single-excitation matrix of a nearest-neighbour chain (n <= 10 000)."""
    _check_choice(spec.model, "model", ("xx", "dq"), UnsupportedModelError)
    n = spec.n
    if n > _MAX_N:
        raise InvalidDimensionError(
            f"single-excitation modes limited to n <= {_MAX_N} (requested n={n})"
        )
    if n == 1:
        return SpectralDecomposition(1, np.zeros(1), np.ones((1, 1)))
    freqs, modes = eigh_tridiagonal(np.zeros(n), spec.nn_couplings())
    # make each column's first entry above 1e-12 of its largest positive, so
    # results are deterministic across LAPACK builds
    mag = np.abs(modes)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    modes[:, modes[lead, np.arange(n)] < 0] *= -1
    return SpectralDecomposition(n, freqs, modes)


_TIME_BLOCK = 128


def propagate_grid(
    decomposition: SpectralDecomposition,
    times: Sequence[float],
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
) -> np.ndarray:
    """Selected entries of A(t) at every time of a grid, a block of times per product.

    Returns a complex array of shape (len(times), len(rows), len(cols))
    holding A[rows, cols](t); ``rows`` and ``cols`` are 1-based sites and
    default to the whole chain. A is evaluated as
    I + V (e^{-i w t} - 1) V^T, which is exact at t = 0. A time whose
    phase |w t| exceeds 2^52 rad raises ``InvalidParameterError``.
    """
    n = decomposition.n
    v, w = decomposition.modes, decomposition.frequencies
    times = _check_times(times, np.max(np.abs(w)))
    r = _site_indices(n, rows)
    c = _site_indices(n, cols)
    amp = np.empty((len(times), len(r), len(c)), dtype=complex)
    for k in range(0, len(times), _TIME_BLOCK):
        shift = np.expm1(-1j * np.multiply.outer(times[k:k + _TIME_BLOCK], w))
        left = (v[r] * shift[:, None, :]).reshape(-1, n)
        amp[k:k + _TIME_BLOCK] = (left @ v[c].T).reshape(len(shift), len(r), len(c))
    amp += r[:, None] == c[None, :]
    return amp


def _site_indices(n: int, sites: Sequence[int] | None) -> np.ndarray:
    if sites is None:
        return np.arange(n)
    return np.array(_check_sites(n, sites, increasing=False), dtype=int) - 1


def propagate(decomposition: SpectralDecomposition, t: float) -> Propagator:
    """Evaluate the full A(t) at one time through ``propagate_grid``.

    The product is symmetrised to remove the tiny asymmetry left by
    floating-point evaluation of V e^{-i w t} V^T.
    """
    t = _check_time(t, np.max(np.abs(decomposition.frequencies)))
    amp = propagate_grid(decomposition, (t,))[0]
    return Propagator(decomposition.n, t, 0.5 * (amp + amp.T))


def chain_propagator(spec: ChainSpec, t: float) -> Propagator:
    """Convenience: spectral_decompose + propagate."""
    return propagate(spectral_decompose(spec), t)


# -- closed forms ---------------------------------------------------------


def homogeneous_amplitude(n: int, d: float, j: int, l: int, t: float) -> complex:
    """A_{jl}(t) for the uniform chain via the sine-mode sum.

    A_{jl} = 2/(n+1) sum_k sin(k pi j/(n+1)) sin(k pi l/(n+1))
             exp(-2 i d t cos(k pi/(n+1))).

    Independent of the generic eigensolver path, so the two can be used
    to cross-check each other.
    """
    n = _check_length(n)
    d = _check_scale(d)
    j = _check_site(n, j)
    l = _check_site(n, l)
    t = _check_time(t, 2.0 * d)
    kappa = np.pi * np.arange(1, n + 1) / (n + 1)
    weights = np.sin(kappa * j) * np.sin(kappa * l)
    phases = np.exp(-2j * d * t * np.cos(kappa))
    return complex(2.0 / (n + 1) * np.sum(weights * phases))


def engineered_frequencies(n: int, d: float) -> np.ndarray:
    """Exactly linear spectrum w_k = (2 d / n)(2 k - (n + 1)), k = 1..n."""
    n = _check_length(n)
    d = _check_scale(d)
    k = np.arange(1, n + 1)
    return 2.0 * d / n * (2.0 * k - (n + 1))


# -- many-body amplitudes ---------------------------------------------------


def slater_amplitude(
    prop: Propagator, sources: Sequence[int], targets: Sequence[int]
) -> complex:
    """Many-excitation transfer amplitude as a Slater determinant.

    For excitations starting on ``sources`` and ending on ``targets``
    (both strictly increasing 1-based tuples of equal length m), the
    amplitude is det A[sources, targets]. The empty configuration has
    amplitude 1.
    """
    src = _check_sites(prop.n, sources)
    tgt = _check_sites(prop.n, targets)
    if len(src) != len(tgt):
        raise DimensionMismatchError(
            f"source and target excitation numbers differ: {len(src)} != {len(tgt)}"
        )
    return _minor(prop.amplitudes, src, tgt)


def _minor(amp: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> complex:
    """det A[rows, cols] for equal-length 1-based site tuples; the empty minor is 1."""
    if not rows:
        return 1.0 + 0j
    return complex(np.linalg.det(amp[np.ix_(np.array(rows) - 1, np.array(cols) - 1)]))


MixedState = Mapping[tuple[tuple[int, ...], tuple[int, ...]], complex]


def _check_blocks(n: int, state: MixedState) -> list[tuple[tuple, tuple, complex]]:
    """(kets, bras, weight) of each entry of an excitation-basis map on n sites."""
    if not isinstance(state, Mapping):
        raise InvalidConfigurationError(f"a mixed state must be a mapping, got {state!r}")
    keys = _check_pairs(state, "mixed-state keys", InvalidConfigurationError)
    return [
        (_check_sites(n, ket), _check_sites(n, bra),
         _check_number(w, "weight", InvalidConfigurationError))
        for (ket, bra), w in zip(keys, state.values())
    ]


def mixed_state_overlap(prop: Propagator, a: MixedState, b: MixedState) -> complex:
    """Tr[U rho_a U^dag rho_b] for excitation-basis mixed states.

    States are sparse maps {(ket_sites, bra_sites): weight} over
    strictly increasing site tuples. Cross terms whose excitation
    numbers disagree vanish identically and are skipped. Returns a
    complex number; it is real when both operators are Hermitian.
    The cost is one m x m minor per term pair of m excitations,
    whatever n; meant for sparse few-excitation states.
    """
    av, bv = _check_blocks(prop.n, a), _check_blocks(prop.n, b)
    amp = prop.amplitudes
    total = 0j
    for p, q, wa in av:
        for r, s, wb in bv:
            if len(p) != len(s) or len(q) != len(r):
                continue
            total += wa * wb * _minor(amp, p, s) * np.conj(_minor(amp, q, r))
    return total


# -- two-point observables ---------------------------------------------------


def polarization_from_propagator(prop: Propagator, j: int, l: int, model: str = "xx") -> float:
    """Normalised polarisation correlation Tr[Z_j(t) Z_l] / 2^n.

    Under the flip-flop model the correlation equals the transfer
    probability |A_{jl}|^2; the double-quantum model multiplies it by
    the staggering sign (-1)^(j-l).
    """
    p = prop.probability(j, l)
    if _check_choice(model, "model", ("xx", "dq"), UnsupportedModelError) == "xx":
        return p
    return float((-1) ** ((j - l) % 2) * p)


def polarization_correlation(spec: ChainSpec, j: int, l: int, t: float) -> float:
    """Polarisation correlation for a chain spec at one time."""
    return polarization_from_propagator(chain_propagator(spec, t), j, l, spec.model)


def _current_correlation(amp: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
    """<K_ab(t) K_cd> with K_ab = -i(c^dag_a c_b - c^dag_b c_a), 1-based.

    ``amp`` indexes sites on its last two axes; leading axes broadcast.
    """
    A = amp
    a, b, c, d = a - 1, b - 1, c - 1, d - 1
    return -0.5 * (
        (A[..., a, d] * np.conj(A[..., b, c])).real - (A[..., b, d] * np.conj(A[..., a, c])).real
    )


def _pair_creation_correlation(amp: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
    """<G_ab(t) G_cd> with G_ab = -i(c^dag_a c^dag_b - c_b c_a), 1-based, broadcast likewise."""
    A = amp
    a, b, c, d = a - 1, b - 1, c - 1, d - 1
    return 0.5 * (A[..., a, c] * A[..., b, d] - A[..., a, d] * A[..., b, c]).real


INITIAL_KINDS = ("z_ends", "y_logical")


def end_autocorrelation(spec: ChainSpec, initial: str, t: float) -> float:
    """Autocorrelation C(t) = Tr[rho(t) rho(0)] / Tr[rho(0)^2] of an end state.

    ``z_ends`` is Z_1 + Z_n; ``y_logical`` places (Y X + X Y)/2 on the
    first and last site pairs. The chain model is taken from ``spec.model``.
    C(0) = 1 and, for engineered couplings, the mirror revives C back to
    1 at t*. One time of ``end_autocorrelation_grid``.
    """
    return float(end_autocorrelation_grid(spec, initial, [t])[0])


def _end_block(spec: ChainSpec, kind: str, times) -> np.ndarray:
    """Symmetrised A(t) on sites (1, n) or (1, 2, n-1, n), every argument checked first."""
    _check_choice(kind, "initial", INITIAL_KINDS, InvalidConfigurationError)
    _check_choice(spec.model, "model", ("xx", "dq"), UnsupportedModelError)
    n = spec.n
    sites = (1, n) if kind == "z_ends" else (1, 2, n - 1, n)
    if n < len(sites):
        raise InvalidDimensionError(f"the end sites need n >= {len(sites)}, got n={n}")
    # every mode frequency of the chain lies within 2 max|d|
    times = _check_times(times, 2.0 * np.max(np.abs(spec.nn_couplings())))
    amp = propagate_grid(spectral_decompose(spec), times, sites, sites)
    return 0.5 * (amp + np.swapaxes(amp, 1, 2))


def end_autocorrelation_grid(spec: ChainSpec, initial: str, times) -> np.ndarray:
    """``end_autocorrelation`` at every time of ``times``, from one ``_end_block``."""
    amp = _end_block(spec, initial, times)
    if initial == "z_ends":
        sign = 1.0 if spec.model == "xx" else float((-1) ** (spec.n - 1))
        p11 = abs(amp[:, 0, 0]) ** 2
        pnn = abs(amp[:, 1, 1]) ** 2
        p1n = abs(amp[:, 0, 1]) ** 2
        return 0.5 * (p11 + pnn + 2.0 * sign * p1n)
    # block positions 1, 2 are the sites 1, 2 and 3, 4 the sites n-1, n
    if spec.model == "dq":
        # the flip-flop image of the state is a sum of two bond currents
        # whose relative sign alternates with chain parity
        s = 1.0 if spec.n % 2 == 0 else -1.0
        return (
            _current_correlation(amp, 1, 2, 1, 2)
            + _current_correlation(amp, 3, 4, 3, 4)
            + s * (_current_correlation(amp, 1, 2, 3, 4) + _current_correlation(amp, 3, 4, 1, 2))
        )
    return (
        _pair_creation_correlation(amp, 1, 2, 1, 2)
        + _pair_creation_correlation(amp, 3, 4, 3, 4)
        + _pair_creation_correlation(amp, 1, 2, 3, 4)
        + _pair_creation_correlation(amp, 3, 4, 1, 2)
    )
