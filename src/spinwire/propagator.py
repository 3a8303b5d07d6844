"""Single-excitation propagator and the observables built from it.

Both chain models conserve (or, for the double-quantum model, stagger)
excitation number, so all dynamics reduce to the n x n tridiagonal
single-excitation matrix M with M_{j,j+1} = d_j. The transfer amplitude
matrix A(t) = exp(-i M t) is obtained spectrally, as a plain (n, n)
complex ndarray that every observable below takes; many-body amplitudes
follow from determinants of its submatrices, and two-point observables
from quadratic forms in its entries.

Site indices are 1-based throughout the public API, matching the
convention that site 1 is the most significant bit of a basis label.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .chain import (
    MODELS,
    ChainSpec,
    _check_choice,
    _check_finite_result,
    _check_length,
    _check_number,
    _check_pairs,
    _check_scale,
    _check_site,
    _check_sites,
    _check_square,
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
    "spectral_decompose",
    "propagate",
    "propagate_grid",
    "homogeneous_amplitude",
    "engineered_frequencies",
    "slater_amplitude",
    "mixed_state_overlap",
    "polarization_from_propagator",
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


# every eigenvector is kept: 8 n^2 bytes of modes, 800 MB at this cap. dstevd's
# n^2-float workspace sits beside them: `transfer --n 10000 --l 10000 --grid 0:1:3`
# peaks at 1580 MB RSS
_MAX_N = 10_000
# columns per step of the sign fix
_SIGN_BLOCK = 256


def _check_mode_count(n: int) -> int:
    """A chain length within the single-excitation cap, checked before any chain is built."""
    if n > _MAX_N:
        raise InvalidDimensionError(
            f"single-excitation modes limited to n <= {_MAX_N} (requested n={n})"
        )
    return n


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack_stevd():
    """LAPACK's dstevd from scipy's compiled ``_flapack``, or None if it cannot be loaded.

    The extension is loaded by path: importing ``scipy.linalg`` for this
    one routine runs its package ``__init__`` (array_api_compat,
    numpy.f2py, numpy.testing, ...), about half of a fresh CLI start-up.
    ``_flapack`` is private scipy API, hence the None.
    """
    package, _, rest = _FLAPACK.partition(".")
    spec = importlib.util.find_spec(package)
    paths = [
        os.path.join(root, *rest.split(".")) + suffix
        for root in (spec.submodule_search_locations if spec else ())
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next(filter(os.path.isfile, paths), None)
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
        loader.exec_module(module)
    except ImportError:
        return None
    return getattr(module, "dstevd", None)


def _eigh_tridiagonal(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of the zero-diagonal matrix with these bonds.

    The same LAPACK call, and so the same bits, as
    ``scipy.linalg.eigh_tridiagonal(np.zeros(n), couplings)``, which is
    the fallback where ``_lapack_stevd`` finds no routine.
    """
    n = len(couplings) + 1
    if n == 1:  # dstevd rejects an empty bond array
        return np.zeros(1), np.ones((1, 1))
    stevd = _lapack_stevd()
    if stevd is None:
        from scipy.linalg import eigh_tridiagonal

        return eigh_tridiagonal(np.zeros(n), couplings)
    freqs, modes, info = stevd(np.zeros(n), couplings, compute_v=1)
    if info:
        raise np.linalg.LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    return freqs, modes


def spectral_decompose(spec: ChainSpec) -> SpectralDecomposition:
    """Diagonalise the single-excitation matrix of a nearest-neighbour chain (n <= 10 000)."""
    n = _check_mode_count(spec.n)
    freqs, modes = _eigh_tridiagonal(np.asarray(spec.couplings))
    # make each column's first entry above 1e-12 of its largest positive, so
    # results are deterministic across LAPACK builds; a block of columns at a
    # time, so the magnitudes and the mask cost n x _SIGN_BLOCK, not n^2
    for start in range(0, n, _SIGN_BLOCK):
        block = modes[:, start:start + _SIGN_BLOCK]
        mag = np.abs(block)
        lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
        block[:, block[lead, np.arange(block.shape[1])] < 0] *= -1
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
    I + V (e^{-i w t} - 1) V^T, which is exact at t = 0, with its real and
    imaginary parts from two real products per block of times. A time
    whose phase |w t| exceeds 2^32 rad raises ``InvalidParameterError``.
    """
    n = decomposition.n
    v, w = decomposition.modes, decomposition.frequencies
    times = _check_times(times, np.max(np.abs(w)))
    r = _site_indices(n, rows)
    c = _site_indices(n, cols)
    amp = np.empty((len(times), len(r), len(c)), dtype=complex)
    parts = amp.view(float).reshape(amp.shape + (2,))
    # keep the copy: dstevd's modes are Fortran-ordered, and v.T would change the product's bits
    left, right = v[r], v[c].T
    for k in range(0, len(times), _TIME_BLOCK):
        # e^{-i phi} - 1 as numpy's complex expm1 forms it: -2 sin^2(phi/2) + i sin(-phi)
        phase = np.multiply.outer(times[k:k + _TIME_BLOCK], w)
        half = np.sin(0.5 * phase)
        for part, shift in enumerate((-2.0 * half * half, -np.sin(phase))):
            block = (left * shift[:, None, :]).reshape(-1, n) @ right
            parts[k:k + _TIME_BLOCK, ..., part] = block.reshape(len(phase), len(r), len(c))
    amp += r[:, None] == c[None, :]
    return amp


def _site_indices(n: int, sites: Sequence[int] | None) -> np.ndarray:
    if sites is None:
        return np.arange(n)
    return np.array(_check_sites(n, sites, increasing=False), dtype=int) - 1


def propagate(decomposition: SpectralDecomposition, t: float) -> np.ndarray:
    """The full A(t) at one time through ``propagate_grid``, an (n, n) complex array.

    A is symmetric (M is real symmetric), so the product is symmetrised to
    remove the tiny asymmetry left by floating-point evaluation of
    V e^{-i w t} V^T.
    """
    amp = propagate_grid(decomposition, (t,))[0]
    return 0.5 * (amp + amp.T)


# -- closed forms ---------------------------------------------------------


def _sine_modes(n: int, d: float, minimum: int = 1) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Checked n and d, then the uniform chain's sine modes kappa_k = pi k / (n + 1)
    and frequencies w_k = 2 d cos(kappa_k), k = 1..n."""
    n = _check_length(n, minimum)
    d = _check_scale(d)
    kappa = np.pi * np.arange(1, n + 1) / (n + 1)
    return n, d, kappa, 2.0 * d * np.cos(kappa)


def homogeneous_amplitude(
    n: int,
    d: float,
    times: Sequence[float],
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
) -> np.ndarray:
    """A[rows, cols](t) for the uniform chain via the sine-mode sum, at every time of a grid.

    A_{jl} = 2/(n+1) sum_k sin(k pi j/(n+1)) sin(k pi l/(n+1))
             exp(-2 i d t cos(k pi/(n+1))).

    Returns the layout of ``propagate_grid``: a complex array of shape
    (len(times), len(rows), len(cols)), with 1-based ``rows`` and
    ``cols`` defaulting to the whole chain. Independent of the generic
    eigensolver path, so the two can be used to cross-check each other.
    """
    n, d, kappa, _ = _sine_modes(n, d)
    r, c = _site_indices(n, rows) + 1, _site_indices(n, cols) + 1
    times = _check_times(times, 2.0 * d)
    weights = np.sin(kappa * r[:, None, None]) * np.sin(kappa * c[:, None])
    amp = np.empty((len(times), len(r), len(c)), dtype=complex)
    for k, t in enumerate(times.tolist()):
        amp[k] = 2.0 / (n + 1) * np.sum(weights * np.exp(-2j * d * t * np.cos(kappa)), axis=-1)
    return amp


def engineered_frequencies(n: int, d: float) -> np.ndarray:
    """Exactly linear spectrum w_k = (2 d / n)(2 k - (n + 1)), k = 1..n."""
    n = _check_length(n)
    d = _check_scale(d)
    k = np.arange(1, n + 1)
    return 2.0 * d / n * (2.0 * k - (n + 1))


# -- many-body amplitudes ---------------------------------------------------


def slater_amplitude(
    amplitudes: np.ndarray, sources: Sequence[int], targets: Sequence[int]
) -> complex:
    """Many-excitation transfer amplitude as a Slater determinant of A(t).

    For excitations starting on ``sources`` and ending on ``targets``
    (both strictly increasing 1-based tuples of equal length m), the
    amplitude is det A[sources, targets]. The empty configuration has
    amplitude 1. Overflow raises ``InvalidParameterError``.
    """
    n = _check_square(amplitudes)
    src = _check_sites(n, sources)
    tgt = _check_sites(n, targets)
    if len(src) != len(tgt):
        raise DimensionMismatchError(
            f"source and target excitation numbers differ: {len(src)} != {len(tgt)}"
        )
    return _check_finite_result(lambda: _minor(amplitudes, src, tgt), "Slater amplitude")


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


def mixed_state_overlap(amplitudes: np.ndarray, a: MixedState, b: MixedState) -> complex:
    """Tr[U rho_a U^dag rho_b] for excitation-basis mixed states, from A(t).

    States are sparse maps {(ket_sites, bra_sites): weight} over
    strictly increasing site tuples. Cross terms whose excitation
    numbers disagree vanish identically and are skipped. Returns a
    complex number; it is real when both operators are Hermitian.
    The cost is one m x m minor per term pair of m excitations,
    whatever n; meant for sparse few-excitation states.
    """
    n = _check_square(amplitudes)
    av, bv = _check_blocks(n, a), _check_blocks(n, b)
    terms = (
        wa * wb * _minor(amplitudes, p, s) * np.conj(_minor(amplitudes, q, r))
        for p, q, wa in av for r, s, wb in bv if len(p) == len(s) and len(q) == len(r)
    )
    return _check_finite_result(lambda: sum(terms, 0j), "mixed-state overlap")


# -- two-point observables ---------------------------------------------------


def _gauge_sign(model: str, j, l):
    """1 under xx, (-1)^(j-l) under dq; ``j`` or ``l`` may be an array of sites.

    X on every odd site maps the xx chain onto the dq chain and negates
    Z on the odd sites, so a correlation between sites j and l changes
    sign when exactly one of them is odd.
    """
    return 1 if model == "xx" else (-1) ** ((np.asarray(j) - l) % 2)


def polarization_from_propagator(
    amplitudes: np.ndarray, j: int, l: int, model: str = "xx"
) -> float:
    """Normalised polarisation correlation Tr[Z_j(t) Z_l] / 2^n from A(t).

    Under the flip-flop model the correlation equals the transfer
    probability |A_{jl}|^2; the double-quantum model multiplies it by
    the staggering sign (-1)^(j-l). Overflow raises ``InvalidParameterError``.
    """
    n = _check_square(amplitudes)
    j, l = _check_site(n, j), _check_site(n, l)
    model = _check_choice(model, "model", MODELS, UnsupportedModelError)
    sign, amp = _gauge_sign(model, j, l), complex(amplitudes[j - 1, l - 1])
    return _check_finite_result(lambda: float(sign * abs(amp) ** 2), "polarization correlation")


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


def end_autocorrelation_grid(spec: ChainSpec, initial: str, times) -> np.ndarray:
    """Autocorrelation C(t) = Tr[rho(t) rho(0)] / Tr[rho(0)^2] of an end state on a time grid.

    ``z_ends`` is Z_1 + Z_n; ``y_logical`` places (Y X + X Y)/2 on the
    first and last site pairs. The chain model is taken from ``spec.model``.
    C(0) = 1 and, for engineered couplings, the mirror revives C back to
    1 at t*. Every time is read from one symmetrised end block of A(t), on
    the sites (1, n) or (1, 2, n-1, n); every argument is checked first.
    """
    _check_choice(initial, "initial", INITIAL_KINDS, InvalidConfigurationError)
    n = spec.n
    sites = (1, n) if initial == "z_ends" else (1, 2, n - 1, n)
    if n < len(sites):
        raise InvalidDimensionError(f"the end sites need n >= {len(sites)}, got n={n}")
    # every mode frequency of the chain lies within 2 max|d|; a Python float product,
    # so a bound past the float range is inf, and every grid then fails the phase check
    times = _check_times(times, 2.0 * float(np.max(np.abs(spec.couplings))))
    amp = propagate_grid(spectral_decompose(spec), times, sites, sites)
    amp = 0.5 * (amp + np.swapaxes(amp, 1, 2))
    if initial == "z_ends":
        sign = _gauge_sign(spec.model, 1, n)
        p11 = abs(amp[:, 0, 0]) ** 2
        pnn = abs(amp[:, 1, 1]) ** 2
        p1n = abs(amp[:, 0, 1]) ** 2
        return 0.5 * (p11 + pnn + 2.0 * sign * p1n)
    # block positions 1, 2 are the sites 1, 2 and 3, 4 the sites n-1, n
    if spec.model == "dq":
        # the flip-flop image of the state is a sum of two bond currents, with
        # the gauge sign between their first sites 1 and n-1
        s = _gauge_sign(spec.model, 1, n - 1)
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
