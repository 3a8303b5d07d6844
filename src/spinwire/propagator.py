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

from .chain import ChainSpec, _check_scale, _check_time, _check_times
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
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
        return complex(self.amplitudes[_site(self.n, j) - 1, _site(self.n, l) - 1])

    def probability(self, j: int, l: int) -> float:
        """Transfer probability |A_{jl}|^2."""
        return abs(self.amplitude(j, l)) ** 2


def _site(n: int, j: int) -> int:
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
        raise InvalidConfigurationError(f"site index must be int, got {j!r}")
    if j < 1 or j > n:
        raise IndexOutOfRangeError(f"site {j} outside 1..{n}")
    return int(j)


def spectral_decompose(spec: ChainSpec) -> SpectralDecomposition:
    """Diagonalise the single-excitation matrix of a nearest-neighbour chain."""
    if not spec.is_nearest_neighbour:
        raise UnsupportedModelError(
            "single-excitation reduction needs a nearest-neighbour model; "
            "use the dense oracle for dipolar chains"
        )
    n = spec.n
    if n == 1:
        return SpectralDecomposition(1, np.zeros(1), np.ones((1, 1)))
    freqs, modes = eigh_tridiagonal(np.zeros(n), spec.nn_couplings())
    # fix each column's sign so results are deterministic across LAPACK builds
    for k in range(n):
        col = modes[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))]
        if lead < 0:
            modes[:, k] = -col
    return SpectralDecomposition(n, freqs, modes)


def propagate_grid(
    decomposition: SpectralDecomposition,
    times: Sequence[float],
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
) -> np.ndarray:
    """Selected entries of A(t) at every time of a grid, in one matrix product.

    Returns a complex array of shape (len(times), len(rows), len(cols))
    holding A[rows, cols](t); ``rows`` and ``cols`` are 1-based sites and
    default to the whole chain. A is evaluated as
    I + V (e^{-i w t} - 1) V^T, which is exact at t = 0.
    """
    times = _check_times(times)
    n = decomposition.n
    r = _site_indices(n, rows)
    c = _site_indices(n, cols)
    v = decomposition.modes
    shift = np.expm1(-1j * np.multiply.outer(times, decomposition.frequencies))
    left = (v[r] * shift[:, None, :]).reshape(-1, n)
    amp = (left @ v[c].T).reshape(len(times), len(r), len(c))
    amp += r[:, None] == c[None, :]
    return amp


def _site_indices(n: int, sites: Sequence[int] | None) -> np.ndarray:
    if sites is None:
        return np.arange(n)
    return np.array([_site(n, s) - 1 for s in sites], dtype=int)


def propagate(decomposition: SpectralDecomposition, t: float) -> Propagator:
    """Evaluate the full A(t) at one time through ``propagate_grid``.

    The product is symmetrised to remove the tiny asymmetry left by
    floating-point evaluation of V e^{-i w t} V^T.
    """
    t = _check_time(t)
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
    if n < 1:
        raise InvalidDimensionError(f"chain length must be >= 1, got {n}")
    d = _check_scale(d)
    j = _site(n, j)
    l = _site(n, l)
    t = _check_time(t)
    kappa = np.pi * np.arange(1, n + 1) / (n + 1)
    weights = np.sin(kappa * j) * np.sin(kappa * l)
    phases = np.exp(-2j * d * t * np.cos(kappa))
    return complex(2.0 / (n + 1) * np.sum(weights * phases))


def engineered_frequencies(n: int, d: float) -> np.ndarray:
    """Exactly linear spectrum w_k = (2 d / n)(2 k - (n + 1)), k = 1..n."""
    if n < 1:
        raise InvalidDimensionError(f"chain length must be >= 1, got {n}")
    k = np.arange(1, n + 1)
    return 2.0 * d / n * (2.0 * k - (n + 1))


# -- many-body amplitudes ---------------------------------------------------


def _check_sites_tuple(n: int, sites: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(_site(n, s) for s in sites)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidConfigurationError(
            f"{what} sites must be strictly increasing, got {tuple(sites)!r}"
        )
    return out


def slater_amplitude(
    prop: Propagator, sources: Sequence[int], targets: Sequence[int]
) -> complex:
    """Many-excitation transfer amplitude as a Slater determinant.

    For excitations starting on ``sources`` and ending on ``targets``
    (both strictly increasing 1-based tuples of equal length m), the
    amplitude is det A[sources, targets]. The empty configuration has
    amplitude 1.
    """
    src = _check_sites_tuple(prop.n, sources, "source")
    tgt = _check_sites_tuple(prop.n, targets, "target")
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


def mixed_state_overlap(prop: Propagator, a: MixedState, b: MixedState) -> complex:
    """Tr[U rho_a U^dag rho_b] for excitation-basis mixed states.

    States are sparse maps {(ket_sites, bra_sites): weight} over
    strictly increasing site tuples. Cross terms whose excitation
    numbers disagree vanish identically and are skipped. Returns a
    complex number; it is real when both operators are Hermitian.
    Supports n <= 14; the determinant bookkeeping is meant for sparse
    few-excitation states, not full density matrices.
    """
    if prop.n > 14:
        raise InvalidDimensionError(
            f"mixed-state overlap supports n <= 14, got n={prop.n}"
        )
    av = [
        (_check_sites_tuple(prop.n, p, "ket"), _check_sites_tuple(prop.n, q, "bra"), complex(w))
        for (p, q), w in a.items()
    ]
    bv = [
        (_check_sites_tuple(prop.n, r, "ket"), _check_sites_tuple(prop.n, s, "bra"), complex(w))
        for (r, s), w in b.items()
    ]
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
    if model == "xx":
        return p
    if model == "dq":
        return float((-1) ** ((j - l) % 2) * p)
    raise UnsupportedModelError(f"polarisation correlation needs xx or dq, got {model!r}")


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


def end_autocorrelation_grid(spec: ChainSpec, initial: str, times) -> np.ndarray:
    """``end_autocorrelation`` at every time of ``times``, from one decomposition.

    Reads the end block of A(t), sites (1, n) for ``z_ends`` and
    (1, 2, n-1, n) for ``y_logical``, from ``propagate_grid`` and
    symmetrises it as ``propagate`` does. Every argument is checked
    before any work.
    """
    if initial not in INITIAL_KINDS:
        raise InvalidConfigurationError(
            f"initial must be one of {INITIAL_KINDS}, got {initial!r}"
        )
    if spec.model not in ("xx", "dq"):
        raise UnsupportedModelError("end autocorrelation needs model xx or dq")
    n = spec.n
    if initial == "z_ends" and n < 2:
        raise InvalidDimensionError("z_ends needs n >= 2")
    if initial == "y_logical" and n < 4:
        raise InvalidDimensionError("y_logical needs n >= 4")
    times = _check_times(times)
    sites = (1, n) if initial == "z_ends" else (1, 2, n - 1, n)
    amp = propagate_grid(spectral_decompose(spec), times, sites, sites)
    amp = 0.5 * (amp + np.swapaxes(amp, 1, 2))
    if initial == "z_ends":
        sign = 1.0 if spec.model == "xx" else float((-1) ** (n - 1))
        p11 = abs(amp[:, 0, 0]) ** 2
        pnn = abs(amp[:, 1, 1]) ** 2
        p1n = abs(amp[:, 0, 1]) ** 2
        return 0.5 * (p11 + pnn + 2.0 * sign * p1n)
    # block positions 1, 2 are the sites 1, 2 and 3, 4 the sites n-1, n
    if spec.model == "dq":
        # the flip-flop image of the state is a sum of two bond currents
        # whose relative sign alternates with chain parity
        s = 1.0 if n % 2 == 0 else -1.0
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
