"""Dense brute-force reference implementations.

Operators are dense 2^n x 2^n matrices, or the dense block of one on a
sorted set of basis labels (a conserved sector of ``conserved_sectors``),
which is built on those labels alone, with no full matrix. Results are
trustworthy but exponentially expensive. The module exists to
cross-check the analytic paths; a size budget (default n <= 10, hard cap
12, overridable through SPINWIRE_ORACLE_MAX_N within the cap) keeps
accidental large requests from exhausting memory.

Basis convention: site 1 is the most significant bit of the basis
label, bit value 1 marks an excitation (spin down), so Z_1 on two sites
is diag(1, 1, -1, -1).

Every operator and every block is built from one primitive that writes
a Pauli string as a signed permutation of basis labels; the
Kronecker-product references it is checked against live in the tests.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .chain import (
    ChainSpec,
    _check_finite_result,
    _check_length,
    _check_real,
    _check_sites,
    _check_square,
    _check_time,
)
from .errors import (
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    OracleSizeError,
)
from .pauli import DeviationState, PauliString, _validate_string, parse_string_label
from .propagator import MixedState, _check_blocks, _gauge_sign

__all__ = [
    "HARD_CAP",
    "oracle_budget",
    "require_within_budget",
    "pauli_string_to_dense",
    "deviation_to_dense",
    "excitation_operator",
    "basis_index",
    "build_hamiltonian",
    "conserved_sectors",
    "popcount",
    "evolve_unitary",
    "evolve_deviation",
    "trace_overlap",
    "total_z",
    "staggered_z",
    "collective_rotation_diag",
    "similarity_transform",
    "similarity_residual",
]

HARD_CAP = 12
_DEFAULT_MAX_N = 10
_ENV_VAR = "SPINWIRE_ORACLE_MAX_N"


def oracle_budget() -> int:
    """Largest dense n allowed: SPINWIRE_ORACLE_MAX_N (default 10), clamped to HARD_CAP."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidConfigurationError(
            f"{_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if value < 2:
        raise InvalidConfigurationError(f"{_ENV_VAR} must be >= 2, got {value}")
    return min(value, HARD_CAP)


def require_within_budget(n: int) -> int:
    """Validate a dense request of n sites against the budget."""
    n = _check_length(n)
    limit = oracle_budget()
    if n > limit:
        raise OracleSizeError(
            f"dense oracle limited to n <= {limit} (requested n={n}); "
            f"raise {_ENV_VAR} up to {HARD_CAP} if you really need this"
        )
    return n


# -- operator construction ---------------------------------------------------


# popcount reads the labels as 64-bit two's-complement integers
_LABEL_BITS = 64


def _check_labels(labels) -> np.ndarray:
    """Basis labels: an integer array or a (nested) sequence of ints, as int64."""
    try:
        array = np.asarray(labels)
    except (TypeError, ValueError):
        array = None
    if array is None or (array.dtype.kind not in "iu" and array.size):
        raise InvalidConfigurationError(f"labels must be integers, got {labels!r}")
    return array.astype(np.int64)


def _check_block(n: int, labels) -> np.ndarray:
    """The sorted labels of a block of an n-site operator; all 2^n labels for None."""
    if labels is None:
        return np.arange(2**n)
    block = _check_labels(labels)
    if block.ndim != 1 or np.any(block[1:] <= block[:-1]):
        raise InvalidConfigurationError(
            f"block labels must be strictly increasing and one-dimensional, got {labels!r}"
        )
    if block.size and (block[0] < 0 or block[-1] >= 2**n):
        raise IndexOutOfRangeError(f"block labels outside 0..{2**n - 1}")
    return block


def popcount(labels: np.ndarray, n: int) -> np.ndarray:
    """Number of set bits among the low n <= 64 bits of each label, as int64.

    Negative labels count in two's complement.
    """
    n = _check_length(n, minimum=0)
    if n > _LABEL_BITS:
        raise InvalidDimensionError(f"labels hold {_LABEL_BITS} bits, got n={n}")
    low = _check_labels(labels).view(np.uint64) & np.uint64((1 << n) - 1)
    return np.bitwise_count(low).astype(np.int64)


def _signed_permutation(
    n: int, string: PauliString, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and phases of a sparse Pauli string on the block of sorted ``labels``.

    P|x> = i^#Y (-1)^popcount(x & zy) |x ^ xy>, with xy the basis-label
    bits of the X and Y sites and zy those of the Y and Z sites. Column
    c (label x) of the block holds phases at row r, the position of
    x ^ xy in ``labels`` (by ``searchsorted``); a column whose target is
    not among ``labels`` is left out, so P[np.ix_(labels, labels)][r, c]
    = phases and every other entry is zero. ``string`` must be valid for
    n (see ``pauli._validate_string``).
    """
    xy = sum(1 << (n - site) for site, letter in string if letter in ("X", "Y"))
    zy = sum(1 << (n - site) for site, letter in string if letter in ("Y", "Z"))
    n_y = sum(letter == "Y" for _, letter in string)
    targets = labels ^ xy
    rows = np.searchsorted(labels, targets)
    cols = np.flatnonzero(labels.take(rows, mode="clip") == targets)
    signs = 1 - 2 * (popcount(labels[cols] & zy, n) & 1)
    return rows[cols], cols, (1, 1j, -1, -1j)[n_y % 4] * signs


def _dense_sum(n: int, terms, labels=None) -> np.ndarray:
    """Dense sum of weighted sparse Pauli strings, or its block on sorted ``labels``."""
    labels = _check_block(n, labels)
    out = np.zeros((labels.size, labels.size), dtype=complex)
    for weight, string in terms:
        rows, cols, phases = _signed_permutation(n, string, labels)
        out[rows, cols] += weight * phases
    return out


def pauli_string_to_dense(n: int, string: str | PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string.

    ``string`` is either a length-n label like ``"XIZ"`` or a sparse
    tuple of (site, letter) pairs with strictly increasing 1-based sites.
    """
    require_within_budget(n)
    if isinstance(string, str):
        if len(string) != n:
            raise InvalidConfigurationError(
                f"label length {len(string)} does not match n={n}"
            )
        string = parse_string_label(string)
    return _dense_sum(n, ((1, _validate_string(n, string)),))


def deviation_to_dense(state: DeviationState, labels: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of a symbolic deviation state, or its block on sorted basis ``labels``."""
    return _dense_sum(require_within_budget(state.n), state.terms, labels)


def basis_index(n: int, sites: Sequence[int]) -> int:
    """Computational-basis label of excitations on strictly increasing 1-based ``sites``."""
    n = _check_length(n)
    return sum(1 << (n - s) for s in _check_sites(n, sites))


def excitation_operator(n: int, blocks: MixedState) -> np.ndarray:
    """Dense sum of |ket><bra| blocks given as strictly increasing site tuples."""
    n = require_within_budget(n)
    entries = _check_blocks(n, blocks)  # before the 2^n x 2^n allocation
    out = np.zeros((2**n, 2**n), dtype=complex)
    for ket, bra, weight in entries:
        out[basis_index(n, ket), basis_index(n, bra)] += weight
    return out


def build_hamiltonian(spec: ChainSpec, labels: np.ndarray | None = None) -> np.ndarray:
    """Dense Hamiltonian of a chain spec, or its block on sorted basis ``labels``.

    xx: sum_j d_j (X_j X_{j+1} + Y_j Y_{j+1}) / 2
    dq: sum_j d_j (X_j X_{j+1} - Y_j Y_{j+1}) / 2

    X_j X_{j+1} and Y_j Y_{j+1} share one signed permutation: both flip
    bits j and j + 1, and every phase of X_j X_{j+1} is 1. So each bond
    makes one primitive call, for Y_j Y_{j+1}, and its phases yy enter as
    1 + yy (xx) or 1 - yy (dq) before the coupling multiplies them, so every
    entry equals the Kronecker-product sum exactly, subnormal d included.
    A block is built on its labels alone, in the same bond order, so it
    equals the slice H[np.ix_(labels, labels)] bit for bit.
    """
    n = require_within_budget(spec.n)
    labels = _check_block(n, labels)
    h = np.zeros((labels.size, labels.size), dtype=complex)
    for j, d in enumerate(spec.couplings, start=1):
        rows, cols, yy = _signed_permutation(n, ((j, "Y"), (j + 1, "Y")), labels)
        h[rows, cols] += d / 2.0 * (1 + yy if spec.model == "xx" else 1 - yy)
    return h


def conserved_sectors(spec: ChainSpec) -> tuple[np.ndarray, ...]:
    """Basis labels of each block of ``build_hamiltonian(spec)``, by charge.

    xx conserves the excitation number popcount(x); dq
    conserves popcount(x ^ odd-site mask), its image under the gauge of
    ``similarity_transform``. Entry k holds the sorted labels of charge
    k = 0..n (C(n, k) of them); H has no entry between two blocks.

    The spin flip F = X^(x)n commutes with H under both models (it leaves
    X_j X_{j+1} alone and maps Y_j Y_{j+1} to (-Y_j)(-Y_{j+1}) = Y_j Y_{j+1})
    and complements every label, so it maps sector k onto sector n - k in
    reversed order: exactly, sectors[n - k] == (2**n - 1 - sectors[k])[::-1]
    and build_hamiltonian(spec, sectors[n - k]) is the block of sector k
    with rows and columns reversed.
    """
    n = require_within_budget(spec.n)
    labels = np.arange(2**n)
    # basis-label bits of the odd sites 1, 3, 5, ...
    gauge = sum(1 << (n - j) for j in range(1, n + 1, 2)) if spec.model == "dq" else 0
    charge = popcount(labels ^ gauge, n)
    return tuple(labels[charge == k] for k in range(n + 1))


# -- evolution and traces -----------------------------------------------------


def _unitary(eigen: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(-i h t) from the eigenpairs ``eigen = np.linalg.eigh(h)``."""
    energies, vectors = eigen
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def evolve_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) by full diagonalisation.

    t must be a finite real before h is diagonalised; the phase bound of
    h's spectrum, which needs the eigenvalues, is checked after.
    """
    _check_square(h)
    t = _check_real(t, "times", InvalidParameterError)
    eigen = np.linalg.eigh(h)
    return _unitary(eigen, _check_time(t, np.max(np.abs(eigen[0]), initial=0.0)))


def evolve_deviation(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """Heisenberg-picture free evolution U rho U^dag."""
    _check_square(h, rho)
    u = evolve_unitary(h, t)
    return _check_finite_result(lambda: u @ rho @ u.conj().T, "evolved operator")


def trace_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Normalised trace Tr[a b] / dim, as the elementwise sum of a * b^T: O(dim^2)
    work, with no matrix product formed."""
    dim = _check_square(a, b)
    return complex(_check_finite_result(lambda: np.sum(a * b.T) / dim, "trace overlap"))


def _total_z_diag(n: int) -> np.ndarray:
    """Eigenvalues n - 2 popcount(x) of sum_j Z_j, by basis label x."""
    return n - 2 * popcount(np.arange(2**n), n)


def total_z(n: int) -> np.ndarray:
    """Diagonal matrix of sum_j Z_j."""
    require_within_budget(n)
    return np.diag(_total_z_diag(n).astype(complex))


def staggered_z(n: int) -> np.ndarray:
    """Diagonal matrix of sum_j (-1)^(j+1) Z_j, each Z_j with its dq gauge sign against Z_1."""
    n = require_within_budget(n)
    return _dense_sum(n, [(_gauge_sign("dq", j, 1), ((j, "Z"),)) for j in range(1, n + 1)])


def collective_rotation_diag(n: int, phi: float) -> np.ndarray:
    """Diagonal of exp(-i phi sum_j Z_j / 2) as a vector; phi is a time of rate n / 2."""
    n = require_within_budget(n)
    return np.exp(-0.5j * _check_time(phi, n / 2.0) * _total_z_diag(n))


# -- model equivalence ---------------------------------------------------------


def similarity_transform(n: int) -> np.ndarray:
    """Product of X on odd sites, the gauge linking the two models.

    Every bond (j, j+1) has exactly one odd endpoint, so conjugation
    leaves X_j X_{j+1} alone and flips the sign of Y_j Y_{j+1}, mapping
    H_xx onto H_dq with identical couplings.
    """
    n = require_within_budget(n)
    return pauli_string_to_dense(n, tuple((j, "X") for j in range(1, n + 1, 2)))


def similarity_residual(h_xx: np.ndarray, h_dq: np.ndarray) -> float:
    """Max-norm residual of the staggered-gauge equivalence.

    Conjugating H_xx by X on every odd site flips the sign of each
    Y_j Y_{j+1} bond term exactly once, turning H_xx(d) into H_dq(d):
    the two models are gauge copies of each other and share all
    polarisation dynamics up to the staggered sign.
    """
    dim = _check_square(h_xx, h_dq)
    if dim < 2 or dim & (dim - 1):
        raise InvalidDimensionError(f"need two 2^n x 2^n matrices with n >= 1, got dim={dim}")
    u = similarity_transform(dim.bit_length() - 1)
    return float(_check_finite_result(lambda: np.max(np.abs(u @ h_xx @ u - h_dq)),
                                      "similarity residual"))
