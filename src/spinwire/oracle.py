"""Dense brute-force reference implementations.

Everything here works on full 2^n x 2^n matrices, so results are
trustworthy but exponentially expensive. The module exists to
cross-check the analytic paths; a size budget (default n <= 10, hard cap
12, overridable through SPINWIRE_ORACLE_MAX_N within the cap) keeps
accidental large requests from exhausting memory.

Basis convention: site 1 is the most significant bit of the basis
label, bit value 1 marks an excitation (spin down), so Z_1 on two sites
is diag(1, 1, -1, -1).

Every operator is built from one primitive that writes a Pauli string
as a signed permutation of basis labels; the Kronecker-product
references it is checked against live in the tests.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .chain import ChainSpec, _check_length, _check_sites
from .errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    OracleSizeError,
)
from .pauli import DeviationState, PauliString, _validate_string, parse_string_label
from .propagator import MixedState, _check_blocks

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


def popcount(labels: np.ndarray, n: int) -> np.ndarray:
    """Number of set bits among the low n bits of each label."""
    n = _check_length(n, minimum=0)
    count = np.zeros(labels.shape, dtype=np.int64)
    for bit in range(n):
        count += (labels >> bit) & 1
    return count


def _signed_permutation(n: int, string: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Rows and phases of a sparse Pauli string as a signed permutation.

    P|x> = i^#Y (-1)^popcount(x & zy) |x ^ xy>, with xy the basis-label
    bits of the X and Y sites and zy those of the Y and Z sites, so
    P[rows[x], x] = phases[x] and every other entry is zero. ``string``
    must be valid for n (see ``pauli._validate_string``).
    """
    xy = sum(1 << (n - site) for site, letter in string if letter in ("X", "Y"))
    zy = sum(1 << (n - site) for site, letter in string if letter in ("Y", "Z"))
    n_y = sum(letter == "Y" for _, letter in string)
    labels = np.arange(2**n)
    signs = 1 - 2 * (popcount(labels & zy, n) & 1)
    return labels ^ xy, (1, 1j, -1, -1j)[n_y % 4] * signs


def _dense_sum(n: int, terms) -> np.ndarray:
    """Dense sum of weighted sparse Pauli strings, one signed permutation each."""
    labels = np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for weight, string in terms:
        rows, phases = _signed_permutation(n, string)
        out[rows, labels] += weight * phases
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


def deviation_to_dense(state: DeviationState) -> np.ndarray:
    """Dense matrix of a symbolic deviation state."""
    return _dense_sum(require_within_budget(state.n), state.terms)


def basis_index(n: int, sites: Sequence[int]) -> int:
    """Computational-basis label of excitations on strictly increasing 1-based ``sites``."""
    n = _check_length(n)
    return sum(1 << (n - s) for s in _check_sites(n, sites))


def excitation_operator(n: int, blocks: MixedState) -> np.ndarray:
    """Dense sum of |ket><bra| blocks given as strictly increasing site tuples."""
    n = require_within_budget(n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for ket, bra, weight in _check_blocks(n, blocks):
        out[basis_index(n, ket), basis_index(n, bra)] += weight
    return out


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense Hamiltonian of a chain spec.

    xx:      sum_j d_j (X_j X_{j+1} + Y_j Y_{j+1}) / 2
    dq:      sum_j d_j (X_j X_{j+1} - Y_j Y_{j+1}) / 2
    dipolar: sum_{j<l} d_jl [Z_j Z_l - (X_j X_l + Y_j Y_l) / 2]

    X_j X_l and Y_j Y_l share one signed permutation; their phases are
    added before the coupling multiplies them, as grouped above, so every
    entry equals the Kronecker-product sum exactly, subnormal d included.
    """
    n = require_within_budget(spec.n)
    if spec.model == "dipolar":
        mat = spec.coupling_matrix()
        bonds = [(j + 1, l + 1, mat[j, l]) for j, l in zip(*np.nonzero(np.triu(mat, 1)))]
    else:
        bonds = [(j, j + 1, d) for j, d in enumerate(spec.couplings, start=1)]
    labels = np.arange(2**n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j, l, d in bonds:
        rows, xx = _signed_permutation(n, ((j, "X"), (l, "X")))
        yy = _signed_permutation(n, ((j, "Y"), (l, "Y")))[1]
        if spec.model == "dipolar":
            h[labels, labels] += d * _signed_permutation(n, ((j, "Z"), (l, "Z")))[1]
            h[rows, labels] -= d * ((xx + yy) / 2.0)
        else:
            h[rows, labels] += d / 2.0 * (xx + yy if spec.model == "xx" else xx - yy)
    return h


def conserved_sectors(spec: ChainSpec) -> tuple[np.ndarray, ...]:
    """Basis labels of each block of ``build_hamiltonian(spec)``, by charge.

    xx and dipolar conserve the excitation number popcount(x); dq
    conserves popcount(x ^ odd-site mask), its image under the gauge of
    ``similarity_transform``. Entry k holds the sorted labels of charge
    k = 0..n (C(n, k) of them); H has no entry between two blocks.
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
    """exp(-i h t) by full diagonalisation."""
    return _unitary(np.linalg.eigh(h), t)


def evolve_deviation(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """Heisenberg-picture free evolution U rho U^dag."""
    u = evolve_unitary(h, t)
    return u @ rho @ u.conj().T


def trace_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Normalised trace Tr[a b] / dim."""
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InvalidDimensionError("operands must be equal square matrices")
    return complex(np.trace(a @ b) / a.shape[0])


def _total_z_diag(n: int) -> np.ndarray:
    """Eigenvalues n - 2 popcount(x) of sum_j Z_j, by basis label x."""
    return n - 2 * popcount(np.arange(2**n), n)


def total_z(n: int) -> np.ndarray:
    """Diagonal matrix of sum_j Z_j."""
    require_within_budget(n)
    return np.diag(_total_z_diag(n).astype(complex))


def staggered_z(n: int) -> np.ndarray:
    """Diagonal matrix of sum_j (-1)^(j+1) Z_j."""
    n = require_within_budget(n)
    return _dense_sum(n, [((-1) ** (j + 1), ((j, "Z"),)) for j in range(1, n + 1)])


def collective_rotation_diag(n: int, phi: float) -> np.ndarray:
    """Diagonal of exp(-i phi sum_j Z_j / 2) as a vector."""
    require_within_budget(n)
    return np.exp(-0.5j * phi * _total_z_diag(n))


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
    shape = np.shape(h_xx)
    dim = shape[0] if shape else 0
    if shape != np.shape(h_dq) or shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise InvalidDimensionError(
            f"need two equal square 2^n matrices, got {shape} and {np.shape(h_dq)}"
        )
    u = similarity_transform(dim.bit_length() - 1)
    return float(np.max(np.abs(u @ h_xx @ u - h_dq)))
