"""Chain Hamiltonians written out as Kronecker sums, for the tests only.

``kron_hamiltonian`` is the reference that the bit-built oracle
Hamiltonian is checked against. ``tail_hamiltonian`` is what no chain
spec can hold: the implanted chain of ``--family dipolar`` with every
pair coupled by its 1/r^3 tail, not only nearest neighbours. The tests
use it to pin what the nearest-neighbour model leaves out.
"""

import functools
import itertools

import numpy as np

from spinwire.chain import ChainSpec, implant_spacings

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_string(n: int, sparse) -> np.ndarray:
    """Kronecker product of a sparse Pauli string's (site, letter) pairs, identity elsewhere."""
    letters = dict(sparse)
    return functools.reduce(np.kron, (PAULI[letters.get(site, "I")] for site in range(1, n + 1)))


def kron_pair(n: int, a: int, b: int, letter: str) -> np.ndarray:
    """Pauli ``letter`` on sites a and b (1-based), identity elsewhere."""
    return kron_string(n, ((a, letter), (b, letter)))


def pair_hamiltonian(n: int, model: str, bonds) -> np.ndarray:
    """sum d (X_j X_l +- Y_j Y_l) / 2 over ``bonds`` of (j, l, d); + for xx, - for dq."""
    sign = 1.0 if model == "xx" else -1.0
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j, l, d in bonds:
        h += d / 2.0 * (kron_pair(n, j, l, "X") + sign * kron_pair(n, j, l, "Y"))
    return h


def kron_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The chain Hamiltonian as a sum of Kronecker products of Pauli matrices."""
    bonds = ((j, j + 1, d) for j, d in enumerate(spec.couplings, start=1))
    return pair_hamiltonian(spec.n, spec.model, bonds)


def tail_couplings(n: int) -> np.ndarray:
    """d_jl = 1/r_jl^3 on ``implant_spacings(n, 1.0)``, as an n x n matrix (zero diagonal).

    Its nearest-neighbour bonds are the engineered profile with d = 1, so
    the chain model of these sites mirrors at t* = pi n / 4.
    """
    pos = implant_spacings(n, 1.0)
    r = np.abs(pos[:, None] - pos[None, :])
    np.fill_diagonal(r, np.inf)
    return 1.0 / r**3


def tail_hamiltonian(n: int, model: str) -> np.ndarray:
    """The ``xx`` or ``dq`` Hamiltonian of the implanted chain with every pair coupled."""
    d = tail_couplings(n)
    pairs = itertools.combinations(range(1, n + 1), 2)
    return pair_hamiltonian(n, model, ((j, l, d[j - 1, l - 1]) for j, l in pairs))


def end_correlation(h: np.ndarray, n: int, times) -> np.ndarray:
    """Tr[Z_1(t) Z_n] / 2^n under the dense Hamiltonian ``h`` at each time."""
    energies, vectors = np.linalg.eigh(h)
    z1 = vectors.conj().T @ kron_string(n, ((1, "Z"),)) @ vectors
    zn = vectors.conj().T @ kron_string(n, ((n, "Z"),)) @ vectors
    # Tr[U Z_1 U^dag Z_n] = sum_ab (Z_1)_ab (Z_n)_ba exp(-i (E_a - E_b) t) in the eigenbasis
    phases = np.exp(-1j * np.outer(times, energies))
    return ((phases @ (z1 * zn.T)) * phases.conj()).sum(axis=1).real / 2**n
