"""Multiple-quantum coherence distributions under collective z grading.

The double-quantum Hamiltonian pumps coherence orders 0 and +-2 (and no
others) out of longitudinal or logical end states. The phase-cycling
protocol evolves a prepared deviation state, tags coherence orders with
a collective z rotation, and correlates against the evolved total
polarisation:

    S(phi) = Tr[R_phi rho(t) R_phi^dag Z(t)] / 2^n,
    J_q    = (1/N) sum_m exp(+i q phi_m) S(phi_m),  phi_m = 2 pi m / N.

Closed forms exist for the homogeneous chain. ``mqc_propagator_grid``
applies one spectral rule to any state that the odd-site X gauge maps
onto a number-conserving bilinear (one-site Z and adjacent XX, YY, XY,
YX strings, every prepared kind included) on any nearest-neighbour dq
chain, from one decomposition of its single-excitation matrix. The
dense-oracle cycling path reproduces both exactly (up to the conserved
total Tr[rho Z]/2^n, which the analytic z-state series normalises to 1).

``mqc_phase_cycled`` runs that protocol literally at one time and is the
reference for ``mqc_phase_cycled_grid``, which evaluates the same
intensities on a whole time grid from one sector-blocked decomposition.
Both grid engines take the chain, a ``DeviationState`` and a time grid,
and return one float array of shape (len(times), 2 max_order + 1),
column max_order + q holding J_q; the literal cycle returns one such row.
Only ``mqc_analytic`` is a single-time closed form: its ``MqcSpectrum``
holds the intensities of the orders -2, 0, 2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .chain import (
    ChainSpec,
    _check_choice,
    _check_finite_result,
    _check_int,
    _check_length,
    _check_time,
    _check_times,
)
from .errors import (
    AliasingError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedModelError,
)
from .oracle import (
    _unitary,
    build_hamiltonian,
    collective_rotation_diag,
    conserved_sectors,
    deviation_to_dense,
    popcount,
    require_within_budget,
    total_z,
    trace_overlap,
)
from .pauli import DeviationState
from .propagator import _TIME_BLOCK, SpectralDecomposition, _sine_modes, spectral_decompose

__all__ = [
    "PREPARED_KINDS",
    "MqcSpectrum",
    "prepare_state",
    "mqc_analytic",
    "mqc_propagator_grid",
    "mqc_phase_cycled",
    "mqc_phase_cycled_grid",
]

PREPARED_KINDS = ("z_ends", "y_logical", "x_logical", "full_z")
# the kinds with a homogeneous closed form: every one but full_z
_SERIES_KINDS = PREPARED_KINDS[:3]


@dataclass(frozen=True)
class MqcSpectrum:
    """Coherence-order intensities J_q at one time, for the orders -2, 0, 2 in that order."""

    orders: ClassVar[tuple[int, ...]] = (-2, 0, 2)
    intensities: tuple[float, ...]

    def intensity(self, q: int) -> float:
        """J_q; raises for orders outside the computed window."""
        try:
            return self.intensities[self.orders.index(q)]
        except ValueError:
            raise InvalidParameterError(
                f"order {q} outside computed window {self.orders}"
            ) from None


def prepare_state(n: int, kind: str) -> DeviationState:
    """Initial deviation state for the coherence protocol.

    ``z_ends`` is Z_1 + Z_n and ``full_z`` is the uniform sum of Z_j over
    every site. ``y_logical`` carries (Y X + X Y)/2 on both end pairs;
    ``x_logical`` is its collective pi/4 z rotation, i.e. -(X X - Y Y)/2
    on both end pairs, which the double-quantum filter cannot see.
    """
    _check_choice(kind, "kind", PREPARED_KINDS, InvalidConfigurationError)
    n = _check_length(n, minimum=2 if kind in ("z_ends", "full_z") else 4)
    if kind in ("z_ends", "full_z"):
        if kind == "full_z":
            return DeviationState(
                n, tuple((1.0, ((j, "Z"),)) for j in range(1, n + 1))
            )
        return DeviationState(n, ((1.0, ((1, "Z"),)), (1.0, ((n, "Z"),))))
    if kind == "y_logical":
        pairs = ((0.5, "Y", "X"), (0.5, "X", "Y"))
    else:
        pairs = ((-0.5, "X", "X"), (0.5, "Y", "Y"))
    return DeviationState(n, tuple(
        (w, ((a, p), (b, q))) for a, b in ((1, 2), (n - 1, n)) for w, p, q in pairs
    ))


def mqc_analytic(n: int, d: float, kind: str, t: float) -> MqcSpectrum:
    """Closed-form coherence intensities of one prepared kind on the homogeneous dq chain.

    Over the sine modes kappa_k = pi k / (n + 1), with w_k = 2 d cos(kappa_k):

        z_ends:    J_0 = 2/(n+1) sum_k sin^2(kappa_k) cos^2(2 w_k t)
                   J_+-2 = 1/(n+1) sum_k sin^2(kappa_k) sin^2(2 w_k t)
        y_logical: J_0 = 2/(n+1) sum_k sin(kappa_k) sin(2 kappa_k) sin(4 w_k t)
                   J_+-2 = -J_0 / 2
        x_logical: no signal, the protocol's readout is blind to it.

    The z_ends series is normalised so the total is 1 (J_0(0) = 1), and
    no other order appears. The logical series are in the raw
    convention of the cycling protocol; their total vanishes because the
    prepared states are orthogonal to Z. x_logical holds times to the
    range of y_logical.
    """
    kind = _check_choice(kind, "kind", _SERIES_KINDS, InvalidConfigurationError)
    n, d, kappa, w = _sine_modes(n, d, minimum=2 if kind == "z_ends" else 4)
    if kind == "z_ends":
        t = _check_time(t, 4.0 * d)
        s2 = np.sin(kappa) ** 2
        j0 = 2.0 / (n + 1) * float(np.sum(s2 * np.cos(2 * w * t) ** 2))
        j2 = 1.0 / (n + 1) * float(np.sum(s2 * np.sin(2 * w * t) ** 2))
        return MqcSpectrum((j2, j0, j2))
    t = _check_time(t, 8.0 * d)
    if kind == "x_logical":
        return MqcSpectrum((0.0, 0.0, 0.0))
    weight = np.sin(kappa) * np.sin(2 * kappa)
    j0 = 2.0 / (n + 1) * float(np.sum(weight * np.sin(4 * w * t)))
    j2 = 1.0 / (n + 1) * float(np.sum(weight * np.sin(4 * w * t + np.pi)))
    return MqcSpectrum((j2, j0, j2))


# each adjacent-pair string on sites (a, a + 1), in the gauge frame: its coefficient in
# Q_{a,a+1}, then which pairing part it feeds, (XX - YY)/2 or (XY + YX)/2, and with what
# sign; a bilinear has neither part
_BOND_STRINGS = {"XX": (1, 0, 1), "YY": (1, 0, -1), "XY": (-1j, 1, 1), "YX": (1j, 1, 1)}


def _gauge_bilinear(state: DeviationState) -> tuple[np.ndarray, np.ndarray]:
    """``state`` under the odd-site X gauge as a Hermitian bilinear sum_ab Q_ab c^dag_a c_b
    plus a multiple of the identity: Q's diagonal (n,) and first upper off-diagonal
    (n - 1,), which holds the lower one too, so no n x n array is formed.

    The gauge negates Y and Z on odd sites, and Jordan-Wigner with
    Z_j = 1 - 2 n_j gives each string its place in Q:

        Z_j:                       Q_jj = -2 w
        XX, YY, XY, YX on a, a+1:  Q_{a,a+1} = 2h - 2ig = conj(Q_{a+1,a}),
                                   h = (w_XX + w_YY)/2,  g = (w_XY - w_YX)/2

    with w the gauge-frame weights. The identity part, the identity and the
    constant of each Z_j, is dropped: it has no overlap with the traceless Z,
    so the coherence protocol cannot see it. A weight that is not real (the
    state is then not Hermitian, and the cycle's J_2 and J_-2 differ), any
    other string, or a pairing part (w_XX - w_YY)/2 or (w_XY + w_YX)/2 above
    1e-15 of the largest |w| raises ``InvalidConfigurationError``. The
    arithmetic is on Python scalars, so a weight near the float range gives
    inf, not a warning.
    """
    n = state.n
    diag, upper = [0.0] * n, [0j] * (n - 1)
    pairing = [[0.0] * (n - 1), [0.0] * (n - 1)]
    largest = 0.0
    for weight, string in state.terms:
        if weight.imag:
            raise InvalidConfigurationError(
                f"weight {weight!r} of {string!r} is not real: the state is not Hermitian"
            )
        largest = max(largest, abs(weight.real))
        sites = [site for site, _ in string]
        letters = "".join(letter for _, letter in string)
        # the gauge sign: -1 for each Y or Z on an odd site
        weight = weight.real * math.prod(
            -1 for site, letter in string if letter != "X" and site % 2
        )
        if letters == "Z":
            diag[sites[0] - 1] = -2 * weight
        elif letters in _BOND_STRINGS and sites[1] == sites[0] + 1:
            coefficient, part, sign = _BOND_STRINGS[letters]
            upper[sites[0] - 1] += coefficient * weight
            pairing[part][sites[0] - 1] += sign * weight / 2
        elif string:
            raise InvalidConfigurationError(
                f"{string!r} is not a one-site Z or an adjacent XX, YY, XY or YX string, "
                "so the state is not a number-conserving bilinear"
            )
    remainder = max(map(abs, pairing[0] + pairing[1]), default=0.0)
    if remainder > 1e-15 * largest:
        raise InvalidConfigurationError(
            f"the state has a pairing part of size {remainder:g}: (XX - YY)/2 and "
            "(XY + YX)/2 on each gauge-frame bond must cancel"
        )
    return np.array(diag), np.array(upper)


def _spectral_rule(
    decomposition: SpectralDecomposition, q: tuple[np.ndarray, np.ndarray], grid: np.ndarray
) -> np.ndarray:
    """The (len(grid), 5) table of ``mqc_propagator_grid`` for the bilinear ``q`` of
    ``_gauge_bilinear``, from the chain's modes V and frequencies w."""
    diag, upper = q
    v, w = decomposition.modes, decomposition.frequencies
    s = np.where(np.arange(1, decomposition.n + 1) % 2, -1.0, 1.0)
    qs = diag * s
    m = 0.5 * (upper * s[1:] + upper.conj() * s[:-1])
    # three-operand einsum loops over V in place: no n x n product is formed
    weights = np.einsum("a,ak,ak->k", qs, v, v) + 2.0 * np.einsum("a,ak,ak->k", m, v[:-1], v[1:])
    s0 = -0.5 * qs.sum()
    spi = np.empty(grid.size)
    # Re expm1(-i theta) W = (cos theta - 1) Re W + sin theta Im W, in real arithmetic
    for k in range(0, grid.size, _TIME_BLOCK):
        theta = 4.0 * np.multiply.outer(grid[k:k + _TIME_BLOCK], w)
        shift = (np.cos(theta) - 1.0) @ weights.real + np.sin(theta) @ weights.imag
        spi[k:k + _TIME_BLOCK] = s0 - 0.5 * shift
    j0, j2 = (s0 + spi) / 2.0, (s0 - spi) / 4.0
    zero = np.zeros(grid.size)
    return np.column_stack([j2, zero, j0, zero, j2])


def mqc_propagator_grid(spec: ChainSpec, initial: DeviationState, times) -> np.ndarray:
    """Raw intensities of ``mqc_phase_cycled_grid`` for a bilinear state, from one
    decomposition of the chain.

    The odd-site X gauge maps a nearest-neighbour dq chain onto the xx chain,
    the total Z onto sum_j s_j Z_j (s_j = -1 on odd sites, +1 on even ones),
    and the state onto a bilinear Q (``_gauge_bilinear``). The order of
    c^dag_a c_b is s_a - s_b, so only J_0 and J_+-2 appear, and with the
    chain's modes V and frequencies w (``spectral_decompose``):

        S0     = -1/2 sum_a Q_aa s_a
        W_k    = sum_a Q_aa s_a V_ak^2 + 2 sum_a M_a V_ak V_{a+1,k},
                 M_a = (Q_{a,a+1} s_{a+1} + Q_{a+1,a} s_a) / 2
        Spi(t) = S0 - 1/2 Re sum_k expm1(-4 i w_k t) W_k
        J_0    = (S0 + Spi) / 2,   J_+-2 = (S0 - Spi) / 4

    S0 and Spi are the signals at the phases 0 and pi/2. The constant that
    the identity parts of the state and of Z add to each is 0, because Z is
    traceless. At t = 0 Spi is exactly S0.

    Returns shape (len(times), 5), the layout of ``mqc_phase_cycled_grid``
    at max_order 2: columns J_-2, J_-1, J_0, J_1, J_2, with J_+-1 exactly 0.
    The model, the state's length and strings and the times are checked
    before any work, also for an empty grid. A time whose A(4t) phase
    8 max|d| |t| exceeds 2^32 rad raises ``InvalidParameterError`` before
    4t is formed, and a table past the float range raises it too.
    """
    _check_choice(spec.model, "model", ("dq",), UnsupportedModelError)
    if initial.n != spec.n:
        raise InvalidDimensionError(
            f"state on {initial.n} sites does not match chain n={spec.n}"
        )
    grid = _check_times(times, 8.0 * float(np.max(np.abs(spec.couplings), initial=0.0)))
    q = _gauge_bilinear(initial)
    decomposition = spectral_decompose(spec)
    return _check_finite_result(
        lambda: _spectral_rule(decomposition, q, grid), "coherence intensities"
    )


def mqc_phase_cycled(
    spec: ChainSpec,
    initial: DeviationState,
    t: float,
    phase_steps: int = 8,
    max_order: int = 2,
) -> np.ndarray:
    """Full phase-cycling protocol on dense operators: shape (2 max_order + 1,).

    Element max_order + q holds J_q, the layout of one row of
    ``mqc_phase_cycled_grid``. Requires phase_steps > 2 * max_order so no
    populated order can alias onto a reported one. Returns raw
    intensities; their sum over all orders equals the conserved overlap
    Tr[initial Z] / 2^n.
    """
    grid, phase_steps, max_order = _check_protocol(spec, initial, [t], phase_steps, max_order)
    u = _unitary(np.linalg.eigh(build_hamiltonian(spec)), float(grid[0]))
    return _cycle(u, (initial,), phase_steps, max_order)[0]


def _cycle(
    u: np.ndarray, states: Sequence[DeviationState], phase_steps: int, max_order: int
) -> np.ndarray:
    """The literal cycle of ``mqc_phase_cycled`` for each of ``states`` under one U(t):
    shape (len(states), 2 max_order + 1), column max_order + q holding J_q.

    Z(t) = U Z U^dag is formed once and shared, and so is each phase's rotation,
    which is formed once per phase; the arguments are already checked. Each
    signal is one ``trace_overlap``, and each J_q its own sum over the phases.
    """
    n = states[0].n
    z_t = u @ total_z(n) @ u.conj().T
    rhos = [u @ deviation_to_dense(state) @ u.conj().T for state in states]
    signals = np.empty((len(rhos), phase_steps), dtype=complex)
    for m in range(phase_steps):
        r = collective_rotation_diag(n, 2.0 * np.pi * m / phase_steps)
        r_left, r_right = r[:, None], np.conj(r)[None, :]
        for rho_t, signal in zip(rhos, signals):
            signal[m] = trace_overlap((r_left * rho_t) * r_right, z_t)
    phis = 2.0 * np.pi * np.arange(phase_steps) / phase_steps
    orders = range(-max_order, max_order + 1)
    return np.array([
        [(np.exp(1j * q * phis) @ signal).real / phase_steps for q in orders]
        for signal in signals
    ])


def _check_phase_steps(phase_steps: int, max_order: int) -> tuple[int, int]:
    """A cycle of ``phase_steps`` that resolves orders up to ``max_order``: both as ints.

    phase_steps > 2 max_order, so no populated order aliases onto a reported one.
    """
    phase_steps = _check_int(phase_steps, "phase_steps", InvalidParameterError)
    max_order = _check_int(max_order, "max_order", InvalidParameterError, minimum=0)
    if phase_steps <= 2 * max_order:
        raise AliasingError(
            f"phase_steps={phase_steps} cannot resolve orders up to "
            f"{max_order}; need phase_steps > {2 * max_order}"
        )
    return phase_steps, max_order


def _check_protocol(
    spec: ChainSpec, initial: DeviationState, times, phase_steps: int, max_order: int
) -> tuple[np.ndarray, int, int]:
    """Every argument of the dense protocol, checked first: (grid, phase_steps, max_order)."""
    n = require_within_budget(spec.n)
    if initial.n != n:
        raise InvalidDimensionError(
            f"state on {initial.n} sites does not match chain n={n}"
        )
    phase_steps, max_order = _check_phase_steps(phase_steps, max_order)
    # every model has ||H|| <= 2 sum |d|, which bounds each phase E t; a bound
    # past the float range is inf, and every grid then fails the phase check
    with np.errstate(over="ignore"):
        rate = 2.0 * float(np.sum(np.abs(spec.couplings)))
    grid = _check_times(times, rate)
    return grid, phase_steps, max_order


def _flip_parts(state: DeviationState) -> dict[int, DeviationState]:
    """``state`` split by parity under the spin flip F = X^(x)n: {s: rho_s} with
    F rho_s F = s rho_s for s = +-1 and ``state`` the sum of the rho_s.

    F P F = (-1)^(#Y + #Z) P for each Pauli string P.
    """
    groups: dict[int, list] = {}
    for weight, string in state.terms:
        sign = (-1) ** sum(letter != "X" for _, letter in string)
        groups.setdefault(sign, []).append((weight, string))
    return {sign: DeviationState(state.n, tuple(terms)) for sign, terms in groups.items()}


def _g_parity(state: DeviationState) -> int:
    """g when G = F R maps ``state`` onto g times itself, g = +-1, and 0 otherwise.

    G P G = (-1)^(#Y + #Z) R(P) for a Pauli string P, R(P) its mirror image, so
    the image is formed term by term, without a dense operator.
    """
    weights: dict = {}
    for weight, string in state.terms:
        weights[string] = weights.get(string, 0) + weight
    weights = {string: weight for string, weight in weights.items() if weight}
    image = {
        tuple(sorted((state.n + 1 - site, letter) for site, letter in string)):
        (-1) ** sum(letter != "X" for _, letter in string) * weight
        for string, weight in weights.items()
    }
    for g in (1, -1):
        if image == {string: g * weight for string, weight in weights.items()}:
            return g
    return 0


def _bit_reversal(labels: np.ndarray, n: int) -> np.ndarray:
    """Image of each n-bit basis label under the site reversal j -> n + 1 - j."""
    return ((labels[:, None] >> np.arange(n)) & 1) @ (1 << np.arange(n - 1, -1, -1))


def _reflection_halves(labels: np.ndarray, image: np.ndarray) -> list[tuple]:
    """The orbit bases of one sector under a mirror M of its labels, ``image`` being
    M(labels), a permutation of them: one (first, second, sign) per non-empty half.

    Orbit vector i of a half is c_i (e_first_i + sign e_second_i), with first and
    second positions in ``labels`` (``_fold``). The M-even half E has
    (e_a + e_Ma)/sqrt2 for each pair a < Ma and then e_f for each label f that M
    fixes, and the M-odd half O has (e_a - e_Ma)/sqrt2 for the same pairs in the
    same order. The identity mirror fixes every label, so the sector is one half.
    """
    partner = np.searchsorted(labels, image)
    odd = np.flatnonzero(labels < image)
    even = np.concatenate([odd, np.flatnonzero(labels == image)])
    return [(even, partner[even], 1)] + ([(odd, partner[odd], -1)] if odd.size else [])


def _fold(x: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """The block of x from the orbit vectors of ``cols`` to those of ``rows``, each
    a (first, second, sign) of ``_reflection_halves``.

    Orbit vector i is c_i (e_first_i + sign e_second_i), with c_i = 1/2 where
    first_i == second_i (the vector is e_first_i) and 1/sqrt2 otherwise. Each axis is
    scaled right after its sum, so no entry passes twice the largest of x, and the
    exact (x + x) / 2 folds the identity mirror's one half to x itself, bit for bit.
    """
    (first, second, sign), (first_c, second_c, sign_c) = rows, cols
    block = x[first]
    (np.add if sign > 0 else np.subtract)(block, x[second], out=block)
    block *= np.where(first == second, 0.5, np.sqrt(0.5))[:, None]
    block, other = block[:, first_c], block[:, second_c]
    (np.add if sign_c > 0 else np.subtract)(block, other, out=block)
    block *= np.where(first_c == second_c, 0.5, np.sqrt(0.5))
    return block


def _mirror_image(spec: ChainSpec, labels: np.ndarray) -> np.ndarray:
    """The images of ``labels`` under the chain's mirror, a permutation of them.

    If the couplings are a palindrome, the mirror is the site reversal R,
    x -> bitreverse(x), which keeps popcount and commutes with H. Under dq at even
    n R complements the odd-site gauge, so it maps sector k onto n - k, and the
    mirror is G = F R, x -> (2^n - 1) ^ bitreverse(x), which maps it back onto k;
    F commutes with H too, so G does. pop(Gx) = n - pop(x). Otherwise (exactly:
    one ulp off is not a palindrome) the mirror is the identity.
    """
    n = spec.n
    couplings = np.asarray(spec.couplings)
    if not np.array_equal(couplings, couplings[::-1]):
        return labels
    image = _bit_reversal(labels, n)
    return image ^ (2**n - 1) if spec.model == "dq" and n % 2 == 0 else image


def _mirror_pairs(spec: ChainSpec):
    """Per pair of conserved sectors k and n - k (k = 0..n // 2), one pair at a time:
    sector k's labels, its halves as (orbits, eigenpairs) with orbits from
    ``_reflection_halves`` under the mirror of ``_mirror_image``, and whether
    k != n - k.

    Only sector k's H block is built, on its labels alone, so no 2^n x 2^n array
    is ever formed. H is real in this basis under both models, xx and dq
    (checked exactly), so each half is diagonalised in real arithmetic. Sector
    n - k is sector k flipped (``conserved_sectors``), and its moments are read
    off sector k's, so it is neither built nor diagonalised.
    """
    sectors = conserved_sectors(spec)
    for k in range(spec.n // 2 + 1):
        labels = sectors[k]
        h_k = build_hamiltonian(spec, labels)
        if np.any(h_k.imag):
            raise UnsupportedModelError(f"{spec.model} Hamiltonian block is not real")
        halves = [
            (orbits, np.linalg.eigh(_fold(h_k.real, orbits, orbits)))
            for orbits in _reflection_halves(labels, _mirror_image(spec, labels))
        ]
        del h_k  # only the eigenpairs outlive the build
        yield labels, halves, 2 * k != spec.n


# bytes of one stacked (times, m, m) complex array; a time batch holds a few of them
_BATCH_BYTES = 1 << 18
# the two parts of rho under a mirror M as (M-parity, blocks (P, Q)), with half 0 = E
# and 1 = O: the even part has the EE and OO blocks, the odd part OE and EO
_PARTS = ((1, ((0, 0), (1, 1))), (-1, ((1, 0), (0, 1))))


def _real_left(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for a real matrix v and a C-contiguous complex stack x: one real
    product on x's float view, whose rows interleave real and imaginary parts."""
    return np.matmul(v, x.view(float)).view(complex)


def _eigenbasis_t(v_l: np.ndarray, x: np.ndarray, v_r: np.ndarray) -> np.ndarray:
    """(V_l^T x V_r)^T, C-contiguous, for real V_l, V_r and a complex x: two real
    products (``_real_left``), the block that ``_evolved`` takes."""
    y = _real_left(v_l.T, np.ascontiguousarray(x))
    return _real_left(v_r.T, np.ascontiguousarray(y.T))


def _phases(left, right, times: np.ndarray) -> np.ndarray:
    """exp(-i (w_la - w_rb) t) for the eigenpairs (w, V) ``left`` and ``right`` at each
    time, transposed: shape (len(times), m_r, m_l)."""
    return np.exp(1j * np.multiply.outer(times, right[0]))[:, :, None] * np.exp(
        -1j * np.multiply.outer(times, left[0]))[:, None, :]


def _evolved(left, tilde_t: np.ndarray, right, phases: np.ndarray) -> np.ndarray:
    """U_l(t) X U_r(t)^dag at each time: shape (len(times), m_l, m_r).

    ``left`` and ``right`` are the eigenpairs (w, V) of two halves, V real, and
    ``tilde_t`` is the transpose of X in their eigenbases, (V_l^T X V_r)^T, so that
    U_l X U_r^dag = V_l (tilde * exp(-i (w_la - w_rb) t)) V_r^T with the phases of
    ``_phases``. Both products with V are real products (``_real_left``), the one
    with V_r on the transpose.
    """
    y = _real_left(right[1], phases * tilde_t)
    y = np.ascontiguousarray(y.transpose(0, 2, 1))
    return _real_left(left[1], y)


def _binned(bins: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Each time's ``weights`` (shape (T,) + bins.shape) summed by ``bins`` in 0..size - 1,
    all in one bincount with per-time offsets: shape (T, size)."""
    count = len(weights)
    index = bins.ravel() + size * np.arange(count)[:, None]
    return np.bincount(index.ravel(), weights.ravel(), count * size).reshape(count, size)


def _batches(grid: np.ndarray, m: int):
    """Consecutive slices of ``grid`` whose (len, m, m) complex stacks fit _BATCH_BYTES."""
    step = max(1, _BATCH_BYTES // (16 * m * m))
    return (slice(k, k + step) for k in range(0, grid.size, step))


def _sector_moments(
    n: int, labels: np.ndarray, halves, states: Sequence[DeviationState], grid: np.ndarray
) -> np.ndarray:
    """Moments M_p(t) of one sector for each of ``states``: shape
    (len(states), len(grid), 2n + 1), column p + n.

    M_p sums Re rho_ab(t) Z_ba(t) over the sector's labels a, b with
    p = pop(a) - pop(b). ``halves`` are the (orbits, eigenpairs) of
    ``_mirror_pairs`` under a mirror M: E, and O if M moves a label. rho's even
    part (M rho M = rho) holds its EE and OO blocks, its odd part EO and OE.
    Each block is folded (``_fold``), taken to its halves' eigenbases and
    evolved as U_l X U_r^dag (``_evolved``), a batch of times at once, with
    each block of Z(t) formed once per batch and shared by the states.

    With s = Mf for the labels f of E's orbits and z = n - 2 pop, Z's orbit
    blocks are diagonal: (z_f + z_s)/2 on EE and OO, (z_f - z_s)/2 on EO; one
    of the two is zero. M reads off the halves: R and the identity keep
    popcount, G = F R complements it. If M keeps it, neither Z nor the rotation
    has an entry between the halves, so the odd part adds nothing (M commutes
    with U(t), Z and the rotation: its trace is its own negative, order by
    order), nor does a block where Z is zero; neither is evolved. Each even
    block's product X(t) * conj(Z(t)) is binned at its orbits' orders.

    Under G, O is padded to E's size (a fixed label is a pair with a zero O
    vector), and the label-basis corners (f, f), (f, s), (s, f), (s, s) of
    rho(t) * Z(t)^T are binned from +- sums of the evolved blocks. With
    e = pop(f) - n/2, Zb the EO block of Z(t), Z+- = Zb^T +- conj(Zb) and
    X+- = P +- Q for the blocks (P, Q) of a part of G-parity g:

        (f, f), (s, s): 1/4 Re[X+ * Z+] at order e_i - e_j, and -g times it at e_j - e_i
        (f, s), (s, f): 1/4 Re[X- * Z-] at order e_i + e_j, and -g times it at -e_i - e_j

    A part that ``_g_parity`` shows to be zero is skipped, and a Hermitian
    state has OE(t) = EO(t)^dag, so EO alone is evolved.
    """
    size, pops = 2 * n + 1, popcount(labels, n)
    (first, second, _), _ = halves[0]
    keeps = np.array_equal(pops[first], pops[second])
    e, z_f, z_s = pops[first] - n // 2, n - 2.0 * pops[first], n - 2.0 * pops[second]
    eigens = [eigen for _, eigen in halves]
    if not keeps:
        (w, v), split = eigens[1], first.size
        eigens[1] = (np.concatenate([w, np.zeros(split - w.size)]), np.zeros((split, split)))
        eigens[1][1][:w.size, :w.size] = v
    # Z's nonzero blocks, transposed in the eigenbases (``_evolved``): V_r^T D V_l
    z_tildes = {}
    for (i, j), diagonal in (((0, 0), z_f + z_s), ((1, 1), z_f + z_s), ((0, 1), z_f - z_s)):
        if j < len(eigens) and np.any(diagonal):
            v_l, v_r = eigens[i][1], eigens[j][1]
            z_tildes[i, j] = (v_r.T * (0.5 * diagonal[:len(v_r)])) @ v_l
    work = []
    for index, state in enumerate(states):
        rho = deviation_to_dense(state, labels)
        parity = 1 if keeps else _g_parity(state)  # if M keeps popcount, the even part alone
        for g, blocks in _PARTS:
            if parity == -g:
                continue
            if keeps:
                blocks = [block for block in blocks if block in z_tildes]
            elif g < 0 and not any(weight.imag for weight, _ in state.terms):  # Hermitian
                blocks = blocks[1:]
            tildes = []
            for i, j in blocks:
                # the rows of the (padded) eigenvectors that the orbits span
                (orbits_l, _), (orbits_r, _) = halves[i], halves[j]
                v_l, v_r = eigens[i][1][:orbits_l[0].size], eigens[j][1][:orbits_r[0].size]
                tildes.append(((i, j), _eigenbasis_t(v_l, _fold(rho, orbits_l, orbits_r), v_r)))
            work.append((index, g, tildes))
        del rho  # only the blocks in the eigenbases outlive the folds
    out = np.zeros((len(states), grid.size, size))
    for (k, l), z_tilde in z_tildes.items():
        # one even block at a time if M keeps popcount, every block of a part under G
        items = [(index, g, [t for t in tildes if not keeps or t[0] == (k, l)])
                 for index, g, tildes in work]
        m = eigens[k][0].size
        diff = e[:m, None] - e[:m] + n
        # each order twice: a cell's real and imaginary parts are adjacent floats
        bins = np.repeat(diff if keeps else np.stack([diff, e[:, None] + e + n]), 2, axis=-1)
        blocks = {(k, l)} | {block for _, _, tildes in items for block, _ in tildes}
        for rows in _batches(grid, m):
            phases = {(i, j): _phases(eigens[i], eigens[j], grid[rows]) for i, j in blocks}
            z_t = _evolved(eigens[k], z_tilde, eigens[l], phases[k, l])
            if not keeps:
                # conj(Z+-) = Zb^dag +- Zb, so Re X Z+- is the float views' dot of X and conj(Z+-)
                z_minus = np.ascontiguousarray(z_t.conj().transpose(0, 2, 1))
                z_plus = z_minus + z_t
                z_minus -= z_t
                x = np.empty_like(z_t)
                weights = np.empty((len(z_t),) + bins.shape)
            for index, g, tildes in items:
                evolved = [_evolved(eigens[i], tilde, eigens[j], phases[i, j])
                           for (i, j), tilde in tildes]
                if keeps:
                    # Z(t) is Hermitian: Re rho_ab Z_ba is the float views' dot of rho and Z
                    product = evolved[0].view(float)
                    product *= z_t.view(float)
                    out[index, rows] += _binned(bins, product, size)
                    continue
                p, q = evolved if len(evolved) == 2 else (evolved[0].conj().transpose(0, 2, 1),
                                                          evolved[0])
                np.multiply(np.add(p, q, out=x).view(float), z_plus.view(float),
                            out=weights[:, 0])
                np.multiply(np.subtract(p, q, out=x).view(float), z_minus.view(float),
                            out=weights[:, 1])
                corners = 0.25 * _binned(bins, weights, size)
                out[index, rows] += corners - g * corners[:, ::-1]
    return out


def mqc_phase_cycled_grid(
    spec: ChainSpec,
    initial: DeviationState,
    times,
    phase_steps: int = 8,
    max_order: int = 2,
) -> np.ndarray:
    """``mqc_phase_cycled`` at every time of ``times``: shape (len(times), 2 max_order + 1).

    Column max_order + q holds J_q. H is block-diagonal in a conserved
    charge (``conserved_sectors``), and so are U(t) and Z(t); R_phi is
    diagonal. Tr[R rho(t) R^dag Z(t)] therefore reads only the diagonal
    blocks of rho(t), and the rotation multiplies entry (a, b) by
    exp(i p phi) with p = pop(a) - pop(b). Each block is diagonalised once
    and its moments M_p(t) summed (``_sector_moments``). With
    S(phi) = sum_p M_p exp(i p phi), the literal cycle's
    (1/N) sum_m exp(i q phi_m) S(phi_m) is exactly the fold
    sum_{p = -q mod N} M_p, so any aliasing of the N-step cycle is kept;
    only Re M_p reaches J_q.

    The spin flip F = X^(x)n pairs sector k with sector n - k, so each pair
    costs one build (``_mirror_pairs``). F negates every Z_j,
    hence Z and every order p, and F P F = (-1)^(#Y + #Z) P for a Pauli
    string P. The moments are linear in rho(0), which splits into parts
    rho_s with F rho_s F = s rho_s (``_flip_parts``); for each part, M_p of
    sector n - k is -s M_{-p} of sector k at every time. So only sector k is
    evolved, once per part with U(t) and Z_k(t) shared, and sector n - k
    costs no per-time work. Every prepared state has one part.

    A mirror M of the chain commutes with H and maps every sector onto itself
    (``_mirror_image``): on a palindrome, the site reversal R under xx and
    under dq at odd n, and G = F R under dq at even n, where R maps sector k
    onto n - k; otherwise the identity. Each sector splits into an M-even and
    an M-odd half (``_reflection_halves``), diagonalised and evolved on their
    own (at n = 10 the largest block is 126 wide, not 252), and one rule bins
    every sector's moments (``_sector_moments``).

    Every argument is checked before any work, also for an empty grid.
    """
    grid, phase_steps, max_order = _check_protocol(spec, initial, times, phase_steps, max_order)
    n = spec.n
    orders = np.arange(-max_order, max_order + 1)
    if not grid.size:
        return np.zeros((0, orders.size))
    parts = _flip_parts(initial)
    states = list(parts.values())
    moments = np.zeros((grid.size, 2 * n + 1))
    for labels, halves, mirrored in _mirror_pairs(spec):
        for sign, part in zip(parts, _sector_moments(n, labels, halves, states, grid)):
            moments += part
            if mirrored:
                moments -= sign * part[:, ::-1]
    moments /= 2**n
    # |p + q| <= n + max_order, so every N past 2 (n + max_order) folds only p = -q; the cap
    # gives the same mask and keeps N within int64
    steps = min(phase_steps, 2 * (n + max_order) + 1)
    fold = (np.arange(-n, n + 1)[:, None] + orders) % steps == 0
    return moments @ fold
