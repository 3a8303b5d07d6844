"""Multiple-quantum coherence distributions under collective z grading.

The double-quantum Hamiltonian pumps coherence orders 0 and +-2 (and no
others) out of longitudinal or logical end states. The phase-cycling
protocol evolves a prepared deviation state, tags coherence orders with
a collective z rotation, and correlates against the evolved total
polarisation:

    S(phi) = Tr[R_phi rho(t) R_phi^dag Z(t)] / 2^n,
    J_q    = (1/N) sum_m exp(+i q phi_m) S(phi_m),  phi_m = 2 pi m / N.

Closed forms exist for the homogeneous chain; ``mqc_propagator_grid``
reads the intensities of any dq chain from the end block of A(4t), and
the dense-oracle cycling path reproduces both exactly (up to the conserved
total Tr[rho Z]/2^n, which the analytic z-state series normalises to 1).

``mqc_phase_cycled`` runs that protocol literally at one time and is the
reference for ``mqc_phase_cycled_grid``, which evaluates the same
intensities on a whole time grid from one sector-blocked decomposition.
Both grid engines return one float array of shape (len(times),
2 max_order + 1), column max_order + q holding J_q, and the literal cycle
returns one such row. Only the closed forms of ``mqc_analytic`` come as
an ``MqcSpectrum``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

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
)
from .pauli import DeviationState
from .propagator import _end_block, _sine_modes

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
# the kinds read from the single-excitation propagator: every one but full_z
_SERIES_KINDS = PREPARED_KINDS[:3]


@dataclass(frozen=True)
class MqcSpectrum:
    """Coherence-order intensities J_q at one time."""

    time: float
    orders: tuple[int, ...]
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
    m = n - 1
    y_state = DeviationState(
        n,
        (
            (0.5, ((1, "Y"), (2, "X"))),
            (0.5, ((1, "X"), (2, "Y"))),
            (0.5, ((m, "Y"), (n, "X"))),
            (0.5, ((m, "X"), (n, "Y"))),
        ),
    )
    if kind == "y_logical":
        return y_state
    return y_state.rotated_z(math.pi / 4)


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
        return MqcSpectrum(t, (-2, 0, 2), (j2, j0, j2))
    t = _check_time(t, 8.0 * d)
    if kind == "x_logical":
        return MqcSpectrum(t, (-2, 0, 2), (0.0, 0.0, 0.0))
    weight = np.sin(kappa) * np.sin(2 * kappa)
    j0 = 2.0 / (n + 1) * float(np.sum(weight * np.sin(4 * w * t)))
    j2 = 1.0 / (n + 1) * float(np.sum(weight * np.sin(4 * w * t + np.pi)))
    return MqcSpectrum(t, (-2, 0, 2), (j2, j0, j2))


def mqc_propagator_grid(spec: ChainSpec, kind: str, times) -> np.ndarray:
    """Raw intensities of ``mqc_phase_cycled_grid`` from the end block of A(4t).

    The odd-site X gauge maps a bipartite dq chain onto free fermions, so
    for any nearest-neighbour dq chain, with A from ``_end_block`` (every
    argument is checked before any work, also for an empty grid):

        z_ends:    J_0 = sum_{j in 1, n} (1 + Re A_jj) / 2,  J_+-2 = sum (1 - Re A_jj) / 4
        y_logical: J_0 = -(Im A_12 + Im A_{n-1,n}) / 2,      J_+-2 = -J_0 / 2
        x_logical: every J_q is exactly 0 (checked as y_logical, on the same sites).

    Returns shape (len(times), 5), the layout of ``mqc_phase_cycled_grid``
    at max_order 2: columns J_-2, J_-1, J_0, J_1, J_2, with J_+-1 exactly 0.
    """
    _check_choice(spec.model, "model", ("dq",), UnsupportedModelError)
    _check_choice(kind, "kind", _SERIES_KINDS, InvalidConfigurationError)
    grid = _check_times(times, 4.0)
    amp = _end_block(spec, "z_ends" if kind == "z_ends" else "y_logical", 4.0 * grid)
    zero = np.zeros(grid.size)
    if kind == "z_ends":
        ends = amp[:, (0, 1), (0, 1)].real
        j0, j2 = (1.0 + ends).sum(axis=1) / 2.0, (1.0 - ends).sum(axis=1) / 4.0
    elif kind == "y_logical":
        j0 = -(amp[:, 0, 1].imag + amp[:, 2, 3].imag) / 2.0
        j2 = -j0 / 2.0
    else:
        j0 = j2 = zero
    return np.column_stack([j2, zero, j0, zero, j2])


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
    J_q is its own sum over the phases.
    """
    n = states[0].n
    dim = 2**n
    z_t = u @ total_z(n) @ u.conj().T
    rhos = [u @ deviation_to_dense(state) @ u.conj().T for state in states]
    signals = np.empty((len(rhos), phase_steps), dtype=complex)
    for m in range(phase_steps):
        r = collective_rotation_diag(n, 2.0 * np.pi * m / phase_steps)
        r_left, r_right = r[:, None], np.conj(r)[None, :]
        for rho_t, signal in zip(rhos, signals):
            rotated = (r_left * rho_t) * r_right
            signal[m] = _check_finite_result(lambda: np.trace(rotated @ z_t) / dim, "trace overlap")
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


def _bit_reversal(labels: np.ndarray, n: int) -> np.ndarray:
    """Image of each n-bit basis label under the site reversal j -> n + 1 - j."""
    out = np.zeros_like(labels)
    for bit in range(n):
        out |= ((labels >> bit) & 1) << (n - 1 - bit)
    return out


def _reflection_halves(labels: np.ndarray, n: int, palindromic: bool) -> list[tuple]:
    """The orbit bases of one sector under the site reversal R: a list of
    (first, second, sign), one entry per non-empty half.

    Orbit vector i of a half is c_i (e_first_i + sign e_second_i), with first and
    second positions in ``labels`` (``_fold``). When the couplings are palindromic
    and R maps the sector onto itself, R commutes with H there, and the sector
    splits into an R-even half, (e_a + e_Ra)/sqrt2 for each pair a < Ra and e_f
    for each label f that R fixes, and an R-odd half, (e_a - e_Ra)/sqrt2.
    Otherwise the sector is one half, (all positions, None, 1): each orbit is
    one label.
    """
    mirror = _bit_reversal(labels, n)
    if not (palindromic and np.array_equal(np.sort(mirror), labels)):
        return [(np.arange(labels.size), None, 1)]
    partner = np.searchsorted(labels, mirror)
    even, odd = np.flatnonzero(labels <= mirror), np.flatnonzero(labels < mirror)
    return [(even, partner[even], 1)] + ([(odd, partner[odd], -1)] if odd.size else [])


def _fold(x: np.ndarray, first: np.ndarray, second: np.ndarray | None, sign: int) -> np.ndarray:
    """The block of x on the orbit vectors c_i (e_first_i + sign e_second_i).

    c_i = 1/2 where first_i == second_i (the vector is e_first_i) and 1/sqrt2
    otherwise. A sector that is one half (second None) is its own block: x.
    """
    if second is None:
        return x
    combine = np.add if sign > 0 else np.subtract
    scale = np.where(first == second, 0.5, np.sqrt(0.5))
    rows = x[first]
    combine(rows, x[second], out=rows)
    block = rows[:, first]
    combine(block, rows[:, second], out=block)
    block *= scale[:, None]
    block *= scale
    return block


def _mirror_pairs(spec: ChainSpec):
    """Per pair of conserved sectors k and n - k (k = 0..n // 2), one pair at a time:
    sector k's labels, its halves as (orbits, eigenpairs) with orbits from
    ``_reflection_halves``, and whether k != n - k.

    Only sector k's H block is built, on its labels alone, so no 2^n x 2^n array
    is ever formed. H is real in this basis under both models, xx and dq
    (checked exactly), so each half is diagonalised in real arithmetic. Sector
    n - k is sector k flipped (``conserved_sectors``), and its moments are read
    off sector k's, so it is neither built nor diagonalised.
    """
    n = spec.n
    sectors = conserved_sectors(spec)
    couplings = np.asarray(spec.couplings)
    palindromic = np.array_equal(couplings, couplings[::-1])
    for k in range(n // 2 + 1):
        h_k = build_hamiltonian(spec, sectors[k])
        if np.any(h_k.imag):
            raise UnsupportedModelError(f"{spec.model} Hamiltonian block is not real")
        halves = [
            (orbits, np.linalg.eigh(_fold(h_k.real, *orbits)))
            for orbits in _reflection_halves(sectors[k], n, palindromic)
        ]
        del h_k  # only the eigenpairs outlive the build
        yield sectors[k], halves, 2 * k != n


def _sector_moments(
    n: int, labels: np.ndarray, halves, states: Iterable[DeviationState], grid: np.ndarray
) -> np.ndarray:
    """Moments M_p(t) of one sector for each of ``states``: shape
    (len(states), len(grid), 2n + 1), column p + n.

    Each half (orbits, eigen) of ``_mirror_pairs`` is evolved on its own: at
    each time the entries (i, j) of rho_h(t) * Z_h(t)^T, with rho_h(0) the fold
    (``_fold``) of a state's block on ``labels`` and ``eigen`` the half's H
    eigenpairs, are summed by p = pop(i) - pop(j), the popcounts of the orbits'
    labels; only the real part is kept. R keeps popcount, so Z and the
    rotation are diagonal in the orbit basis. The R-odd part of rho, the
    part with R rho R = -rho, adds nothing: R commutes with U(t), Z and the
    rotation, so its trace equals its own negative, bin by bin. The folds keep
    only the R-even part, and need no split of the state. U(t) and Z_h(t) are
    formed once per time and shared by the states.
    """
    rhos = [deviation_to_dense(state, labels) for state in states]
    out = np.zeros((len(rhos), grid.size, 2 * n + 1))
    for orbits, eigen in halves:
        pop = popcount(labels[orbits[0]], n)
        bins = (pop[:, None] - pop[None, :] + n).ravel()
        z_h = n - 2.0 * pop
        blocks = [_fold(rho, *orbits) for rho in rhos]
        for i, t in enumerate(grid):
            u = _unitary(eigen, t)
            z_t = ((u * z_h) @ u.conj().T).T
            for rho_h, row in zip(blocks, out[:, i]):
                rho_t = u @ rho_h @ u.conj().T
                row += np.bincount(bins, (rho_t * z_t).real.ravel(), 2 * n + 1)
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
    costs one build and one eigh (``_mirror_pairs``). F negates every Z_j,
    hence Z and every order p, and F P F = (-1)^(#Y + #Z) P for a Pauli
    string P. The moments are linear in rho(0), which splits into parts
    rho_s with F rho_s F = s rho_s (``_flip_parts``); for each part, M_p of
    sector n - k is -s M_{-p} of sector k at every time. So only sector k is
    evolved, once per part with U(t) and Z_k(t) shared, and sector n - k
    costs no per-time work. Every prepared state has one part.

    When the couplings are a palindrome, the site reversal R commutes with H,
    and each sector that R maps onto itself splits into an R-even and an R-odd
    half (``_reflection_halves``): every sector under xx and under dq at odd
    n, only the middle one under dq at even n. Each half is diagonalised and
    evolved on its own; any other sector is one half, on the same path.

    Every argument is checked before any work, also for an empty grid.
    """
    grid, phase_steps, max_order = _check_protocol(spec, initial, times, phase_steps, max_order)
    n = spec.n
    orders = np.arange(-max_order, max_order + 1)
    if not grid.size:
        return np.zeros((0, orders.size))
    parts = _flip_parts(initial)
    moments = np.zeros((grid.size, 2 * n + 1))
    for labels, halves, mirrored in _mirror_pairs(spec):
        for sign, part in zip(parts, _sector_moments(n, labels, halves, parts.values(), grid)):
            moments += part
            if mirrored:
                moments -= sign * part[:, ::-1]
    moments /= 2**n
    # |p + q| <= n + max_order, so every N past 2 (n + max_order) folds only p = -q; the cap
    # gives the same mask and keeps N within int64
    steps = min(phase_steps, 2 * (n + max_order) + 1)
    fold = (np.arange(-n, n + 1)[:, None] + orders) % steps == 0
    return moments @ fold
