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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainSpec,
    _check_choice,
    _check_int,
    _check_length,
    _check_scale,
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
from .propagator import _end_block

__all__ = [
    "PREPARED_KINDS",
    "MqcSpectrum",
    "prepare_state",
    "mqc_z_analytic",
    "mqc_y_analytic",
    "mqc_x_analytic",
    "mqc_analytic",
    "mqc_propagator_grid",
    "mqc_phase_cycled",
    "mqc_phase_cycled_grid",
]

PREPARED_KINDS = ("z_ends", "y_logical", "x_logical", "full_z")


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

    def total(self) -> float:
        """Sum of the computed intensities."""
        return float(sum(self.intensities))


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


def _homogeneous_modes(
    n: int, d: float, minimum: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Checked d, sine modes kappa_k and frequencies 2 d cos(kappa_k) of the uniform n-chain."""
    n = _check_length(n, minimum)
    d = _check_scale(d)
    kappa = np.pi * np.arange(1, n + 1) / (n + 1)
    return d, kappa, 2.0 * d * np.cos(kappa)


def mqc_z_analytic(n: int, d: float, t: float) -> MqcSpectrum:
    """Coherence intensities for z_ends on the homogeneous dq chain.

    J_0    = 2/(n+1) sum_k sin^2(kappa_k) cos^2(2 w_k t)
    J_{+-2} = 1/(n+1) sum_k sin^2(kappa_k) sin^2(2 w_k t)

    normalised so the total is 1 (J_0(0) = 1). No other order appears.
    """
    d, kappa, w = _homogeneous_modes(n, d, minimum=2)
    t = _check_time(t, 4.0 * d)
    s2 = np.sin(kappa) ** 2
    j0 = 2.0 / (n + 1) * float(np.sum(s2 * np.cos(2 * w * t) ** 2))
    j2 = 1.0 / (n + 1) * float(np.sum(s2 * np.sin(2 * w * t) ** 2))
    return MqcSpectrum(t, (-2, 0, 2), (j2, j0, j2))


def mqc_y_analytic(n: int, d: float, t: float) -> MqcSpectrum:
    """Coherence intensities for y_logical on the homogeneous dq chain.

    J_0    =  2/(n+1) sum_k sin(kappa_k) sin(2 kappa_k) sin(4 w_k t)
    J_{+-2} = -J_0 / 2

    in the raw (unnormalised) convention of the cycling protocol; the
    total vanishes because the prepared state is orthogonal to Z.
    """
    d, kappa, w = _homogeneous_modes(n, d, minimum=4)
    t = _check_time(t, 8.0 * d)
    weight = np.sin(kappa) * np.sin(2 * kappa)
    j0 = 2.0 / (n + 1) * float(np.sum(weight * np.sin(4 * w * t)))
    j2 = 1.0 / (n + 1) * float(np.sum(weight * np.sin(4 * w * t + np.pi)))
    return MqcSpectrum(t, (-2, 0, 2), (j2, j0, j2))


def mqc_x_analytic(n: int, d: float, t: float) -> MqcSpectrum:
    """x_logical gives no signal: the protocol's readout is blind to it."""
    d = _homogeneous_modes(n, d, minimum=4)[0]
    t = _check_time(t, 8.0 * d)  # the times mqc_y_analytic accepts
    return MqcSpectrum(t, (-2, 0, 2), (0.0, 0.0, 0.0))


_ANALYTIC = {
    "z_ends": mqc_z_analytic,
    "y_logical": mqc_y_analytic,
    "x_logical": mqc_x_analytic,
}


def mqc_analytic(n: int, d: float, kind: str, t: float) -> MqcSpectrum:
    """Dispatch to the closed-form series for one prepared kind."""
    kind = _check_choice(kind, "kind", tuple(_ANALYTIC), InvalidConfigurationError)
    return _ANALYTIC[kind](n, d, t)


def mqc_propagator_grid(spec: ChainSpec, kind: str, times) -> tuple[MqcSpectrum, ...]:
    """Raw intensities of ``mqc_phase_cycled_grid`` from the end block of A(4t).

    The odd-site X gauge maps a bipartite dq chain onto free fermions, so
    for any nearest-neighbour dq chain, with A from ``_end_block`` (every
    argument is checked before any work, also for an empty grid):

        z_ends:    J_0 = sum_{j in 1, n} (1 + Re A_jj) / 2,  J_+-2 = sum (1 - Re A_jj) / 4
        y_logical: J_0 = -(Im A_12 + Im A_{n-1,n}) / 2,      J_+-2 = -J_0 / 2
        x_logical: every J_q is exactly 0 (checked as y_logical, on the same sites).
    """
    _check_choice(spec.model, "model", ("dq",), UnsupportedModelError)
    _check_choice(kind, "kind", tuple(_ANALYTIC), InvalidConfigurationError)
    grid = _check_times(times, 4.0)
    amp = _end_block(spec, "z_ends" if kind == "z_ends" else "y_logical", 4.0 * grid)
    if kind == "z_ends":
        ends = amp[:, (0, 1), (0, 1)].real
        j0, j2 = (1.0 + ends).sum(axis=1) / 2.0, (1.0 - ends).sum(axis=1) / 4.0
    elif kind == "y_logical":
        j0 = -(amp[:, 0, 1].imag + amp[:, 2, 3].imag) / 2.0
        j2 = -j0 / 2.0
    else:
        j0 = j2 = np.zeros(grid.size)
    rows = zip(grid.tolist(), j0.tolist(), j2.tolist())
    return tuple(MqcSpectrum(t, (-2, 0, 2), (b, a, b)) for t, a, b in rows)


def mqc_phase_cycled(
    spec: ChainSpec,
    initial: DeviationState,
    t: float,
    phase_steps: int = 8,
    max_order: int = 2,
) -> MqcSpectrum:
    """Full phase-cycling protocol on dense operators.

    Requires phase_steps > 2 * max_order so no populated order can
    alias onto a reported one. Returns raw intensities; their sum over
    all orders equals the conserved overlap Tr[initial Z] / 2^n.
    """
    grid, phase_steps, max_order = _check_protocol(spec, initial, [t], phase_steps, max_order)
    t = float(grid[0])
    u = _unitary(np.linalg.eigh(build_hamiltonian(spec)), t)
    return _cycle(u, (initial,), t, phase_steps, max_order)[0]


def _cycle(
    u: np.ndarray, states: Sequence[DeviationState], t: float, phase_steps: int, max_order: int
) -> tuple[MqcSpectrum, ...]:
    """The literal cycle of ``mqc_phase_cycled`` for each of ``states`` under one U(t).

    Z(t) = U Z U^dag is formed once and shared; the arguments are already checked.
    """
    n = states[0].n
    z_t = u @ total_z(n) @ u.conj().T
    phis = 2.0 * np.pi * np.arange(phase_steps) / phase_steps
    orders = tuple(range(-max_order, max_order + 1))
    spectra = []
    for state in states:
        rho_t = u @ deviation_to_dense(state) @ u.conj().T
        signals = np.empty(phase_steps, dtype=complex)
        for m in range(phase_steps):
            phi = 2.0 * np.pi * m / phase_steps
            r = collective_rotation_diag(n, phi)
            rotated = (r[:, None] * rho_t) * np.conj(r)[None, :]
            signals[m] = trace_overlap(rotated, z_t)
        intensities = tuple(
            float((np.exp(1j * q * phis) @ signals).real / phase_steps) for q in orders
        )
        spectra.append(MqcSpectrum(t, orders, intensities))
    return tuple(spectra)


def _check_protocol(
    spec: ChainSpec, initial: DeviationState, times, phase_steps: int, max_order: int
) -> tuple[np.ndarray, int, int]:
    """Every argument of the dense protocol, checked first: (grid, phase_steps, max_order)."""
    n = require_within_budget(spec.n)
    if initial.n != n:
        raise InvalidDimensionError(
            f"state on {initial.n} sites does not match chain n={n}"
        )
    phase_steps = _check_int(phase_steps, "phase_steps", InvalidParameterError)
    max_order = _check_int(max_order, "max_order", InvalidParameterError, minimum=0)
    if phase_steps <= 2 * max_order:
        raise AliasingError(
            f"phase_steps={phase_steps} cannot resolve orders up to "
            f"{max_order}; need phase_steps > {2 * max_order}"
        )
    # every model has ||H|| <= 2 sum |d|, which bounds each phase E t
    grid = _check_times(times, 2.0 * float(np.sum(np.abs(spec.couplings))))
    return grid, phase_steps, max_order


def _sector_blocks(spec: ChainSpec, initial: DeviationState):
    """Per conserved sector: eigenpairs of H, the block of rho(0), Z and order bins.

    Order bins index pop(a) - pop(b) + n over the block's (a, b) entries.
    """
    n = spec.n
    sectors = conserved_sectors(spec)
    h = build_hamiltonian(spec)
    eigen = [np.linalg.eigh(h[np.ix_(labels, labels)]) for labels in sectors]
    del h  # keep one dense 2^n x 2^n matrix alive at a time
    rho0 = deviation_to_dense(initial)
    blocks = []
    for labels, eigen_k in zip(sectors, eigen):
        pop = popcount(labels, n)
        bins = (pop[:, None] - pop[None, :] + n).ravel()
        blocks.append((eigen_k, rho0[np.ix_(labels, labels)], n - 2.0 * pop, bins))
    return blocks


def mqc_phase_cycled_grid(
    spec: ChainSpec,
    initial: DeviationState,
    times,
    phase_steps: int = 8,
    max_order: int = 2,
) -> tuple[MqcSpectrum, ...]:
    """``mqc_phase_cycled`` at every time of ``times``, one spectrum each.

    H is block-diagonal in a conserved charge (``conserved_sectors``),
    and so are U(t) and Z(t); R_phi is diagonal. Tr[R rho(t) R^dag Z(t)]
    therefore reads only the diagonal blocks of rho(t), and the rotation
    multiplies entry (a, b) by exp(i q phi) with q = pop(a) - pop(b).
    Each block is diagonalised once; at each time the entries of
    rho_k(t) * Z_k(t)^T are summed by q into moments M_q, and
    S(phi_m) = sum_q M_q exp(i q phi_m) goes through the literal cycle's
    N phases and J_q sums, so any aliasing of the N-step cycle is kept.

    Every argument is checked before any work, also for an empty grid.
    """
    grid, phase_steps, max_order = _check_protocol(spec, initial, times, phase_steps, max_order)
    n = spec.n
    if not grid.size:
        return ()
    width = 2 * n + 1
    moments = np.zeros((grid.size, width), dtype=complex)
    for eigen, rho_k, z_k, bins in _sector_blocks(spec, initial):
        for i, t in enumerate(grid):
            u = _unitary(eigen, t)
            rho_t = u @ rho_k @ u.conj().T
            z_t = (u * z_k) @ u.conj().T
            overlap = (rho_t * z_t.T).ravel()
            moments[i] += np.bincount(bins, overlap.real, width)
            moments[i] += 1j * np.bincount(bins, overlap.imag, width)
    moments /= 2**n
    phis = 2.0 * np.pi * np.arange(phase_steps) / phase_steps
    signals = moments @ np.exp(1j * np.outer(np.arange(-n, n + 1), phis))
    orders = tuple(range(-max_order, max_order + 1))
    intensities = (signals @ np.exp(1j * np.outer(phis, orders))).real / phase_steps
    return tuple(
        MqcSpectrum(float(t), orders, tuple(float(v) for v in row))
        for t, row in zip(grid, intensities)
    )
