"""Logical-qubit encoding on end pairs and its transport correlations.

A logical qubit is encoded on the first two sites of the chain and read
out on the last two. For the flip-flop model the encoding uses the
zero-quantum pair {|01>, |10>}; for the double-quantum model it uses
{|00>, |11>}. Each encoding induces four logical observables (x, y, z
and the projector-like identity channel) whose transport correlations

    C_alpha(t) = 2 Tr[U sigma_alpha U^dag sigma_alpha'] / 2^n

measure how faithfully the mirrored pair reproduces the source operator
(primes denote the site-reflected target forms). All four reach 1
simultaneously at the engineered mirror time, and their average is the
entanglement fidelity of the transferred qubit, F(0) = 1/8 for an
unpolarised chain and F(t*) = 1 for perfect transfer.

Every correlation reduces to quadratic forms in single-excitation
amplitudes; closed forms specific to the homogeneous and engineered
families are provided alongside the general propagator path.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import (
    MODELS,
    ChainSpec,
    _check_choice,
    _check_finite_result,
    _check_length,
    _check_numeric,
    _check_scale,
    _check_time,
    normalized_time,
)
from .errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)
from .pauli import DeviationState
from .propagator import _sine_modes, homogeneous_amplitude, propagate, spectral_decompose

__all__ = [
    "CHANNELS",
    "logical_basis",
    "dq_parity_correction",
    "channel_correlations",
    "channel_fidelity",
    "logical_transport_homogeneous",
    "logical_transport_engineered",
    "entanglement_fidelity",
    "logical_correlation_from_spec",
]

CHANNELS = ("x", "y", "z", "1")


def _pair_observables(model: str, n: int, a: int, b: int) -> dict[str, DeviationState]:
    """The zero-quantum encoding on {|01>, |10>} (xx) or the double-quantum
    encoding on {|00>, |11>} (dq) on sites a, b."""
    model = _check_choice(model, "model", MODELS, UnsupportedModelError)
    h = -0.5 if model == "xx" else 0.5
    return {
        "x": DeviationState(n, ((0.5, ((a, "X"), (b, "X"))), (-h, ((a, "Y"), (b, "Y"))))),
        "y": DeviationState(n, ((0.5, ((a, "Y"), (b, "X"))), (h, ((a, "X"), (b, "Y"))))),
        "z": DeviationState(n, ((0.5, ((a, "Z"),)), (h, ((b, "Z"),)))),
        "1": DeviationState(n, ((0.5, ()), (h, ((a, "Z"), (b, "Z"))))),
    }


def logical_basis(model: str, n: int, pair: str = "source") -> dict[str, DeviationState]:
    """Logical observables on the source pair (1, 2) or target pair (n-1, n), by channel.

    Target observables are the site reflections of the source ones, so
    at perfect mirror transfer every source observable maps onto its
    target partner with unit correlation.
    """
    n = _check_length(n, minimum=2)
    pair = _check_choice(pair, "pair", ("source", "target"), InvalidConfigurationError)
    obs = _pair_observables(model, n, 1, 2)
    if pair == "source":
        return obs
    return {name: state.reflected() for name, state in obs.items()}


def dq_parity_correction(n: int) -> bool:
    """Whether double-quantum readout needs the pi-x target correction.

    The staggered gauge linking the two models flips the sign of the
    y and z logical channels when the chain length is even; conjugating
    the target observables by X_{n-1} X_n undoes the flip. Odd chains
    need no correction.
    """
    return _check_length(n, minimum=2) % 2 == 0


# -- correlations from amplitudes ---------------------------------------------


def _bilinear_channels(amp: np.ndarray) -> np.ndarray:
    """All four logical correlations from rows 1, 2 of A (xx model), stacked
    in ``CHANNELS`` order on a new first axis.

    ``amp`` has shape (..., R, n) with R >= 2; leading axes (a time grid,
    say) broadcast through.
    """
    n = amp.shape[-1]
    a1m, a1n = amp[..., 0, n - 2], amp[..., 0, n - 1]
    a2m, a2n = amp[..., 1, n - 2], amp[..., 1, n - 1]
    cx = (a1n * np.conj(a2m) + a2n * np.conj(a1m)).real
    cy = (a1n * np.conj(a2m)).real - (a2n * np.conj(a1m)).real
    cz = 0.5 * (abs(a1n) ** 2 - abs(a1m) ** 2 - abs(a2n) ** 2 + abs(a2m) ** 2)
    c1 = 0.5 * (1.0 + abs(a1m * a2n - a1n * a2m) ** 2)
    return np.stack([cx, cy, cz, c1])


def _readout(vals: dict, n: int, model: str, corrected: bool) -> dict:
    """Channels as read out under ``model``: raw dq on even n flips y and z."""
    model = _check_choice(model, "model", MODELS, UnsupportedModelError)
    if model == "dq" and not corrected and dq_parity_correction(n):
        vals["y"] = -vals["y"]
        vals["z"] = -vals["z"]
    return vals


def channel_correlations(
    amplitudes: np.ndarray, model: str = "xx", corrected: bool = True
) -> dict[str, np.ndarray]:
    """Channel correlations C_alpha from rows 1 and 2 of the propagator.

    ``amplitudes`` holds A[(1, 2), :] (or more rows, of which the first
    two are used) with any leading axes, e.g. the (T, 2, n) block that
    ``propagate_grid(decomposition, times, (1, 2))`` returns; each
    channel comes back with the leading shape. For the dq model with
    even n the raw y and z channels change sign; ``corrected=True``
    reads them through the pi-x corrected target basis, where they agree
    with the xx channels at all times. A block that is not numeric and
    finite, or a channel past the float range, is an ``InvalidParameterError``.
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.ndim < 2 or amplitudes.shape[-2] < 2 or amplitudes.shape[-1] < 4:
        raise InvalidDimensionError(
            f"logical transport needs rows 1, 2 of A with n >= 4, got shape {amplitudes.shape}"
        )
    _check_numeric(amplitudes)
    channels = _check_finite_result(lambda: _bilinear_channels(amplitudes), "channel correlation")
    return _readout(dict(zip(CHANNELS, channels)), amplitudes.shape[-1], model, corrected)


def channel_fidelity(vals: dict) -> float | np.ndarray:
    """Entanglement fidelity F = (C_1 + C_x + C_y + C_z) / 4 from the channels."""
    return (vals["1"] + vals["x"] + vals["y"] + vals["z"]) / 4.0


def logical_transport_homogeneous(n: int, d: float, alpha: str, t: float) -> float:
    """Closed-form channel correlation for the uniform chain.

    x and y are double sums over the sine modes,

        C_x = 2/(n+1)^2 sum_{k,h} (-1)^(k+h) cos((w_h - w_k) t) B_{kh}
        C_y = 2(-1)^(n+1)/(n+1)^2 sum_{k,h} (-1)^(k+h) cos((w_h + w_k) t) B_{kh}

    with B_{kh} = [sin(2 kappa_h) sin(kappa_k) + sin(kappa_h) sin(2 kappa_k)]^2,
    while z and the identity channel combine end transfer amplitudes.
    """
    _check_choice(alpha, "channel", CHANNELS, InvalidConfigurationError)
    n, d, kappa, w = _sine_modes(n, d, minimum=4)
    t = _check_time(t, 4.0 * d)  # |w_h + w_k| <= 4 d
    if alpha in ("x", "y"):
        k = np.arange(1, n + 1)
        bracket = (
            np.sin(2 * kappa)[None, :] * np.sin(kappa)[:, None]
            + np.sin(kappa)[None, :] * np.sin(2 * kappa)[:, None]
        ) ** 2
        sign = (-1.0) ** (k[:, None] + k[None, :])
        if alpha == "x":
            osc = np.cos((w[None, :] - w[:, None]) * t)
            return float(2.0 / (n + 1) ** 2 * np.sum(sign * osc * bracket))
        osc = np.cos((w[None, :] + w[:, None]) * t)
        return float(
            2.0 * (-1.0) ** (n + 1) / (n + 1) ** 2 * np.sum(sign * osc * bracket)
        )
    a1m = homogeneous_amplitude(n, d, 1, n - 1, t)
    a1n = homogeneous_amplitude(n, d, 1, n, t)
    a2m = homogeneous_amplitude(n, d, 2, n - 1, t)
    a2n = homogeneous_amplitude(n, d, 2, n, t)
    if alpha == "z":
        return float(
            0.5 * (abs(a1n) ** 2 - abs(a1m) ** 2 - abs(a2n) ** 2 + abs(a2m) ** 2)
        )
    return float(0.5 * (1.0 + abs(a1m * a2n - a1n * a2m) ** 2))


def logical_transport_engineered(n: int, d: float, alpha: str, t: float) -> float:
    """Closed-form channel correlation for the parabolic-profile chain.

    With s = sin(tau), c = cos(tau), tau = 2 d t / n:

        C_x = s^(2(n-2))
        C_y = s^(2(n-2)) (1 - 2(n-1) c^2)
        C_z = [s^(2(n-3)) ((n-1)c^2 - 1)^2 + s^(2(n-1))
               - 2(n-1) c^2 s^(2(n-2))] / 2
        C_1 = (1 + s^(4(n-2))) / 2

    All four equal 1 at tau = pi/2, so F(t*) = 1.
    """
    _check_choice(alpha, "channel", CHANNELS, InvalidConfigurationError)
    n = _check_length(n, minimum=4)
    d = _check_scale(d)
    tau = normalized_time(n, d, _check_time(t, 2.0 * d))
    s2 = math.sin(tau) ** 2
    c2 = math.cos(tau) ** 2
    if alpha == "x":
        return s2 ** (n - 2)
    if alpha == "y":
        return s2 ** (n - 2) * (1.0 - 2.0 * (n - 1) * c2)
    if alpha == "z":
        return 0.5 * (
            s2 ** (n - 3) * ((n - 1) * c2 - 1.0) ** 2
            + s2 ** (n - 1)
            - 2.0 * (n - 1) * c2 * s2 ** (n - 2)
        )
    return 0.5 * (1.0 + s2 ** (2 * (n - 2)))


def entanglement_fidelity(
    n: int,
    d: float,
    family: str,
    t: float,
    model: str = "xx",
    corrected: bool = True,
) -> float:
    """Average channel correlation F = (C_1 + C_x + C_y + C_z) / 4.

    F is the entanglement fidelity of the end-to-end logical transfer:
    1 at perfect mirror transfer, 1/8 at t = 0 (only the identity
    channel survives, at 1/2). For the dq model on even chains the
    uncorrected readout loses the y and z channels at the mirror time,
    pinning F near zero there; the parity correction restores it.
    """
    family = _check_choice(family, "family", ("homogeneous", "engineered"), UnsupportedFamilyError)
    if family == "homogeneous":
        vals = {a: logical_transport_homogeneous(n, d, a, t) for a in CHANNELS}
    else:
        vals = {a: logical_transport_engineered(n, d, a, t) for a in CHANNELS}
    return channel_fidelity(_readout(vals, n, model, corrected))


def logical_correlation_from_spec(
    spec: ChainSpec, alpha: str, t: float, corrected: bool = True
) -> float:
    """Channel correlation for an arbitrary nearest-neighbour chain spec."""
    _check_choice(alpha, "channel", CHANNELS, InvalidConfigurationError)
    amp = propagate(spectral_decompose(spec), t)
    return float(channel_correlations(amp, spec.model, corrected)[alpha])
