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
amplitudes. Closed forms specific to the homogeneous and engineered
families check the general propagator path: each takes a time grid and
returns all four channels in the layout of ``channel_correlations``.
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
    _check_time,
    _check_times,
    normalized_time,
)
from .errors import (
    InvalidConfigurationError,
    InvalidDimensionError,
    UnsupportedModelError,
)
from .pauli import DeviationState
from .propagator import _sine_modes, homogeneous_amplitude, propagate_grid, spectral_decompose

__all__ = [
    "CHANNELS",
    "logical_basis",
    "dq_parity_correction",
    "channel_correlations",
    "channel_fidelity",
    "logical_transport_homogeneous",
    "logical_transport_engineered",
    "logical_correlation_from_spec",
]

CHANNELS = ("x", "y", "z", "1")


def logical_basis(model: str, n: int, pair: str = "source") -> dict[str, DeviationState]:
    """Logical observables on the source pair (1, 2) or target pair (n-1, n), by channel.

    Target observables are the site reflections of the source ones, so
    at perfect mirror transfer every source observable maps onto its
    target partner with unit correlation. The xx model uses the
    zero-quantum encoding on {|01>, |10>}, the dq model the
    double-quantum encoding on {|00>, |11>}.
    """
    n = _check_length(n, minimum=2)
    pair = _check_choice(pair, "pair", ("source", "target"), InvalidConfigurationError)
    model = _check_choice(model, "model", MODELS, UnsupportedModelError)
    h = -0.5 if model == "xx" else 0.5
    obs = {
        "x": DeviationState(n, ((0.5, ((1, "X"), (2, "X"))), (-h, ((1, "Y"), (2, "Y"))))),
        "y": DeviationState(n, ((0.5, ((1, "Y"), (2, "X"))), (h, ((1, "X"), (2, "Y"))))),
        "z": DeviationState(n, ((0.5, ((1, "Z"),)), (h, ((2, "Z"),)))),
        "1": DeviationState(n, ((0.5, ()), (h, ((1, "Z"), (2, "Z"))))),
    }
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
    model = _check_choice(model, "model", MODELS, UnsupportedModelError)
    amplitudes = np.asarray(amplitudes)
    if amplitudes.ndim < 2 or amplitudes.shape[-2] < 2 or amplitudes.shape[-1] < 4:
        raise InvalidDimensionError(
            f"logical transport needs rows 1, 2 of A with n >= 4, got shape {amplitudes.shape}"
        )
    _check_numeric(amplitudes)
    x, y, z, one = _check_finite_result(
        lambda: _bilinear_channels(amplitudes), "channel correlation"
    )
    if model == "dq" and not corrected and dq_parity_correction(amplitudes.shape[-1]):
        y, z = -y, -z
    return dict(zip(CHANNELS, (x, y, z, one)))


def channel_fidelity(vals: dict) -> float | np.ndarray:
    """Entanglement fidelity F = (C_1 + C_x + C_y + C_z) / 4 from the channels."""
    return (vals["1"] + vals["x"] + vals["y"] + vals["z"]) / 4.0


def _by_channel(rows) -> dict[str, np.ndarray]:
    """{channel: (T,) array} from T rows that hold the channels in ``CHANNELS`` order."""
    return dict(zip(CHANNELS, np.array(rows, dtype=float).reshape(-1, len(CHANNELS)).T))


def logical_transport_homogeneous(n: int, d: float, times) -> dict[str, np.ndarray]:
    """Closed-form channel correlations for the uniform chain on a time grid.

    x and y are double sums over the sine modes,

        C_x = 2/(n+1)^2 sum_{k,h} (-1)^(k+h) cos((w_h - w_k) t) B_{kh}
        C_y = 2(-1)^(n+1)/(n+1)^2 sum_{k,h} (-1)^(k+h) cos((w_h + w_k) t) B_{kh}

    with B_{kh} = [sin(2 kappa_h) sin(kappa_k) + sin(kappa_h) sin(2 kappa_k)]^2,
    while z and the identity channel combine the end transfer amplitudes
    of one ``homogeneous_amplitude`` block. Returns {channel: (len(times),)
    array} for every channel, the layout of ``channel_correlations``; each
    time is summed on its own, n^2 floats at a time, with the amplitudes'
    products in Python complex arithmetic, which numpy's can differ from in the last bit.
    """
    n, d, kappa, w = _sine_modes(n, d, minimum=4)
    times = _check_times(times, 4.0 * d)  # |w_h + w_k| <= 4 d
    k = np.arange(1, n + 1)
    bracket = (
        np.sin(2 * kappa)[None, :] * np.sin(kappa)[:, None]
        + np.sin(kappa)[None, :] * np.sin(2 * kappa)[:, None]
    ) ** 2
    sign = (-1.0) ** (k[:, None] + k[None, :])
    gaps, sums = w[None, :] - w[:, None], w[None, :] + w[:, None]
    ends = homogeneous_amplitude(n, d, times, (1, 2), (n - 1, n))
    return _by_channel([
        (
            2.0 / (n + 1) ** 2 * np.sum(sign * np.cos(gaps * t) * bracket),
            2.0 * (-1.0) ** (n + 1) / (n + 1) ** 2 * np.sum(sign * np.cos(sums * t) * bracket),
            0.5 * (abs(a1n) ** 2 - abs(a1m) ** 2 - abs(a2n) ** 2 + abs(a2m) ** 2),
            0.5 * (1.0 + abs(a1m * a2n - a1n * a2m) ** 2),
        )
        for t, ((a1m, a1n), (a2m, a2n)) in zip(times.tolist(), ends.tolist())
    ])


def logical_transport_engineered(n: int, d: float, times) -> dict[str, np.ndarray]:
    """Closed-form channel correlations for the parabolic-profile chain on a time grid.

    With s = sin(tau), c = cos(tau), tau = 2 d t / n:

        C_x = s^(2(n-2))
        C_y = s^(2(n-2)) (1 - 2(n-1) c^2)
        C_z = [s^(2(n-3)) ((n-1)c^2 - 1)^2 + s^(2(n-1))
               - 2(n-1) c^2 s^(2(n-2))] / 2
        C_1 = (1 + s^(4(n-2))) / 2

    All four equal 1 at tau = pi/2, so F(t*) = 1. Returns {channel:
    (len(times),) array}, the layout of ``channel_correlations``, each time
    in Python floats: numpy's vectorised ``**`` can differ from them in the last bit.
    """
    n = _check_length(n, minimum=4)
    rows = []
    for tau in normalized_time(n, d, times).tolist():
        s2, c2 = math.sin(tau) ** 2, math.cos(tau) ** 2
        x = s2 ** (n - 2)
        z = s2 ** (n - 3) * ((n - 1) * c2 - 1.0) ** 2 + s2 ** (n - 1) - 2.0 * (n - 1) * c2 * x
        rows.append((x, x * (1.0 - 2.0 * (n - 1) * c2), 0.5 * z, 0.5 * (1.0 + s2 ** (2 * (n - 2)))))
    return _by_channel(rows)


def logical_correlation_from_spec(
    spec: ChainSpec, alpha: str, t: float, corrected: bool = True
) -> float:
    """Channel correlation for an arbitrary nearest-neighbour chain spec at one time.

    Reads rows 1, 2 of ``propagate_grid`` at [t], the path of the CLI's
    ``logical`` tables. Every mode frequency lies within 2 max|d|, so t is
    held to that rate before the chain is decomposed.
    """
    _check_choice(alpha, "channel", CHANNELS, InvalidConfigurationError)
    t = _check_time(t, 2.0 * float(np.max(np.abs(spec.couplings), initial=0.0)))
    amp = propagate_grid(spectral_decompose(spec), [t], (1, 2))[0]
    return float(channel_correlations(amp, spec.model, corrected)[alpha])
