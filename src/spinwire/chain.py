"""Chain geometry, coupling families, and transfer timing.

A chain is n spins on a line with nearest-neighbour couplings, under the
flip-flop model ``xx`` or the double-quantum model ``dq``. Couplings are
angular frequencies; time is dimensionless against 1/d.

The two closed-form families:

* ``homogeneous``: d_j = d for all bonds.
* ``engineered``:  d_j = 2 d sqrt(j (n - j)) / n, the parabolic profile
  whose single-excitation spectrum is exactly linear and which therefore
  acts as a perfect mirror at t* = pi n / (4 d).

The normalised time for the engineered family is tau = 2 d t / n, so the
mirror sits at tau = pi/2 and the end-to-end probability follows
sin(tau)^(2(n-1)).
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)

__all__ = [
    "ChainSpec",
    "TransferTiming",
    "homogeneous_couplings",
    "engineered_couplings",
    "dipolar_couplings",
    "implant_spacings",
    "perturb_couplings",
    "transfer_timing",
    "normalized_time",
]

MODELS = ("xx", "dq")
FAMILIES = ("homogeneous", "engineered", "dipolar")

_JSON_SCHEMA = "spinwire.chain/1"


def _check_int(value, name: str, error: type, minimum: int | None = None) -> int:
    """An int or NumPy integer, not a bool, at least ``minimum``; else ``error``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(value, name: str, error: type) -> float:
    """A real number or NumPy real, not a bool, finite, as a float; else ``error``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return value


def _check_reals(values, name: str, error: type) -> np.ndarray:
    """A one-dimensional sequence of reals, each by ``_check_real``, as a float array.

    An ndarray of integer or float dtype is checked whole, without a loop.
    """
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise error(f"{name} must be one-dimensional, got shape {values.shape}")
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        grid = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise error(f"{name} must be finite, got {grid[~np.isfinite(grid)][0]}")
        return grid
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise error(f"{name} must be a sequence of real numbers, got {values!r}")
    return np.array([_check_real(v, name, error) for v in values], dtype=float)


def _check_number(value, name: str, error: type) -> complex:
    """A complex number or NumPy number, not a bool, with each part by ``_check_real``."""
    if not isinstance(value, numbers.Complex) or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    return complex(_check_real(value.real, name, error), _check_real(value.imag, name, error))


def _check_finite_result(compute, name: str):
    """``compute()`` run with float overflow silenced; a result with a non-finite
    entry, or a Python float operation that raises ``OverflowError`` on the way,
    raises ``InvalidParameterError``, so finite operands that overflow never warn."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = compute()
    except OverflowError:
        value = math.inf
    if not np.all(np.isfinite(value)):
        raise InvalidParameterError(f"{name} overflows the float range")
    return value


def _check_pairs(values, name: str, error: type) -> list[tuple]:
    """A sequence of pairs, as a list of 2-tuples; else ``error``."""
    try:
        return [(a, b) for a, b in values]
    except (TypeError, ValueError):
        raise error(f"{name} must be a sequence of pairs, got {values!r}") from None


def _check_choice(value, name: str, choices: tuple[str, ...], error: type) -> str:
    """A str among ``choices``; else ``error``."""
    if not isinstance(value, str) or value not in choices:
        raise error(f"{name} must be one of {choices}, got {value!r}")
    return value


def _check_length(n: int, minimum: int = 1) -> int:
    """A chain length: an integer of at least ``minimum``."""
    return _check_int(n, "chain length", InvalidDimensionError, minimum)


def _check_couplings(values) -> tuple[float, ...]:
    """Coupling values: finite reals, as a tuple of floats."""
    return tuple(_check_reals(values, "couplings", InvalidParameterError).tolist())


def _check_scale(d: float) -> float:
    """A coupling scale: a finite real, positive."""
    d = _check_real(d, "coupling scale", InvalidParameterError)
    if d <= 0:
        raise InvalidParameterError(f"coupling scale must be positive, got {d}")
    return d


def _check_site(n: int, j: int) -> int:
    """One 1-based site of an n-site chain, as an int."""
    j = _check_int(j, "site index", InvalidConfigurationError)
    if j < 1 or j > n:
        raise IndexOutOfRangeError(f"site {j} outside 1..{n}")
    return j


def _check_sites(n: int, sites, increasing: bool = True) -> tuple[int, ...]:
    """1-based sites of an n-site chain, each through ``_check_site``; strictly
    increasing unless ``increasing`` is false."""
    if not isinstance(sites, Iterable):
        raise InvalidConfigurationError(f"sites must be a sequence of ints, got {sites!r}")
    out = tuple(_check_site(n, j) for j in sites)
    if increasing and any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidConfigurationError(f"sites must be strictly increasing, got {out!r}")
    return out


# a float phase w t is off by about |w t| 2^-53, so past 2^32 rad the error in
# exp(-i w t) can pass ~1e-6
_MAX_PHASE = 2.0**32


def _check_times(times, rate: float) -> np.ndarray:
    """A one-dimensional grid of finite real times, as a float array.

    ``rate`` bounds every |w| that the caller multiplies a time by; a grid
    whose phase rate * |t| exceeds ``_MAX_PHASE`` or overflows is rejected
    before any phase is formed, so nothing warns.
    """
    grid = _check_reals(times, "times", InvalidParameterError)
    peak = float(np.max(np.abs(grid), initial=0.0))
    if not peak * float(rate) <= _MAX_PHASE:
        raise InvalidParameterError(
            f"phase {float(rate):g} * {peak:g} exceeds {_MAX_PHASE:g} rad: time out of range"
        )
    return grid


def _check_time(t: float, rate: float) -> float:
    """One finite real time, through ``_check_times``."""
    return float(_check_times([t], rate)[0])


def _check_numeric(op: np.ndarray) -> None:
    """An ndarray of numeric dtype (integer, real or complex) with finite entries."""
    if op.dtype.kind not in "iufc":
        raise InvalidParameterError(f"operands must be numeric, got dtype {op.dtype}")
    if not np.all(np.isfinite(op)):
        raise InvalidParameterError("operands must have finite entries")


def _check_square(*operands: np.ndarray) -> int:
    """Operands that are non-empty square 2-d ndarrays of one shape, each by
    ``_check_numeric``: their dimension."""
    shapes = [op.shape if isinstance(op, np.ndarray) else None for op in operands]
    dim = shapes[0][0] if shapes[0] else 0
    if dim < 1 or any(shape != (dim, dim) for shape in shapes):
        raise InvalidDimensionError(
            f"operands must be equal non-empty square ndarrays, got shapes {shapes}"
        )
    for op in operands:
        _check_numeric(op)
    return dim


def _check_seed(seed: int) -> int:
    """A random seed: a non-negative integer."""
    return _check_int(seed, "seed", InvalidParameterError, minimum=0)


@dataclass(frozen=True)
class ChainSpec:
    """Immutable chain description.

    Attributes
    ----------
    n : int
        Number of sites.
    model : str
        ``xx`` (flip-flop) or ``dq`` (double quantum).
    couplings : tuple of float
        Bond couplings d_1..d_{n-1}.
    """

    n: int
    model: str
    couplings: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _check_length(self.n))
        _check_choice(self.model, "model", MODELS, UnsupportedModelError)
        vals = _check_couplings(self.couplings)
        if len(vals) != self.n - 1:
            raise InvalidConfigurationError(
                f"a chain of n={self.n} needs {self.n - 1} couplings, got {len(vals)}"
            )
        object.__setattr__(self, "couplings", vals)

    # -- views -------------------------------------------------------------

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric tridiagonal n x n coupling matrix (zero diagonal)."""
        mat = np.zeros((self.n, self.n))
        for j, c in enumerate(self.couplings):
            mat[j, j + 1] = mat[j + 1, j] = c
        return mat

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> str:
        """Serialise to a stable JSON document with keys n, model, couplings."""
        return json.dumps(
            {
                "n": self.n,
                "model": self.model,
                "couplings": list(self.couplings),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        """Inverse of :meth:`to_json`; validates the payload.

        Text that is not a JSON document (not a str or bytes, undecodable
        bytes, bad syntax, nesting past the recursion limit) raises
        ``InvalidConfigurationError``.
        """
        try:
            data = json.loads(text)
        except (ValueError, TypeError, RecursionError) as exc:
            raise InvalidConfigurationError(f"invalid chain JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidConfigurationError("chain JSON must be an object")
        # tolerate an optional schema tag on input for forward compatibility
        schema = data.get("schema", _JSON_SCHEMA)
        if schema != _JSON_SCHEMA:
            raise InvalidConfigurationError(f"unknown chain schema {schema!r}")
        missing = {"n", "model", "couplings"} - set(data)
        if missing:
            raise InvalidConfigurationError(f"chain JSON missing {sorted(missing)}")
        if not isinstance(data["couplings"], list):
            raise InvalidConfigurationError("chain JSON couplings must be a list")
        return cls(data["n"], data["model"], data["couplings"])


@dataclass(frozen=True)
class TransferTiming:
    """Mirror time and end-to-end group velocity of an engineered chain."""

    t_star: float
    group_velocity: float


# -- coupling families --------------------------------------------------------


def homogeneous_couplings(n: int, d: float = 1.0, model: str = "xx") -> ChainSpec:
    """Uniform chain: every bond equals d."""
    _check_length(n)
    d = _check_scale(d)
    return ChainSpec(n, model, (d,) * (n - 1))


def engineered_couplings(n: int, d: float = 1.0, model: str = "xx") -> ChainSpec:
    """Parabolic profile d_j = 2 d sqrt(j (n - j)) / n.

    The largest bond (at the chain centre) approaches d from below and
    equals d exactly for even n.
    """
    _check_length(n, minimum=2)
    d = _check_scale(d)
    j = np.arange(1, n)
    return ChainSpec(n, model, 2.0 * d * np.sqrt(j * (n - j)) / n)


def implant_spacings(n: int, r_min: float = 1.0) -> np.ndarray:
    """Site positions whose inverse-cube couplings follow the parabolic profile.

    Bond lengths r_{j,j+1} = r_min (n/2)^(1/3) / (j (n - j))^(1/6) make
    1/r^3 proportional to sqrt(j (n - j)), i.e. dipolar nearest-neighbour
    couplings between implanted sites reproduce engineered_couplings up
    to an overall scale. The shortest bond is r_min (attained at the
    centre for even n). Returns n absolute positions starting at 0.
    """
    _check_length(n, minimum=2)
    r_min = _check_real(r_min, "r_min", InvalidParameterError)
    if r_min <= 0:
        raise InvalidParameterError(f"r_min must be positive, got {r_min}")
    j = np.arange(1, n)
    with np.errstate(over="ignore"):
        gaps = r_min * (n / 2.0) ** (1.0 / 3.0) / (j * (n - j)) ** (1.0 / 6.0)
        positions = np.concatenate(([0.0], np.cumsum(gaps)))
    if not math.isfinite(positions[-1]):
        raise InvalidParameterError(f"r_min {r_min:g} puts the chain end past the float range")
    return positions


def dipolar_couplings(
    positions,
    prefactor: float = 1.0,
    model: str = "xx",
) -> ChainSpec:
    """Nearest-neighbour part of the secular dipolar couplings of collinear sites.

    For sites on the chain axis the angular factor 1 - 3 cos^2(theta)
    is -2, so d_j = -2 * prefactor / r_{j,j+1}^3. The physical prefactor
    (mu0 gamma^2 hbar / 16 pi for like spins) is left to the caller;
    conventions in the literature differ by a factor of 2, so no value
    is baked in.

    The 1/r^3 tail beyond nearest neighbours is dropped, and the bonds
    form an ``xx`` or ``dq`` chain. Gaps so small that a coupling
    overflows raise ``InvalidParameterError`` through ``ChainSpec``,
    without a warning.
    """
    pos = _check_reals(positions, "positions", InvalidParameterError)
    n = _check_length(pos.size, minimum=2)
    if np.any(np.diff(pos) <= 0):
        raise DegenerateGeometryError("positions must be strictly increasing")
    prefactor = _check_real(prefactor, "prefactor", InvalidParameterError)
    if prefactor == 0:
        raise InvalidParameterError("prefactor must be nonzero")
    _check_choice(model, "model", MODELS, UnsupportedModelError)
    with np.errstate(divide="ignore", over="ignore"):
        return ChainSpec(n, model, -2.0 * prefactor / np.diff(pos) ** 3)


def perturb_couplings(spec: ChainSpec, sigma: float, seed: int) -> ChainSpec:
    """Multiplicative Gaussian disorder: d -> d (1 + sigma g), g ~ N(0, 1).

    Deterministic for a fixed seed, a non-negative integer. sigma = 0
    returns an equal spec.
    """
    sigma = _check_real(sigma, "sigma", InvalidParameterError)
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(_check_seed(seed))
    g = rng.standard_normal(len(spec.couplings))
    # an overflowing coupling is rejected by ChainSpec, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(spec.couplings) * (1.0 + sigma * g)
    return ChainSpec(spec.n, spec.model, vals)


def random_couplings(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """n-1 bond couplings drawn uniformly from [0.5, 1.5), for randomised checks."""
    n = _check_length(n)
    return tuple(float(c) for c in rng.uniform(0.5, 1.5, n - 1))


# -- timing ---------------------------------------------------------------


def _engineered_scale(couplings: np.ndarray) -> float | None:
    """Recover d if |couplings| matches the parabolic profile, else None."""
    n = couplings.size + 1
    j = np.arange(1, n)
    profile = 2.0 * np.sqrt(j * (n - j)) / n
    mags = np.abs(couplings)
    estimates = mags / profile
    d = float(np.max(estimates))
    if d <= 0:
        return None
    if np.allclose(estimates, d, rtol=1e-9, atol=0):
        return d
    return None


def normalized_time(n: int, d: float, t) -> np.ndarray | float:
    """tau = 2 d t / n, the mirror phase of the engineered family."""
    _check_length(n)
    d = _check_scale(d)
    times = _check_time(t, 2.0 * d) if np.isscalar(t) else _check_times(t, 2.0 * d)
    return 2.0 * d * times / n


def transfer_timing(spec: ChainSpec) -> TransferTiming:
    """Mirror time t* = pi n / (4 d) and group velocity v = 4 d / pi.

    Requires the parabolic (engineered) profile, detected structurally
    from |couplings| to relative tolerance 1e-9; a global sign flip does
    not change transfer probabilities, so signed profiles are accepted.
    The product t* v equals n: the fastest excitation crosses the chain
    exactly once by the mirror time.
    """
    _check_length(spec.n, minimum=2)
    d = _engineered_scale(np.asarray(spec.couplings))
    if d is None:
        raise UnsupportedFamilyError(
            "couplings do not follow the engineered profile 2 d sqrt(j(n-j))/n"
        )
    t_star = math.pi * spec.n / (4.0 * d)
    return TransferTiming(t_star=t_star, group_velocity=4.0 * d / math.pi)
