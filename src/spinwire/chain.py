"""Chain geometry, coupling families, and transfer timing.

A chain is n spins on a line with either nearest-neighbour couplings
(models ``xx`` and ``dq``) or a full coupling matrix (model ``dipolar``).
Couplings are angular frequencies; time is dimensionless against 1/d.

The two nearest-neighbour families:

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
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)

MODELS = ("xx", "dq", "dipolar")
FAMILIES = ("homogeneous", "engineered", "dipolar")

_JSON_SCHEMA = "spinwire.chain/1"


def _check_length(n: int, minimum: int = 1) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidDimensionError(f"chain length must be int, got {n!r}")
    if n < minimum:
        raise InvalidDimensionError(f"chain length must be >= {minimum}, got {n}")
    return int(n)


def _check_couplings(values) -> tuple[float, ...]:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise InvalidParameterError(f"couplings must be a sequence of numbers, got {values!r}")
    vals = tuple(values)
    for c in vals:
        if not isinstance(c, numbers.Real) or isinstance(c, bool):
            raise InvalidParameterError(f"couplings must be real numbers, got {c!r}")
    try:
        vals = tuple(float(c) for c in vals)
    except OverflowError:
        raise InvalidParameterError("couplings must be finite") from None
    if not all(math.isfinite(c) for c in vals):
        raise InvalidParameterError("couplings must be finite")
    return vals


def _check_scale(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d <= 0:
        raise InvalidParameterError(f"coupling scale must be positive, got {d}")
    return d


def _check_times(times) -> np.ndarray:
    """A one-dimensional grid of finite real times, as a float array."""
    try:
        grid = np.asarray(times, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"times must be real numbers: {exc}") from None
    if grid.ndim != 1:
        raise InvalidParameterError(f"times must be one-dimensional, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise InvalidParameterError(f"times must be finite, got {grid[~np.isfinite(grid)][0]}")
    return grid


def _check_time(t: float) -> float:
    """One finite real time, through ``_check_times``."""
    return float(_check_times([t])[0])


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class ChainSpec:
    """Immutable chain description.

    Attributes
    ----------
    n : int
        Number of sites.
    model : str
        ``xx`` (flip-flop), ``dq`` (double quantum), or ``dipolar``
        (secular dipolar with the full coupling matrix).
    couplings : tuple of float
        Bond couplings d_1..d_{n-1} for nearest-neighbour models, or the
        strict upper triangle of the coupling matrix (row-major) for the
        dipolar model.
    """

    n: int
    model: str
    couplings: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _check_length(self.n))
        if self.model not in MODELS:
            raise UnsupportedModelError(
                f"model must be one of {MODELS}, got {self.model!r}"
            )
        vals = _check_couplings(self.couplings)
        expected = (
            self.n * (self.n - 1) // 2 if self.model == "dipolar" else self.n - 1
        )
        if len(vals) != expected:
            raise InvalidConfigurationError(
                f"model {self.model!r} with n={self.n} needs {expected} "
                f"couplings, got {len(vals)}"
            )
        object.__setattr__(self, "couplings", vals)

    # -- views -------------------------------------------------------------

    @property
    def is_nearest_neighbour(self) -> bool:
        return self.model in ("xx", "dq")

    def nn_couplings(self) -> np.ndarray:
        """Bond couplings d_1..d_{n-1} as an array."""
        if not self.is_nearest_neighbour:
            raise UnsupportedModelError(
                "dipolar chains carry a full matrix; use coupling_matrix()"
            )
        return np.asarray(self.couplings, dtype=float)

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric n x n coupling matrix (zero diagonal)."""
        mat = np.zeros((self.n, self.n))
        if self.is_nearest_neighbour:
            for j, c in enumerate(self.couplings):
                mat[j, j + 1] = mat[j + 1, j] = c
        else:
            idx = 0
            for j in range(self.n):
                for l in range(j + 1, self.n):
                    mat[j, l] = mat[l, j] = self.couplings[idx]
                    idx += 1
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
        """Inverse of :meth:`to_json`; validates the payload."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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
    vals = 2.0 * d * np.sqrt(j * (n - j)) / n
    return ChainSpec(n, model, tuple(float(v) for v in vals))


def implant_spacings(n: int, r_min: float = 1.0) -> np.ndarray:
    """Site positions whose inverse-cube couplings follow the parabolic profile.

    Bond lengths r_{j,j+1} = r_min (n/2)^(1/3) / (j (n - j))^(1/6) make
    1/r^3 proportional to sqrt(j (n - j)), i.e. dipolar nearest-neighbour
    couplings between implanted sites reproduce engineered_couplings up
    to an overall scale. The shortest bond is r_min (attained at the
    centre for even n). Returns n absolute positions starting at 0.
    """
    _check_length(n, minimum=2)
    r_min = float(r_min)
    if not math.isfinite(r_min) or r_min <= 0:
        raise InvalidParameterError(f"r_min must be positive, got {r_min}")
    j = np.arange(1, n)
    gaps = r_min * (n / 2.0) ** (1.0 / 3.0) / (j * (n - j)) ** (1.0 / 6.0)
    return np.concatenate(([0.0], np.cumsum(gaps)))


def dipolar_couplings(
    positions,
    prefactor: float = 1.0,
    model: str = "dipolar",
) -> ChainSpec:
    """Secular dipolar couplings for collinear sites.

    For sites on the chain axis the angular factor 1 - 3 cos^2(theta)
    is -2, so d_jl = -2 * prefactor / r_jl^3. The physical prefactor
    (mu0 gamma^2 hbar / 16 pi for like spins) is left to the caller;
    conventions in the literature differ by a factor of 2, so no value
    is baked in.

    With model ``xx`` or ``dq`` the matrix is truncated to nearest
    neighbours; ``dipolar`` keeps every pair.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 1:
        raise InvalidConfigurationError("positions must be a 1-d sequence")
    n = _check_length(int(pos.size), minimum=2)
    if not np.all(np.isfinite(pos)):
        raise InvalidParameterError("positions must be finite")
    if np.any(np.diff(pos) <= 0):
        raise DegenerateGeometryError("positions must be strictly increasing")
    prefactor = float(prefactor)
    if not math.isfinite(prefactor) or prefactor == 0:
        raise InvalidParameterError(f"prefactor must be finite and nonzero")
    if model in ("xx", "dq"):
        gaps = np.diff(pos)
        vals = -2.0 * prefactor / gaps**3
        return ChainSpec(n, model, tuple(float(v) for v in vals))
    if model != "dipolar":
        raise UnsupportedModelError(f"unknown model {model!r}")
    vals = []
    for j in range(n):
        for l in range(j + 1, n):
            r = pos[l] - pos[j]
            vals.append(-2.0 * prefactor / r**3)
    return ChainSpec(n, "dipolar", tuple(vals))


def perturb_couplings(spec: ChainSpec, sigma: float, seed: int) -> ChainSpec:
    """Multiplicative Gaussian disorder: d -> d (1 + sigma g), g ~ N(0, 1).

    Deterministic for a fixed seed, a non-negative integer. sigma = 0
    returns an equal spec.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma < 0:
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(_check_seed(seed))
    g = rng.standard_normal(len(spec.couplings))
    vals = np.asarray(spec.couplings) * (1.0 + sigma * g)
    return ChainSpec(spec.n, spec.model, tuple(float(v) for v in vals))


def random_couplings(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """n-1 bond couplings drawn uniformly from [0.5, 1.5), for randomised checks."""
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
    return 2.0 * d * np.asarray(t, dtype=float) / n if np.ndim(t) else 2.0 * d * float(t) / n


def transfer_timing(spec: ChainSpec) -> TransferTiming:
    """Mirror time t* = pi n / (4 d) and group velocity v = 4 d / pi.

    Requires the parabolic (engineered) profile, detected structurally
    from |couplings| to relative tolerance 1e-9; a global sign flip does
    not change transfer probabilities, so signed profiles are accepted.
    The product t* v equals n: the fastest excitation crosses the chain
    exactly once by the mirror time.
    """
    if not spec.is_nearest_neighbour:
        raise UnsupportedFamilyError("transfer timing needs a nearest-neighbour chain")
    if spec.n < 2:
        raise InvalidDimensionError("transfer timing needs n >= 2")
    d = _engineered_scale(spec.nn_couplings())
    if d is None:
        raise UnsupportedFamilyError(
            "couplings do not follow the engineered profile 2 d sqrt(j(n-j))/n"
        )
    t_star = math.pi * spec.n / (4.0 * d)
    return TransferTiming(t_star=t_star, group_velocity=4.0 * d / math.pi)
