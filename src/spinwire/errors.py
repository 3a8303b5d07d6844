"""Exception taxonomy for spinwire.

All domain errors derive from SpinwireError so callers (and the CLI) can
distinguish validation failures from genuine bugs. Most subclasses also
derive from ValueError to stay friendly to generic error handling.
"""

__all__ = [
    "SpinwireError",
    "InvalidDimensionError",
    "InvalidParameterError",
    "DegenerateGeometryError",
    "UnsupportedFamilyError",
    "UnsupportedModelError",
    "IndexOutOfRangeError",
    "InvalidConfigurationError",
    "DimensionMismatchError",
    "AliasingError",
    "OracleSizeError",
]


class SpinwireError(Exception):
    """Base class for all spinwire domain errors."""


class InvalidDimensionError(SpinwireError, ValueError):
    """Chain length or operator dimension outside the supported range."""


class InvalidParameterError(SpinwireError, ValueError):
    """Scalar parameter (coupling, sigma, order, ...) fails validation."""


class DegenerateGeometryError(SpinwireError, ValueError):
    """Site geometry with coincident or non-increasing positions."""


class UnsupportedFamilyError(SpinwireError, ValueError):
    """Coupling family does not support the requested operation."""


class UnsupportedModelError(SpinwireError, ValueError):
    """Hamiltonian model does not support the requested operation."""


class IndexOutOfRangeError(SpinwireError, IndexError):
    """Site index outside 1..n."""


class InvalidConfigurationError(SpinwireError, ValueError):
    """Structurally invalid input (duplicate sites, bad string, ...)."""


class DimensionMismatchError(SpinwireError, ValueError):
    """Operands whose sizes are required to agree do not."""


class AliasingError(InvalidParameterError):
    """Phase-cycling resolution too coarse for the requested order."""


class OracleSizeError(SpinwireError, ValueError):
    """Dense-oracle request exceeding the configured size budget."""
