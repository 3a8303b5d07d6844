"""Coherent state transfer through spin-1/2 chains at arbitrary polarisation.

The package models nearest-neighbour flip-flop (xx) and double-quantum
(dq) chains plus full secular dipolar couplings, reduces their dynamics
to the single-excitation propagator, and builds from it the transport
observables accessible without initialising the chain: polarisation
correlations, logical-qubit channel correlations and entanglement
fidelity, end-state autocorrelations, and multiple-quantum coherence
distributions. A dense brute-force oracle cross-checks every analytic
path, and a CLI exposes the main tables.
"""

from .chain import (
    ChainSpec,
    TransferTiming,
    dipolar_couplings,
    engineered_couplings,
    homogeneous_couplings,
    implant_spacings,
    normalized_time,
    perturb_couplings,
    transfer_timing,
)
from .errors import (
    AliasingError,
    DegenerateGeometryError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidConfigurationError,
    InvalidDimensionError,
    InvalidParameterError,
    OracleSizeError,
    SpinwireError,
    UnsupportedFamilyError,
    UnsupportedModelError,
)
from .logical import (
    CHANNELS,
    LogicalBasis,
    apply_parity_correction,
    dq_parity_correction,
    entanglement_fidelity,
    logical_basis,
    channel_correlations,
    channel_fidelity,
    logical_correlation_from_spec,
    logical_correlations,
    logical_transport_engineered,
    logical_transport_homogeneous,
)
from .mqc import (
    MqcSpectrum,
    mqc_analytic,
    mqc_phase_cycled,
    mqc_phase_cycled_grid,
    mqc_propagator_grid,
    mqc_x_analytic,
    mqc_y_analytic,
    mqc_z_analytic,
    prepare_state,
)
from .pauli import DeviationState
from .propagator import (
    Propagator,
    SpectralDecomposition,
    chain_propagator,
    end_autocorrelation,
    end_autocorrelation_grid,
    engineered_frequencies,
    homogeneous_amplitude,
    mixed_state_overlap,
    polarization_correlation,
    polarization_from_propagator,
    propagate,
    propagate_grid,
    slater_amplitude,
    spectral_decompose,
)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain
    "ChainSpec",
    "TransferTiming",
    "homogeneous_couplings",
    "engineered_couplings",
    "dipolar_couplings",
    "implant_spacings",
    "perturb_couplings",
    "transfer_timing",
    "normalized_time",
    # propagator
    "SpectralDecomposition",
    "Propagator",
    "spectral_decompose",
    "propagate",
    "propagate_grid",
    "chain_propagator",
    "homogeneous_amplitude",
    "engineered_frequencies",
    "slater_amplitude",
    "mixed_state_overlap",
    "polarization_correlation",
    "polarization_from_propagator",
    "end_autocorrelation",
    "end_autocorrelation_grid",
    # logical
    "CHANNELS",
    "LogicalBasis",
    "logical_basis",
    "apply_parity_correction",
    "dq_parity_correction",
    "logical_correlations",
    "channel_correlations",
    "channel_fidelity",
    "logical_correlation_from_spec",
    "logical_transport_homogeneous",
    "logical_transport_engineered",
    "entanglement_fidelity",
    # mqc
    "MqcSpectrum",
    "prepare_state",
    "mqc_analytic",
    "mqc_z_analytic",
    "mqc_y_analytic",
    "mqc_x_analytic",
    "mqc_phase_cycled",
    "mqc_phase_cycled_grid",
    "mqc_propagator_grid",
    # pauli
    "DeviationState",
    # verify
    "CheckResult",
    "VerificationReport",
    "run_verification",
    # errors
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
