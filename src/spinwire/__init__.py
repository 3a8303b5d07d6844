"""Coherent state transfer through spin-1/2 chains at arbitrary polarisation.

The package models nearest-neighbour flip-flop (xx) and double-quantum
(dq) chains, reduces their dynamics to the single-excitation
propagator, and builds from it the transport observables accessible
without initialising the chain: polarisation correlations,
logical-qubit channel correlations and entanglement fidelity, end-state
autocorrelations, and multiple-quantum coherence distributions. A dense
brute-force oracle cross-checks every analytic path, and a CLI exposes
the main tables.
"""

from . import chain, errors, logical, mqc, pauli, propagator, verify
from .chain import *
from .errors import *
from .logical import *
from .mqc import *
from .pauli import *
from .propagator import *
from .verify import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; spinwire.oracle is not re-exported
__all__ = [
    "__version__",
    *chain.__all__,
    *errors.__all__,
    *pauli.__all__,
    *propagator.__all__,
    *logical.__all__,
    *mqc.__all__,
    *verify.__all__,
]
