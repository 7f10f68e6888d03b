"""Near-field ISAC estimation lab for a uniform circular array.

Wideband OFDM channel model with spherical wavefronts, closed-form
Cramér-Rao bounds for joint range-angle estimation, CRLB-trace-optimal
transmit beamforming on the unit sphere, grid-initialized maximum
likelihood estimation, and a Monte Carlo harness with a CSV-emitting CLI.
"""

__version__ = "0.8.0"

from .beamformer import (
    OptimizerResult,
    conjugate_focus_beamformer,
    optimize_beamformer,
    trace_objective,
)
from .crlb import (
    CrlbBound,
    FisherMatrix,
    UnidentifiableParametersError,
    crlb_at,
    crlb_from_fim,
    fim,
)
from .estimator import MlEstimate, cost, estimate, lm_refine, wrap_angle
from .geometry import (
    SPEED_OF_LIGHT,
    PolarPosition,
    UcaGeometry,
    element_angles,
    element_gains,
    element_ranges,
    rayleigh_distance,
    steering_vector,
    ula_rayleigh_distance,
)
from .grid import GridSpec, coarse_grid_search
from .harness import (
    SweepConfig,
    SweepPoint,
    TrialRecord,
    crlb_sweep,
    derive_seed,
    grid_for_radius,
    run_trial,
    run_trials,
    summarize,
)
from .signal import (
    MatchedFilterBank,
    OfdmConfig,
    achievable_rate,
    synthesize_bank,
    ue_received_snr,
)

# What the CLI's commands and a user's script need, pinned by tests/test_api.py.
# Internals (couplings, sensitivities, grid basins, scales, xi) stay in their modules.
__all__ = [
    "CrlbBound", "FisherMatrix", "GridSpec", "MatchedFilterBank", "MlEstimate",
    "OfdmConfig", "OptimizerResult", "PolarPosition", "SPEED_OF_LIGHT",
    "SweepConfig", "SweepPoint", "TrialRecord", "UcaGeometry",
    "UnidentifiableParametersError", "achievable_rate", "coarse_grid_search",
    "conjugate_focus_beamformer", "cost", "crlb_at", "crlb_from_fim", "crlb_sweep",
    "derive_seed", "element_angles", "element_gains", "element_ranges", "estimate",
    "fim", "grid_for_radius", "lm_refine", "optimize_beamformer",
    "rayleigh_distance", "run_trial", "run_trials", "steering_vector", "summarize",
    "synthesize_bank", "trace_objective", "ue_received_snr",
    "ula_rayleigh_distance", "wrap_angle",
]
