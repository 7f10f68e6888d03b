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
    BeamCoupling,
    CrlbBound,
    FisherMatrix,
    UnidentifiableParametersError,
    beam_coupling,
    crlb_at,
    crlb_from_fim,
    fim,
    fim_scale,
    mean_product_scale,
)
from .estimator import (
    GridBasin,
    GridSpec,
    MatchedFilterBank,
    MlEstimate,
    coarse_grid_search,
    cost,
    estimate,
    lm_refine,
    wrap_angle,
    xi,
)
from .geometry import (
    SPEED_OF_LIGHT,
    GeometrySensitivities,
    PolarPosition,
    UcaGeometry,
    element_angles,
    element_gains,
    element_ranges,
    rayleigh_distance,
    sensitivities,
    steering_vector,
    ula_rayleigh_distance,
)
from .harness import (
    CrlbPoint,
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
    OfdmConfig,
    achievable_rate,
    synthesize_bank,
    ue_received_snr,
)
