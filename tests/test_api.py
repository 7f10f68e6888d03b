"""The package's public API is a pinned list, and every name in it resolves."""

import nfisac

PUBLIC = {
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
}
INTERNAL = {
    "BeamCoupling", "GeometrySensitivities", "GridBasin", "CrlbPoint", "xi",
    "fim_scale", "mean_product_scale", "beam_coupling", "sensitivities",
}


def test_all_is_the_pinned_public_api():
    assert len(nfisac.__all__) == len(set(nfisac.__all__)) == 40
    assert set(nfisac.__all__) == PUBLIC
    assert not INTERNAL & set(nfisac.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from nfisac import *", namespace)
    missing = [name for name in nfisac.__all__ if name not in namespace]
    assert missing == []
    assert all(getattr(nfisac, name) is namespace[name] for name in nfisac.__all__)


def test_internals_are_not_exported():
    assert not [name for name in INTERNAL if hasattr(nfisac, name)]
