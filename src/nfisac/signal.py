"""Wideband OFDM pilot generation and the monostatic sensing observation.

The model works directly on post-DFT per-subcarrier samples: the sample
at symbol n, subcarrier m, element k is

    mu[n, m, k] = C[n, m] * g_k * a_k(d, theta) * beta(d, theta),

with C[n, m] = x[n, m] exp(-j 2 pi m df (T_cp + tau0)), beta = a^T f the
transmit coupling, and tau0 = 2 d / c the round-trip delay. The target's
Doppler shift is known and compensated before these samples: its
per-symbol unit-modulus factor is removed, so it appears neither here
nor in the bank's law below. Noise is i.i.d. circularly-symmetric
complex Gaussian with total variance sigma^2 per sample. Pilot symbols
are constant-modulus with |x|^2 = P_t on every resource element, so
sum |C|^2 = N M P_t exactly.

The matched-filter bank Z[k, m] = sum_n conj(x[n, m]) r[n, m, k] is a
sufficient statistic for (d, theta): with mu = X D h (X the pilots, D_m
the delay ramp, h = g a beta), r^H mu = sum_{k,m} D_m h_k conj(Z[k, m])
and ||mu||^2 is data-free, so the likelihood reads r only through Z
(Fisher-Neyman factorization; Kay, Estimation Theory, 1993, ch. 5). As
|x|^2 = P_t, the pilots drop out of its law, independent over (k, m):

    Z[k, m] ~ CN(N P_t e^{-j 2 pi m df (T_cp + tau0)} g_k a_k beta, N P_t sigma^2).

``synthesize_bank`` draws Z from this law from n_a M complex normals,
without forming the N M n_a observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT,
    PolarPosition,
    UcaGeometry,
    element_gains,
    element_ranges,
    steering_vector,
)

UNIT_NORM_TOL = 1e-9
"""Beamformers must be unit-norm to within this Euclidean tolerance."""


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology, power budget and noise level."""

    m_subcarriers: int
    n_symbols: int
    delta_f_hz: float
    t_cp_s: float
    p_t_w: float
    sigma2_w: float

    def __post_init__(self) -> None:
        if self.m_subcarriers < 1:
            raise ValueError(f"m_subcarriers must be >= 1, got {self.m_subcarriers}")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if self.delta_f_hz <= 0.0:
            raise ValueError(f"delta_f_hz must be positive, got {self.delta_f_hz}")
        if self.t_cp_s < 0.0:
            raise ValueError(f"t_cp_s must be nonnegative, got {self.t_cp_s}")
        if self.p_t_w <= 0.0:
            raise ValueError(f"p_t_w must be positive, got {self.p_t_w}")
        # sigma2_w == 0 is allowed: it degenerates to the noiseless model.
        if self.sigma2_w < 0.0:
            raise ValueError(f"sigma2_w must be nonnegative, got {self.sigma2_w}")

    @property
    def bandwidth_hz(self) -> float:
        """Occupied bandwidth B = M * delta_f."""
        return self.m_subcarriers * self.delta_f_hz


@dataclass(frozen=True)
class PilotGrid:
    """N x M grid of known constant-modulus symbols, |x[n,m]|^2 = P_t."""

    symbols: np.ndarray


@dataclass(frozen=True)
class Observation:
    """Received sensing samples plus everything needed to interpret them.

    ``samples`` has shape (N, M, n_a): symbol, subcarrier, element.
    """

    samples: np.ndarray
    pilots: PilotGrid
    config: OfdmConfig
    beamformer: np.ndarray

    @property
    def n_a(self) -> int:
        return self.samples.shape[2]


@dataclass(frozen=True)
class MatchedFilterBank:
    """Matched-filter bank Z (n_a, M) with the config and beamformer that interpret it.

    Built from an observation by ``estimator.matched_filter_bank``, or drawn
    from its law by ``synthesize_bank`` (see the module docstring).
    """

    aggregates: np.ndarray
    config: OfdmConfig
    beamformer: np.ndarray


def require_unit_norm(f: np.ndarray) -> np.ndarray:
    """Validate that f is unit-norm to within UNIT_NORM_TOL; returns it as a complex array."""
    f = np.asarray(f, dtype=complex)
    norm = np.linalg.norm(f)
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"beamformer must be unit-norm, got ||f|| = {norm!r}")
    return f


def generate_pilots(config: OfdmConfig, seed: int) -> PilotGrid:
    """Constant-modulus random-phase pilot symbols, deterministic in seed.

    Every entry has |x[n,m]|^2 = P_t exactly, so the average-power
    constraint holds deterministically, not just in expectation.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(config.n_symbols, config.m_subcarriers))
    return PilotGrid(np.sqrt(config.p_t_w) * np.exp(1j * phases))


def delay_phases(config: OfdmConfig, tau0_s: float) -> np.ndarray:
    """Length-M subcarrier delay ramp exp(-j 2 pi m df (T_cp + tau0))."""
    m = np.arange(config.m_subcarriers)
    return np.exp(-1j * 2.0 * np.pi * m * config.delta_f_hz * (config.t_cp_s + tau0_s))


def phase_factor_grid(config: OfdmConfig, pilots: PilotGrid, tau0_s: float) -> np.ndarray:
    """N x M matrix of C[n,m] factors for a given round-trip delay."""
    return pilots.symbols * delay_phases(config, tau0_s)[None, :]


def _echo(geom: UcaGeometry, pos: PolarPosition, f: np.ndarray) -> np.ndarray:
    """Per-element echo g_k a_k beta of the beam f, beta = a^T f."""
    a = steering_vector(geom, pos)
    gains = element_gains(element_ranges(geom, pos), geom.wavelength_m)
    return gains * a * (a @ f)


def noiseless_mean(
    geom: UcaGeometry,
    pos: PolarPosition,
    f: np.ndarray,
    config: OfdmConfig,
    pilots: PilotGrid,
    tau0_s: float | None = None,
) -> np.ndarray:
    """Noise-free sensing observation mean, shape (N, M, n_a).

    ``tau0_s`` defaults to the round-trip delay 2 d / c of ``pos``; passing
    it explicitly decouples the subcarrier delay ramp from the position
    (used e.g. to differentiate the spatial response at a frozen delay).
    """
    f = require_unit_norm(f)
    if tau0_s is None:
        tau0_s = 2.0 * pos.d_m / SPEED_OF_LIGHT
    c_grid = phase_factor_grid(config, pilots, tau0_s)
    return c_grid[:, :, None] * _echo(geom, pos, f)[None, None, :]


def synthesize_observation(
    geom: UcaGeometry,
    pos: PolarPosition,
    f: np.ndarray,
    config: OfdmConfig,
    pilots: PilotGrid,
    seed: int,
) -> Observation:
    """Noisy observation: mean plus i.i.d. CN(0, sigma^2) per sample.

    The real parts of the noise are drawn first, then the imaginary parts,
    each into one reused real buffer and added to the mean in place, so the
    only full-size temporary is half the size of the observation.
    """
    samples = noiseless_mean(geom, pos, f, config, pilots)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(config.sigma2_w / 2.0)
    buf = np.empty(samples.shape)
    for part in (samples.real, samples.imag):
        rng.standard_normal(out=buf)
        buf *= scale
        part += buf
    return Observation(samples, pilots, config, np.asarray(f, dtype=complex))


def synthesize_bank(
    geom: UcaGeometry,
    pos: PolarPosition,
    f: np.ndarray,
    config: OfdmConfig,
    seed: int,
) -> MatchedFilterBank:
    """Matched-filter bank of a noisy observation, drawn from its exact law.

    The law of ``estimator.matched_filter_bank`` of ``synthesize_observation``
    whatever the pilots (module docstring); the noise's real parts are drawn
    first, then its imaginary parts.
    """
    f = require_unit_norm(f)
    power = config.n_symbols * config.p_t_w
    ramp = delay_phases(config, 2.0 * pos.d_m / SPEED_OF_LIGHT)
    aggregates = (power * _echo(geom, pos, f))[:, None] * ramp[None, :]
    noise = np.random.default_rng(seed).standard_normal((2,) + aggregates.shape)
    aggregates += np.sqrt(power * config.sigma2_w / 2.0) * (noise[0] + 1j * noise[1])
    return MatchedFilterBank(aggregates, config, f)


def effective_channel(geom: UcaGeometry, pos: PolarPosition) -> np.ndarray:
    """Downlink channel vector h with entries g_k * a_k at the given position."""
    ranges = element_ranges(geom, pos)
    gains = element_gains(ranges, geom.wavelength_m)
    return gains * steering_vector(geom, pos)


def ue_received_snr(
    geom: UcaGeometry, pos: PolarPosition, f: np.ndarray, config: OfdmConfig
) -> float:
    """Received SNR at the UE, P_t |h^T f|^2 / sigma^2, linear scale.

    The coupling is the transpose h^T f, the convention of the sensing
    model (beta = a^T f) and of ``conjugate_focus_beamformer``.
    """
    f = require_unit_norm(f)
    h = effective_channel(geom, pos)
    coupling = h @ f
    return float(config.p_t_w * np.abs(coupling) ** 2 / config.sigma2_w)


def achievable_rate(
    geom: UcaGeometry, pos_true: PolarPosition, f: np.ndarray, config: OfdmConfig
) -> float:
    """Shannon rate B log2(1 + SNR) in bits/s over the full bandwidth.

    The channel is always evaluated at the true position; pass a
    beamformer built from an estimated position to measure the
    misalignment penalty, or one built from the truth for the optimum.
    """
    snr = ue_received_snr(geom, pos_true, f, config)
    return float(config.bandwidth_hz * np.log2(1.0 + snr))
