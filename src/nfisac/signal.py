"""Wideband OFDM pilot generation and the monostatic sensing observation.

The model works directly on post-DFT per-subcarrier samples: the sample
at symbol n, subcarrier m, element k is

    mu[n, m, k] = C[n, m] * g_k * a_k(d, theta) * beta(d, theta),

with C[n, m] = x[n, m] exp(j 2 pi nu0 n T_o) exp(-j 2 pi m df (T_cp + tau0)),
beta = a^T f the transmit coupling, and tau0 = 2 d / c the round-trip
delay. Noise is i.i.d. circularly-symmetric complex Gaussian with total
variance sigma^2 per sample. Pilot symbols are constant-modulus with
|x|^2 = P_t on every resource element, so sum |C|^2 = N M P_t exactly.
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
    """OFDM numerology, power budget and noise level.

    Doppler is constrained to |nu0| <= delta_f / 100 so the per-subcarrier
    sampling model stays valid (no inter-carrier interference).
    """

    m_subcarriers: int
    n_symbols: int
    delta_f_hz: float
    t_cp_s: float
    p_t_w: float
    sigma2_w: float
    carrier_hz: float
    nu0_hz: float = 0.0

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
        if self.carrier_hz <= 0.0:
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")
        if abs(self.nu0_hz) > self.delta_f_hz / 100.0:
            raise ValueError(
                f"|nu0_hz|={abs(self.nu0_hz)} violates the narrow-Doppler "
                f"contract |nu0| <= delta_f/100 = {self.delta_f_hz / 100.0}"
            )

    @property
    def symbol_duration_s(self) -> float:
        """Total OFDM symbol duration T_o = 1/delta_f + T_cp."""
        return 1.0 / self.delta_f_hz + self.t_cp_s

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


def require_unit_norm(f: np.ndarray, tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Validate that f is a unit-norm complex vector; returns it as an array."""
    f = np.asarray(f, dtype=complex)
    norm = np.linalg.norm(f)
    if abs(norm - 1.0) > tol:
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


def pilot_doppler_grid(config: OfdmConfig, pilots: PilotGrid) -> np.ndarray:
    """N x M factor x[n,m] * exp(j 2 pi nu0 n T_o): everything but the delay."""
    n = np.arange(config.n_symbols)[:, None]
    doppler = np.exp(1j * 2.0 * np.pi * config.nu0_hz * n * config.symbol_duration_s)
    return pilots.symbols * doppler


def delay_phases(config: OfdmConfig, tau0_s: float) -> np.ndarray:
    """Length-M subcarrier delay ramp exp(-j 2 pi m df (T_cp + tau0))."""
    m = np.arange(config.m_subcarriers)
    return np.exp(-1j * 2.0 * np.pi * m * config.delta_f_hz * (config.t_cp_s + tau0_s))


def phase_factor_grid(config: OfdmConfig, pilots: PilotGrid, tau0_s: float) -> np.ndarray:
    """N x M matrix of C[n,m] factors for a given round-trip delay."""
    return pilot_doppler_grid(config, pilots) * delay_phases(config, tau0_s)[None, :]


def phase_factor(
    config: OfdmConfig, pilots: PilotGrid, n: int, m: int, tau0_s: float
) -> complex:
    """Single C[n,m] = x[n,m] e^{j 2 pi nu0 n T_o} e^{-j 2 pi m df (T_cp+tau0)}."""
    if not 0 <= n < config.n_symbols:
        raise IndexError(f"symbol index {n} out of range [0, {config.n_symbols})")
    if not 0 <= m < config.m_subcarriers:
        raise IndexError(f"subcarrier index {m} out of range [0, {config.m_subcarriers})")
    doppler = np.exp(1j * 2.0 * np.pi * config.nu0_hz * n * config.symbol_duration_s)
    delay = np.exp(
        -1j * 2.0 * np.pi * m * config.delta_f_hz * (config.t_cp_s + tau0_s)
    )
    return complex(pilots.symbols[n, m] * doppler * delay)


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
    ranges = element_ranges(geom, pos)
    gains = element_gains(ranges, geom.wavelength_m)
    a = steering_vector(geom, pos)
    beta = a @ f
    c_grid = phase_factor_grid(config, pilots, tau0_s)
    return c_grid[:, :, None] * (gains * a * beta)[None, None, :]


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


def effective_channel(
    geom: UcaGeometry, pos: PolarPosition, config: OfdmConfig
) -> np.ndarray:
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
    h = effective_channel(geom, pos, config)
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
