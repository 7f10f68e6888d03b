"""Pilot generation, observation and bank synthesis, SNR and rate contracts."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from nfisac import (
    OfdmConfig,
    PolarPosition,
    UcaGeometry,
    achievable_rate,
    conjugate_focus_beamformer,
    steering_vector,
    synthesize_bank,
    ue_received_snr,
)
from nfisac.geometry import SPEED_OF_LIGHT, element_gains, element_ranges
from nfisac.estimator import matched_filter_bank
from nfisac.signal import (
    generate_pilots,
    noiseless_mean,
    phase_factor_grid,
    synthesize_observation,
)

from conftest import random_unit_vector


def phase_factor(config, pilots, n, m, tau0_s):
    """Single C[n,m] = x[n,m] e^{-j 2 pi m df (T_cp+tau0)}."""
    if not 0 <= n < config.n_symbols:
        raise IndexError(f"symbol index {n} out of range [0, {config.n_symbols})")
    if not 0 <= m < config.m_subcarriers:
        raise IndexError(f"subcarrier index {m} out of range [0, {config.m_subcarriers})")
    delay = cmath.exp(-1j * 2.0 * math.pi * m * config.delta_f_hz * (config.t_cp_s + tau0_s))
    return complex(pilots.symbols[n, m]) * delay


def orthogonal_beamformer(geom, pos):
    """Unit vector with a^T f = 0 (needs n_a >= 2)."""
    a = steering_vector(geom, pos)
    f = np.zeros(geom.n_a, dtype=complex)
    f[0], f[1] = -a[1], a[0]
    return f / np.linalg.norm(f)


class TestOfdmConfig:
    def test_cp_duration(self, table1_ofdm):
        assert table1_ofdm.t_cp_s == pytest.approx(145.833e-9, rel=1e-4)

    def test_bandwidth(self, table1_ofdm):
        assert table1_ofdm.bandwidth_hz == pytest.approx(983.04e6, rel=1e-12)


class TestGeneratePilots:
    def test_constant_modulus_exact(self, small_ofdm):
        # Constant modulus by construction; the squared-magnitude readback
        # itself rounds, so compare at the float epsilon scale.
        grid = generate_pilots(small_ofdm, seed=5)
        power = np.abs(grid.symbols) ** 2
        assert np.max(np.abs(power / small_ofdm.p_t_w - 1.0)) < 1e-14

    def test_deterministic(self, small_ofdm):
        a = generate_pilots(small_ofdm, seed=99).symbols
        b = generate_pilots(small_ofdm, seed=99).symbols
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self, small_ofdm):
        for seed in range(100):
            a = generate_pilots(small_ofdm, seed).symbols
            b = generate_pilots(small_ofdm, seed + 1).symbols
            assert np.any(a != b)


class TestPhaseFactor:
    def test_zero_subcarrier_keeps_the_pilot(self, small_ofdm):
        pilots = generate_pilots(small_ofdm, 1)
        for n in range(small_ofdm.n_symbols):
            value = phase_factor(small_ofdm, pilots, n, 0, tau0_s=1e-7)
            assert value == pytest.approx(complex(pilots.symbols[n, 0]), rel=1e-15)

    def test_all_phases_vanish(self):
        cfg = OfdmConfig(4, 2, 480e3, 0.0, 0.1, 1e-9)
        pilots = generate_pilots(cfg, 2)
        for n in range(2):
            for m in range(4):
                value = phase_factor(cfg, pilots, n, m, tau0_s=0.0)
                assert value == pytest.approx(complex(pilots.symbols[n, m]), rel=1e-15)

    def test_delay_phase_scalar_oracle(self, table1_ofdm):
        pilots = generate_pilots(table1_ofdm, 3)
        tau0 = 2.0 * 10.0 / SPEED_OF_LIGHT
        value = phase_factor(table1_ofdm, pilots, 0, 1, tau0)
        expected = complex(pilots.symbols[0, 1]) * cmath.exp(
            -1j * 2 * math.pi * 1 * 480e3 * (table1_ofdm.t_cp_s + tau0)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_index_bounds(self, small_ofdm):
        pilots = generate_pilots(small_ofdm, 1)
        with pytest.raises(IndexError):
            phase_factor(small_ofdm, pilots, small_ofdm.n_symbols, 0, 0.0)
        with pytest.raises(IndexError):
            phase_factor(small_ofdm, pilots, 0, small_ofdm.m_subcarriers, 0.0)

    def test_grid_matches_scalar_oracle(self):
        cfg = OfdmConfig(5, 3, 480e3, 1e-7, 0.1, 1e-9)
        pilots = generate_pilots(cfg, 4)
        tau0 = 2.0 * 12.0 / SPEED_OF_LIGHT
        grid = phase_factor_grid(cfg, pilots, tau0)
        for n in range(3):
            for m in range(5):
                assert grid[n, m] == pytest.approx(
                    phase_factor(cfg, pilots, n, m, tau0), rel=1e-12
                )


class TestNoiselessMean:
    def test_null_coupling_gives_zero(self, small_ofdm):
        geom = UcaGeometry(2, 0.3, 0.005)
        pos = PolarPosition(5.0, 0.9)
        f = orthogonal_beamformer(geom, pos)
        pilots = generate_pilots(small_ofdm, 7)
        mean = noiseless_mean(geom, pos, f, small_ofdm, pilots)
        assert np.max(np.abs(mean)) < 1e-18

    def test_conjugate_focus_magnitude(self, small_ofdm, geom64, pos10):
        # beta = 1 at conjugate focus, so each sample has magnitude
        # sqrt(P_t) g_k / sqrt(n_a).
        f = conjugate_focus_beamformer(geom64, pos10)
        pilots = generate_pilots(small_ofdm, 8)
        mean = noiseless_mean(geom64, pos10, f, small_ofdm, pilots)
        gains = element_gains(element_ranges(geom64, pos10), geom64.wavelength_m)
        expected = np.sqrt(small_ofdm.p_t_w) * gains / np.sqrt(64)
        np.testing.assert_allclose(
            np.abs(mean), np.broadcast_to(expected, mean.shape), rtol=1e-10
        )

    def test_hand_expanded_scalar_oracle(self):
        cfg = OfdmConfig(1, 1, 480e3, 1e-7, 0.25, 0.0)
        geom = UcaGeometry(2, 0.4, 0.005)
        pos = PolarPosition(6.0, 1.2)
        rng = np.random.default_rng(11)
        f = random_unit_vector(rng, 2)
        pilots = generate_pilots(cfg, 12)
        mean = noiseless_mean(geom, pos, f, cfg, pilots)

        # scalar reconstruction of the single (n=0, m=0) slice
        tau0 = 2 * pos.d_m / SPEED_OF_LIGHT
        c00 = complex(pilots.symbols[0, 0])  # m = 0: delay phase is unity
        for k in range(2):
            psi = 2 * math.pi * k / 2
            r_k = math.sqrt(6.0**2 + 0.4**2 - 2 * 6.0 * 0.4 * math.cos(1.2 - psi))
            g_k = 0.005 / (4 * math.pi * r_k)
            a_k = cmath.exp(1j * 2 * math.pi * (6.0 - r_k) / 0.005) / math.sqrt(2)
            a = steering_vector(geom, pos)
            beta = a[0] * f[0] + a[1] * f[1]
            assert mean[0, 0, k] == pytest.approx(c00 * g_k * a_k * beta, rel=1e-12)
        assert tau0 > 0  # delay used implicitly via m = 0 slice

    def test_rejects_nonunit_beamformer(self, small_ofdm, geom64, pos10):
        pilots = generate_pilots(small_ofdm, 1)
        bad = np.ones(64, dtype=complex)
        with pytest.raises(ValueError):
            noiseless_mean(geom64, pos10, bad, small_ofdm, pilots)

    def test_pilot_separability(self, small_ofdm, geom64, pos10):
        # Swapping the pilot grid rescales each (n, m) slice by the symbol ratio.
        f = conjugate_focus_beamformer(geom64, pos10)
        p1 = generate_pilots(small_ofdm, 21)
        p2 = generate_pilots(small_ofdm, 22)
        m1 = noiseless_mean(geom64, pos10, f, small_ofdm, p1)
        m2 = noiseless_mean(geom64, pos10, f, small_ofdm, p2)
        ratio = p2.symbols / p1.symbols
        np.testing.assert_allclose(m2, m1 * ratio[:, :, None], rtol=1e-12)


class TestSynthesizeObservation:
    def test_zero_noise_equals_mean(self, small_ofdm, geom64, pos10):
        cfg = dataclasses.replace(small_ofdm, sigma2_w=0.0)
        f = conjugate_focus_beamformer(geom64, pos10)
        pilots = generate_pilots(cfg, 31)
        obs = synthesize_observation(geom64, pos10, f, cfg, pilots, 32)
        np.testing.assert_array_equal(
            obs.samples, noiseless_mean(geom64, pos10, f, cfg, pilots)
        )

    def test_deterministic(self, small_ofdm, geom64, pos10):
        f = conjugate_focus_beamformer(geom64, pos10)
        pilots = generate_pilots(small_ofdm, 41)
        a = synthesize_observation(geom64, pos10, f, small_ofdm, pilots, 42)
        b = synthesize_observation(geom64, pos10, f, small_ofdm, pilots, 42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_variance(self):
        # 1e6 samples in one observation: empirical variance within 1%.
        cfg = OfdmConfig(100, 100, 480e3, 0.0, 0.1, 4e-9)
        geom = UcaGeometry(100, 0.5, 0.005)
        pos = PolarPosition(10.0, 0.7)
        f = conjugate_focus_beamformer(geom, pos)
        pilots = generate_pilots(cfg, 51)
        obs = synthesize_observation(geom, pos, f, cfg, pilots, 52)
        noise = obs.samples - noiseless_mean(geom, pos, f, cfg, pilots)
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(cfg.sigma2_w, rel=0.01)

    def test_noise_whiteness(self):
        # Cross-correlation between two fixed sample slots over many draws.
        cfg = OfdmConfig(2, 2, 480e3, 0.0, 0.1, 1e-6)
        geom = UcaGeometry(2, 0.3, 0.005)
        pos = PolarPosition(5.0, 0.1)
        f = conjugate_focus_beamformer(geom, pos)
        pilots = generate_pilots(cfg, 61)
        mean = noiseless_mean(geom, pos, f, cfg, pilots)
        draws = 100_000
        rng_seeds = range(draws)
        # accumulate noise pairs from one synthesized observation per seed is
        # too slow; draw the same distribution directly through the API once
        # with a long N axis instead.
        cfg_long = OfdmConfig(2, 50_000, 480e3, 0.0, 0.1, 1e-6)
        pilots_long = generate_pilots(cfg_long, 62)
        obs = synthesize_observation(geom, pos, f, cfg_long, pilots_long, 63)
        noise = obs.samples - noiseless_mean(geom, pos, f, cfg_long, pilots_long)
        flat = noise.reshape(cfg_long.n_symbols, -1)  # symbols x (m*k) slots
        x, y = flat[:, 0], flat[:, 3]
        corr = np.abs(np.mean(x * np.conj(y))) / cfg_long.sigma2_w
        assert corr < 3.0 / math.sqrt(cfg_long.n_symbols)
        assert len(list(rng_seeds)) == draws and mean.shape == (2, 2, 2)


# Bank-law check: n_a = 4, M = 8, N = 3.
LAW_OFDM = OfdmConfig(8, 3, 480e3, 0.07 / 480e3, 0.1, 2e-9)
LAW_DRAWS = 4000
# Every sample statistic must lie within this many of its standard errors.
LAW_SE_MULTIPLE = 5.0


def law_scene():
    geom = UcaGeometry(4, 0.3, 0.005)
    pos = PolarPosition(6.0, 0.8)
    return geom, pos, conjugate_focus_beamformer(geom, pos)


def analytic_bank_mean(geom, pos, f, cfg):
    """N P_t e^{-j 2 pi m df (T_cp + tau0)} g_k a_k beta, entry by entry."""
    tau0 = 2.0 * pos.d_m / SPEED_OF_LIGHT
    a = steering_vector(geom, pos)
    gains = element_gains(element_ranges(geom, pos), geom.wavelength_m)
    beta = complex(a @ f)
    out = np.empty((geom.n_a, cfg.m_subcarriers), dtype=complex)
    for k in range(geom.n_a):
        for m in range(cfg.m_subcarriers):
            ramp = cmath.exp(-1j * 2 * math.pi * m * cfg.delta_f_hz * (cfg.t_cp_s + tau0))
            out[k, m] = cfg.n_symbols * cfg.p_t_w * ramp * gains[k] * a[k] * beta
    return out


def assert_bank_law(draws, mean, variance):
    """Sample mean, covariance and pseudo-covariance of (K, n_a, M) bank draws.

    With w = Z - mean ~ CN(0, v I) over the n_a M entries and K draws:
    each part of the sample mean has standard error sqrt(v / 2K); a
    covariance diagonal entry (mean of |w_a|^2, Exp(v)) has v / sqrt(K);
    each part of an off-diagonal covariance or pseudo-covariance entry has
    v / sqrt(2K); each part of a pseudo-covariance diagonal entry (w_a^2)
    has v / sqrt(K). Each must lie within LAW_SE_MULTIPLE of them.
    """
    k = draws.shape[0]
    w = (draws - mean).reshape(k, -1)
    dim = w.shape[1]
    off = ~np.eye(dim, dtype=bool)

    def parts(z):
        return np.maximum(np.abs(z.real), np.abs(z.imag))

    mean_err = parts(np.mean(w, axis=0)) / math.sqrt(variance / (2 * k))
    cov = w.T @ np.conj(w) / k
    pseudo = w.T @ w / k
    cov_diag_err = np.abs(np.diag(cov) - variance) / (variance / math.sqrt(k))
    cov_off_err = parts(cov[off]) / (variance / math.sqrt(2 * k))
    pseudo_diag_err = parts(np.diag(pseudo)) / (variance / math.sqrt(k))
    pseudo_off_err = parts(pseudo[off]) / (variance / math.sqrt(2 * k))
    for name, err in [
        ("covariance diagonal", cov_diag_err),
        ("mean", mean_err),
        ("covariance off-diagonal", cov_off_err),
        ("pseudo-covariance diagonal", pseudo_diag_err),
        ("pseudo-covariance off-diagonal", pseudo_off_err),
    ]:
        assert np.max(np.abs(err)) < LAW_SE_MULTIPLE, name


class TestSynthesizeBank:
    @pytest.mark.parametrize("m, n, n_a", [(8, 3, 4), (2048, 14, 64)])
    def test_zero_noise_equals_the_observation_path(self, m, n, n_a):
        # Pilots drop out: the drawn bank equals the bank of the
        # noiseless observation whatever the pilots, here and at paper scale.
        cfg = dataclasses.replace(LAW_OFDM, m_subcarriers=m, n_symbols=n, sigma2_w=0.0)
        geom = UcaGeometry(n_a, 0.5, 0.005)
        pos = PolarPosition(10.0, 0.7)
        f = conjugate_focus_beamformer(geom, pos)
        drawn = synthesize_bank(geom, pos, f, cfg, 1).aggregates
        assert drawn.shape == (n_a, m)
        for pilot_seed in (2, 3):
            obs = synthesize_observation(geom, pos, f, cfg, generate_pilots(cfg, pilot_seed), 4)
            oracle = matched_filter_bank(obs).aggregates
            assert np.max(np.abs(drawn - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_carries_config_and_beamformer(self):
        geom, pos, f = law_scene()
        bank = synthesize_bank(geom, pos, f, LAW_OFDM, 1)
        assert bank.config == LAW_OFDM
        np.testing.assert_array_equal(bank.beamformer, f)

    def test_deterministic_in_seed(self):
        geom, pos, f = law_scene()
        a = synthesize_bank(geom, pos, f, LAW_OFDM, 7).aggregates
        b = synthesize_bank(geom, pos, f, LAW_OFDM, 7).aggregates
        c = synthesize_bank(geom, pos, f, LAW_OFDM, 8).aggregates
        np.testing.assert_array_equal(a, b)
        assert np.all(a != c)

    def test_rejects_nonunit_beamformer(self):
        geom, pos, _ = law_scene()
        with pytest.raises(ValueError):
            synthesize_bank(geom, pos, np.ones(4, dtype=complex), LAW_OFDM, 1)

    def test_drawn_bank_follows_the_analytic_law(self):
        geom, pos, f = law_scene()
        draws = np.array([
            synthesize_bank(geom, pos, f, LAW_OFDM, seed).aggregates
            for seed in range(LAW_DRAWS)
        ])
        cfg = LAW_OFDM
        assert_bank_law(
            draws, analytic_bank_mean(geom, pos, f, cfg),
            cfg.n_symbols * cfg.p_t_w * cfg.sigma2_w,
        )

    def test_observation_path_follows_the_analytic_law(self):
        # The oracle: a fresh pilot grid and noise per draw, collapsed by
        # the matched filter.
        geom, pos, f = law_scene()
        cfg = LAW_OFDM
        draws = np.array([
            matched_filter_bank(synthesize_observation(
                geom, pos, f, cfg, generate_pilots(cfg, 2 * seed), 2 * seed + 1
            )).aggregates
            for seed in range(LAW_DRAWS)
        ])
        assert_bank_law(
            draws, analytic_bank_mean(geom, pos, f, cfg),
            cfg.n_symbols * cfg.p_t_w * cfg.sigma2_w,
        )

    def test_law_check_rejects_a_variance_off_by_a_quarter(self):
        geom, pos, f = law_scene()
        cfg = LAW_OFDM
        draws = np.array([
            synthesize_bank(geom, pos, f, cfg, seed).aggregates
            for seed in range(LAW_DRAWS)
        ])
        with pytest.raises(AssertionError, match="covariance diagonal"):
            assert_bank_law(
                draws, analytic_bank_mean(geom, pos, f, cfg),
                1.25 * cfg.n_symbols * cfg.p_t_w * cfg.sigma2_w,
            )


class TestSnrAndRate:
    def test_null_beam_zero_snr(self, table1_ofdm):
        geom = UcaGeometry(2, 0.3, 0.005)
        pos = PolarPosition(5.0, 0.9)
        # h^T f = 0 requires orthogonality against g * a, which for n_a = 2
        # equal-gain-ish geometry differs from a; build it exactly.
        a = steering_vector(geom, pos)
        gains = element_gains(element_ranges(geom, pos), geom.wavelength_m)
        h = gains * a
        f = np.array([-h[1], h[0]])
        f /= np.linalg.norm(f)
        assert ue_received_snr(geom, pos, f, table1_ofdm) < 1e-25

    def test_linear_in_transmit_power(self, table1_ofdm, geom64, pos10):
        f = conjugate_focus_beamformer(geom64, pos10)
        doubled = dataclasses.replace(table1_ofdm, p_t_w=0.2)
        assert ue_received_snr(geom64, pos10, f, doubled) == pytest.approx(
            2.0 * ue_received_snr(geom64, pos10, f, table1_ofdm), rel=1e-12
        )

    def test_scalar_accumulation_oracle(self, table1_ofdm, geom64, pos10):
        f = conjugate_focus_beamformer(geom64, pos10)
        a = steering_vector(geom64, pos10)
        gains = element_gains(element_ranges(geom64, pos10), geom64.wavelength_m)
        acc = 0.0 + 0.0j
        for k in range(64):
            acc += gains[k] * a[k] * f[k]
        expected = table1_ofdm.p_t_w * abs(acc) ** 2 / table1_ofdm.sigma2_w
        assert ue_received_snr(geom64, pos10, f, table1_ofdm) == pytest.approx(
            expected, rel=1e-12
        )

    def test_rate_zero_at_null_beam(self, table1_ofdm):
        geom = UcaGeometry(2, 0.3, 0.005)
        pos = PolarPosition(5.0, 0.9)
        a = steering_vector(geom, pos)
        gains = element_gains(element_ranges(geom, pos), geom.wavelength_m)
        h = gains * a
        f = np.array([-h[1], h[0]])
        f /= np.linalg.norm(f)
        assert achievable_rate(geom, pos, f, table1_ofdm) == pytest.approx(0.0, abs=1e-6)

    def test_rate_equals_bandwidth_at_unit_snr(self, geom64, pos10):
        f = conjugate_focus_beamformer(geom64, pos10)
        base = OfdmConfig(2048, 14, 480e3, 0.0, 0.1, 1e-9)
        snr = ue_received_snr(geom64, pos10, f, base)
        unit_snr_cfg = dataclasses.replace(base, sigma2_w=1e-9 * snr)
        rate = achievable_rate(geom64, pos10, f, unit_snr_cfg)
        assert rate == pytest.approx(base.bandwidth_hz, rel=1e-9)
