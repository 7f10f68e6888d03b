"""Pilot generation, observation synthesis, SNR and rate contracts."""

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
    generate_pilots,
    noiseless_mean,
    phase_factor,
    steering_vector,
    synthesize_observation,
    ue_received_snr,
)
from nfisac.geometry import SPEED_OF_LIGHT, element_gains, element_ranges

from conftest import random_unit_vector


def orthogonal_beamformer(geom, pos):
    """Unit vector with a^T f = 0 (needs n_a >= 2)."""
    a = steering_vector(geom, pos)
    f = np.zeros(geom.n_a, dtype=complex)
    f[0], f[1] = -a[1], a[0]
    return f / np.linalg.norm(f)


class TestOfdmConfig:
    def test_cp_and_symbol_durations(self, table1_ofdm):
        assert table1_ofdm.t_cp_s == pytest.approx(145.833e-9, rel=1e-4)
        assert table1_ofdm.symbol_duration_s == pytest.approx(2.22917e-6, rel=1e-4)

    def test_bandwidth(self, table1_ofdm):
        assert table1_ofdm.bandwidth_hz == pytest.approx(983.04e6, rel=1e-12)

    def test_rejects_excess_doppler(self):
        with pytest.raises(ValueError):
            OfdmConfig(8, 2, 480e3, 0.0, 0.1, 1e-9, 60e9, nu0_hz=10e3)

    def test_allows_doppler_within_contract(self):
        cfg = OfdmConfig(8, 2, 480e3, 0.0, 0.1, 1e-9, 60e9, nu0_hz=4e3)
        assert cfg.nu0_hz == 4e3


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
    def test_zero_subcarrier_zero_doppler(self, small_ofdm):
        pilots = generate_pilots(small_ofdm, 1)
        for n in range(small_ofdm.n_symbols):
            value = phase_factor(small_ofdm, pilots, n, 0, tau0_s=1e-7)
            assert value == pytest.approx(complex(pilots.symbols[n, 0]), rel=1e-15)

    def test_all_phases_vanish(self):
        cfg = OfdmConfig(4, 2, 480e3, 0.0, 0.1, 1e-9, 60e9)
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
        cfg = OfdmConfig(1, 1, 480e3, 1e-7, 0.25, 0.0, 60e9)
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
        cfg = OfdmConfig(100, 100, 480e3, 0.0, 0.1, 4e-9, 60e9)
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
        cfg = OfdmConfig(2, 2, 480e3, 0.0, 0.1, 1e-6, 60e9)
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
        cfg_long = OfdmConfig(2, 50_000, 480e3, 0.0, 0.1, 1e-6, 60e9)
        pilots_long = generate_pilots(cfg_long, 62)
        obs = synthesize_observation(geom, pos, f, cfg_long, pilots_long, 63)
        noise = obs.samples - noiseless_mean(geom, pos, f, cfg_long, pilots_long)
        flat = noise.reshape(cfg_long.n_symbols, -1)  # symbols x (m*k) slots
        x, y = flat[:, 0], flat[:, 3]
        corr = np.abs(np.mean(x * np.conj(y))) / cfg_long.sigma2_w
        assert corr < 3.0 / math.sqrt(cfg_long.n_symbols)
        assert len(list(rng_seeds)) == draws and mean.shape == (2, 2, 2)


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
        base = OfdmConfig(2048, 14, 480e3, 0.0, 0.1, 1e-9, 60e9)
        snr = ue_received_snr(geom64, pos10, f, base)
        unit_snr_cfg = dataclasses.replace(base, sigma2_w=1e-9 * snr)
        rate = achievable_rate(geom64, pos10, f, unit_snr_cfg)
        assert rate == pytest.approx(base.bandwidth_hz, rel=1e-9)
