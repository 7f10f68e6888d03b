"""Fisher information and bound computations against independent oracles.

The brute-force reference assembles per-sample derivatives with plain
Python loops and cmath so that nothing is shared with the vectorized
implementation except the model definition itself. The paper's expanded
closed form (``crlb_closed_form``, from the nine A/B/C geometry sums) is
the second oracle: the package computes the bound only by inverting the
FIM (``crlb_at``), and the expanded form must agree with it.
"""

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from nfisac import (
    FisherMatrix,
    OfdmConfig,
    PolarPosition,
    UcaGeometry,
    UnidentifiableParametersError,
    beam_coupling,
    conjugate_focus_beamformer,
    crlb_at,
    crlb_from_fim,
    fim,
    generate_pilots,
    noiseless_mean,
    sensitivities,
    steering_vector,
)
from nfisac.crlb import CrlbBound, gamma_coefficients
from nfisac.geometry import SPEED_OF_LIGHT

from conftest import random_unit_vector


@dataclass(frozen=True)
class GeometrySums:
    """The nine scalar sums feeding the expanded variance expressions."""

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    c1: float
    c2: float
    c3: float


def geometry_sums(sens, coupling, wavelength_m) -> GeometrySums:
    """The nine geometry-dependent sums of the expanded CRLB expressions."""
    r = sens.ranges_m
    ad, at = sens.alpha_d, sens.alpha_theta
    beta, zd, zt = coupling.beta, coupling.z_d, coupling.z_theta
    b_r, b_i = beta.real, beta.imag
    a1 = float(np.sum(ad**2 / r**4))
    a2 = float(np.sum(np.abs(beta * (1.0 - ad) + zd) ** 2 / r**2))
    a3 = (b_r * zd.imag - b_i * zd.real) * float(np.sum(ad / r**3))
    b1 = float(np.sum(at**2 / r**4))
    b2 = float(np.sum(np.abs(beta * at + zt) ** 2 / r**2))
    b3 = (b_r * zt.imag - b_i * zt.real) * float(np.sum(at / r**3))
    c1 = float(np.sum(ad * at / r**4))
    c2 = float(
        np.sum(np.real((np.conj(zd) + (1.0 - ad) * np.conj(beta)) * (zt + at * beta)) / r**2)
    )
    c3 = (b_r * zt.imag - b_i * zt.real) * float(np.sum(ad / r**3)) + (
        b_i * zd.real - b_r * zd.imag
    ) * float(np.sum(at / r**3))
    return GeometrySums(a1, a2, a3, b1, b2, b3, c1, c2, c3)


def crlb_closed_form(sens, coupling, config, wavelength_m) -> CrlbBound:
    """Expanded variance bounds from the A/B/C sums.

    The angle bracket enters with -4pi/lambda * B3: expanding
    |gamma_theta|^2 produces the cross term with a minus sign (the
    angular phase slope is -j 2pi/lambda (...)), and only that sign makes
    this path agree with the matrix-inverse path, which is authoritative.
    """
    sums = geometry_sums(sens, coupling, wavelength_m)
    wn2 = 4.0 * np.pi**2 / wavelength_m**2
    wn = 2.0 * np.pi / wavelength_m
    b2abs = abs(coupling.beta) ** 2
    bracket_d = b2abs * sums.a1 + wn2 * sums.a2 + 2.0 * wn * sums.a3
    bracket_t = b2abs * sums.b1 + wn2 * sums.b2 - 2.0 * wn * sums.b3
    bracket_x = b2abs * sums.c1 - wn2 * sums.c2 - wn * sums.c3
    prefactor = (
        config.n_symbols
        * config.m_subcarriers
        * config.p_t_w
        * wavelength_m**2
        / (8.0 * np.pi**2 * config.sigma2_w * sens.n_a)
    )
    denominator = prefactor * (bracket_d * bracket_t - bracket_x**2)
    var_d = bracket_t / denominator
    var_theta = bracket_d / denominator
    return CrlbBound(var_d=var_d, var_theta=var_theta, trace=var_d + var_theta)


def closed_form_at(geom, pos, f, config) -> CrlbBound:
    """The expanded closed form straight from (geometry, position, beam)."""
    coupling = beam_coupling(geom, pos, f)
    return crlb_closed_form(sensitivities(geom, pos), coupling, config, geom.wavelength_m)


def scalar_gamma(geom, pos, f, k):
    """Independent per-element derivative factors via scalar arithmetic."""
    n_a = geom.n_a
    lam = geom.wavelength_m
    d, theta = pos.d_m, pos.theta_rad
    radius = geom.radius_m

    def r_of(kk):
        psi = 2 * math.pi * kk / n_a
        return math.sqrt(d * d + radius * radius - 2 * d * radius * math.cos(theta - psi))

    def a_of(kk):
        return cmath.exp(1j * 2 * math.pi * (d - r_of(kk)) / lam) / math.sqrt(n_a)

    beta = sum(a_of(j) * f[j] for j in range(n_a))
    z_d = 0.0 + 0.0j
    z_t = 0.0 + 0.0j
    for j in range(n_a):
        psi = 2 * math.pi * j / n_a
        r_j = r_of(j)
        alpha_d = (d - radius * math.cos(theta - psi)) / r_j
        alpha_t = d * radius * math.sin(theta - psi) / r_j
        z_d += a_of(j) * (1 - alpha_d) * f[j]
        z_t += a_of(j) * alpha_t * f[j]
    psi_k = 2 * math.pi * k / n_a
    r_k = r_of(k)
    alpha_d_k = (d - radius * math.cos(theta - psi_k)) / r_k
    alpha_t_k = d * radius * math.sin(theta - psi_k) / r_k
    g_d = -(alpha_d_k / r_k) * beta + 1j * (2 * math.pi / lam) * (z_d + beta * (1 - alpha_d_k))
    g_t = -(alpha_t_k / r_k) * beta - 1j * (2 * math.pi / lam) * (z_t + beta * alpha_t_k)
    return r_k, a_of(k), g_d, g_t


def brute_force_fim(geom, pos, f, config):
    """Slepian-Bangs sum over every (symbol, subcarrier, element) sample."""
    pilots = generate_pilots(config, seed=1234)
    tau0 = 2 * pos.d_m / SPEED_OF_LIGHT
    j = np.zeros((2, 2))
    for n in range(config.n_symbols):
        for m in range(config.m_subcarriers):
            c_nm = complex(pilots.symbols[n, m]) * cmath.exp(
                -1j * 2 * math.pi * m * config.delta_f_hz * (config.t_cp_s + tau0)
            )
            for k in range(geom.n_a):
                r_k, a_k, g_d, g_t = scalar_gamma(geom, pos, f, k)
                gain = geom.wavelength_m / (4 * math.pi * r_k)
                dmu_d = c_nm * gain * a_k * g_d
                dmu_t = c_nm * gain * a_k * g_t
                j[0, 0] += (dmu_d.conjugate() * dmu_d).real
                j[0, 1] += (dmu_d.conjugate() * dmu_t).real
                j[1, 1] += (dmu_t.conjugate() * dmu_t).real
    j[1, 0] = j[0, 1]
    return 2.0 / config.sigma2_w * j


class TestBeamCoupling:
    def test_conjugate_focus_beta_is_one(self, geom64, pos10):
        coupling = beam_coupling(geom64, pos10, conjugate_focus_beamformer(geom64, pos10))
        assert coupling.beta == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_single_collinear_element_zeroes_zd(self):
        # n_a = 1 at phi = 0: alpha_d = 1 exactly, so the D_d weight vanishes.
        geom = UcaGeometry(1, 0.5, 0.005)
        pos = PolarPosition(10.0, 0.0)
        coupling = beam_coupling(geom, pos, np.array([1.0 + 0.0j]))
        assert coupling.z_d == pytest.approx(0.0, abs=1e-15)

    def test_scalar_accumulation_oracle(self, geom64, pos10):
        rng = np.random.default_rng(5)
        f = random_unit_vector(rng, 64)
        coupling = beam_coupling(geom64, pos10, f)
        a = steering_vector(geom64, pos10)
        sens = sensitivities(geom64, pos10)
        beta = sum(a[k] * f[k] for k in range(64))
        z_d = sum(a[k] * (1 - sens.alpha_d[k]) * f[k] for k in range(64))
        z_t = sum(a[k] * sens.alpha_theta[k] * f[k] for k in range(64))
        assert coupling.beta == pytest.approx(beta, rel=1e-12)
        assert coupling.z_d == pytest.approx(z_d, rel=1e-12)
        assert coupling.z_theta == pytest.approx(z_t, rel=1e-12)

    def test_beta_bounded_by_one(self, geom64):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pos = PolarPosition(rng.uniform(1.0, 300.0), rng.uniform(0, 2 * math.pi))
            f = random_unit_vector(rng, 64)
            assert abs(beam_coupling(geom64, pos, f).beta) <= 1.0 + 1e-12


class TestGammaCoefficients:
    def test_zero_coupling_zeroes_gamma_d(self):
        # f orthogonal to both a and a*(1-alpha_d): beta = z_d = 0.
        geom = UcaGeometry(4, 0.5, 0.005)
        pos = PolarPosition(10.0, 0.3)
        a = steering_vector(geom, pos)
        sens = sensitivities(geom, pos)
        basis = np.vstack([a, a * (1 - sens.alpha_d)])
        _, _, vh = np.linalg.svd(basis)
        f = np.conj(vh[-1])
        f /= np.linalg.norm(f)
        assert abs(a @ f) < 1e-12 and abs((a * (1 - sens.alpha_d)) @ f) < 1e-12
        coupling = beam_coupling(geom, pos, f)
        gammas = gamma_coefficients(sens, coupling, geom.wavelength_m)
        assert np.max(np.abs(gammas.gamma_d)) < 1e-10

    def test_collinear_element_identity(self, geom64):
        # Element at phi = 0 has alpha_d = 1, alpha_theta = 0:
        # gamma_d = -beta/r + j 2pi/lambda z_d.
        pos = PolarPosition(10.0, 0.0)
        rng = np.random.default_rng(7)
        f = random_unit_vector(rng, 64)
        sens = sensitivities(geom64, pos)
        coupling = beam_coupling(geom64, pos, f)
        gammas = gamma_coefficients(sens, coupling, geom64.wavelength_m)
        expected = -coupling.beta / sens.ranges_m[0] + 1j * (
            2 * math.pi / geom64.wavelength_m
        ) * coupling.z_d
        assert gammas.gamma_d[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference_of_mean(self, small_ofdm, geom64):
        # The assembled per-sample derivative equals a central finite
        # difference of the observation mean with the delay ramp frozen
        # at the base position (the derivative convention of the bound).
        pos = PolarPosition(10.0, 0.7)
        rng = np.random.default_rng(8)
        f = random_unit_vector(rng, 64)
        pilots = generate_pilots(small_ofdm, 9)
        tau0 = 2 * pos.d_m / SPEED_OF_LIGHT

        sens = sensitivities(geom64, pos)
        coupling = beam_coupling(geom64, pos, f)
        gammas = gamma_coefficients(sens, coupling, geom64.wavelength_m)
        a = steering_vector(geom64, pos)
        base = noiseless_mean(geom64, pos, f, small_ofdm, pilots, tau0_s=tau0)
        factor = base / (a * coupling.beta)[None, None, :]  # C * g per sample

        h_d, h_t = 1e-6, 1e-7
        fd_d = (
            noiseless_mean(geom64, PolarPosition(pos.d_m + h_d, pos.theta_rad), f, small_ofdm, pilots, tau0_s=tau0)
            - noiseless_mean(geom64, PolarPosition(pos.d_m - h_d, pos.theta_rad), f, small_ofdm, pilots, tau0_s=tau0)
        ) / (2 * h_d)
        fd_t = (
            noiseless_mean(geom64, PolarPosition(pos.d_m, pos.theta_rad + h_t), f, small_ofdm, pilots, tau0_s=tau0)
            - noiseless_mean(geom64, PolarPosition(pos.d_m, pos.theta_rad - h_t), f, small_ofdm, pilots, tau0_s=tau0)
        ) / (2 * h_t)
        analytic_d = factor * (a * gammas.gamma_d)[None, None, :]
        analytic_t = factor * (a * gammas.gamma_theta)[None, None, :]
        assert np.max(np.abs(analytic_d - fd_d)) / np.max(np.abs(fd_d)) < 1e-5
        assert np.max(np.abs(analytic_t - fd_t)) / np.max(np.abs(fd_t)) < 1e-5


class TestFim:
    def test_linear_in_power(self, geom64, pos10, reduced_ofdm):
        f = conjugate_focus_beamformer(geom64, pos10)
        base = fim(geom64, pos10, f, reduced_ofdm)
        doubled = fim(
            geom64, pos10, f, dataclasses.replace(reduced_ofdm, p_t_w=0.2)
        )
        for attr in ("j_dd", "j_dtheta", "j_thetatheta"):
            assert getattr(doubled, attr) == pytest.approx(
                2 * getattr(base, attr), rel=1e-12
            )

    def test_scale_laws(self, geom64, pos10, reduced_ofdm):
        rng = np.random.default_rng(10)
        f = random_unit_vector(rng, 64)
        base = fim(geom64, pos10, f, reduced_ofdm)
        for field, factor in [("n_symbols", 2), ("m_subcarriers", 2)]:
            scaled_cfg = dataclasses.replace(
                reduced_ofdm, **{field: getattr(reduced_ofdm, field) * 2}
            )
            scaled = fim(geom64, pos10, f, scaled_cfg)
            assert scaled.j_dd / base.j_dd == pytest.approx(factor, rel=1e-9)
        halved_noise = fim(
            geom64, pos10, f, dataclasses.replace(reduced_ofdm, sigma2_w=reduced_ofdm.sigma2_w * 2)
        )
        assert halved_noise.j_dd == pytest.approx(base.j_dd / 2, rel=1e-12)

    def test_brute_force_slepian_bangs(self):
        # Small instances, full per-sample scalar assembly.
        rng = np.random.default_rng(11)
        config = OfdmConfig(8, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        for _ in range(5):
            n_a = int(rng.integers(2, 9))
            geom = UcaGeometry(n_a, 0.5, 0.005)
            pos = PolarPosition(rng.uniform(2.0, 50.0), rng.uniform(0, 2 * math.pi))
            f = random_unit_vector(rng, n_a)
            ours = fim(geom, pos, f, config).as_array()
            brute = brute_force_fim(geom, pos, f, config)
            assert np.max(np.abs(ours - brute)) / np.max(np.abs(brute)) < 1e-9


class TestCrlbFromFim:
    def test_diagonal_inverse(self):
        bound = crlb_from_fim(FisherMatrix(4.0, 0.0, 25.0))
        assert bound.var_d == pytest.approx(0.25)
        assert bound.var_theta == pytest.approx(0.04)
        assert bound.trace == pytest.approx(0.29)

    def test_rank_one_singularity_raises(self):
        with pytest.raises(UnidentifiableParametersError):
            crlb_from_fim(FisherMatrix(4.0, 10.0, 25.0))

    def test_matches_matrix_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            m = a @ a.T + 0.1 * np.eye(2)
            bound = crlb_from_fim(FisherMatrix(m[0, 0], m[0, 1], m[1, 1]))
            inv = np.linalg.inv(m)
            assert bound.var_d == pytest.approx(inv[0, 0], rel=1e-12)
            assert bound.var_theta == pytest.approx(inv[1, 1], rel=1e-12)


class TestClosedForm:
    def test_a3_vanishes_for_real_couplings(self, geom64):
        # Conjugate focus gives real beta and real z_d.
        pos = PolarPosition(10.0, 0.0)
        f = conjugate_focus_beamformer(geom64, pos)
        sens = sensitivities(geom64, pos)
        coupling = beam_coupling(geom64, pos, f)
        sums = geometry_sums(sens, coupling, geom64.wavelength_m)
        assert abs(coupling.beta.imag) < 1e-12 and abs(coupling.z_d.imag) < 1e-9
        assert abs(sums.a3) < 1e-9 * abs(sums.a2)

    def test_single_element_sums_by_hand(self):
        geom = UcaGeometry(1, 0.5, 0.005)
        pos = PolarPosition(10.0, 1.0)
        f = np.array([cmath.exp(0.3j)])
        sens = sensitivities(geom, pos)
        coupling = beam_coupling(geom, pos, f)
        sums = geometry_sums(sens, coupling, geom.wavelength_m)
        r = sens.ranges_m[0]
        ad, at = sens.alpha_d[0], sens.alpha_theta[0]
        beta, zd, zt = coupling.beta, coupling.z_d, coupling.z_theta
        assert sums.a1 == pytest.approx(ad**2 / r**4, rel=1e-12)
        assert sums.a2 == pytest.approx(abs(beta * (1 - ad) + zd) ** 2 / r**2, rel=1e-12)
        assert sums.b1 == pytest.approx(at**2 / r**4, rel=1e-12)
        assert sums.b2 == pytest.approx(abs(beta * at + zt) ** 2 / r**2, rel=1e-12)
        assert sums.c1 == pytest.approx(ad * at / r**4, rel=1e-12)

    def test_agrees_with_matrix_inverse_path(self, reduced_ofdm):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(300):
            radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            geom = UcaGeometry(64, radius, 0.005)
            pos = PolarPosition(rng.uniform(10.0, 400.0), rng.uniform(0, 2 * math.pi))
            f = random_unit_vector(rng, 64)
            direct = crlb_at(geom, pos, f, reduced_ofdm)
            closed = closed_form_at(geom, pos, f, reduced_ofdm)
            worst = max(
                worst,
                abs(closed.var_d - direct.var_d) / direct.var_d,
                abs(closed.var_theta - direct.var_theta) / direct.var_theta,
            )
        assert worst < 1e-9

    def test_agrees_in_deep_near_field(self, reduced_ofdm):
        # Small arrays close to the source where the angle cross sums are
        # not symmetry-suppressed; separates the two closed-form sign
        # conventions decisively.
        rng = np.random.default_rng(14)
        for _ in range(50):
            n_a = int(rng.integers(4, 10))
            geom = UcaGeometry(n_a, 5.0, 0.005)
            pos = PolarPosition(rng.uniform(5.5, 8.0), rng.uniform(0, 2 * math.pi))
            f = random_unit_vector(rng, n_a)
            direct = crlb_at(geom, pos, f, reduced_ofdm)
            closed = closed_form_at(geom, pos, f, reduced_ofdm)
            assert closed.var_d == pytest.approx(direct.var_d, rel=1e-9)
            assert closed.var_theta == pytest.approx(direct.var_theta, rel=1e-9)

    def test_rotational_invariance(self, reduced_ofdm, geom64):
        rng = np.random.default_rng(15)
        f = random_unit_vector(rng, 64)
        pos = PolarPosition(25.0, 0.9)
        rotated = PolarPosition(25.0, 0.9 + 2 * math.pi / 64)
        base = crlb_at(geom64, pos, f, reduced_ofdm)
        moved = crlb_at(geom64, rotated, np.roll(f, 1), reduced_ofdm)
        assert moved.trace == pytest.approx(base.trace, rel=1e-9)

    def test_variance_monotone_in_distance_at_conjugate_focus(self, reduced_ofdm, geom64):
        previous = 0.0
        for d in range(10, 401, 10):
            pos = PolarPosition(float(d), 0.4)
            f = conjugate_focus_beamformer(geom64, pos)
            bound = crlb_at(geom64, pos, f, reduced_ofdm)
            assert bound.var_d >= previous
            previous = bound.var_d
