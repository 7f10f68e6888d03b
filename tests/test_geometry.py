"""Geometry primitives against hand values and independent scalar oracles."""

import cmath
import math

import numpy as np
import pytest

from nfisac import (
    PolarPosition,
    UcaGeometry,
    element_angles,
    element_gains,
    element_ranges,
    rayleigh_distance,
    steering_vector,
    ula_rayleigh_distance,
)
from nfisac.geometry import sensitivities


class TestElementAngles:
    def test_four_elements(self):
        angles = element_angles(UcaGeometry(4, 0.5, 0.005))
        assert angles[0] == 0.0
        assert angles[2] == pytest.approx(math.pi, abs=0.0)

    def test_last_of_64(self):
        angles = element_angles(UcaGeometry(64, 0.5, 0.005))
        assert angles[-1] == pytest.approx(2.0 * math.pi * 63 / 64, rel=1e-15)
        assert angles[-1] == pytest.approx(6.1850105367549055, rel=1e-12)

    def test_strictly_increasing_in_halfopen_interval(self):
        angles = element_angles(UcaGeometry(17, 1.0, 0.01))
        assert np.all(np.diff(angles) > 0)
        assert angles[0] >= 0.0 and angles[-1] < 2.0 * math.pi


class TestElementRanges:
    def test_collinear(self):
        geom = UcaGeometry(4, 0.5, 0.005)
        # theta = 0 puts element 0 at phi = 0 and element 2 at phi = pi.
        r = element_ranges(geom, PolarPosition(10.0, 0.0))
        assert r[0] == pytest.approx(9.5, rel=1e-15)
        assert r[2] == pytest.approx(10.5, rel=1e-15)

    def test_right_angle(self):
        geom = UcaGeometry(4, 0.5, 0.005)
        r = element_ranges(geom, PolarPosition(10.0, 0.0))
        assert r[1] == pytest.approx(math.sqrt(100.25), rel=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        geom = UcaGeometry(64, 2.0, 0.005)
        for _ in range(200):
            d = rng.uniform(2.5, 400.0)
            pos = PolarPosition(d, rng.uniform(0, 2 * math.pi))
            r = element_ranges(geom, pos)
            assert np.all(r >= abs(d - 2.0) - 1e-12)
            assert np.all(r <= d + 2.0 + 1e-12)

    def test_rotation_is_cyclic_shift(self):
        geom = UcaGeometry(16, 1.0, 0.005)
        base = element_ranges(geom, PolarPosition(7.0, 0.3))
        shifted = element_ranges(geom, PolarPosition(7.0, 0.3 + 2 * math.pi / 16))
        np.testing.assert_allclose(shifted, np.roll(base, 1), rtol=1e-14)

    def test_farfield_limit(self):
        # r_k approaches d - R cos(phi_k) when d >> R.
        geom = UcaGeometry(32, 0.5, 0.005)
        d = 1e6 * geom.radius_m
        pos = PolarPosition(d, 1.1)
        r = element_ranges(geom, pos)
        phi = pos.theta_rad - element_angles(geom)
        planar = d - geom.radius_m * np.cos(phi)
        assert np.max(np.abs(r - planar)) < geom.radius_m**2 / d


class TestSteeringVector:
    def test_unit_norm_on_random_positions(self):
        rng = np.random.default_rng(2)
        geom = UcaGeometry(64, 0.5, 0.005)
        for _ in range(1000):
            pos = PolarPosition(rng.uniform(0.6, 400.0), rng.uniform(0, 2 * math.pi))
            a = steering_vector(geom, pos)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_single_element_identity_phase(self):
        # One element at tiny radius: r ~ d so the entry has no phase.
        geom = UcaGeometry(1, 1e-15, 0.005)
        a = steering_vector(geom, PolarPosition(10.0, 0.4))
        assert a[0] == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_scalar_loop_oracle(self):
        geom = UcaGeometry(64, 0.5, 0.005)
        pos = PolarPosition(10.0, 0.0)
        a = steering_vector(geom, pos)
        for k in range(64):
            psi_k = 2.0 * math.pi * k / 64
            r_k = math.sqrt(10.0**2 + 0.5**2 - 2 * 10.0 * 0.5 * math.cos(pos.theta_rad - psi_k))
            expected = cmath.exp(1j * 2 * math.pi * (10.0 - r_k) / 0.005) / 8.0
            assert a[k] == pytest.approx(expected, rel=1e-10)


class TestElementGains:
    def test_unity_gain_range(self):
        lam = 0.005
        g = element_gains(np.array([lam / (4 * math.pi)]), lam)
        assert g[0] == pytest.approx(1.0, rel=1e-15)

    def test_inverse_proportionality(self):
        g = element_gains(np.array([3.0, 6.0]), 0.005)
        assert g[0] == pytest.approx(2.0 * g[1], rel=1e-15)

    def test_direct_value(self):
        g = element_gains(np.array([10.0]), 0.005)
        assert g[0] == pytest.approx(3.978873577297384e-05, rel=1e-12)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            element_gains(np.array([1.0, 0.0]), 0.005)
        with pytest.raises(ValueError):
            element_gains(np.array([-2.0]), 0.005)


class TestSensitivities:
    def test_collinear_element(self):
        geom = UcaGeometry(4, 0.5, 0.005)
        sens = sensitivities(geom, PolarPosition(10.0, 0.0))
        assert sens.alpha_d[0] == pytest.approx(1.0, rel=1e-15)
        assert sens.alpha_theta[0] == pytest.approx(0.0, abs=1e-15)

    def test_right_angle_element(self):
        geom = UcaGeometry(4, 0.5, 0.005)
        sens = sensitivities(geom, PolarPosition(10.0, 0.0))
        r = math.sqrt(100.25)
        assert sens.alpha_d[1] == pytest.approx(10.0 / r, rel=1e-12)
        assert abs(sens.alpha_theta[1]) == pytest.approx(5.0 / r, rel=1e-12)

    def test_direction_cosine_bound(self):
        rng = np.random.default_rng(3)
        geom = UcaGeometry(64, 2.0, 0.005)
        for _ in range(100):
            pos = PolarPosition(rng.uniform(2.5, 100.0), rng.uniform(0, 2 * math.pi))
            sens = sensitivities(geom, pos)
            assert np.all(np.abs(sens.alpha_d) <= 1.0 + 1e-14)
            bound = pos.d_m * geom.radius_m / sens.ranges_m
            assert np.all(np.abs(sens.alpha_theta) <= bound + 1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        geom = UcaGeometry(32, 1.0, 0.005)
        h_d, h_t = 1e-5, 1e-5
        for _ in range(25):
            d = rng.uniform(3.0, 300.0)
            theta = rng.uniform(0, 2 * math.pi)
            sens = sensitivities(geom, PolarPosition(d, theta))
            fd_d = (
                element_ranges(geom, PolarPosition(d + h_d, theta))
                - element_ranges(geom, PolarPosition(d - h_d, theta))
            ) / (2 * h_d)
            fd_t = (
                element_ranges(geom, PolarPosition(d, theta + h_t))
                - element_ranges(geom, PolarPosition(d, theta - h_t))
            ) / (2 * h_t)
            np.testing.assert_allclose(sens.alpha_d, fd_d, rtol=1e-6)
            np.testing.assert_allclose(sens.alpha_theta, fd_t, rtol=1e-6, atol=1e-9)

    def test_rejects_position_inside_array(self):
        geom = UcaGeometry(8, 2.0, 0.005)
        with pytest.raises(ValueError):
            sensitivities(geom, PolarPosition(1.5, 0.0))


class TestNearFieldBoundaries:
    def test_reference_rayleigh_distance(self):
        assert rayleigh_distance(UcaGeometry(64, 0.5, 0.005)) == 400.0

    def test_large_radius(self):
        assert rayleigh_distance(UcaGeometry(64, 5.0, 0.005)) == pytest.approx(40000.0)

    def test_quadratic_scaling(self):
        base = rayleigh_distance(UcaGeometry(64, 1.0, 0.005))
        scaled = rayleigh_distance(UcaGeometry(64, 3.0, 0.005))
        assert scaled == pytest.approx(9.0 * base, rel=1e-15)

    def test_ula_comparison(self):
        ula = ula_rayleigh_distance(64, 0.005)
        assert ula == pytest.approx(9.9225, rel=1e-12)
        ratio = rayleigh_distance(UcaGeometry(64, 0.5, 0.005)) / ula
        assert ratio == pytest.approx(40.312, rel=1e-3)

    def test_two_element_ula(self):
        assert ula_rayleigh_distance(2, 0.005) == pytest.approx(0.0025, rel=1e-15)

    def test_ula_needs_two_elements(self):
        with pytest.raises(ValueError):
            ula_rayleigh_distance(1, 0.005)


class TestValidation:
    def test_geometry_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            UcaGeometry(0, 0.5, 0.005)
        with pytest.raises(ValueError):
            UcaGeometry(4, -1.0, 0.005)
        with pytest.raises(ValueError):
            UcaGeometry(4, 0.5, 0.0)

    def test_position_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            PolarPosition(0.0, 0.0)
