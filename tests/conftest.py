"""Shared fixtures: the reference system configuration and small instances."""

import dataclasses

import numpy as np
import pytest

from nfisac import OfdmConfig, PolarPosition, UcaGeometry

SIGMA2_W = 10.0 ** ((-74.0 - 30.0) / 10.0)  # -74 dBm


@pytest.fixture
def table1_ofdm() -> OfdmConfig:
    """Reference wideband configuration (full subcarrier count)."""
    return OfdmConfig(
        m_subcarriers=2048,
        n_symbols=14,
        delta_f_hz=480e3,
        t_cp_s=0.07 / 480e3,
        p_t_w=0.1,
        sigma2_w=SIGMA2_W,
    )


@pytest.fixture
def reduced_ofdm() -> OfdmConfig:
    """Same numerology at M = 128 for Monte Carlo scale tests."""
    return OfdmConfig(
        m_subcarriers=128,
        n_symbols=14,
        delta_f_hz=480e3,
        t_cp_s=0.07 / 480e3,
        p_t_w=0.1,
        sigma2_w=SIGMA2_W,
    )


@pytest.fixture
def small_ofdm() -> OfdmConfig:
    """Tiny instance for brute-force oracles."""
    return OfdmConfig(
        m_subcarriers=4,
        n_symbols=2,
        delta_f_hz=480e3,
        t_cp_s=0.07 / 480e3,
        p_t_w=0.1,
        sigma2_w=1e-9,
    )


@pytest.fixture
def geom64() -> UcaGeometry:
    return UcaGeometry(n_a=64, radius_m=0.5, wavelength_m=0.005)


@pytest.fixture
def pos10() -> PolarPosition:
    return PolarPosition(d_m=10.0, theta_rad=0.7)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def record_bits(record) -> tuple:
    """Every field of a TrialRecord, floats as exact hex strings."""
    return tuple(
        float(value).hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(record)
    )
