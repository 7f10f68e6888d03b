"""ML estimator: matched filter, cost, scores, grid search, refinement."""

import ast
import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nfisac import (
    GridSpec,
    OfdmConfig,
    PolarPosition,
    UcaGeometry,
    coarse_grid_search,
    conjugate_focus_beamformer,
    cost,
    estimate,
    lm_refine,
    optimize_beamformer,
    steering_vector,
    synthesize_bank,
    wrap_angle,
)
from nfisac import cli, harness
from nfisac import estimator as estimator_module
from nfisac import grid as grid_module
from nfisac.crlb import beam_coupling, gamma_coefficients, mean_product_scale
from nfisac.estimator import MlEstimate, _evaluate, matched_filter_bank, polish_basin, xi
from nfisac.grid import (
    GRID_BLOCK_ROWS,
    TWO_PI,
    _circulants,
    _collapse_rows,
    _cost_rows as _cost_rows_fft,
    _phasor,
    _row_bounds,
    _row_matmul,
    _Workspace,
)
from nfisac.geometry import SPEED_OF_LIGHT, element_gains, element_ranges, sensitivities
from nfisac.signal import (
    MatchedFilterBank,
    Observation,
    delay_phases,
    generate_pilots,
    noiseless_mean,
    phase_factor_grid,
    synthesize_observation,
)

from conftest import random_unit_vector, record_bits


def small_observation(rng, n=2, m=4, n_a=4, sigma2=1e-9, radius=0.5, d=12.0, theta=0.9):
    config = OfdmConfig(m, n, 480e3, 0.07 / 480e3, 0.1, sigma2)
    geom = UcaGeometry(n_a, radius, 0.005)
    pos = PolarPosition(d, theta)
    f = random_unit_vector(rng, n_a)
    pilots = generate_pilots(config, int(rng.integers(1 << 30)))
    obs = synthesize_observation(geom, pos, f, config, pilots, int(rng.integers(1 << 30)))
    return config, geom, pos, f, obs


def brute_cost(candidate, obs, geom):
    """||r - mu(candidate)||^2 - ||r||^2 via the full model mean."""
    mu = noiseless_mean(geom, candidate, obs.beamformer, obs.config, obs.pilots)
    return float(
        np.sum(np.abs(obs.samples - mu) ** 2) - np.sum(np.abs(obs.samples) ** 2)
    )


def brute_scores(candidate, obs, geom):
    """Re{(r - mu)^H dmu/deta} with the delay ramp held at the candidate."""
    config = obs.config
    tau0 = 2 * candidate.d_m / SPEED_OF_LIGHT
    mu = noiseless_mean(geom, candidate, obs.beamformer, config, obs.pilots, tau0_s=tau0)
    sens = sensitivities(geom, candidate)
    coupling = beam_coupling(geom, candidate, obs.beamformer)
    gammas = gamma_coefficients(sens, coupling, geom.wavelength_m)
    a = steering_vector(geom, candidate)
    c_grid = phase_factor_grid(config, obs.pilots, tau0)
    dmu_d = c_grid[:, :, None] * (sens.gains * a * gammas.gamma_d)[None, None, :]
    dmu_t = c_grid[:, :, None] * (sens.gains * a * gammas.gamma_theta)[None, None, :]
    residual = obs.samples - mu
    return (
        float(np.real(np.vdot(residual, dmu_d))),
        float(np.real(np.vdot(residual, dmu_t))),
    )


def _delay_collapsed(bank, config, d_m):
    """Oracle: per-element sum_m e^{+j 2 pi m df (Tcp + tau)} Z[k, m] at tau = 2d/c."""
    return bank.aggregates @ np.conj(delay_phases(config, 2.0 * d_m / SPEED_OF_LIGHT))


def oracle_xi(candidate, bank, geom, config):
    """Oracle: xi_k = g_k conj(a_k) * delay-compensated bank, one candidate."""
    collapsed = _delay_collapsed(bank, config, candidate.d_m)
    gains = element_gains(element_ranges(geom, candidate), geom.wavelength_m)
    return gains * np.conj(steering_vector(geom, candidate)) * collapsed


def oracle_cost(candidate, obs, geom, bank):
    """Oracle: L = s |beta|^2 sum_k 1/r_k^2 - 2 Re{beta sum_k conj(xi_k)}, one candidate."""
    ranges = element_ranges(geom, candidate)
    beta = steering_vector(geom, candidate) @ obs.beamformer
    scale = mean_product_scale(obs.config, geom)
    deterministic = scale * float(np.abs(beta) ** 2) * float(np.sum(1.0 / ranges**2))
    xis = oracle_xi(candidate, bank, geom, obs.config)
    return deterministic - 2.0 * float(np.real(beta * np.sum(np.conj(xis))))


def oracle_scores(candidate, obs, geom, bank, config):
    """Oracle: (F_d, F_theta) from rho_k = xi_k - s beta / r_k^2 and gamma_k, one candidate."""
    sens = sensitivities(geom, candidate)
    coupling = beam_coupling(geom, candidate, obs.beamformer)
    gammas = gamma_coefficients(sens, coupling, geom.wavelength_m)
    scale = mean_product_scale(config, geom)
    rho = oracle_xi(candidate, bank, geom, config) - scale * coupling.beta / sens.ranges_m**2
    return (
        float(np.real(np.sum(np.conj(gammas.gamma_d) * rho))),
        float(np.real(np.sum(np.conj(gammas.gamma_theta) * rho))),
    )


def oracle_polish(basin, obs, geom, bank, spec, rounds=2, n_scan=65):
    """Oracle: the windowed coordinate descent with one oracle cost call per candidate."""
    d_values = spec.d_values()
    idx = int(np.argmin(np.abs(d_values - basin.d_m)))
    d_window = float(np.max(np.diff(d_values)[max(idx - 1, 0) : idx + 1]))
    t_window = 2 * math.pi / spec.n_theta
    d_lo = geom.radius_m * (1.0 + 1e-6)
    current = basin
    for _ in range(rounds):
        cand_d = np.clip(current.d_m + np.linspace(-d_window, d_window, n_scan), d_lo, None)
        costs_d = [
            oracle_cost(PolarPosition(float(dc), current.theta_rad), obs, geom, bank)
            for dc in cand_d
        ]
        current = PolarPosition(float(cand_d[int(np.argmin(costs_d))]), current.theta_rad)
        offsets_t = np.linspace(-t_window, t_window, n_scan)
        costs_t = [
            oracle_cost(
                PolarPosition(current.d_m, float(np.mod(current.theta_rad + dt, 2 * math.pi))),
                obs, geom, bank,
            )
            for dt in offsets_t
        ]
        best = current.theta_rad + float(offsets_t[int(np.argmin(costs_t))])
        current = PolarPosition(current.d_m, float(np.mod(best, 2 * math.pi)))
        d_window = 4.0 * (2.0 * d_window / (n_scan - 1))
        t_window = 4.0 * (2.0 * t_window / (n_scan - 1))
    return current


def _cost_rows_direct(obs, geom, bank, d_values, theta_values):
    """Oracle: the cost over the full grid from the steering vectors, one row at a time."""
    config = obs.config
    scale = mean_product_scale(config, geom)
    psi = 2 * math.pi * np.arange(geom.n_a) / geom.n_a
    phi = theta_values[:, None] - psi[None, :]
    cosphi = np.cos(phi)
    out = np.empty((d_values.size, theta_values.size))
    for i, d in enumerate(d_values):
        collapsed = _delay_collapsed(bank, config, d)
        r = np.sqrt(d * d + geom.radius_m**2 - 2.0 * d * geom.radius_m * cosphi)
        a = np.exp(1j * 2 * math.pi * (d - r) / geom.wavelength_m) / np.sqrt(geom.n_a)
        g = geom.wavelength_m / (4.0 * np.pi * r)
        beta = a @ obs.beamformer
        deterministic = scale * np.abs(beta) ** 2 * np.sum(1.0 / r**2, axis=1)
        # sum_k conj(xi_k) = sum_k g a conj(collapsed_k)
        data = 2.0 * np.real(beta * ((g * a) @ np.conj(collapsed)))
        out[i] = deterministic - data
    return out


def _cost_rows_unblocked(bank, geom, d_values, theta_values):
    """Oracle: the polyphase grid kernel on a whole tile at once, phases not reduced.

    ``_cost_rows`` as it was before its blocks: every intermediate spans the
    tile, and the template phase 2 pi (d - rho) / lambda goes to cos and sin
    as it is, up to 2 pi R / lambda.
    """
    config = bank.config
    n_a = geom.n_a
    n_theta = theta_values.size
    q = n_theta // n_a
    half = q // 2 + 1
    rows = d_values.size
    cosu = np.cos(TWO_PI * (np.arange(half)[:, None] + q * np.arange(n_a)) / n_theta)
    collapsed = _collapse_rows(bank, d_values)
    d = d_values[:, None, None]
    rho = np.sqrt(d * d + geom.radius_m**2 - 2.0 * d * geom.radius_m * cosu)
    a_u = _phasor(TWO_PI * (d - rho) / geom.wavelength_m)
    ga_u = a_u * (geom.wavelength_m / (4.0 * np.pi) / rho)
    inv_sum = (1.0 / rho**2).sum(axis=2)[:, :, None]
    beta = _row_matmul(
        a_u.reshape(rows * half, n_a), _circulants(bank.beamformer / np.sqrt(n_a))
    )
    beta = beta.reshape(rows, half, 2 * n_a)
    data_sum = ga_u @ _circulants(np.conj(collapsed) / np.sqrt(n_a))
    b_re, b_im = beta.real, beta.imag
    cost = b_re * b_re
    cost += b_im * b_im
    cost *= mean_product_scale(config, geom) * inv_sum
    cross = b_re * data_sum.real
    cross -= b_im * data_sum.imag
    cross *= 2.0
    cost -= cross
    out = np.empty((rows, n_a, q))
    out[:, :, :half] = cost[:, :, :n_a].transpose(0, 2, 1)
    out[:, :, half:] = cost[:, q - half : 0 : -1, n_a:].transpose(0, 2, 1)
    return out.reshape(rows, n_theta)


def _local_minima(costs):
    """Oracle: boolean mask of 8-neighborhood local minima; angles wrap, ranges clip."""
    row_min = np.minimum(np.roll(costs, 1, axis=1), np.roll(costs, -1, axis=1))
    np.minimum(row_min, costs, out=row_min)
    neigh = row_min.copy()
    np.minimum(neigh[1:], row_min[:-1], out=neigh[1:])
    np.minimum(neigh[:-1], row_min[1:], out=neigh[:-1])
    return costs <= neigh


def oracle_search(obs, geom, bank, spec):
    """Full-surface search: every cost, the minima mask, one global lexsort.

    Returns (range index, angle index, cost) for the best N_BASINS minima,
    lowest cost first, ties on the lowest index pair.
    """
    costs = _cost_rows_direct(obs, geom, bank, spec.d_values(), spec.theta_values())
    d_idx, t_idx = np.nonzero(_local_minima(costs))
    values = costs[d_idx, t_idx]
    order = np.lexsort((t_idx, d_idx, values))[: grid_module.N_BASINS]
    return [(int(d_idx[i]), int(t_idx[i]), float(values[i])) for i in order]


@pytest.mark.parametrize("theta, want", [
    (-1e-17, 0.0), (-1e-300, 0.0), (-0.0, 0.0), (2 * math.pi, 0.0), (-2 * math.pi, 0.0),
    (-0.5, 2 * math.pi - 0.5), (7.0, 7.0 - 2 * math.pi),
])
def test_wrap_angle_lands_in_one_half_open_turn(theta, want):
    # A tiny negative angle wraps to 2 pi - |theta|, which rounds to 2 pi.
    got = wrap_angle(theta)
    assert got == want and 0.0 <= got < 2 * math.pi


class TestMatchedFilterBank:
    def test_zero_observation(self, small_ofdm):
        geom = UcaGeometry(2, 0.4, 0.005)
        pilots = generate_pilots(small_ofdm, 3)
        obs = Observation(
            np.zeros((2, 4, 2), dtype=complex), pilots, small_ofdm, np.array([1.0, 0.0j])
        )
        assert np.max(np.abs(matched_filter_bank(obs).aggregates)) == 0.0

    def test_single_symbol_collapse(self):
        rng = np.random.default_rng(40)
        config, geom, pos, f, obs = small_observation(rng, n=1, m=3, n_a=2)
        bank = matched_filter_bank(obs)
        expected = np.conj(obs.pilots.symbols[0])[None, :].T.T * obs.samples[0].T
        np.testing.assert_allclose(
            bank.aggregates, np.conj(obs.pilots.symbols[0])[None, :] * obs.samples[0].T, rtol=1e-12
        )
        assert expected.shape == bank.aggregates.shape

    def test_direct_double_sum_oracle(self):
        rng = np.random.default_rng(41)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=3, n_a=2)
        bank = matched_filter_bank(obs)
        for k in range(2):
            for m in range(3):
                acc = 0j
                for n in range(2):
                    acc += np.conj(obs.pilots.symbols[n, m]) * obs.samples[n, m, k]
                assert bank.aggregates[k, m] == pytest.approx(acc, rel=1e-12)


class TestXi:
    def test_noiseless_truth_value(self):
        # At the generating position of a noiseless observation the
        # matched filter collapses to scale * beta / r_k^2.
        rng = np.random.default_rng(42)
        config, geom, pos, f, obs = small_observation(rng, sigma2=0.0, n=3, m=5, n_a=6)
        bank = matched_filter_bank(obs)
        values = xi(pos, bank, geom)
        sens = sensitivities(geom, pos)
        beta = beam_coupling(geom, pos, f).beta
        expected = mean_product_scale(config, geom) * beta / sens.ranges_m**2
        np.testing.assert_allclose(values, expected, rtol=1e-9)

    def test_zero_observation_gives_zero(self, small_ofdm):
        geom = UcaGeometry(2, 0.4, 0.005)
        pilots = generate_pilots(small_ofdm, 3)
        obs = Observation(
            np.zeros((2, 4, 2), dtype=complex), pilots, small_ofdm, np.array([1.0, 0.0j])
        )
        bank = matched_filter_bank(obs)
        values = xi(PolarPosition(5.0, 0.1), bank, geom)
        assert np.max(np.abs(values)) == 0.0

    def test_single_subcarrier_delay_is_pure_phase(self):
        # With M = 1 the delay compensation multiplies xi by unit phase
        # only, so candidate delay changes leave |xi| invariant.
        rng = np.random.default_rng(43)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=1, n_a=3)
        bank = matched_filter_bank(obs)
        a = xi(PolarPosition(pos.d_m, pos.theta_rad), bank, geom)
        b = xi(PolarPosition(pos.d_m + 1.7, pos.theta_rad), bank, geom)
        ranges_a = sensitivities(geom, pos).ranges_m
        ranges_b = sensitivities(geom, PolarPosition(pos.d_m + 1.7, pos.theta_rad)).ranges_m
        np.testing.assert_allclose(
            np.abs(a) * ranges_a**1, np.abs(b) * ranges_b * ranges_a / ranges_a, rtol=1e-9
        )

    def test_rejects_candidate_inside_array(self, geom64, small_ofdm):
        pilots = generate_pilots(small_ofdm, 1)
        obs = Observation(
            np.zeros((2, 4, 64), dtype=complex), pilots, small_ofdm,
            np.ones(64, dtype=complex) / 8.0,
        )
        bank = matched_filter_bank(obs)
        with pytest.raises(ValueError):
            xi(PolarPosition(0.3, 0.0), bank, geom64)


class TestCost:
    def test_zero_noise_minimum_at_truth(self):
        rng = np.random.default_rng(44)
        config, geom, pos, f, obs = small_observation(rng, sigma2=0.0)
        bank = matched_filter_bank(obs)
        at_truth = cost(pos, bank, geom)
        mu = noiseless_mean(geom, pos, f, config, obs.pilots)
        assert at_truth == pytest.approx(-float(np.sum(np.abs(mu) ** 2)), rel=1e-10)
        for dd, dt in [(0.5, 0.0), (-0.4, 0.01), (0.0, 0.05)]:
            other = PolarPosition(pos.d_m + dd, pos.theta_rad + dt)
            assert cost(other, bank, geom) > at_truth

    def test_null_coupling_candidate_zero_cost(self):
        rng = np.random.default_rng(45)
        config, geom, pos, f, obs = small_observation(rng, n_a=4)
        candidate = PolarPosition(20.0, 2.2)
        a = steering_vector(geom, candidate)
        null = np.zeros(4, dtype=complex)
        null[0], null[1] = -a[1], a[0]
        null /= np.linalg.norm(null)
        obs_null = Observation(obs.samples, obs.pilots, config, null)
        bank = matched_filter_bank(obs_null)
        assert cost(candidate, bank, geom) == pytest.approx(0.0, abs=1e-25)

    def test_brute_force_residual_oracle(self):
        rng = np.random.default_rng(46)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=4, n_a=4)
        bank = matched_filter_bank(obs)
        for _ in range(10):
            candidate = PolarPosition(
                pos.d_m + rng.uniform(-1, 1), pos.theta_rad + rng.uniform(-0.2, 0.2)
            )
            factorized = cost(candidate, bank, geom)
            brute = brute_cost(candidate, obs, geom)
            assert factorized == pytest.approx(brute, rel=1e-8)

    def test_periodic_in_angle(self):
        rng = np.random.default_rng(47)
        config, geom, pos, f, obs = small_observation(rng)
        bank = matched_filter_bank(obs)
        candidate = PolarPosition(13.0, 0.456)
        wrapped = PolarPosition(13.0, 0.456 + 2 * math.pi)
        assert cost(candidate, bank, geom) == pytest.approx(
            cost(wrapped, bank, geom), rel=1e-12
        )


class TestScores:
    """The score pair F = Re{(r - mu)^H dmu/deta}, kept in the tests as ``oracle_scores``.

    No estimator stage uses it since refinement works on the cost itself;
    it stays as the reference that ``_cost_derivatives`` is checked against.
    """

    def test_vanish_at_noiseless_truth(self):
        rng = np.random.default_rng(48)
        config, geom, pos, f, obs = small_observation(rng, sigma2=0.0)
        bank = matched_filter_bank(obs)
        f_d, f_t = oracle_scores(pos, obs, geom, bank, config)
        mu2 = abs(cost(pos, bank, geom))
        assert abs(f_d) < 1e-9 * mu2 / geom.wavelength_m
        assert abs(f_t) < 1e-9 * mu2 / geom.wavelength_m

    def test_zero_observation_deterministic_term(self, small_ofdm):
        geom = UcaGeometry(3, 0.4, 0.005)
        pilots = generate_pilots(small_ofdm, 3)
        rng = np.random.default_rng(49)
        f = random_unit_vector(rng, 3)
        obs = Observation(np.zeros((2, 4, 3), dtype=complex), pilots, small_ofdm, f)
        bank = matched_filter_bank(obs)
        candidate = PolarPosition(8.0, 1.0)
        got = oracle_scores(candidate, obs, geom, bank, small_ofdm)
        brute = brute_scores(candidate, obs, geom)
        assert got[0] == pytest.approx(brute[0], rel=1e-9)
        assert got[1] == pytest.approx(brute[1], rel=1e-9)

    def test_brute_force_residual_form(self):
        rng = np.random.default_rng(50)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=4, n_a=4)
        bank = matched_filter_bank(obs)
        worst = 0.0
        for _ in range(20):
            candidate = PolarPosition(
                pos.d_m + rng.uniform(-0.5, 0.5), pos.theta_rad + rng.uniform(-0.1, 0.1)
            )
            got = np.array(oracle_scores(candidate, obs, geom, bank, config))
            brute = np.array(brute_scores(candidate, obs, geom))
            worst = max(worst, np.max(np.abs(got - brute)) / np.max(np.abs(brute)))
        assert worst < 1e-7

    def test_expanded_real_imag_form(self):
        # The alpha/Re/Im rearrangement of the score sums; the imaginary
        # parts enter with +2pi/lambda for range and -2pi/lambda for
        # angle (signs fixed by the residual-form oracle).
        rng = np.random.default_rng(51)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=4, n_a=5)
        bank = matched_filter_bank(obs)
        candidate = PolarPosition(pos.d_m + 0.2, pos.theta_rad - 0.03)
        sens = sensitivities(geom, candidate)
        coupling = beam_coupling(geom, candidate, f)
        rho = xi(candidate, bank, geom) - mean_product_scale(
            config, geom
        ) * coupling.beta / sens.ranges_m**2
        wn = 2 * math.pi / geom.wavelength_m
        beta_c = np.conj(coupling.beta)
        v_d = beta_c * (1 - sens.alpha_d) + np.conj(coupling.z_d)
        v_t = beta_c * sens.alpha_theta + np.conj(coupling.z_theta)
        f_d = -np.sum(sens.alpha_d / sens.ranges_m * np.real(beta_c * rho)) + wn * np.sum(
            np.imag(v_d * rho)
        )
        f_t = -np.sum(
            sens.alpha_theta / sens.ranges_m * np.real(beta_c * rho)
        ) - wn * np.sum(np.imag(v_t * rho))
        got = oracle_scores(candidate, obs, geom, bank, config)
        assert got[0] == pytest.approx(float(f_d), rel=1e-10)
        assert got[1] == pytest.approx(float(f_t), rel=1e-10)

    def test_matches_cost_finite_differences(self):
        # F = -(1/2) dL/deta for the frozen-delay cost; evaluate the cost
        # through the brute-force residual with the candidate's delay
        # ramp pinned while the geometry moves.
        rng = np.random.default_rng(52)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=4, n_a=4)
        bank = matched_filter_bank(obs)

        def frozen_cost(d, theta, tau0):
            candidate = PolarPosition(d, theta)
            mu = noiseless_mean(geom, candidate, f, config, obs.pilots, tau0_s=tau0)
            return float(
                np.sum(np.abs(obs.samples - mu) ** 2) - np.sum(np.abs(obs.samples) ** 2)
            )

        worst = 0.0
        for _ in range(10):
            candidate = PolarPosition(
                pos.d_m + rng.uniform(-0.3, 0.3), pos.theta_rad + rng.uniform(-0.05, 0.05)
            )
            tau0 = 2 * candidate.d_m / SPEED_OF_LIGHT
            h_d, h_t = 1e-6, 1e-7
            grad_d = (
                frozen_cost(candidate.d_m + h_d, candidate.theta_rad, tau0)
                - frozen_cost(candidate.d_m - h_d, candidate.theta_rad, tau0)
            ) / (2 * h_d)
            grad_t = (
                frozen_cost(candidate.d_m, candidate.theta_rad + h_t, tau0)
                - frozen_cost(candidate.d_m, candidate.theta_rad - h_t, tau0)
            ) / (2 * h_t)
            got = np.array(oracle_scores(candidate, obs, geom, bank, config))
            expected = np.array([-0.5 * grad_d, -0.5 * grad_t])
            worst = max(worst, np.max(np.abs(got - expected)) / np.max(np.abs(expected)))
        assert worst < 1e-5


def assert_batch_matches_oracle(d_m, theta_rad, obs, geom):
    """Batched xi and costs against the one-candidate oracles, to 1e-12."""
    bank = matched_filter_bank(obs)
    config = obs.config
    batch = _evaluate(d_m, theta_rad, bank, geom)
    candidates = [PolarPosition(float(d), float(t)) for d, t in zip(d_m, theta_rad)]
    want_xi = np.array([oracle_xi(c, bank, geom, config) for c in candidates])
    want_cost = np.array([oracle_cost(c, obs, geom, bank) for c in candidates])
    assert batch.xi.shape == want_xi.shape
    assert batch.cost.shape == (len(candidates),)
    for got, want in ((batch.xi, want_xi), (batch.cost, want_cost)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


class TestBatchedEvaluator:
    """``_evaluate`` on candidate batches against the per-candidate oracles."""

    def test_random_candidates(self):
        rng = np.random.default_rng(70)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8)
        d_m = pos.d_m + rng.uniform(-2.0, 2.0, size=40)
        theta_rad = rng.uniform(0.0, 2 * math.pi, size=40)
        assert_batch_matches_oracle(d_m, theta_rad, obs, geom)

    def test_angle_wrap(self):
        rng = np.random.default_rng(71)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8, theta=0.01)
        theta_rad = np.array([0.0, 1e-9, 2 * math.pi - 1e-9, 2 * math.pi, 2 * math.pi + 0.3, 0.3])
        d_m = np.full(theta_rad.size, pos.d_m)
        assert_batch_matches_oracle(d_m, theta_rad, obs, geom)
        batch = _evaluate(d_m, theta_rad, matched_filter_bank(obs), geom)
        assert batch.cost[3] == pytest.approx(batch.cost[0], rel=1e-12)
        assert batch.cost[4] == pytest.approx(batch.cost[5], rel=1e-12)

    def test_range_just_outside_the_array(self):
        rng = np.random.default_rng(72)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8)
        d_lo = geom.radius_m * (1.0 + 1e-6)
        d_m = np.array([d_lo, d_lo, 2.0 * d_lo, pos.d_m])
        theta_rad = np.array([0.0, 1.3, 2.9, pos.theta_rad])
        assert_batch_matches_oracle(d_m, theta_rad, obs, geom)

    def test_batch_of_one(self):
        rng = np.random.default_rng(73)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8)
        assert_batch_matches_oracle(np.array([pos.d_m + 0.1]), np.array([pos.theta_rad]), obs, geom)

    def test_repeated_ranges_share_one_collapse(self):
        rng = np.random.default_rng(74)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8)
        d_m = np.array([pos.d_m, pos.d_m + 0.5, pos.d_m, pos.d_m + 0.5, pos.d_m, pos.d_m - 0.2])
        theta_rad = pos.theta_rad + np.array([0.0, 0.0, 0.01, -0.02, -0.01, 0.0])
        assert_batch_matches_oracle(d_m, theta_rad, obs, geom)

    def test_candidate_on_the_array_circle_raises(self):
        rng = np.random.default_rng(75)
        config, geom, pos, f, obs = small_observation(rng, n_a=8)
        bank = matched_filter_bank(obs)
        with pytest.raises(ValueError, match="must exceed the radius"):
            _evaluate(np.array([pos.d_m, geom.radius_m]), np.zeros(2), bank, geom)

    @pytest.mark.parametrize("seed", [76, 77, 78])
    def test_polish_matches_the_scalar_scan(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=16, n_a=8, sigma2=1e-7)
        monkeypatch.setattr(grid_module, "N_BASINS", 4)
        spec = GridSpec(d_min_m=6.0, d_max_m=18.0, n_d=40, n_theta=64)
        bank = matched_filter_bank(obs)
        for basin in coarse_grid_search(bank, geom, spec):
            got = polish_basin(basin.position, bank, geom, spec)
            assert got == oracle_polish(basin.position, obs, geom, bank, spec)


def fd_steps(geom, d_m):
    """Central-difference steps: a thousandth of the local range and angle scales.

    Range: the smaller of the wavefront-curvature length 2 d^2 / (kappa R^2)
    and the gap d - R to the array; angle: 1 / (kappa R), a radian of
    element phase. Truncation and rounding of the differences then stay
    below the tolerances of ``TestCostDerivatives``.
    """
    kappa = 2 * math.pi / geom.wavelength_m
    scale_d = min(2 * d_m * d_m / (kappa * geom.radius_m**2), d_m - geom.radius_m)
    return 1e-3 * scale_d, 1e-3 / (kappa * geom.radius_m)


def derivative_errors(obs, geom, d_m, theta_rad):
    """Worst entrywise errors of ``_evaluate``'s gradient and Hessian, relative to the largest.

    Entries are compared in half-lobe trust-radius units T (``_trust_radii``):
    T g and T H T. Returns the errors of the gradient against central
    differences of ``cost``, of the Hessian against second central
    differences of ``cost``, and of the Hessian against central differences
    of the analytic gradient.
    """
    bank = matched_filter_bank(obs)
    config = obs.config

    def at(d, t):
        return _evaluate(np.array([d]), np.array([t]), bank, geom, with_derivatives=True)

    def cost_at(d, t):
        return cost(PolarPosition(d, t), bank, geom)

    hd, ht = fd_steps(geom, d_m)
    d, t = d_m, theta_rad
    here = at(d, t)
    grad, hess = here.gradient[0], here.hessian[0]
    c0 = cost_at(d, t)
    fd_grad = np.array([
        (cost_at(d + hd, t) - cost_at(d - hd, t)) / (2 * hd),
        (cost_at(d, t + ht) - cost_at(d, t - ht)) / (2 * ht),
    ])
    fd_hess = np.empty((2, 2))
    fd_hess[0, 0] = (cost_at(d + hd, t) - 2 * c0 + cost_at(d - hd, t)) / hd**2
    fd_hess[1, 1] = (cost_at(d, t + ht) - 2 * c0 + cost_at(d, t - ht)) / ht**2
    fd_hess[0, 1] = fd_hess[1, 0] = (
        cost_at(d + hd, t + ht) - cost_at(d + hd, t - ht)
        - cost_at(d - hd, t + ht) + cost_at(d - hd, t - ht)
    ) / (4 * hd * ht)
    grad_hess = np.column_stack([
        (at(d + hd, t).gradient[0] - at(d - hd, t).gradient[0]) / (2 * hd),
        (at(d, t + ht).gradient[0] - at(d, t - ht).gradient[0]) / (2 * ht),
    ])
    radii = 0.5 * np.array(grid_module._lobe_widths(geom, config))
    scaled = np.outer(radii, radii)
    g_ref = np.max(np.abs(radii * grad))
    h_ref = np.max(np.abs(scaled * hess))
    return (
        np.max(np.abs(radii * (grad - fd_grad))) / g_ref,
        np.max(np.abs(scaled * (hess - fd_hess))) / h_ref,
        np.max(np.abs(scaled * (hess - grad_hess))) / h_ref,
    )


def ramp_gradient_oracle(candidate, obs, geom, bank):
    """Oracle: the delay-ramp part of dL/dd, -2 Re{beta sum_k g_k a_k conj(dc_k/dd)}.

    dc_k/dd = sum_m Z[k, m] (j 4 pi m df / c) e^{j 2 pi m df (Tcp + 2d/c)}.
    """
    config = obs.config
    w = 4j * math.pi * config.delta_f_hz * np.arange(config.m_subcarriers) / SPEED_OF_LIGHT
    comp = np.conj(delay_phases(config, 2.0 * candidate.d_m / SPEED_OF_LIGHT))
    dc = bank.aggregates @ (w * comp)
    a = steering_vector(geom, candidate)
    gains = element_gains(element_ranges(geom, candidate), geom.wavelength_m)
    beta = a @ obs.beamformer
    return -2.0 * float(np.real(beta * np.sum(gains * a * np.conj(dc))))


class TestCostDerivatives:
    """``_evaluate``'s exact gradient and Hessian of the cost, delay ramp included.

    Tolerances (entrywise, in trust-radius units, relative to the largest
    entry; steps from ``fd_steps``): gradient against central differences
    of ``cost`` 1e-4; Hessian against second central differences of
    ``cost`` 1e-3; Hessian against central differences of the gradient
    1e-4. The measured worst cases, 2.1e-5, 7.8e-5 and 9.8e-6, lie 4-13x
    below these.
    """

    @pytest.mark.parametrize("radius", [0.5, 5.0])
    @pytest.mark.parametrize("m", [16, 128])
    @pytest.mark.parametrize("sigma2", [1e-9, 0.0])
    def test_match_central_differences_of_the_cost(self, radius, m, sigma2):
        rng = np.random.default_rng(80)
        config, geom, pos, f, obs = small_observation(
            rng, m=m, n_a=16, sigma2=sigma2, radius=radius
        )
        for _ in range(6):
            d = pos.d_m + rng.uniform(-0.5, 0.5)
            theta = pos.theta_rad + rng.uniform(-0.05, 0.05)
            grad_err, hess_err, hess_grad_err = derivative_errors(obs, geom, d, theta)
            assert grad_err < 1e-4
            assert hess_err < 1e-3
            assert hess_grad_err < 1e-4

    @pytest.mark.parametrize("radius", [0.5, 5.0])
    @pytest.mark.parametrize(
        "theta", [0.0, 1e-7, 2 * math.pi - 1e-7, 2 * math.pi + 1e-7]
    )
    def test_angles_at_the_wrap(self, radius, theta):
        rng = np.random.default_rng(81)
        config, geom, pos, f, obs = small_observation(rng, n_a=16, radius=radius, theta=0.02)
        grad_err, hess_err, hess_grad_err = derivative_errors(obs, geom, pos.d_m, theta)
        assert grad_err < 1e-4
        assert hess_err < 1e-3
        assert hess_grad_err < 1e-4

    @pytest.mark.parametrize("radius", [0.5, 5.0])
    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_range_just_outside_the_array(self, radius, theta):
        # At theta = 0 element 0 sits 1e-3 R from the candidate.
        rng = np.random.default_rng(82)
        config, geom, pos, f, obs = small_observation(rng, n_a=16, radius=radius)
        d = radius * (1.0 + 1e-3)
        grad_err, hess_err, hess_grad_err = derivative_errors(obs, geom, d, theta)
        assert grad_err < 1e-4
        assert hess_err < 1e-3
        assert hess_grad_err < 1e-4

    def test_hessian_is_symmetric_and_batch_independent(self):
        rng = np.random.default_rng(83)
        config, geom, pos, f, obs = small_observation(rng, m=16, n_a=8)
        bank = matched_filter_bank(obs)
        d_m = pos.d_m + rng.uniform(-1.0, 1.0, size=7)
        d_m[3] = d_m[1]
        theta_rad = rng.uniform(0.0, 2 * math.pi, size=7)
        batch = _evaluate(d_m, theta_rad, bank, geom, with_derivatives=True)
        assert batch.gradient.shape == (7, 2) and batch.hessian.shape == (7, 2, 2)
        np.testing.assert_array_equal(batch.hessian, batch.hessian.transpose(0, 2, 1))
        for i in range(7):
            one = _evaluate(
                d_m[i : i + 1], theta_rad[i : i + 1], bank, geom, with_derivatives=True
            )
            np.testing.assert_array_equal(one.gradient[0], batch.gradient[i])
            np.testing.assert_array_equal(one.hessian[0], batch.hessian[i])
            np.testing.assert_array_equal(one.cost[0], batch.cost[i])

    def test_xi_and_cost_match_the_oracles(self):
        rng = np.random.default_rng(84)
        config, geom, pos, f, obs = small_observation(rng, m=16, n_a=8)
        bank = matched_filter_bank(obs)
        d_m = pos.d_m + rng.uniform(-2.0, 2.0, size=10)
        theta_rad = rng.uniform(0.0, 2 * math.pi, size=10)
        batch = _evaluate(d_m, theta_rad, bank, geom, with_derivatives=True)
        candidates = [PolarPosition(float(d), float(t)) for d, t in zip(d_m, theta_rad)]
        want_xi = np.array([oracle_xi(c, bank, geom, config) for c in candidates])
        want_cost = np.array([oracle_cost(c, obs, geom, bank) for c in candidates])
        for got, want in ((batch.xi, want_xi), (batch.cost, want_cost)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("sigma2", [1e-9, 0.0])
    def test_gradient_is_the_score_pair_plus_the_ramp_term(self, sigma2):
        # dL/dtheta = -2 F_theta; dL/dd = -2 F_d plus the delay-ramp term
        # that the score pair, holding the ramp fixed, leaves out.
        rng = np.random.default_rng(85)
        config, geom, pos, f, obs = small_observation(rng, m=32, n_a=16, sigma2=sigma2)
        bank = matched_filter_bank(obs)
        for _ in range(8):
            candidate = PolarPosition(
                pos.d_m + rng.uniform(-0.5, 0.5), pos.theta_rad + rng.uniform(-0.05, 0.05)
            )
            batch = _evaluate(
                [candidate.d_m], [candidate.theta_rad], bank, geom, with_derivatives=True
            )
            grad_d, grad_t = batch.gradient[0]
            f_d, f_t = oracle_scores(candidate, obs, geom, bank, config)
            scale = 0.5 * estimator_module._gradient_scale(geom, config, candidate)
            assert abs(grad_t + 2.0 * f_t) <= 1e-12 * scale
            ramp = ramp_gradient_oracle(candidate, obs, geom, bank)
            assert abs(grad_d + 2.0 * f_d - ramp) <= 1e-12 * scale

    def test_score_and_gradient_disagree_in_range_by_the_ramp(self, geom64):
        # The zero-noise refinement start: F_d and -1/2 dL/dd differ by a
        # third, which is why a score root is not a cost minimum.
        config = OfdmConfig(128, 4, 480e3, 0.07 / 480e3, 0.1, 0.0)
        pos = PolarPosition(10.0, 0.7)
        f = conjugate_focus_beamformer(geom64, pos)
        obs = synthesize_observation(geom64, pos, f, config, generate_pilots(config, 9), 10)
        bank = matched_filter_bank(obs)
        batch = _evaluate([10.01], [0.701], bank, geom64, with_derivatives=True)
        f_d, _ = oracle_scores(PolarPosition(10.01, 0.701), obs, geom64, bank, config)
        assert f_d == pytest.approx(-4.16e-10, rel=1e-2)
        assert -0.5 * batch.gradient[0, 0] == pytest.approx(-6.05e-10, rel=1e-2)


class TestCoarseGridSearch:
    def test_truth_on_node_is_first_basin(self, monkeypatch):
        rng = np.random.default_rng(53)
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        geom = UcaGeometry(8, 0.5, 0.005)
        monkeypatch.setattr(grid_module, "N_BASINS", 5)
        spec = GridSpec(d_min_m=5.0, d_max_m=20.0, n_d=31, n_theta=64)
        d_true = float(spec.d_values()[12])
        theta_true = float(spec.theta_values()[17])
        pos = PolarPosition(d_true, theta_true)
        f = conjugate_focus_beamformer(geom, pos)
        pilots = generate_pilots(config, 7)
        obs = synthesize_observation(geom, pos, f, config, pilots, 8)
        basins = coarse_grid_search(matched_filter_bank(obs), geom, spec)
        assert basins[0].d_index == 12 and basins[0].theta_index == 17

    def test_deterministic(self, monkeypatch):
        rng = np.random.default_rng(54)
        config, geom, pos, f, obs = small_observation(rng, n_a=4)
        monkeypatch.setattr(grid_module, "N_BASINS", 6)
        spec = GridSpec(d_min_m=5.0, d_max_m=20.0, n_d=16, n_theta=32)
        bank = matched_filter_bank(obs)
        a = coarse_grid_search(bank, geom, spec)
        b = coarse_grid_search(bank, geom, spec)
        assert a == b

    def test_tie_breaking_on_flat_surface(self, monkeypatch, small_ofdm):
        # A zero observation with a tiny radius gives a theta-independent
        # cost per range row; ties resolve toward low indices.
        geom = UcaGeometry(2, 1e-6, 0.005)
        pilots = generate_pilots(small_ofdm, 3)
        rng = np.random.default_rng(55)
        f = random_unit_vector(rng, 2)
        obs = Observation(np.zeros((2, 4, 2), dtype=complex), pilots, small_ofdm, f)
        monkeypatch.setattr(grid_module, "N_BASINS", 4)
        spec = GridSpec(d_min_m=5.0, d_max_m=6.0, n_d=3, n_theta=8)
        basins = coarse_grid_search(matched_filter_bank(obs), geom, spec)
        assert len(basins) == 4
        assert (basins[0].d_index, basins[0].theta_index) == (2, 0)
        assert [b.theta_index for b in basins] == [0, 1, 2, 3]

    def test_truth_between_nodes_lands_within_cell(self, monkeypatch):
        rng = np.random.default_rng(56)
        config = OfdmConfig(32, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        geom = UcaGeometry(16, 0.5, 0.005)
        monkeypatch.setattr(grid_module, "N_BASINS", 8)
        spec = GridSpec(d_min_m=8.0, d_max_m=14.0, n_d=41, n_theta=256)
        d_step = (14.0 - 8.0) / 40
        t_step = 2 * math.pi / 256
        for trial in range(20):
            pos = PolarPosition(rng.uniform(9.0, 13.0), rng.uniform(0, 2 * math.pi))
            f = conjugate_focus_beamformer(geom, pos)
            pilots = generate_pilots(config, 100 + trial)
            obs = synthesize_observation(geom, pos, f, config, pilots, 200 + trial)
            basins = coarse_grid_search(matched_filter_bank(obs), geom, spec)
            best = basins[0].position
            assert abs(best.d_m - pos.d_m) <= d_step
            angle_err = abs((best.theta_rad - pos.theta_rad + math.pi) % (2 * math.pi) - math.pi)
            assert angle_err <= t_step

    def test_fft_path_matches_direct_path(self):
        rng = np.random.default_rng(57)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8)
        bank = matched_filter_bank(obs)
        d_values = np.linspace(6.0, 18.0, 23)
        theta_values = 2 * math.pi * np.arange(64) / 64
        fft_rows = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, 64))
        direct_rows = _cost_rows_direct(obs, geom, bank, d_values, theta_values)
        _, margins, _ = _row_bounds(bank, geom, d_values, None)
        assert np.all(np.abs(fft_rows - direct_rows) <= margins[:, None])


def triples(basins):
    """A search's output as (range index, angle index, cost) triples."""
    return [(b.d_index, b.theta_index, b.cost) for b in basins]


def incumbent_rule_off(monkeypatch):
    """Switch the incumbent rule off: every row's interval bound is -inf and rules out no row."""
    monkeypatch.setattr(
        grid_module,
        "_interval_bounds",
        lambda bank, d_values, bounds, margins, floor: np.full(d_values.size, -np.inf),
    )


def search_interval_bounds(bank, geom, spec):
    """The interval bound of each row that the search reads, and its proven term b_B alone.

    At INCUMBENT_KAPPA = inf the sampled term kappa b~ is -inf on every row
    with b~ < 0, so ``_interval_bounds`` gives b_B there.
    """
    d_values = spec.d_values()
    bounds, margins, floor = _row_bounds(bank, geom, d_values, spec.uniform_run)
    interval = grid_module._interval_bounds(bank, d_values, bounds, margins, floor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "INCUMBENT_KAPPA", np.inf)
        proven = grid_module._interval_bounds(bank, d_values, bounds, margins, floor)
    return interval, proven


def assert_incumbent_contract(got, full, calls, interval, proven, refined=np.inf):
    """The search with its incumbent rule against its own full output.

    ``got`` and ``full`` are (range index, angle index, cost) triples of the
    search with and without the incumbent rule, ``calls`` the (first, stop)
    rows of the first's evaluations, ``interval`` and ``proven`` the
    interval bound of each row it read and that bound's proven term,
    ``refined`` the W the first search was given (none: infinite). With G*
    the surface minimum (the full output's first cost) and l = min(G*, W):
    every cell of a row the kappa term rules out costs more than l / kappa,
    and of a row the proven term alone rules out, more than l. So the exact
    level is l if some skipped row's interval bound is its proven term and
    exceeds l (the proven term alone may have ruled it out), and l / kappa
    otherwise. The entries costing at most that level are the full output's,
    in its order, ahead of every other entry, and the full output's first
    entry comes first if it costs at most W; for l >= 0 the rule cannot fire
    and the outputs are equal. No entry comes from a row that was not
    evaluated, and no row is evaluated twice.
    """
    rows = evaluated_rows(calls)
    assert len(rows) == len(set(rows))
    assert {d for d, _, _ in got} <= set(rows)
    least = full[0][2]
    if least <= refined:
        assert got[0] == full[0]
    least = min(least, refined)
    if least >= 0.0:
        assert got == full
        return
    skipped = np.setdiff1d(np.arange(interval.size), rows)
    by_proof = (interval[skipped] == proven[skipped]) & (proven[skipped] > least)
    level = least if np.any(by_proof) else least / grid_module.INCUMBENT_KAPPA
    head = [entry for entry in full if entry[2] <= level]
    assert got[: len(head)] == head
    assert all(cost > level for _, _, cost in got[len(head) :])


def assert_matches_oracle(obs, geom, spec):
    """Streamed search and full-surface oracle agree on indices; costs to their rows' margins.

    The compared run has the incumbent rule switched off
    (``incumbent_rule_off``); a second run with it must meet its contract
    against that output (``assert_incumbent_contract``). The second run
    evaluates through its own recorder, so ``count_rows`` sees the first
    run's calls alone.
    """
    bank = matched_filter_bank(obs)
    with pytest.MonkeyPatch.context() as mp:
        incumbent_rule_off(mp)
        got = coarse_grid_search(bank, geom, spec)
    want = oracle_search(obs, geom, bank, spec)
    assert [(b.d_index, b.theta_index) for b in got] == [(d, t) for d, t, _ in want]
    costs = np.array([b.cost for b in got])
    oracle_costs = np.array([c for _, _, c in want])
    _, margins, _ = _row_bounds(bank, geom, spec.d_values(), spec.uniform_run)
    assert np.all(np.abs(costs - oracle_costs) <= margins[[b.d_index for b in got]])
    with pytest.MonkeyPatch.context() as mp:
        calls = count_rows(mp, spec, _cost_rows_fft)
        pruned = coarse_grid_search(bank, geom, spec)
    interval, proven = search_interval_bounds(bank, geom, spec)
    assert_incumbent_contract(triples(pruned), triples(got), calls, interval, proven)
    return want


class TestStreamedGridSearch:
    """The row-block search against the full-surface oracle."""

    @pytest.mark.parametrize("n_d", [77, 13, 1, 2 * GRID_BLOCK_ROWS + 1])
    def test_row_counts_around_the_block_size(self, n_d):
        rng = np.random.default_rng(60 + n_d)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8, sigma2=1e-7)
        spec = GridSpec(d_min_m=6.0, d_max_m=18.0, n_d=n_d, n_theta=64)
        assert_matches_oracle(obs, geom, spec)

    @pytest.mark.parametrize("row, angle", [(0, 0), (69, 63)])
    def test_minimum_on_an_edge_row_at_the_angle_wrap(self, row, angle):
        # A return on a node of the first (last) row at the first (last)
        # angle: its 3x3 neighbourhood clips in range and wraps in angle. A
        # little noise breaks the mirror symmetry of the noiseless surface,
        # whose mirrored minima tie to rounding.
        config = OfdmConfig(32, 2, 480e3, 0.07 / 480e3, 0.1, 1e-11)
        geom = UcaGeometry(8, 0.5, 0.005)
        spec = GridSpec(d_min_m=6.0, d_max_m=18.0, n_d=70, n_theta=64)
        pos = PolarPosition(float(spec.d_values()[row]), float(spec.theta_values()[angle]))
        f = conjugate_focus_beamformer(geom, pos)
        pilots = generate_pilots(config, 12)
        obs = synthesize_observation(geom, pos, f, config, pilots, 13)
        want = assert_matches_oracle(obs, geom, spec)
        assert want[0][:2] == (row, angle)

    def test_exact_tie_across_a_block_boundary(self):
        # Repeating the range node at the end of the first block makes the
        # last row of one block and the first row of the next identical.
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        geom = UcaGeometry(8, 0.5, 0.005)
        nodes = list(np.linspace(6.0, 18.0, 70))
        edge = GRID_BLOCK_ROWS - 1
        nodes.insert(edge + 1, nodes[edge])
        spec = GridSpec(d_min_m=6.0, d_max_m=18.0, n_theta=64, d_nodes=tuple(nodes))
        pos = PolarPosition(nodes[edge], float(spec.theta_values()[21]))
        f = conjugate_focus_beamformer(geom, pos)
        pilots = generate_pilots(config, 13)
        obs = synthesize_observation(geom, pos, f, config, pilots, 14)
        want = assert_matches_oracle(obs, geom, spec)
        assert [(d, t) for d, t, _ in want[:2]] == [(edge, 21), (edge + 1, 21)]
        assert want[0][2] == want[1][2]

    def test_budget_larger_than_the_minima(self, monkeypatch):
        rng = np.random.default_rng(61)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=6, n_a=8)
        monkeypatch.setattr(grid_module, "N_BASINS", 80)
        spec = GridSpec(d_min_m=6.0, d_max_m=18.0, n_d=5, n_theta=16)
        want = assert_matches_oracle(obs, geom, spec)
        assert len(want) < grid_module.N_BASINS

    @pytest.mark.parametrize("n_theta", [64, 8])
    def test_a_rows_costs_do_not_depend_on_its_tile(self, n_theta):
        # The search evaluates rows in tiles of any size from 1 row up, so a
        # row must cost the same, bit for bit, in every tile. n_theta = n_a
        # makes the steering product of a one-row tile a single row too.
        geom, obs = strong_target(128, 40.0, 2.0)
        bank = matched_filter_bank(obs)
        d_values = np.linspace(30.0, 50.0, GRID_BLOCK_ROWS)
        workspace = _Workspace(geom.n_a, n_theta)
        whole = _cost_rows_fft(bank, geom, d_values, workspace)
        for size in (1, 2, 3, 9):
            for start in range(0, d_values.size - size + 1, 5):
                part = _cost_rows_fft(bank, geom, d_values[start : start + size], workspace)
                np.testing.assert_array_equal(part, whole[start : start + size])

    @pytest.mark.parametrize("n_theta", [1, 2, 3, 64])
    def test_row_min_wraps_the_angles(self, n_theta):
        costs = np.random.default_rng(n_theta).normal(size=(3, n_theta))
        neighbours = np.minimum(np.roll(costs, 1, axis=1), np.roll(costs, -1, axis=1))
        want = np.minimum(neighbours, costs)
        np.testing.assert_array_equal(grid_module._row_min(costs), want)

    @pytest.mark.parametrize("rows", [1, 2, GRID_BLOCK_ROWS])
    def test_a_held_tile_keeps_at_most_two_rows_of_costs(self, rows):
        # A tile's edge rows wait for the rows around it; what waits must be
        # copies of at most two rows, so the tile's costs can be freed.
        costs = np.random.default_rng(rows).normal(size=(rows, 64))
        _, edges = grid_module._tile_minima(5, costs, np.inf)
        for field in dataclasses.fields(edges):
            held = getattr(edges, field.name)
            if isinstance(held, np.ndarray):
                assert held.size <= 2 * costs.shape[1]
                assert not np.shares_memory(held, costs)
        np.testing.assert_array_equal(edges.costs, costs[sorted({0, rows - 1})])

    @pytest.mark.parametrize("cells", [2**15, 3 * 64])
    @pytest.mark.parametrize("n_theta", [1, 2, 3, 64])
    @pytest.mark.parametrize("rows", [1, 2, 3, GRID_BLOCK_ROWS])
    def test_tile_minima_are_the_unfiltered_ones_at_most_the_threshold(
        self, monkeypatch, rows, n_theta, cells
    ):
        # Costs of four levels make plateaus of equal cells; a lone lowest
        # cell sits at each end of the angles, where they wrap. 3 x 64 cells
        # take the candidates in blocks of 3 rows, the last one ragged.
        monkeypatch.setattr(grid_module, "KERNEL_BLOCK_CELLS", cells)
        rng = np.random.default_rng(rows * 100 + n_theta)
        costs = rng.integers(0, 4, size=(rows, n_theta)).astype(np.float32)
        if rows > 2:
            costs[1, 0] = costs[rows - 2, n_theta - 1] = -1.0
        d_all, t_all = np.nonzero(_local_minima(costs)[1:-1])
        values = costs[1:-1][d_all, t_all]
        for threshold in (np.inf, 2.0, 0.0, -1.0, -2.0):
            keep = values <= threshold
            (got, d_idx, t_idx), _ = grid_module._tile_minima(7, costs, threshold)
            assert got.dtype == costs.dtype
            np.testing.assert_array_equal(got, values[keep])
            np.testing.assert_array_equal(d_idx, d_all[keep] + 8)
            np.testing.assert_array_equal(t_idx, t_all[keep])

    def test_angle_count_must_be_a_multiple_of_the_elements(self):
        rng = np.random.default_rng(62)
        config, geom, pos, f, obs = small_observation(rng, n_a=8)
        spec = GridSpec(d_min_m=6.0, d_max_m=18.0, n_d=4, n_theta=60)
        with pytest.raises(ValueError, match="multiple"):
            coarse_grid_search(matched_filter_bank(obs), geom, spec)

    def test_memory_stays_bounded(self):
        # The full float64 surface would be n_d * n_theta * 8 = 32 MB.
        rng = np.random.default_rng(63)
        config, geom, pos, f, obs = small_observation(rng, n=2, m=4, n_a=8)
        spec = GridSpec(d_min_m=2.0, d_max_m=40.0, n_d=4000, n_theta=1024)
        bank = matched_filter_bank(obs)
        tracemalloc.start()
        try:
            basins = coarse_grid_search(bank, geom, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(basins) == 15
        assert peak < spec.n_d * spec.n_theta * 8 / 4


def cli_bank(radius_m, d_m, theta_rad, seed):
    """Geometry, bank and grid of a conjugate-focused target on the CLI defaults, M = 128."""
    cfg = cli.parse_config().sweep_config(reduced_m=True, trials=1, seed=seed, workers=1)
    geom = cfg.geometry(radius_m)
    truth = PolarPosition(d_m, theta_rad)
    bank = synthesize_bank(
        geom, truth, conjugate_focus_beamformer(geom, truth), cfg.ofdm, seed
    )
    return geom, bank, harness.grid_for_radius(cfg, radius_m)


def rows_around(spec, d_m, count):
    """``count`` consecutive range nodes of the grid starting ``count // 2`` rows before ``d_m``."""
    d_values = spec.d_values()
    first = int(np.searchsorted(d_values, d_m)) - count // 2
    return d_values[first : first + count]


class TestBlockedKernel:
    """``_cost_rows`` works through a tile in cache-sized blocks, template phases in turns."""

    @pytest.mark.parametrize("n_theta, cells, block", [(8 * 4608, 2**15, 1), (64, 3 * 64, 3)])
    def test_a_rows_bits_do_not_depend_on_its_kernel_block(
        self, monkeypatch, n_theta, cells, block
    ):
        # n_theta > KERNEL_BLOCK_CELLS makes one-row blocks; at 3 rows a
        # block, a 32-row tile is ten blocks and a ragged one of 2 rows.
        monkeypatch.setattr(grid_module, "KERNEL_BLOCK_CELLS", cells)
        geom, obs = strong_target(128, 40.0, 2.0)
        workspace = _Workspace(geom.n_a, n_theta)
        assert workspace.rows == block
        bank = matched_filter_bank(obs)
        d_values = np.linspace(30.0, 50.0, 5 if block == 1 else GRID_BLOCK_ROWS)
        tile = _cost_rows_fft(bank, geom, d_values, workspace)
        for row in range(d_values.size):
            alone = _cost_rows_fft(bank, geom, d_values[row : row + 1], workspace)
            np.testing.assert_array_equal(alone[0], tile[row])

    @pytest.mark.parametrize(
        "radius, d, rows", [(5.0, 20.0, 6), (0.5, 10.0, None)]
    )
    def test_matches_the_unblocked_kernel(self, radius, d, rows):
        # R = 5 m: 32,832 angles, rows near 20 m, unreduced phases up to
        # 6,300 rad. R = 0.5 m: the whole 551-row grid, in tiles. The
        # single-precision kernel lies within its rows' margins of the
        # float64 one.
        geom, bank, spec = cli_bank(radius, d, 0.7, 8)
        d_values = spec.d_values() if rows is None else rows_around(spec, d, rows)
        theta_values = spec.theta_values()
        workspace = _Workspace(geom.n_a, spec.n_theta)
        _, margins, _ = _row_bounds(bank, geom, d_values, None)
        for start in range(0, d_values.size, GRID_BLOCK_ROWS):
            tile = d_values[start : start + GRID_BLOCK_ROWS]
            got = _cost_rows_fft(bank, geom, tile, workspace)
            want = _cost_rows_unblocked(bank, geom, tile, theta_values)
            error = np.max(np.abs(got - want), axis=1)
            assert np.all(error <= margins[start : start + GRID_BLOCK_ROWS])

    def test_a_tile_peaks_below_three_times_its_output(self):
        # A 32-row tile of the R = 5 m grid, 32,832 angles: its costs take
        # 8.4 MB. The unblocked kernel peaked at 80 MB, 9.5 times that.
        geom, bank, spec = cli_bank(5.0, 20.0, 0.7, 8)
        d_values = rows_around(spec, 20.0, GRID_BLOCK_ROWS)
        tracemalloc.start()
        try:
            # The workspace counts: the search builds one per call.
            costs = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, spec.n_theta))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert costs.shape == (32, 32832)
        assert peak < 3 * costs.nbytes


class TestRangeProfileBound:
    """The row bound lies at or below every computed cost of its row."""

    @pytest.mark.parametrize("sigma2", [1e-9, 0.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_costs_never_fall_below_the_row_bound(self, seed, sigma2):
        # Random beams (small_observation draws one), random targets, and
        # rows from just outside the array circle to well past the target.
        rng = np.random.default_rng(80 + seed)
        radius = 0.5
        config, geom, pos, f, obs = small_observation(
            rng, n=2, m=8, n_a=8, sigma2=sigma2, radius=radius,
            d=rng.uniform(0.75, 20.0), theta=rng.uniform(0.0, 2 * math.pi),
        )
        bank = matched_filter_bank(obs)
        d_values = np.concatenate([
            radius * (1.0 + np.array([1e-6, 1e-4, 1e-2])),
            np.sort(rng.uniform(radius, 30.0, 40)),
            [pos.d_m],
        ])
        costs = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, 64))
        bounds, _, _ = _row_bounds(bank, geom, d_values, None)
        assert np.all(costs >= bounds[:, None])

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_is_attained_at_a_noiseless_truth_on_a_node(self, seed):
        # At the truth of a noiseless observation both inequalities behind
        # the bound are equalities: only rounding separates the computed
        # cell from it, by at most the row's margin.
        rng = np.random.default_rng(90 + seed)
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        geom = UcaGeometry(8, 0.5, 0.005)
        theta_values = 2 * math.pi * np.arange(64) / 64
        j = int(rng.integers(64))
        pos = PolarPosition(float(rng.uniform(1.0, 20.0)), float(theta_values[j]))
        f = random_unit_vector(rng, 8)
        obs = synthesize_observation(geom, pos, f, config, generate_pilots(config, seed), 5)
        bank = matched_filter_bank(obs)
        d_values = np.array([pos.d_m])
        cell = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, 64))[0, j]
        (bound,), (margin,), _ = _row_bounds(bank, geom, d_values, None)
        assert bound - margin <= cell <= bound + margin


def oracle_row_norms(bank, d_values):
    """Oracle: the range profile ||c(d)|| from a direct delay collapse of each row."""
    return np.array(
        [np.linalg.norm(_delay_collapsed(bank, bank.config, d)) for d in d_values]
    )


def oracle_row_bounds(bank, geom, d_values):
    """Oracle: the row bound from the direct profile, with no margin beyond BOUND_SLACK."""
    scale = (geom.wavelength_m / (4.0 * np.pi)) ** 2 / (
        geom.n_a * mean_product_scale(bank.config, geom)
    )
    norms = oracle_row_norms(bank, d_values)
    return -(1.0 + grid_module.BOUND_SLACK) * scale * norms**2


# Relative tolerance for a range step to count as c / (2 df K): far above the
# rounding of summed nodes (about 1e-12), far below any distinct step.
RUN_STEP_TOL = 1e-9


def oracle_uniform_runs(config, d_values):
    """Oracle: runs of range rows c / (2 df K) apart, K >= M an integer: (first, stop, K).

    Read off the node spacings alone, with no knowledge of the grid recipe.
    A step belongs to a run if it matches c / (2 df K) to RUN_STEP_TOL
    (relative); a row shared by two runs goes to the first. A run is kept
    only where its rows * M phasors outnumber the K log2 K butterflies of
    its FFT, so an isolated step that happens to fit some K is left out.
    """
    steps = np.diff(d_values)
    if steps.size == 0:
        return []
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.rint(SPEED_OF_LIGHT / (2.0 * config.delta_f_hz * steps))
        fits = np.abs(steps * (2.0 * config.delta_f_hz * k / SPEED_OF_LIGHT) - 1.0)
    m = config.m_subcarriers
    key = np.where((k >= m) & (fits <= RUN_STEP_TOL), k, 0.0)
    changes = np.flatnonzero(np.diff(key)) + 1
    runs = []
    claimed = 0  # first row not yet in a run
    for start, stop in zip(np.r_[0, changes], np.r_[changes, key.size]):
        size = int(key[start])
        first = max(int(start), claimed)
        if size and (stop + 1 - first) * m >= size * np.log2(size):
            runs.append((first, int(stop) + 1, size))
            claimed = int(stop) + 1
    return runs


class TestGridForArray:
    """``GridSpec.for_array`` builds the grid and records the uniform run it lays down."""

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("reduced_m", [True, False])
    def test_the_recorded_run_is_the_one_the_node_spacings_show(self, reduced_m, radius):
        # The paper's and the benchmark's grids: 64 elements, M = 128 or
        # 2048, d_max = 400 m.
        config = cli.parse_config().ofdm_config(reduced_m)
        spec = GridSpec.for_array(UcaGeometry(64, radius, 0.005), config, 400.0)
        assert oracle_uniform_runs(config, spec.d_values()) == [spec.uniform_run]
        want = {(True, 0.5): (68, 550, 384), (False, 5.0): (367, 7853, 6144)}
        assert spec.uniform_run == want.get((reduced_m, radius), spec.uniform_run)

    @pytest.mark.parametrize("radius", [0.5, 5.0])
    def test_nodes_and_angles_follow_the_array(self, radius):
        config = OfdmConfig(128, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        geom = UcaGeometry(64, radius, 0.005)
        spec = GridSpec.for_array(geom, config, 400.0)
        d_values = spec.d_values()
        assert spec.d_min_m == d_values[0] == max(2.0 * radius, 1.0)
        assert d_values[-1] == 400.0 and np.all(np.diff(d_values) > 0.0)
        # No step exceeds a third of the delay lobe.
        lobe = SPEED_OF_LIGHT / (2.0 * config.m_subcarriers * config.delta_f_hz)
        assert np.all(np.diff(d_values) <= lobe / 3.0 * (1.0 + 1e-12))
        assert spec.n_theta % geom.n_a == 0

    def test_a_grid_the_delay_lobe_never_governs_records_no_run(self):
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        spec = GridSpec.for_array(UcaGeometry(8, 5.0, 0.005), config, 20.0)
        assert spec.uniform_run is None
        assert oracle_uniform_runs(config, spec.d_values()) == []

    def test_only_explicit_nodes_carry_a_run_and_it_must_lie_on_them(self):
        nodes = tuple(np.linspace(1.0, 10.0, 20))
        assert GridSpec(1.0, 10.0, d_nodes=nodes).uniform_run is None
        GridSpec(1.0, 10.0, d_nodes=nodes, uniform_run=(0, 20, 48))
        for bad in [(0, 21, 48), (-1, 5, 48), (5, 5, 48), (0, 5, 0)]:
            with pytest.raises(ValueError):
                GridSpec(1.0, 10.0, d_nodes=nodes, uniform_run=bad)
        with pytest.raises(ValueError):
            GridSpec(1.0, 10.0, n_d=20, uniform_run=(0, 5, 48))

    @pytest.mark.parametrize("d_min, d_max", [(1.0, math.nan), (math.nan, 10.0), (1.0, math.inf)])
    def test_range_limits_must_be_finite(self, d_min, d_max):
        # d_min >= nan is False, so a test written as "reject if d_min >= d_max" lets NaN through.
        with pytest.raises(ValueError, match="need 0 < d_min_m < d_max_m < inf"):
            GridSpec(d_min, d_max)

    def test_an_infinite_d_max_is_refused_before_laying_nodes(self):
        # Nodes are laid until they pass d_max_m, which never happens at inf.
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        with pytest.raises(ValueError, match="d_max_m must be finite"):
            GridSpec.for_array(UcaGeometry(8, 0.5, 0.005), config, math.inf)


class TestFftRangeProfileBound:
    """Row bounds of the recorded uniform run of range nodes come from one zero-padded FFT.

    The grid below (``GridSpec.for_array``, M = 16, K = 3M = 48) has a
    curvature-limited head of 75 rows, a uniform run of 58 > K rows, so its
    FFT bins wrap, and a last node clamped to d_max.
    """

    M = 16
    HEAD, STOP = 75, 133

    def grid(self, sigma2, d=60.0, theta=1.1, seed=0):
        config = OfdmConfig(self.M, 2, 480e3, 0.07 / 480e3, 0.1, sigma2)
        geom = UcaGeometry(8, 0.5, 0.005)
        spec = GridSpec.for_array(geom, config, 400.0)
        pos = PolarPosition(d, theta)
        f = random_unit_vector(np.random.default_rng(seed), 8)
        obs = synthesize_observation(
            geom, pos, f, config, generate_pilots(config, seed), seed + 1
        )
        return config, geom, obs, matched_filter_bank(obs), spec

    def test_the_grid_has_a_head_a_wrapping_run_and_a_clamped_last_node(self):
        config, _, _, _, spec = self.grid(1e-9)
        d_values = spec.d_values()
        assert spec.uniform_run == (self.HEAD, self.STOP, 3 * self.M)
        assert oracle_uniform_runs(config, d_values) == [spec.uniform_run]
        assert self.STOP - self.HEAD > 3 * self.M
        assert d_values.size == self.STOP + 1 and d_values[-1] == 400.0

    @pytest.mark.parametrize("drift", [0.0, 1e-10])
    @pytest.mark.parametrize("sigma2", [1e-9, 0.0])
    def test_fft_rows_lie_within_their_margin_of_the_direct_collapse(self, sigma2, drift):
        # drift > 0 stretches the run's steps by that relative amount, within
        # the oracle's run tolerance, so the nodes walk away from
        # d_0 + j c / (2 df K).
        config, geom, obs, bank, spec = self.grid(sigma2)
        d_values = spec.d_values()
        run = slice(self.HEAD, self.STOP)
        step = np.diff(d_values[run])[0]
        d_values[run] += drift * step * np.arange(self.STOP - self.HEAD)
        norms, errors, _ = grid_module._row_norms(bank, d_values, spec.uniform_run)
        oracle = oracle_row_norms(bank, d_values)
        assert np.all(errors[run] > 0.0)
        assert np.all(np.abs(norms[run] - oracle[run]) <= errors[run])
        direct = np.r_[0 : self.HEAD, self.STOP]
        assert np.all(errors[direct] == 0.0)
        np.testing.assert_allclose(norms[direct], oracle[direct], rtol=1e-12)
        bounds, _, _ = _row_bounds(bank, geom, d_values, spec.uniform_run)
        want = oracle_row_bounds(bank, geom, d_values)
        assert np.all(bounds <= want * (1.0 - 1e-12))
        # No looser than the margin allows: |c| + 2E against the oracle's |c|.
        loosest = want * ((oracle + 2.0 * errors) / oracle) ** 2
        assert np.all(bounds >= loosest * (1.0 + 1e-12))

    @pytest.mark.parametrize("cells", [48, 3 * 48, 2**15])
    def test_the_run_sums_the_elements_spectra_in_order(self, monkeypatch, cells):
        # _row_norms takes KERNEL_BLOCK_CELLS bins' worth of elements'
        # spectra at a time: 1, 3 (a ragged last block of 2) or all 8. Each
        # way the run's norms have the bits of the whole n_a x K spectrum's
        # power summed over the elements by np.sum, which adds the rows of a
        # C-ordered array in order: the order of a bank from synthesize_bank
        # (matched_filter_bank's is Fortran-ordered, and np.sum adds its
        # rows pairwise).
        config, geom, obs, bank, spec = self.grid(1e-9)
        bank = MatchedFilterBank(
            np.ascontiguousarray(bank.aggregates), bank.config, bank.beamformer
        )
        d_values = spec.d_values()
        first, stop, size = spec.uniform_run
        tau0 = 2.0 * d_values[first] / SPEED_OF_LIGHT
        m = np.arange(self.M)
        ramp = _phasor(TWO_PI * m * config.delta_f_hz * (config.t_cp_s + tau0))
        spectrum = np.fft.ifft(bank.aggregates * ramp, n=size, axis=1, norm="forward")
        power = np.sum(spectrum.real**2 + spectrum.imag**2, axis=0)
        monkeypatch.setattr(grid_module, "KERNEL_BLOCK_CELLS", cells)
        norms, _, _ = grid_module._row_norms(bank, d_values, spec.uniform_run)
        np.testing.assert_array_equal(
            norms[first:stop], np.sqrt(power[np.arange(stop - first) % size])
        )

    @pytest.mark.parametrize("sigma2", [1e-9, 0.0])
    @pytest.mark.parametrize("seed", range(2))
    def test_costs_never_fall_below_the_row_bound(self, seed, sigma2):
        rng = np.random.default_rng(120 + seed)
        config, geom, obs, bank, spec = self.grid(
            sigma2, d=rng.uniform(20.0, 390.0), theta=rng.uniform(0.0, 2 * math.pi),
            seed=seed,
        )
        d_values = spec.d_values()
        costs = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, 64))
        bounds, _, _ = _row_bounds(bank, geom, d_values, spec.uniform_run)
        assert np.all(costs >= bounds[:, None])

    @pytest.mark.parametrize("row", [HEAD + 1, HEAD + 3 * M + 2, STOP - 1])
    def test_bound_is_attained_at_a_noiseless_truth_on_a_run_node(self, row):
        config, geom, _, _, spec = self.grid(0.0)
        d_values = spec.d_values()
        theta_values = 2 * math.pi * np.arange(64) / 64
        pos = PolarPosition(float(d_values[row]), float(theta_values[21]))
        f = random_unit_vector(np.random.default_rng(row), 8)
        obs = synthesize_observation(geom, pos, f, config, generate_pilots(config, 3), 4)
        bank = matched_filter_bank(obs)
        cell = _cost_rows_fft(bank, geom, d_values[row : row + 1], _Workspace(geom.n_a, 64))[0, 21]
        bounds, margins, _ = _row_bounds(bank, geom, d_values, spec.uniform_run)
        assert bounds[row] - margins[row] <= cell <= bounds[row] + margins[row]

    def test_a_spec_without_a_run_is_collapsed_directly(self):
        # A hand-built spec records no run, even on the adaptive nodes; and
        # linspace(6, 18, 70) steps by 0.174 m: K = c / (2 df step) = 1797.4.
        config, geom, obs, bank, adaptive = self.grid(1e-9)
        assert GridSpec(1.0, 400.0, d_nodes=adaptive.d_nodes).uniform_run is None
        spec = GridSpec(6.0, 18.0, n_d=70)
        d_values = spec.d_values()
        assert spec.uniform_run is None and oracle_uniform_runs(config, d_values) == []
        norms, errors, _ = grid_module._row_norms(bank, d_values, spec.uniform_run)
        assert np.all(errors == 0.0)
        np.testing.assert_allclose(
            _row_bounds(bank, geom, d_values, spec.uniform_run)[0],
            oracle_row_bounds(bank, geom, d_values),
            rtol=1e-12,
        )

    def test_a_run_shorter_than_the_bank_is_collapsed_directly(self):
        # A spec built for M = 128 records K = 384; searched with an M = 2048
        # bank, a 384-point FFT would cut the bank off, so every row is
        # collapsed directly.
        geom = UcaGeometry(8, 0.5, 0.005)
        narrow = OfdmConfig(128, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        spec = GridSpec.for_array(geom, narrow, 400.0)
        assert spec.uniform_run[2] == 384
        config = dataclasses.replace(narrow, m_subcarriers=2048)
        truth = PolarPosition(float(spec.d_values()[300]), 1.1)
        bank = synthesize_bank(geom, truth, conjugate_focus_beamformer(geom, truth), config, 6)
        d_values = spec.d_values()
        norms, errors, _ = grid_module._row_norms(bank, d_values, spec.uniform_run)
        assert np.all(errors == 0.0)
        np.testing.assert_allclose(norms, oracle_row_norms(bank, d_values), rtol=1e-12)
        costs = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, 64))
        assert np.all(costs >= _row_bounds(bank, geom, d_values, spec.uniform_run)[0][:, None])

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_a_shifted_run_loosens_the_bound_but_never_breaks_it(self, shift):
        # The margin measures the nodes' drift from the recorded lattice, so
        # a record one row off (into the curvature-limited head, or onto the
        # clamped last node) only widens it.
        config, geom, obs, bank, spec = self.grid(1e-9, d=150.0)
        first, stop, size = spec.uniform_run
        shifted = dataclasses.replace(spec, uniform_run=(first + shift, stop + shift, size))
        d_values = spec.d_values()
        norms, errors, _ = grid_module._row_norms(bank, d_values, shifted.uniform_run)
        run = slice(first + shift, stop + shift)
        oracle = oracle_row_norms(bank, d_values)
        assert np.all(np.abs(norms[run] - oracle[run]) <= errors[run])
        costs = _cost_rows_fft(bank, geom, d_values, _Workspace(geom.n_a, 64))
        assert np.all(costs >= _row_bounds(bank, geom, d_values, shifted.uniform_run)[0][:, None])


def count_rows(monkeypatch, spec, real=None):
    """(first, stop) grid rows of every ``_cost_rows`` call the search makes, in call order.

    The calls go on to ``real``, by default the ``_cost_rows`` in place.
    """
    calls = []
    real = real or grid_module._cost_rows
    d_all = spec.d_values()

    def counting(bank, geom, d_values, workspace):
        first = int(np.searchsorted(d_all, d_values[0]))
        calls.append((first, first + d_values.size))
        return real(bank, geom, d_values, workspace)

    monkeypatch.setattr(grid_module, "_cost_rows", counting)
    return calls


def evaluated_rows(calls):
    """Every grid row the calls evaluated, sorted, repeats kept."""
    return sorted(row for first, stop in calls for row in range(first, stop))


def seed_tiles(row, n_d, rows=GRID_BLOCK_ROWS):
    """The tiles the search evaluates first, as (first, stop) rows.

    They cut the window of SEED_HALF_ROWS rows either side of ``row``,
    clipped to the grid, into tiles of at most ``rows`` rows.
    """
    half = grid_module.SEED_HALF_ROWS
    first, stop = max(row - half, 0), min(row + half + 1, n_d)
    return [(start, min(start + rows, stop)) for start in range(first, stop, rows)]


def strong_target(m, d, theta, sigma2=1e-13):
    """An 8-element observation of a conjugate-focused target far above the noise."""
    config = OfdmConfig(m, 2, 480e3, 0.07 / 480e3, 0.1, sigma2)
    geom = UcaGeometry(8, 0.5, 0.005)
    pos = PolarPosition(d, theta)
    f = conjugate_focus_beamformer(geom, pos)
    obs = synthesize_observation(geom, pos, f, config, generate_pilots(config, 3), 4)
    return geom, obs


def seed_minima(surface, rows, n_basins):
    """The seed tiles' best interior minima as (cost, range index, angle index), best first."""
    found = []
    for first, stop in seed_tiles(int(np.argmin(surface.min(axis=1))), surface.shape[0], rows):
        d_idx, t_idx = np.nonzero(_local_minima(surface[first:stop])[1:-1])
        found += [(surface[first + 1 + d, t], first + 1 + d, t) for d, t in zip(d_idx, t_idx)]
    return sorted(found)[:n_basins]


def kappa_interval_bounds(bounds):
    """kappa b~ of each row, -inf where b~ >= 0: the interval bounds without their proven term."""
    lowest = np.minimum.reduce([bounds, np.r_[bounds[1:], 0.0], np.r_[0.0, bounds[:-1]]])
    return np.where(lowest < 0.0, grid_module.INCUMBENT_KAPPA * lowest, -np.inf)


def search_surface(monkeypatch, surface, rows, n_basins, refined=None):
    """Run the search on a given cost surface whose row bounds are the row minima.

    The tightest valid bound tests the skip logic alone; the interval bounds
    are its kappa terms alone (``kappa_interval_bounds``), since the fake
    surface is no range profile. With the incumbent rule switched off
    (``incumbent_rule_off``) the result must be the full-surface selection;
    with it, the search must meet its contract against it
    (``assert_incumbent_contract``). ``n_basins`` stands in for N_BASINS.
    Given ``refined``, the second search gets a ``refine_seed`` that returns
    it as W, and must hand it the seed tiles' interior minima, once, if it
    has any and the best of them, G, already rules out a row (kappa b~ > G).
    Returns the selection as (range index, angle index, cost), and the
    (first, stop) rows of every evaluation of the first run in call order.
    """
    spec = GridSpec(d_min_m=5.0, d_max_m=20.0, n_d=surface.shape[0], n_theta=surface.shape[1])
    d_all = spec.d_values()
    calls = []
    # The search reads the geometry only to size its kernel workspace; one
    # element divides every n_theta.
    geom = UcaGeometry(1, 0.5, 0.005)

    def tile(d_values):
        start = int(np.searchsorted(d_all, d_values[0]))
        return surface[start : start + d_values.size]

    def cost_rows(bank, geom, d_values, workspace):
        first = int(np.searchsorted(d_all, d_values[0]))
        calls.append((first, first + d_values.size))
        return tile(d_values).copy()

    monkeypatch.setattr(grid_module, "GRID_BLOCK_ROWS", rows)
    monkeypatch.setattr(grid_module, "N_BASINS", n_basins)
    monkeypatch.setattr(
        grid_module,
        "_row_bounds",
        lambda b, g, d, run: (tile(d).min(axis=1), np.zeros(d.size), surface.min()),
    )
    monkeypatch.setattr(
        grid_module,
        "_interval_bounds",
        lambda b, d, bounds, margins, floor: kappa_interval_bounds(bounds),
    )
    monkeypatch.setattr(grid_module, "_cost_rows", cost_rows)
    with pytest.MonkeyPatch.context() as mp:
        incumbent_rule_off(mp)
        got = coarse_grid_search(None, geom, spec)
    d_idx, t_idx = np.nonzero(_local_minima(surface))
    values = surface[d_idx, t_idx]
    order = np.lexsort((t_idx, d_idx, values))[:n_basins]
    want = [(int(d_idx[i]), int(t_idx[i]), float(values[i])) for i in order]
    assert [(b.d_index, b.theta_index, b.cost) for b in got] == want
    full_calls = calls[:]
    calls.clear()
    interval = kappa_interval_bounds(surface.min(axis=1))
    proven = np.full(surface.shape[0], -np.inf)
    if refined is None:
        pruned = coarse_grid_search(None, geom, spec)
        assert_incumbent_contract(triples(pruned), want, calls, interval, proven)
        return want, full_calls
    handed = []

    def refine_seed(starts):
        handed.append(starts)
        return refined

    pruned = coarse_grid_search(None, geom, spec, refine_seed=refine_seed)
    seeds = seed_minima(surface, rows, n_basins)
    if not (seeds and np.any(interval > seeds[0][0])):
        assert handed == []
        refined = np.inf
    else:
        d_values, theta_values = spec.d_values(), spec.theta_values()
        assert handed == [
            [PolarPosition(float(d_values[d]), float(theta_values[t])) for _, d, t in seeds]
        ]
    assert_incumbent_contract(triples(pruned), want, calls, interval, proven, refined)
    return want, full_calls


class TestPrunedGridSearch:
    """Rows the range-profile bound rules out are skipped; basins stay exact.

    The search evaluates the window of rows around the lowest-bound row
    first, then every other row whose bound does not exceed the running
    threshold, in tiles of at most GRID_BLOCK_ROWS consecutive rows.
    """

    # 300 rows: 10 tiles of GRID_BLOCK_ROWS = 32.
    SPEC = GridSpec(d_min_m=5.0, d_max_m=100.0, n_d=300, n_theta=64)

    def lowest_bound_row(self, obs, geom, spec):
        bank = matched_filter_bank(obs)
        bounds, _, _ = _row_bounds(bank, geom, spec.d_values(), spec.uniform_run)
        return int(np.argmin(bounds))

    def test_high_snr_skips_rows_and_matches_the_full_surface(self, monkeypatch):
        # The tile-granular search evaluated the whole 32-row tile around the
        # target here; the row-granular one needs the seed window and 2 rows.
        geom, obs = strong_target(128, 40.0, 2.0)
        calls = count_rows(monkeypatch, self.SPEC)
        assert_matches_oracle(obs, geom, self.SPEC)
        rows = evaluated_rows(calls)
        assert len(rows) == len(set(rows))
        assert len(rows) < GRID_BLOCK_ROWS
        assert all(stop - first <= GRID_BLOCK_ROWS for first, stop in calls)

    def test_target_in_the_last_tile(self, monkeypatch):
        # The lowest-bound row lies near the grid's end, so the stream starts
        # far from the seed window, which is evaluated first.
        geom, obs = strong_target(128, 98.0, 2.0)
        seed = self.lowest_bound_row(obs, geom, self.SPEC)
        calls = count_rows(monkeypatch, self.SPEC)
        want = assert_matches_oracle(obs, geom, self.SPEC)
        last = (-(-self.SPEC.n_d // GRID_BLOCK_ROWS) - 1) * GRID_BLOCK_ROWS
        assert seed >= last
        assert calls[:1] == seed_tiles(seed, self.SPEC.n_d)
        first, stop = calls[0]
        assert first <= want[0][0] < stop
        rows = evaluated_rows(calls)
        assert len(rows) == len(set(rows))
        assert len(rows) < GRID_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_small_tiles(self, monkeypatch, rows):
        # One- and two-row tiles have no interior: every minimum waits on
        # the tiles around it. A seed window wider than a tile is evaluated
        # in tiles of its own, before any other row.
        monkeypatch.setattr(grid_module, "GRID_BLOCK_ROWS", rows)
        geom, obs = strong_target(128, 40.0, 2.0)
        spec = GridSpec(d_min_m=30.0, d_max_m=50.0, n_d=61, n_theta=64)
        tiles = seed_tiles(self.lowest_bound_row(obs, geom, spec), spec.n_d, rows)
        calls = count_rows(monkeypatch, spec)
        assert_matches_oracle(obs, geom, spec)
        assert calls[: len(tiles)] == tiles
        evaluated = evaluated_rows(calls)
        assert len(evaluated) == len(set(evaluated))
        assert len(evaluated) < spec.n_d

    def test_noise_only_observation_evaluates_every_row_once(self, monkeypatch):
        rng = np.random.default_rng(91)
        geom, obs = strong_target(128, 40.0, 2.0)
        noise = rng.normal(size=obs.samples.shape) + 1j * rng.normal(size=obs.samples.shape)
        obs = dataclasses.replace(obs, samples=1e-6 * noise)
        calls = count_rows(monkeypatch, self.SPEC)
        assert_matches_oracle(obs, geom, self.SPEC)
        assert evaluated_rows(calls) == list(range(self.SPEC.n_d))
        assert all(stop - first <= GRID_BLOCK_ROWS for first, stop in calls)

    @pytest.mark.parametrize("rows", [1, 2, 3, 32])
    @pytest.mark.parametrize("seed", range(8))
    def test_any_surface_under_its_tightest_bound(self, monkeypatch, seed, rows):
        # A random surface with a few wells, each row's bound its own minimum.
        rng = np.random.default_rng(100 + seed)
        surface = rng.normal(size=(70, 16))
        wells = rng.integers(0, surface.shape, size=(4, 2))
        surface[wells[:, 0], wells[:, 1]] -= rng.uniform(3.0, 6.0, size=4)
        search_surface(monkeypatch, surface, rows, n_basins=6)

    @pytest.mark.parametrize("floor", [0.0, -10.0])
    @pytest.mark.parametrize("factor", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("rows", [1, 3, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_any_surface_under_a_refined_incumbent(self, monkeypatch, seed, rows, factor, floor):
        # The same surfaces with a W of factor times the surface minimum G*:
        # above it (0.5), below it but above kappa G* (1.5), and below
        # kappa G* (3.0), where no entry is sure to be the full search's.
        # One-row tiles have no interior, so no W is asked for; nor is one
        # on the surfaces lowered by 10, where G rules out no row.
        rng = np.random.default_rng(100 + seed)
        surface = rng.normal(size=(70, 16)) + floor
        wells = rng.integers(0, surface.shape, size=(4, 2))
        surface[wells[:, 0], wells[:, 1]] -= rng.uniform(3.0, 6.0, size=4)
        search_surface(monkeypatch, surface, rows, n_basins=6, refined=factor * surface.min())

    def test_seed_edge_rows_wait_for_their_neighbours(self, monkeypatch):
        # Tiles of 4 rows. The seed window (rows 4-12 around a well of -20
        # in row 8, evaluated as tiles 4-7, 8-11 and 12) has a first row
        # lying just below a valley in row 3, so each row-local minimum of
        # row 4 would look like a basin at about -11 without the row above.
        # The third basin, a well of -9 in row 14, ranks only if those do
        # not set the threshold.
        rng = np.random.default_rng(110)
        surface = rng.uniform(0.0, 1.0, size=(16, 16))
        j = np.arange(16)
        surface[3] = -12.0 + 0.1 * np.minimum(abs(j - 5), 16 - abs(j - 5))
        surface[4] = surface[3] + 0.5 + 0.3 * (j % 2)
        surface[8, 9] = -20.0
        surface[14, 2] = -9.0
        want, calls = search_surface(monkeypatch, surface, 4, n_basins=3)
        assert calls[:3] == [(4, 8), (8, 12), (12, 13)]
        assert [(d, t) for d, t, _ in want] == [(8, 9), (3, 5), (14, 2)]

    def test_a_skipped_row_inside_a_stretch_clips_both_neighbours(self, monkeypatch):
        # Twenty rows of 16 angles, three basins. The seed window is rows
        # 0-5 around a well of -40 in row 1; its wells of -15 and -14 set the
        # threshold to -14. Every later row reaches -14 or below except row
        # 12, which costs 100 or more: it is skipped and splits the stretch
        # 6-19 into tiles 6-11 and 13-19. Row 11 lies at -30 everywhere, so
        # the well of -25 in row 13 is a basin only if row 11 is not taken
        # for its upper neighbour.
        rng = np.random.default_rng(111)
        surface = rng.uniform(0.0, 1.0, size=(20, 16))
        j = np.arange(16)
        surface[1, 3] = -40.0
        surface[3, 10] = -15.0
        surface[4, 5] = -14.0
        for row, col in zip(range(6, 11), (0, 4, 8, 12, 2)):
            surface[row, col] = -14.0
        surface[11] = -30.0 + 0.1 * np.minimum(abs(j - 9), 16 - abs(j - 9))
        surface[12] += 100.0
        surface[13, 7] = -25.0
        for row, col in zip(range(14, 20), (0, 4, 8, 12, 1, 5)):
            surface[row, col] = -16.0
        want, calls = search_surface(monkeypatch, surface, 32, n_basins=3)
        assert [(d, t) for d, t, _ in want] == [(1, 3), (11, 9), (13, 7)]
        assert calls == [(0, 6), (6, 12), (13, 20)]

    @pytest.mark.parametrize("rows", [2, 32])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_lowest_bound_row_on_a_grid_edge_clips_the_seed_window(
        self, monkeypatch, at_end, rows
    ):
        # The deepest well lies on the first (last) row, so the seed window
        # keeps only the SEED_HALF_ROWS rows on the grid's side of it.
        rng = np.random.default_rng(112 + at_end)
        surface = rng.uniform(0.0, 1.0, size=(40, 16))
        row = surface.shape[0] - 1 if at_end else 0
        surface[row, 6] = -30.0
        surface[20, 11] = -10.0
        want, calls = search_surface(monkeypatch, surface, rows, n_basins=4)
        tiles = seed_tiles(row, surface.shape[0], rows)
        assert tiles[-1][1] - tiles[0][0] == grid_module.SEED_HALF_ROWS + 1
        assert calls[: len(tiles)] == tiles
        assert want[0][:2] == (row, 6)
        rows_seen = evaluated_rows(calls)
        assert len(rows_seen) == len(set(rows_seen))

    def test_budget_larger_than_the_minima_evaluates_every_row_once(self, monkeypatch):
        # The running list never fills, so the threshold stays infinite.
        monkeypatch.setattr(grid_module, "GRID_BLOCK_ROWS", 4)
        geom, obs = strong_target(128, 40.0, 2.0)
        monkeypatch.setattr(grid_module, "N_BASINS", 640)
        spec = GridSpec(d_min_m=30.0, d_max_m=50.0, n_d=40, n_theta=16)
        tiles = seed_tiles(self.lowest_bound_row(obs, geom, spec), spec.n_d, 4)
        calls = count_rows(monkeypatch, spec)
        want = assert_matches_oracle(obs, geom, spec)
        assert len(want) < grid_module.N_BASINS
        assert evaluated_rows(calls) == list(range(spec.n_d))
        assert calls[: len(tiles)] == tiles
        assert all(stop - first <= 4 for first, stop in calls)


def bench_workloads():
    """``bench/run.py``'s WORKLOADS as {name: (radii, distances, reduced_m)}.

    Read from the file's text, as ``tests/test_bench_contract.py`` reads it,
    without importing or touching it.
    """
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "WORKLOADS" for target in node.targets)
    ]
    return {
        ast.literal_eval(key): tuple(ast.literal_eval(arg) for arg in call.args[:3])
        for key, call in zip(table.keys, table.values)
    }


def profile_power(bank, d_values):
    """||c(d)||^2 per range, the delay-collapsed bank's energy, in chunks of 512 ranges."""
    out = []
    for chunk in np.array_split(d_values, -(-d_values.size // 512)):
        collapsed = _collapse_rows(bank, chunk)
        out.append(np.sum(collapsed.real**2 + collapsed.imag**2, axis=1))
    return np.concatenate(out)


class TestIncumbentRule:
    """Rows whose range interval cannot beat the best cell found are skipped."""

    @pytest.mark.parametrize("workload", sorted(bench_workloads()))
    def test_kappa_covers_the_range_profile_between_rows(self, workload):
        # Seeded banks of the benchmark workload's trials on its own grid:
        # every gap within 20 delay lobes of the target (its range sidelobes)
        # and 200 drawn from the whole grid, 16 points inside each.
        radii, distances, reduced_m = bench_workloads()[workload]
        cfg = cli.parse_config(
            overrides={"radii_m": list(radii), "distances_m": list(distances)}
        ).sweep_config(reduced_m=reduced_m, trials=1, seed=5, workers=1)
        rng = np.random.default_rng(17)
        lobe = SPEED_OF_LIGHT / (2.0 * cfg.ofdm.m_subcarriers * cfg.ofdm.delta_f_hz)
        inside = np.linspace(0.0, 1.0, 18)[1:-1]
        for radius in radii:
            geom = cfg.geometry(radius)
            d_values = harness.grid_for_radius(cfg, radius).d_values()
            for d_true in distances:
                for seed in range(2):
                    truth = PolarPosition(d_true, float(rng.uniform(0.0, 2 * math.pi)))
                    beam = optimize_beamformer(geom, truth, cfg.ofdm).beamformer
                    bank = synthesize_bank(geom, truth, beam, cfg.ofdm, 1000 + seed)
                    gaps = np.union1d(
                        np.flatnonzero(np.abs(d_values[:-1] - d_true) < 20.0 * lobe),
                        rng.choice(d_values.size - 1, 200, replace=False),
                    )
                    first, last = d_values[gaps], d_values[gaps + 1]
                    points = first[:, None] + inside * (last - first)[:, None]
                    between = profile_power(bank, points.ravel())
                    ends = np.maximum(profile_power(bank, first), profile_power(bank, last))
                    excess = between.reshape(points.shape).max(axis=1) / ends
                    assert excess.max() <= grid_module.INCUMBENT_KAPPA

    @pytest.mark.parametrize("d_true, sigma2", [(25.0, 1e-10), (80.0, 1e-11)])
    def test_skipped_rows_hold_no_point_below_the_incumbent(self, monkeypatch, d_true, sigma2):
        # A target well above the noise, but not so far that the 15th basin
        # rules out most rows (without the incumbent rule the search
        # evaluates 257 and 272 of the 300 here). The best basin lies inside
        # the seed window's interior, so the incumbent G is the output's
        # first cost from the first streamed row on. On every skipped row
        # whose interval bound (the search's own) rules it out, by either
        # term, a dense lattice over its range interval, 4x the grid's
        # angles, must cost more than G.
        spec = TestPrunedGridSearch.SPEC
        geom, obs = strong_target(128, d_true, 2.0, sigma2=sigma2)
        bank = matched_filter_bank(obs)
        with pytest.MonkeyPatch.context() as mp:
            incumbent_rule_off(mp)
            calls = count_rows(mp, spec)
            coarse_grid_search(bank, geom, spec)
            without = evaluated_rows(calls)
        calls = count_rows(monkeypatch, spec)
        basins = coarse_grid_search(bank, geom, spec)
        bounds, _, _ = _row_bounds(bank, geom, spec.d_values(), spec.uniform_run)
        first, stop = seed_tiles(int(np.argmin(bounds)), spec.n_d)[0]
        assert calls[0] == (first, stop)
        assert first < basins[0].d_index < stop - 1
        incumbent = basins[0].cost
        interval, _ = search_interval_bounds(bank, geom, spec)
        ruled_out = interval > incumbent
        assert len(without) - len(evaluated_rows(calls)) > spec.n_d // 2
        skipped = np.setdiff1d(np.arange(spec.n_d), evaluated_rows(calls))
        # T only falls, so a row bounded at or below its last value cannot
        # have been skipped by the T rule.
        last = basins[-1].cost if len(basins) == grid_module.N_BASINS else np.inf
        assert np.all(ruled_out[skipped[bounds[skipped] <= last]])
        checked = skipped[ruled_out[skipped]]
        assert checked.size > spec.n_d // 2
        d_values = spec.d_values()
        d_lo = d_values[np.maximum(checked - 1, 0)]
        d_hi = d_values[np.minimum(checked + 1, spec.n_d - 1)]
        d_lattice = (d_lo[:, None] + np.linspace(0.0, 1.0, 16) * (d_hi - d_lo)[:, None]).ravel()
        theta = 2 * math.pi * np.arange(4 * spec.n_theta) / (4 * spec.n_theta)
        for d_part in np.array_split(d_lattice, -(-d_lattice.size // 256)):
            d, t = np.meshgrid(d_part, theta, indexing="ij")
            costs = _evaluate(d.ravel(), t.ravel(), bank, geom).cost
            assert costs.min() > incumbent

    def test_small_array_trial_at_50_m_evaluates_few_rows_and_keeps_its_record(
        self, monkeypatch
    ):
        # The benchmark's small-array cell at d = 50 m: CLI defaults, M = 128,
        # R = 0.5 m. Without the incumbent rule every row of its grid is
        # evaluated; with it, fewer than one tile, and the trial's record
        # keeps every bit.
        cfg = cli.parse_config(
            overrides={"radii_m": [0.5], "distances_m": [50.0]}
        ).sweep_config(reduced_m=True, trials=1, seed=77, workers=1)
        spec = harness.grid_for_radius(cfg, 0.5)
        assert spec.n_d == 551
        (args,) = harness._trial_args(cfg)
        calls = count_rows(monkeypatch, spec)
        record = harness.run_trial(*args)
        rows = evaluated_rows(calls)
        assert len(rows) == len(set(rows)) and len(rows) < GRID_BLOCK_ROWS
        calls.clear()
        incumbent_rule_off(monkeypatch)
        full = harness.run_trial(*args)
        assert evaluated_rows(calls) == list(range(spec.n_d))
        assert record_bits(record) == record_bits(full)
        assert record.success


@functools.lru_cache(maxsize=None)
def sweep_trial(radius_m, d_m, reduced_m, seed):
    """Bank, geometry and grid of a one-cell, one-trial sweep, drawn as ``run_trial`` does."""
    cfg = cli.parse_config(
        overrides={"radii_m": [radius_m], "distances_m": [d_m]}
    ).sweep_config(reduced_m=reduced_m, trials=1, seed=seed, workers=1)
    ((_, radius, d_true, theta, trial_seed),) = harness._trial_args(cfg)
    geom = cfg.geometry(radius)
    truth = PolarPosition(d_true, wrap_angle(theta))
    beam = optimize_beamformer(geom, truth, cfg.ofdm).beamformer
    bank = synthesize_bank(geom, truth, beam, cfg.ofdm, harness.derive_seed(trial_seed, 2))
    return bank, geom, harness.grid_for_radius(cfg, radius)


def estimate_without_w(bank, geom, spec):
    """What ``estimate`` gives with the incumbent G alone: every run begun in ``lm_refine``."""
    starts = [basin.position for basin in coarse_grid_search(bank, geom, spec)]
    run = lm_refine(starts, bank, geom, estimator_module.RANGE_CAP_FACTOR * spec.d_max_m)
    return MlEstimate(
        run.position.d_m, run.position.theta_rad, run.cost, run.converged, run.iterations,
        run.basin_index,
    )


def record_w(monkeypatch):
    """Record the seed starts and the W of every ``_SeedRuns`` call, in order."""
    seen = []
    real = estimator_module._SeedRuns.__call__

    def recording(self, starts):
        refined = real(self, starts)
        seen.append((list(starts), refined))
        return refined

    monkeypatch.setattr(estimator_module._SeedRuns, "__call__", recording)
    return seen


# Rows the large-aperture trial of ``TestRefinedIncumbent`` evaluates since the
# interval bound has its proven term; 49 with the kappa term alone, 67 without
# the refined incumbent W as well.
LARGE_APERTURE_ROWS = 16


class TestRefinedIncumbent:
    """The incumbent is min(G, W), W the lowest cost a run from the seed window's basins reached."""

    def test_skipped_rows_hold_no_point_below_w(self, monkeypatch):
        # A target whose best grid cell costs 0.68 times the seed runs' W:
        # G alone skips 128 of the 300 rows, min(G, W) 239. On every skipped
        # row whose interval bound (the search's own) rules it out, by either
        # term, a dense lattice over its range interval, 4x the grid's
        # angles, must cost more than W.
        spec = TestPrunedGridSearch.SPEC
        geom, obs = strong_target(128, 40.0, 2.0, sigma2=1e-10)
        bank = matched_filter_bank(obs)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_rows(mp, spec)
            coarse_grid_search(bank, geom, spec)
            without = evaluated_rows(calls)
        seen = record_w(monkeypatch)
        calls = count_rows(monkeypatch, spec)
        runs = estimator_module._SeedRuns(bank, geom, 150.0)
        basins = coarse_grid_search(bank, geom, spec, refine_seed=runs)
        ((_, refined),) = seen
        assert refined < basins[0].cost
        bounds, _, _ = _row_bounds(bank, geom, spec.d_values(), spec.uniform_run)
        interval, _ = search_interval_bounds(bank, geom, spec)
        ruled_out = interval > refined
        assert len(without) - len(evaluated_rows(calls)) > spec.n_d // 3
        skipped = np.setdiff1d(np.arange(spec.n_d), evaluated_rows(calls))
        last = basins[-1].cost if len(basins) == grid_module.N_BASINS else np.inf
        assert np.all(ruled_out[skipped[bounds[skipped] <= last]])
        checked = skipped[ruled_out[skipped]]
        # Rows that G alone would not have ruled out are among them.
        assert np.sum(interval[checked] <= basins[0].cost) > spec.n_d // 3
        d_values = spec.d_values()
        d_lo = d_values[np.maximum(checked - 1, 0)]
        d_hi = d_values[np.minimum(checked + 1, spec.n_d - 1)]
        d_lattice = (d_lo[:, None] + np.linspace(0.0, 1.0, 16) * (d_hi - d_lo)[:, None]).ravel()
        theta = 2 * math.pi * np.arange(4 * spec.n_theta) / (4 * spec.n_theta)
        for d_part in np.array_split(d_lattice, -(-d_lattice.size // 256)):
            d, t = np.meshgrid(d_part, theta, indexing="ij")
            costs = _evaluate(d.ravel(), t.ravel(), bank, geom).cost
            assert costs.min() > refined

    @pytest.mark.parametrize("d_true, sigma2", [(25.0, 1e-10), (40.0, 1e-10), (80.0, 1e-11)])
    def test_the_estimate_costs_at_most_w(self, monkeypatch, d_true, sigma2):
        geom, obs = strong_target(128, d_true, 2.0, sigma2=sigma2)
        bank = matched_filter_bank(obs)
        seen = record_w(monkeypatch)
        result = estimate(bank, geom, TestPrunedGridSearch.SPEC)
        ((_, refined),) = seen
        assert result.cost <= refined
        assert result == estimate_without_w(bank, geom, TestPrunedGridSearch.SPEC)

    def test_the_run_that_set_w_stays_a_candidate(self, monkeypatch):
        # A search that drops the start of the run that set W from its list:
        # the estimate still refines it, after the listed basins, and costs
        # at most W.
        geom, obs = strong_target(128, 40.0, 2.0, sigma2=1e-10)
        bank = matched_filter_bank(obs)
        seen = record_w(monkeypatch)
        found, listed = [], []
        real_search = estimator_module.coarse_grid_search

        def search(bank, geom, spec, refine_seed=None):
            found.extend(real_search(bank, geom, spec, refine_seed=refine_seed))
            listed.extend(b for b in found if b.position != refine_seed.kept)
            return listed

        monkeypatch.setattr(estimator_module, "coarse_grid_search", search)
        result = estimate(bank, geom, TestPrunedGridSearch.SPEC)
        ((_, refined),) = seen
        assert len(listed) == len(found) - 1
        assert result.cost == refined and result.basin_index == len(listed)

    def test_a_seed_window_without_interior_minima_begins_no_run(self, monkeypatch):
        # Two rows: the seed window is one tile with no interior row, so the
        # search asks for no W and the estimate is the one G alone gives.
        geom, obs = strong_target(128, 40.0, 2.0)
        bank = matched_filter_bank(obs)
        spec = GridSpec(d_min_m=39.8, d_max_m=40.3, n_d=2, n_theta=64)
        seen = record_w(monkeypatch)
        got = estimate(bank, geom, spec)
        assert seen == []
        assert got == estimate_without_w(bank, geom, spec)

    def test_large_aperture_trial_evaluates_fewer_rows_and_keeps_its_estimate(
        self, monkeypatch
    ):
        # A trial shaped like the benchmark's large-aperture workload: 64
        # elements, R = 5 m, M = 128, d = 20 m, on the sweep's grid.
        bank, geom, spec = sweep_trial(5.0, 20.0, True, 77)
        want = estimate_without_w(bank, geom, spec)
        calls = count_rows(monkeypatch, spec)
        coarse_grid_search(bank, geom, spec)
        without = evaluated_rows(calls)
        calls.clear()
        got = estimate(bank, geom, spec)
        rows = evaluated_rows(calls)
        assert len(rows) == len(set(rows))
        assert len(rows) < len(without)
        assert len(rows) <= LARGE_APERTURE_ROWS
        assert got == want

    def test_wideband_trial_evaluates_the_same_rows(self, monkeypatch):
        # M = 2048, R = 0.5 m, d = 10 m: W does not rule out a row G keeps.
        bank, geom, spec = sweep_trial(0.5, 10.0, False, 77)
        calls = count_rows(monkeypatch, spec)
        coarse_grid_search(bank, geom, spec)
        without = evaluated_rows(calls)
        calls.clear()
        got = estimate(bank, geom, spec)
        assert evaluated_rows(calls) == without
        assert got == estimate_without_w(bank, geom, spec)

    def test_a_noise_limited_trial_begins_no_seed_run(self, monkeypatch):
        # The small-array cell at d = 200 m: G rules out no row after the
        # seed window, so no seed run is begun, and every row is evaluated.
        bank, geom, spec = sweep_trial(0.5, 200.0, True, 77)
        want = estimate_without_w(bank, geom, spec)
        seen = record_w(monkeypatch)
        calls = count_rows(monkeypatch, spec)
        got = estimate(bank, geom, spec)
        assert seen == []
        assert evaluated_rows(calls) == list(range(spec.n_d))
        assert got == want

    def test_each_candidate_is_evaluated_once(self, monkeypatch):
        # The derivative candidates of a large-aperture trial are those of
        # every final start's run alone, plus the steps the displaced seed
        # runs took before they paused: as many batches as the best seed
        # basin's run took. The trial is picked for a displaced run that
        # outlasts that pause, which the check needs: here one makes 6
        # evaluations alone, the best seed basin's run 5 (of seeds 84-99,
        # only 97 has such a run).
        bank, geom, spec = sweep_trial(5.0, 20.0, True, 97)
        d_max = estimator_module.RANGE_CAP_FACTOR * spec.d_max_m
        with pytest.MonkeyPatch.context() as mp:
            seen = record_w(mp)
            finals = []
            real_refine = estimator_module.lm_refine

            def refine(starts, *args):
                finals.append(list(starts))
                return real_refine(starts, *args)

            mp.setattr(estimator_module, "lm_refine", refine)
            calls = record_batches(mp)
            estimate(bank, geom, spec)
        ((seeds, _),) = seen
        (starts,) = finals
        displaced = [start for start in seeds if start not in starts]
        assert displaced and set(seeds) - set(displaced)

        def candidates(batches):
            return [c for _, d_m, theta_rad in batches for c in zip(d_m, theta_rad)]

        def alone(start):
            with pytest.MonkeyPatch.context() as mp:
                batches = record_batches(mp)
                lm_refine([start], bank, geom, d_max)
            return candidates(batches)

        paused = len(alone(seeds[0]))
        assert max(len(alone(start)) for start in displaced) > paused
        want = [c for start in starts for c in alone(start)]
        want += [c for start in displaced for c in alone(start)[:paused]]
        assert all(with_derivatives for with_derivatives, _, _ in calls)
        assert sorted(candidates(calls)) == sorted(want)


class TestProvenIntervalBound:
    """The proven term b_B of ``_interval_bounds``: Bernstein's inequality on the range profile.

    P(d) = ||c(d)||^2 is a real trigonometric polynomial in d with
    frequencies up to omega = 4 pi (M - 1) df / c, between 0 and
    P^ = sum_k (sum_m |Z[k, m]|)^2, so |P''| <= omega^2 P^ / 2 and on a gap
    of length h, P <= max(P at both ends) + h^2 omega^2 P^ / 16.
    """

    @pytest.mark.parametrize("kind", ["noise only", "one target", "two targets"])
    @pytest.mark.parametrize("workload", ["large-aperture", "wideband"])
    def test_the_profile_between_rows_stays_under_the_bernstein_bound(self, workload, kind):
        # Seeded banks on the workload's grid (M = 128 and 2048): every gap
        # within 5 delay lobes of a target and 100 drawn from the whole
        # grid, 16 points inside each.
        radii, distances, reduced_m = bench_workloads()[workload]
        cfg = cli.parse_config(
            overrides={"radii_m": list(radii), "distances_m": list(distances)}
        ).sweep_config(reduced_m=reduced_m, trials=1, seed=5, workers=1)
        config = cfg.ofdm
        (radius,), (d_true,) = radii, distances
        geom = cfg.geometry(radius)
        d_values = harness.grid_for_radius(cfg, radius).d_values()
        rng = np.random.default_rng(29)
        truths = [
            PolarPosition(d, float(rng.uniform(0.0, 2 * math.pi))) for d in (d_true, 2.3 * d_true)
        ]
        beam = conjugate_focus_beamformer(geom, truths[0])
        noisy = synthesize_bank(geom, truths[0], beam, config, 31).aggregates
        quiet = dataclasses.replace(config, sigma2_w=0.0)
        echoes = [synthesize_bank(geom, truth, beam, quiet, 31).aggregates for truth in truths]
        aggregates = {
            "noise only": noisy - echoes[0],
            "one target": noisy,
            "two targets": noisy + echoes[1],
        }[kind]
        bank = MatchedFilterBank(aggregates, config, beam)
        lobe = SPEED_OF_LIGHT / (2.0 * config.m_subcarriers * config.delta_f_hz)
        near = np.abs(d_values[:-1, None] - [t.d_m for t in truths]).min(axis=1) < 5.0 * lobe
        gaps = np.union1d(np.flatnonzero(near), rng.choice(d_values.size - 1, 100, replace=False))
        first, last = d_values[gaps], d_values[gaps + 1]
        points = first[:, None] + np.linspace(0.0, 1.0, 18)[1:-1] * (last - first)[:, None]
        between = profile_power(bank, points.ravel()).reshape(points.shape).max(axis=1)
        ends = np.maximum(profile_power(bank, first), profile_power(bank, last))
        omega = 4.0 * np.pi * (config.m_subcarriers - 1) * config.delta_f_hz / SPEED_OF_LIGHT
        ceiling = np.sum(np.sum(np.abs(aggregates), axis=1) ** 2)
        bound = ends + (last - first) ** 2 * omega**2 * ceiling / 16.0
        assert np.all(between <= bound * (1.0 + grid_module.BOUND_SLACK))

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_interval_bounds_are_the_larger_term_row_by_row(self, n_rows):
        # Uneven gaps, negative bounds and one at zero: each row's
        # max(kappa b~, b_B) from its own neighbours, written out per row.
        rng = np.random.default_rng(41 + n_rows)
        d_values = 10.0 + np.cumsum(rng.uniform(0.01, 0.3, n_rows))
        bounds = -rng.uniform(0.0, 1.0, n_rows)
        bounds[rng.integers(n_rows)] = 0.0
        floor = -2.0
        config = OfdmConfig(128, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        bank = MatchedFilterBank(np.zeros((1, 128), dtype=complex), config, np.ones(1))
        got = grid_module._interval_bounds(bank, d_values, bounds, np.zeros(n_rows), floor)
        omega = 4.0 * np.pi * 127 * 480e3 / SPEED_OF_LIGHT
        for i in range(n_rows):
            around = range(max(i - 1, 0), min(i + 2, n_rows))
            lowest = min(bounds[j] for j in around)
            gaps = [abs(d_values[j] - d_values[i]) for j in around]
            proven = lowest + floor * max(gaps) ** 2 * omega**2 / 16.0
            sampled = grid_module.INCUMBENT_KAPPA * lowest if lowest < 0.0 else -np.inf
            assert got[i] == pytest.approx(max(sampled, proven), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_each_term_is_capped_by_the_rows_bound_on_its_computed_costs(self, n_rows):
        # Drawn margins, one of them infinite: each row's
        # max(min(kappa b~, kappa b'), min(b_B, b')), b' = b - E32 its own.
        rng = np.random.default_rng(51 + n_rows)
        d_values = 10.0 + np.cumsum(rng.uniform(0.01, 0.3, n_rows))
        bounds = -rng.uniform(0.0, 1.0, n_rows)
        margins = rng.uniform(0.0, 0.5, n_rows)
        margins[rng.integers(n_rows)] = np.inf
        floor = -2.0
        config = OfdmConfig(128, 2, 480e3, 0.07 / 480e3, 0.1, 1e-9)
        bank = MatchedFilterBank(np.zeros((1, 128), dtype=complex), config, np.ones(1))
        got = grid_module._interval_bounds(bank, d_values, bounds, margins, floor)
        no_margins = grid_module._interval_bounds(bank, d_values, bounds, 0.0 * bounds, floor)
        kappa = grid_module.INCUMBENT_KAPPA
        omega = 4.0 * np.pi * 127 * 480e3 / SPEED_OF_LIGHT
        for i in range(n_rows):
            around = range(max(i - 1, 0), min(i + 2, n_rows))
            lowest = min(bounds[j] for j in around)
            gaps = [abs(d_values[j] - d_values[i]) for j in around]
            proven = lowest + floor * max(gaps) ** 2 * omega**2 / 16.0
            own = bounds[i] - margins[i]
            want = max(min(kappa * lowest, kappa * own), min(proven, own))
            assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert got[i] <= no_margins[i]
        assert np.all(got[margins == np.inf] == -np.inf)

    @pytest.mark.parametrize("workload", ["large-aperture", "wideband"])
    def test_two_extreme_subcarriers_attain_the_bound(self, workload):
        # Z[k, 0] = Z[k, M - 1] = 1: P(d) = 2 n_a (1 + cos(omega d + phi)),
        # whose P'' reaches omega^2 P^ / 2, so on a gap centred on a peak P
        # rises above its ends by all but O((omega h)^2) of the bound. Of 300
        # gaps drawn from the workload's grid, 16 points inside each, the
        # best-centred comes within 20 % of it (17 % on the large-aperture
        # grid): the constant 1/16 cannot shrink much.
        radii, _, reduced_m = bench_workloads()[workload]
        cfg = cli.parse_config(overrides={"radii_m": list(radii)}).sweep_config(
            reduced_m=reduced_m, trials=1, seed=5, workers=1
        )
        config = cfg.ofdm
        geom = cfg.geometry(radii[0])
        d_values = harness.grid_for_radius(cfg, radii[0]).d_values()
        aggregates = np.zeros((geom.n_a, config.m_subcarriers), dtype=complex)
        aggregates[:, [0, -1]] = 1.0
        bank = MatchedFilterBank(aggregates, config, np.ones(geom.n_a) / np.sqrt(geom.n_a))
        gaps = np.random.default_rng(37).choice(d_values.size - 1, 300, replace=False)
        first, last = d_values[gaps], d_values[gaps + 1]
        points = first[:, None] + np.linspace(0.0, 1.0, 18)[1:-1] * (last - first)[:, None]
        between = profile_power(bank, points.ravel()).reshape(points.shape).max(axis=1)
        ends = np.maximum(profile_power(bank, first), profile_power(bank, last))
        omega = 4.0 * np.pi * (config.m_subcarriers - 1) * config.delta_f_hz / SPEED_OF_LIGHT
        term = (last - first) ** 2 * omega**2 * (4.0 * geom.n_a) / 16.0
        assert np.all(between <= (ends + term) * (1.0 + grid_module.BOUND_SLACK))
        assert np.max((between - ends) / term) > 0.8

    def test_rows_only_the_proven_term_skips_hold_no_point_below_the_incumbent(self, monkeypatch):
        # The large-aperture trial of TestRefinedIncumbent: its curvature-
        # limited rows near the target lie 0.053 m apart against a 2.44 m
        # delay lobe, so b_B rules out rows kappa b~ does not (33 here). On
        # each, a dense lattice over its range interval, 16 ranges and 4x the
        # grid's angles, must cost more than the search's incumbent min(G, W).
        bank, geom, spec = sweep_trial(5.0, 20.0, True, 77)
        seen = record_w(monkeypatch)
        calls = count_rows(monkeypatch, spec)
        runs = estimator_module._SeedRuns(
            bank, geom, estimator_module.RANGE_CAP_FACTOR * spec.d_max_m
        )
        basins = coarse_grid_search(bank, geom, spec, refine_seed=runs)
        ((_, refined),) = seen
        incumbent = min(basins[0].cost, refined)
        bounds, _, _ = _row_bounds(bank, geom, spec.d_values(), spec.uniform_run)
        _, proven = search_interval_bounds(bank, geom, spec)
        skipped = np.setdiff1d(np.arange(spec.n_d), evaluated_rows(calls))
        only_proven = (proven > incumbent) & (kappa_interval_bounds(bounds) <= incumbent)
        checked = skipped[only_proven[skipped]]
        assert checked.size >= 30
        d_values = spec.d_values()
        d_lo = d_values[np.maximum(checked - 1, 0)]
        d_hi = d_values[np.minimum(checked + 1, spec.n_d - 1)]
        workspace = _Workspace(geom.n_a, 4 * spec.n_theta)
        for lo, hi in zip(d_lo, d_hi):
            costs = _cost_rows_fft(bank, geom, np.linspace(lo, hi, 16), workspace)
            assert costs.min() > incumbent

    def test_large_aperture_trial_at_50_m_evaluates_few_rows_and_keeps_its_record(
        self, monkeypatch
    ):
        # M = 128, R = 5 m, d = 50 m: curvature-limited rows around the
        # target, where kappa b~ rules out too few rows and the search used
        # to evaluate up to the whole 1,053-row grid. With the proven term,
        # fewer than one tile, and the record keeps every bit of the trial
        # with the incumbent rule off.
        cfg = cli.parse_config(
            overrides={"radii_m": [5.0], "distances_m": [50.0]}
        ).sweep_config(reduced_m=True, trials=1, seed=77, workers=1)
        spec = harness.grid_for_radius(cfg, 5.0)
        (args,) = harness._trial_args(cfg)
        calls = count_rows(monkeypatch, spec)
        record = harness.run_trial(*args)
        rows = evaluated_rows(calls)
        assert len(rows) == len(set(rows)) and len(rows) < GRID_BLOCK_ROWS
        incumbent_rule_off(monkeypatch)
        assert record_bits(record) == record_bits(harness.run_trial(*args))


class TestRoundingMargin:
    """The rounding margin E32 of ``_row_bounds`` covers the single-precision kernel.

    Every cost ``_cost_rows`` computes lies within its row's margin of the
    float64 oracle ``_cost_rows_direct``, so at or above b - E32.
    """

    @staticmethod
    def workload_bank(workload, kind):
        """Geometry, grid, bank and true ranges of a seeded bank on a workload's grid."""
        radii, distances, reduced_m = bench_workloads()[workload]
        cfg = cli.parse_config(
            overrides={"radii_m": list(radii), "distances_m": list(distances)}
        ).sweep_config(reduced_m=reduced_m, trials=1, seed=5, workers=1)
        config = cfg.ofdm
        radius, d_true = radii[0], distances[-1]
        geom = cfg.geometry(radius)
        rng = np.random.default_rng(37)
        truths = [
            PolarPosition(d, float(rng.uniform(0.0, 2 * math.pi))) for d in (d_true, 2.3 * d_true)
        ]
        beam = optimize_beamformer(geom, truths[0], config).beamformer
        noisy = synthesize_bank(geom, truths[0], beam, config, 43).aggregates
        quiet = dataclasses.replace(config, sigma2_w=0.0)
        echoes = [synthesize_bank(geom, truth, beam, quiet, 43).aggregates for truth in truths]
        aggregates = {
            "noise only": noisy - echoes[0],
            "one target": noisy,
            "two targets": noisy + echoes[1],
        }[kind]
        bank = MatchedFilterBank(aggregates, config, beam)
        return geom, harness.grid_for_radius(cfg, radius), bank, [t.d_m for t in truths]

    @pytest.mark.parametrize("kind", ["noise only", "one target", "two targets"])
    @pytest.mark.parametrize("workload", ["small-array", "large-aperture", "wideband"])
    def test_kernel_costs_lie_within_the_margin_of_the_float64_oracle(self, workload, kind):
        # Rows at each target and far from them: the grid's first, a middle
        # and its last row. The oracle takes every 8th angle of the lattice.
        geom, spec, bank, d_true = self.workload_bank(workload, kind)
        d_values = spec.d_values()
        at = [int(np.argmin(np.abs(d_values - d))) for d in d_true if d < d_values[-1]]
        rows = np.unique(at + [0, d_values.size // 2, d_values.size - 1])
        d_rows = d_values[rows]
        costs = _cost_rows_fft(bank, geom, d_rows, _Workspace(geom.n_a, spec.n_theta))
        want = _cost_rows_direct(bank, geom, bank, d_rows, spec.theta_values()[::8])
        bounds, margins, _ = _row_bounds(bank, geom, d_values, spec.uniform_run)
        assert np.all(np.isfinite(margins[rows]))
        assert np.all(np.abs(costs[:, ::8] - want) <= margins[rows, None])
        assert np.all(costs >= (bounds - margins)[rows, None])

    def test_float32_cos_and_sin_stay_within_the_assumed_error(self):
        # E32 takes each of them to err by at most 4 u on [-pi, pi].
        u = np.finfo(np.float32).eps / 2.0
        phase = np.linspace(-np.pi, np.pi, 4_000_001).astype(np.float32)
        exact = phase.astype(np.float64)
        assert np.max(np.abs(np.cos(phase) - np.cos(exact))) <= 4.0 * u
        assert np.max(np.abs(np.sin(phase) - np.sin(exact))) <= 4.0 * u

    def test_the_best_cell_plus_its_margin_is_above_its_float64_cost(self):
        # The incumbent rule reads G + E32(G's row): at least the float64
        # cost of G's node, where the refinement begins.
        bank, geom, spec = sweep_trial(0.5, 10.0, True, 77)
        (best, *_) = coarse_grid_search(bank, geom, spec)
        _, margins, _ = _row_bounds(bank, geom, spec.d_values(), spec.uniform_run)
        float64_cost = _evaluate(
            [best.position.d_m], [best.position.theta_rad], bank, geom
        ).cost[0]
        assert best.cost + margins[best.d_index] >= float64_cost
        assert abs(best.cost - float64_cost) <= margins[best.d_index]


class TestLmRefine:
    def test_zero_noise_recovery_from_offset(self, geom64):
        config = OfdmConfig(128, 4, 480e3, 0.07 / 480e3, 0.1, 0.0)
        pos = PolarPosition(10.0, 0.7)
        f = conjugate_focus_beamformer(geom64, pos)
        pilots = generate_pilots(config, 9)
        obs = synthesize_observation(geom64, pos, f, config, pilots, 10)
        bank = matched_filter_bank(obs)
        start = PolarPosition(10.01, 0.701)
        run = lm_refine([start], bank, geom64, 600.0)
        refined, converged, iterations = run.position, run.converged, run.iterations
        assert converged
        assert abs(refined.d_m - 10.0) < 1e-6
        assert abs(refined.theta_rad - 0.7) < 1e-8

    def test_zero_iteration_budget(self, monkeypatch, geom64):
        monkeypatch.setattr(estimator_module, "REFINE_STEP_BUDGET", 0)
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        pos = PolarPosition(10.0, 0.7)
        f = conjugate_focus_beamformer(geom64, pos)
        pilots = generate_pilots(config, 9)
        obs = synthesize_observation(geom64, pos, f, config, pilots, 10)
        bank = matched_filter_bank(obs)
        start = PolarPosition(10.3, 0.72)
        run = lm_refine([start], bank, geom64, 600.0)
        refined, converged, iterations = run.position, run.converged, run.iterations
        assert refined == start
        assert not converged and iterations == 0

    def test_secondary_minimum_stays_local(self, geom64):
        # Two superposed returns create a deterministic two-minima
        # surface; refining the weaker basin terminates inside it, far
        # from the stronger source.
        config = OfdmConfig(64, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        pos_a = PolarPosition(10.0, 0.7)
        pos_b = PolarPosition(14.0, 2.1)
        f = conjugate_focus_beamformer(geom64, pos_a)
        pilots = generate_pilots(config, 11)
        mean_a = noiseless_mean(geom64, pos_a, f, config, pilots)
        mean_b = noiseless_mean(geom64, pos_b, f, config, pilots)
        obs = Observation(mean_a + 0.5 * mean_b, pilots, config, f)
        bank = matched_filter_bank(obs)
        run = lm_refine([PolarPosition(14.05, 2.095)], bank, geom64, 600.0)
        refined, converged = run.position, run.converged
        assert abs(refined.d_m - 14.0) < 0.5
        assert abs(refined.theta_rad - 2.1) < 0.05


def record_refinement(monkeypatch):
    """Record every (d, theta, evaluation) that ``lm_refine`` evaluates, in order."""
    seen = []
    original = estimator_module._evaluate

    def recording(d_m, theta_rad, *args, **kwargs):
        out = original(d_m, theta_rad, *args, **kwargs)
        seen.append((float(d_m[0]), float(theta_rad[0]), out))
        return out

    monkeypatch.setattr(estimator_module, "_evaluate", recording)
    return seen


def accepted_chain(seen):
    """The iterates a cost-descent refinement accepts: each evaluation costing no more."""
    chain = [seen[0]]
    for entry in seen[1:]:
        if entry[2].cost[0] <= chain[-1][2].cost[0]:
            chain.append(entry)
    return chain


def quadratic_evaluator(d_min, theta_min, curv_d, curv_t, quartic_t=0.0):
    """A stand-in for ``_evaluate``: L = curv_d x^2 + curv_t y^2 + quartic_t y^4.

    x = d - d_min and y = theta - theta_min; returns cost, gradient and
    Hessian of one candidate, as ``lm_refine`` asks for them.
    """
    def evaluate(d_m, theta_rad, *args, **kwargs):
        x, y = d_m[0] - d_min, theta_rad[0] - theta_min
        value = curv_d * x * x + curv_t * y * y + quartic_t * y**4
        gradient = np.array([[2 * curv_d * x, 2 * curv_t * y + 4 * quartic_t * y**3]])
        hessian = np.array([[[2 * curv_d, 0.0], [0.0, 2 * curv_t + 12 * quartic_t * y * y]]])
        return estimator_module._Evaluation(None, np.array([value]), gradient, hessian)

    return evaluate


class TestNewtonRefine:
    """Damped Newton on the cost: descent, bounds and what converged means."""

    @pytest.mark.parametrize("seed", [90, 91, 92])
    def test_random_starts_within_half_a_lobe(self, monkeypatch, geom64, reduced_ofdm, seed):
        rng = np.random.default_rng(seed)
        truth = PolarPosition(12.0, 1.3)
        f = conjugate_focus_beamformer(geom64, truth)
        pilots = generate_pilots(reduced_ofdm, seed)
        obs = synthesize_observation(geom64, truth, f, reduced_ofdm, pilots, seed + 1)
        bank = matched_filter_bank(obs)
        d_max = 600.0
        d_lo = geom64.radius_m * (1.0 + 1e-6)
        radii = 0.5 * np.array(grid_module._lobe_widths(geom64, reduced_ofdm))
        step_tol = np.array(
            [estimator_module.STEP_TOL_D_M, estimator_module.STEP_TOL_THETA_RAD]
        )
        minima = []
        for _ in range(8):
            offset = rng.uniform(-1.0, 1.0, size=2) * radii
            start = PolarPosition(truth.d_m + offset[0], truth.theta_rad + offset[1])
            seen = record_refinement(monkeypatch)
            run = lm_refine([start], bank, geom64, d_max)
            refined, converged, iterations = run.position, run.converged, run.iterations
            monkeypatch.undo()
            assert iterations == len(seen) - 1 <= estimator_module.REFINE_STEP_BUDGET
            # Descent: the returned iterate is the last accepted one, and its
            # cost never exceeds the start's (the plain cost rounds apart
            # from the derivative evaluation's by far less than 1e-12).
            chain = accepted_chain(seen)
            assert (refined.d_m, refined.theta_rad) == chain[-1][:2]
            assert chain[-1][2].cost[0] <= seen[0][2].cost[0]
            start_cost = cost(start, bank, geom64)
            assert cost(refined, bank, geom64) <= start_cost + 1e-12 * abs(start_cost)
            # Every iterate lies strictly inside the range bounds.
            assert all(d_lo < d < d_max for d, _, _ in seen)
            assert converged
            minima.append((refined.d_m, refined.theta_rad))
            h, g = chain[-1][2].hessian[0], chain[-1][2].gradient[0]
            assert np.all(np.linalg.eigvalsh(h) > 0.0)
            newton = -np.linalg.solve(h, g)
            if len(chain) > 1:
                last = np.array(chain[-1][:2]) - np.array(chain[-2][:2])
                last[1] = (last[1] + math.pi) % (2 * math.pi) - math.pi
            else:
                last = newton
            assert np.all(np.abs(newton) < step_tol) or np.all(np.abs(last) < step_tol)
        # Every start within half a lobe ends at the same minimum.
        spread = np.ptp(np.array(minima), axis=0)
        assert spread[0] < 1e-6 and spread[1] < 1e-8

    @pytest.mark.parametrize("d_min", [0.2, 700.0])
    def test_iterates_stay_strictly_inside_the_range_bounds(self, monkeypatch, geom64, d_min):
        # The cost keeps falling toward a minimum inside the array (0.2 m)
        # or beyond d_max_m (700 m); steps toward it are halved at the bound.
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        bank = MatchedFilterBank(np.zeros((64, 16), dtype=complex), config,
                                 conjugate_focus_beamformer(geom64, PolarPosition(10.0, 0.7)))
        seen = record_refinement(monkeypatch)
        monkeypatch.setattr(estimator_module, "_evaluate", quadratic_evaluator(d_min, 0.7, 1.0, 1.0))
        d_max = 600.0
        start = PolarPosition(0.6 if d_min < 1.0 else 599.0, 0.7)
        run = lm_refine([start], bank, geom64, d_max)
        refined, converged, iterations = run.position, run.converged, run.iterations
        d_lo = geom64.radius_m * (1.0 + 1e-6)
        assert d_lo < refined.d_m < d_max
        assert abs(refined.d_m - (d_lo if d_min < 1.0 else d_max)) < 1e-6
        assert not converged
        assert iterations <= estimator_module.REFINE_STEP_BUDGET

    def test_a_saddle_start_descends_to_the_minimum(self, monkeypatch, geom64):
        # L = c ((d - 10)^2 + ((theta - 1) / s)^2 (-1 + (theta - 1)^2 / s^2)) has
        # a saddle at theta = 1 and minima at theta = 1 +- s / sqrt(2): the
        # floored |eigenvalue| turns the negative curvature into descent.
        # c = 1e-12 gives the cost the magnitude of this array's costs, so
        # the gradient tolerance means what it means there.
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        bank = MatchedFilterBank(np.zeros((64, 16), dtype=complex), config,
                                 conjugate_focus_beamformer(geom64, PolarPosition(10.0, 0.7)))
        c, s = 1e-12, 1e-3
        monkeypatch.setattr(
            estimator_module, "_evaluate",
            quadratic_evaluator(10.0, 1.0, c, -c / s**2, c / s**4),
        )
        run = lm_refine([PolarPosition(10.2, 1.0 + 1e-5)], bank, geom64, 600.0)
        refined, converged = run.position, run.converged
        assert converged
        assert abs(refined.d_m - 10.0) < 1e-7
        assert abs(refined.theta_rad - (1.0 + s / math.sqrt(2))) < 1e-9

    @pytest.mark.parametrize("curv_d", [1e-12, -1e-12])
    def test_a_stationary_saddle_or_maximum_is_not_converged(self, monkeypatch, geom64, curv_d):
        # No step leaves a point with zero gradient, and its Hessian is not
        # positive definite: a saddle (curv_d > 0) or a maximum.
        config = OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 0.0)
        bank = MatchedFilterBank(np.zeros((64, 16), dtype=complex), config,
                                 conjugate_focus_beamformer(geom64, PolarPosition(10.0, 0.7)))
        monkeypatch.setattr(
            estimator_module, "_evaluate", quadratic_evaluator(10.0, 1.0, curv_d, -1e-6)
        )
        start = PolarPosition(10.0, 1.0)
        run = lm_refine([start], bank, geom64, 600.0)
        refined, converged, iterations = run.position, run.converged, run.iterations
        assert refined == start and not converged and iterations == 0


def record_batches(monkeypatch):
    """Record each ``_evaluate`` call as (with derivatives, candidate ranges, candidate angles)."""
    calls = []
    original = estimator_module._evaluate

    def recording(d_m, theta_rad, *args, **kwargs):
        calls.append((bool(kwargs.get("with_derivatives")), list(d_m), list(theta_rad)))
        return original(d_m, theta_rad, *args, **kwargs)

    monkeypatch.setattr(estimator_module, "_evaluate", recording)
    return calls


def oracle_refine(starts, bank, geom, d_max):
    """The per-basin loop: refine each start alone, rank by its cost, ties to the lower index.

    Returns (position, converged, iterations, basin index, cost), the fields
    of ``lm_refine``'s result.
    """
    best = None
    for index, start in enumerate(starts):
        run = lm_refine([start], bank, geom, d_max)
        key = (run.cost, index)
        if best is None or key < best[0]:
            best = (key, run)
    (value, index), run = best
    return run.position, run.converged, run.iterations, index, value


class TestLockStepRefine:
    """``lm_refine`` refines all starts in lock-step and returns what refining each alone returns."""

    def noisy_starts(self, geom64, reduced_ofdm, seed, d_true):
        truth = PolarPosition(d_true, 1.3)
        f = conjugate_focus_beamformer(geom64, truth)
        bank = synthesize_bank(geom64, truth, f, reduced_ofdm, seed)
        spec = GridSpec.for_array(geom64, reduced_ofdm, 400.0)
        starts = [basin.position for basin in coarse_grid_search(bank, geom64, spec)]
        assert len(starts) == grid_module.N_BASINS
        return bank, starts

    @pytest.mark.parametrize("seed,d_true", [(31, 50.0), (32, 200.0), (33, 200.0)])
    def test_grid_basins_match_the_per_basin_loop(
        self, monkeypatch, geom64, reduced_ofdm, seed, d_true
    ):
        bank, starts = self.noisy_starts(geom64, reduced_ofdm, seed, d_true)
        d_max = 600.0
        steps = [lm_refine([start], bank, geom64, d_max).iterations for start in starts]
        assert len(set(steps)) > 1  # the runs stop at different steps
        want = oracle_refine(starts, bank, geom64, d_max)
        calls = record_batches(monkeypatch)
        got = lm_refine(starts, bank, geom64, d_max)
        assert tuple(got) == want
        assert type(got.converged) is bool and type(got.iterations) is int
        # One batched derivative evaluation per step, the starts first, and
        # no other call.
        assert [with_derivatives for with_derivatives, _, _ in calls] == [True] * (1 + max(steps))
        assert calls[0][1] == [start.d_m for start in starts]
        # The winner's cost is its derivative evaluation's, to rounding.
        assert got.cost == pytest.approx(cost(got.position, bank, geom64), rel=1e-12, abs=0.0)

    def test_starts_clamped_onto_the_range_bounds(self, monkeypatch, geom64, reduced_ofdm):
        bank, starts = self.noisy_starts(geom64, reduced_ofdm, 34, 200.0)
        d_max = 600.0
        starts = [PolarPosition(0.2, 1.0), *starts[:4], PolarPosition(900.0, 2.0)]
        want = oracle_refine(starts, bank, geom64, d_max)
        calls = record_batches(monkeypatch)
        assert tuple(lm_refine(starts, bank, geom64, d_max)) == want
        # The first batch holds the starts, the outer two clamped onto the bounds.
        first = calls[0][1]
        assert first[0] == geom64.radius_m * (1.0 + 1e-6) and first[-1] == d_max
        assert first[1:-1] == [start.d_m for start in starts[1:-1]]

    def test_zero_iteration_budget_ranks_the_starts(self, monkeypatch, geom64, reduced_ofdm):
        bank, starts = self.noisy_starts(geom64, reduced_ofdm, 35, 50.0)
        monkeypatch.setattr(estimator_module, "REFINE_STEP_BUDGET", 0)
        d_max = 600.0
        got = lm_refine(starts, bank, geom64, d_max)
        assert tuple(got) == oracle_refine(starts, bank, geom64, d_max)
        assert got.position == starts[got.basin_index]
        assert not got.converged and got.iterations == 0

    def test_ties_go_to_the_lower_index(self, geom64, reduced_ofdm):
        # Each start twice: the copies share their batches' ranges and end
        # with equal costs, and the first copy wins.
        bank, starts = self.noisy_starts(geom64, reduced_ofdm, 37, 200.0)
        d_max = 600.0
        got = lm_refine(starts + starts, bank, geom64, d_max)
        assert tuple(got) == oracle_refine(starts + starts, bank, geom64, d_max)
        assert got.basin_index < len(starts)

    def test_no_start_is_an_error(self, geom64, reduced_ofdm):
        bank, _ = self.noisy_starts(geom64, reduced_ofdm, 36, 50.0)
        with pytest.raises(ValueError):
            lm_refine([], bank, geom64, 600.0)


class TestEstimate:
    def test_zero_noise_end_to_end(self, geom64):
        config = OfdmConfig(128, 14, 480e3, 0.07 / 480e3, 0.1, 0.0)
        pos = PolarPosition(10.0, 0.7)
        f = conjugate_focus_beamformer(geom64, pos)
        pilots = generate_pilots(config, 21)
        obs = synthesize_observation(geom64, pos, f, config, pilots, 22)
        grid = GridSpec.for_array(geom64, config, 400.0)
        result = estimate(matched_filter_bank(obs), geom64, grid)
        assert result.converged
        assert abs(result.d_hat_m - 10.0) < 1e-6
        assert abs(result.theta_hat_rad - 0.7) < 1e-8
        # The cost comes from the winner's evaluation with derivatives.
        assert result.cost == pytest.approx(
            cost(PolarPosition(result.d_hat_m, result.theta_hat_rad),
                 matched_filter_bank(obs), geom64),
            rel=1e-12,
        )

    def test_identical_observations_identical_estimates(self, geom64, reduced_ofdm):
        pos = PolarPosition(12.0, 1.4)
        f = conjugate_focus_beamformer(geom64, pos)
        pilots = generate_pilots(reduced_ofdm, 31)
        obs = synthesize_observation(geom64, pos, f, reduced_ofdm, pilots, 32)
        grid = GridSpec.for_array(geom64, reduced_ofdm, 400.0)
        a = estimate(matched_filter_bank(obs), geom64, grid)
        b = estimate(matched_filter_bank(obs), geom64, grid)
        assert a == b
