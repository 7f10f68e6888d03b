"""Riemannian descent machinery: the subspace Newton solver against its oracles.

The n_a x n_a W-matrix trace gradient that the subspace model replaced
lives here (``WMatrixTrace``) as the reference for the finite-difference
check, the forms and the stopping norm, and so does the 64-dim
project-descend-retract Armijo loop built on it (``armijo_oracle``).
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from nfisac import (
    OfdmConfig,
    PolarPosition,
    UcaGeometry,
    conjugate_focus_beamformer,
    crlb_at,
    crlb_from_fim,
    fim,
    optimize_beamformer,
    steering_vector,
    trace_objective,
    ue_received_snr,
)
from nfisac import beamformer as beamformer_module
from nfisac.beamformer import OptimizerResult, _real_form, _SubspaceModel
from nfisac.crlb import fim_scale
from nfisac.geometry import sensitivities

from conftest import SIGMA2_W, random_unit_vector


class WMatrixTrace:
    """The trace objective through n_a x n_a matrices: gamma_d = W_d f, gamma_theta = W_t f.

    Row k of W_d (W_t) collects how element k's derivative factor depends on
    every beamformer entry, with its own copy of the gamma formula. Every
    row is a combination of the transposed columns of B = [a, a o (1 -
    alpha_d), a o alpha_theta], so W f depends on f only through B^T f.
    ``gradient`` is the conjugate-coordinate derivative G = d Tr(C) / d f*,
    so that dT = 2 Re{G^H df}: along f = u + j v, dT/du_i = 2 Re{G_i} and
    dT/dv_i = 2 Im{G_i}.
    """

    def __init__(self, geom, pos, config):
        sens = sensitivities(geom, pos)
        a = steering_vector(geom, pos)
        wavenumber = 2.0 * np.pi / geom.wavelength_m
        r = sens.ranges_m
        one_minus_ad = 1.0 - sens.alpha_d
        at = sens.alpha_theta
        ones = np.ones(geom.n_a)
        self.w_d = -(sens.alpha_d / r)[:, None] * a[None, :] + 1j * wavenumber * (
            ones[:, None] * (a * one_minus_ad)[None, :] + one_minus_ad[:, None] * a[None, :]
        )
        self.w_t = -(at / r)[:, None] * a[None, :] - 1j * wavenumber * (
            ones[:, None] * (a * at)[None, :] + at[:, None] * a[None, :]
        )
        couplings = np.column_stack([a, a * one_minus_ad, a * at])
        self.inv_r2 = 1.0 / r**2
        self.scale = fim_scale(config, geom)
        self.w_d_adj = np.conj(self.w_d).T
        self.w_t_adj = np.conj(self.w_t).T
        self.basis = np.linalg.qr(np.conj(couplings))[0]
        m_d = self.w_d @ self.basis
        m_t = self.w_t @ self.basis
        weighted_t = self.inv_r2[:, None] * m_t
        cross = np.conj(m_d).T @ weighted_t
        self.forms = np.stack([
            _real_form(np.conj(m_d).T @ (self.inv_r2[:, None] * m_d)),
            _real_form(np.conj(m_t).T @ weighted_t),
            _real_form(0.5 * (cross + np.conj(cross).T)),
        ])

    def quadratics(self, f):
        gamma_d = self.w_d @ f
        gamma_t = self.w_t @ f
        quad_r = float(np.sum(np.abs(gamma_d) ** 2 * self.inv_r2))
        quad_t = float(np.sum(np.abs(gamma_t) ** 2 * self.inv_r2))
        quad_x = float(np.real(np.sum(np.conj(gamma_d) * gamma_t * self.inv_r2)))
        return gamma_d, gamma_t, quad_r, quad_t, quad_x

    def objective(self, f):
        """Trace of the bound from the quadratics; +inf when unidentifiable."""
        _, _, quad_r, quad_t, quad_x = self.quadratics(f)
        det = quad_r * quad_t - quad_x**2
        if det <= 0.0:
            return np.inf
        return (quad_r + quad_t) / (self.scale * det)

    def gradient(self, f):
        gamma_d, gamma_t, quad_r, quad_t, quad_x = self.quadratics(f)
        det = quad_r * quad_t - quad_x**2
        assert det > 0.0
        grad_r = self.w_d_adj @ (gamma_d * self.inv_r2)
        grad_t = self.w_t_adj @ (gamma_t * self.inv_r2)
        grad_x = 0.5 * (
            self.w_d_adj @ (gamma_t * self.inv_r2)
            + self.w_t_adj @ (gamma_d * self.inv_r2)
        )
        numer = quad_r + quad_t
        return (
            det * (grad_r + grad_t)
            - numer * (quad_t * grad_r + quad_r * grad_t - 2.0 * quad_x * grad_x)
        ) / (self.scale * det**2)

    def tangent_gradient(self, f):
        """The gradient less its radial component: G - Re{<f, G>} f."""
        grad = self.gradient(f)
        return grad - np.real(np.vdot(f, grad)) * f


def wirtinger_gradient(f, geom, pos, config):
    return WMatrixTrace(geom, pos, config).gradient(f)


def armijo_oracle(geom, pos, config):
    """Project-descend-retract loop with Armijo backtracking in all n_a dims.

    Its settings are literals, so the oracle stays independent of the
    code it checks.
    """
    max_iters, grad_tol, initial_step, max_backtracks = 2000, 1e-8, 1.0, 50
    armijo_c, backtrack_factor = 1e-4, 0.5
    f = conjugate_focus_beamformer(geom, pos)
    oracle = WMatrixTrace(geom, pos, config)
    objective = oracle.objective(f)
    history = [objective]
    direction = oracle.tangent_gradient(f)
    grad_norm = float(np.linalg.norm(direction))
    tol = grad_tol * grad_norm
    iterations = 0
    while iterations < max_iters and grad_norm > tol:
        # Armijo model: directional derivative along -direction is -2 ||P||^2.
        expected_slope = 2.0 * grad_norm**2
        step = initial_step
        accepted = False
        for _ in range(max_backtracks):
            # direction is tangent, so |f - step * direction| >= 1.
            candidate = f - step * direction
            candidate = candidate / np.linalg.norm(candidate)
            candidate_obj = oracle.objective(candidate)
            if candidate_obj <= objective - armijo_c * step * expected_slope:
                accepted = True
                break
            step *= backtrack_factor
        if not accepted:
            break
        f = candidate
        objective = candidate_obj
        history.append(objective)
        iterations += 1
        direction = oracle.tangent_gradient(f)
        grad_norm = float(np.linalg.norm(direction))
    return OptimizerResult(f, np.asarray(history), grad_norm, iterations, grad_norm <= tol)


def fd_vs_projected_gradient(geom, pos, config, f, h=1e-7):
    """Max relative error between renormalized FD and 2*Re/Im of the
    tangent-projected gradient over a sample of coordinate directions."""
    projected = WMatrixTrace(geom, pos, config).tangent_gradient(f)
    errs = []
    for i in range(0, geom.n_a, max(geom.n_a // 8, 1)):
        for component in (1.0, 1j):
            e = np.zeros(geom.n_a, dtype=complex)
            e[i] = component
            fp = f + h * e
            fp /= np.linalg.norm(fp)
            fm = f - h * e
            fm /= np.linalg.norm(fm)
            fd = (
                trace_objective(fp, geom, pos, config)
                - trace_objective(fm, geom, pos, config)
            ) / (2 * h)
            analytic = (
                2 * np.real(projected[i]) if component == 1.0 else 2 * np.imag(projected[i])
            )
            scale = max(abs(analytic), 1e-3 * float(np.max(np.abs(projected))))
            errs.append(abs(fd - analytic) / scale)
    return max(errs)


class TestTraceObjective:
    def test_equals_bound_trace(self, geom64, pos10, reduced_ofdm):
        rng = np.random.default_rng(20)
        f = random_unit_vector(rng, 64)
        via_fim = crlb_from_fim(fim(geom64, pos10, f, reduced_ofdm)).trace
        assert trace_objective(f, geom64, pos10, reduced_ofdm) == via_fim

    def test_global_phase_invariance(self, geom64, pos10, reduced_ofdm):
        rng = np.random.default_rng(21)
        f = random_unit_vector(rng, 64)
        base = trace_objective(f, geom64, pos10, reduced_ofdm)
        rotated = trace_objective(np.exp(0.7j) * f, geom64, pos10, reduced_ofdm)
        assert rotated == pytest.approx(base, rel=1e-10)

    def test_finite_positive_at_conjugate_focus(self, geom64, pos10, table1_ofdm):
        f = conjugate_focus_beamformer(geom64, pos10)
        value = trace_objective(f, geom64, pos10, table1_ofdm)
        assert 0.0 < value < np.inf
        closed = crlb_at(geom64, pos10, f, table1_ofdm).trace
        assert value == pytest.approx(closed, rel=1e-9)


class TestWirtingerGradient:
    def test_finite_difference_agreement(self, reduced_ofdm):
        rng = np.random.default_rng(22)
        for _ in range(12):
            radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            geom = UcaGeometry(64, radius, 0.005)
            pos = PolarPosition(rng.uniform(11.0, 300.0), rng.uniform(0, 2 * math.pi))
            f = random_unit_vector(rng, 64)
            assert fd_vs_projected_gradient(geom, pos, reduced_ofdm, f) < 1e-6

    def test_radial_component_identity(self, geom64, pos10, reduced_ofdm):
        # The objective scales as 1/c^2 along the radial ray, hence
        # Re{<f, grad>} = -Tr(C) exactly.
        rng = np.random.default_rng(23)
        f = random_unit_vector(rng, 64)
        grad = wirtinger_gradient(f, geom64, pos10, reduced_ofdm)
        value = trace_objective(f, geom64, pos10, reduced_ofdm)
        assert np.real(np.vdot(f, grad)) == pytest.approx(-value, rel=1e-12)

    def test_scales_inversely_with_power(self, geom64, pos10, reduced_ofdm):
        rng = np.random.default_rng(24)
        f = random_unit_vector(rng, 64)
        base = wirtinger_gradient(f, geom64, pos10, reduced_ofdm)
        boosted = wirtinger_gradient(
            f, geom64, pos10, dataclasses.replace(reduced_ofdm, p_t_w=0.5)
        )
        np.testing.assert_allclose(boosted, base / 5.0, rtol=1e-12)

    def test_near_zero_projection_at_optimum(self, geom64, pos10, reduced_ofdm):
        result = optimize_beamformer(geom64, pos10, reduced_ofdm)
        projected = WMatrixTrace(geom64, pos10, reduced_ofdm).tangent_gradient(
            result.beamformer
        )
        assert np.linalg.norm(projected) == pytest.approx(result.final_grad_norm, rel=1e-9)


class TestOptimizeBeamformer:
    def test_zero_iteration_budget_returns_init(self, monkeypatch, geom64, pos10, reduced_ofdm):
        init = conjugate_focus_beamformer(geom64, pos10)
        monkeypatch.setattr(beamformer_module, "NEWTON_MAX_STEPS", 0)
        result = optimize_beamformer(geom64, pos10, reduced_ofdm, init=init)
        np.testing.assert_array_equal(result.beamformer, init)
        assert result.iterations == 0
        assert result.trace_history[0] == trace_objective(init, geom64, pos10, reduced_ofdm)

    def test_monotone_history_and_unit_beam(self, geom64, pos10, reduced_ofdm):
        result = optimize_beamformer(geom64, pos10, reduced_ofdm)
        assert np.all(np.diff(result.trace_history) <= 0)
        assert len(result.trace_history) == result.iterations + 1
        assert abs(np.linalg.norm(result.beamformer) - 1.0) < 1e-10

    def test_never_worse_than_conjugate_focus(self, reduced_ofdm):
        rng = np.random.default_rng(30)
        for _ in range(5):
            radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            geom = UcaGeometry(64, radius, 0.005)
            pos = PolarPosition(rng.uniform(11.0, 200.0), rng.uniform(0, 2 * math.pi))
            baseline = trace_objective(
                conjugate_focus_beamformer(geom, pos), geom, pos, reduced_ofdm
            )
            result = optimize_beamformer(geom, pos, reduced_ofdm)
            assert result.trace_history[-1] <= baseline + 1e-12 * baseline

    def test_phase_rotated_init_same_final_trace(self, geom64, pos10, reduced_ofdm):
        init = conjugate_focus_beamformer(geom64, pos10)
        a = optimize_beamformer(geom64, pos10, reduced_ofdm, init=init)
        b = optimize_beamformer(geom64, pos10, reduced_ofdm, init=np.exp(1.3j) * init)
        assert b.trace_history[-1] == pytest.approx(a.trace_history[-1], rel=1e-8)

    def test_single_element_has_nothing_to_optimize(self, reduced_ofdm):
        geom = UcaGeometry(1, 0.5, 0.005)
        pos = PolarPosition(10.0, 0.3)
        result = optimize_beamformer(geom, pos, reduced_ofdm)
        assert result.iterations == 0
        np.testing.assert_array_equal(
            result.beamformer, conjugate_focus_beamformer(geom, pos)
        )

    def test_multistart_dispersion_logged(self, geom64, pos10, reduced_ofdm):
        # Empirical basin consistency: random starts should end within a
        # few percent of the best; recorded, not hard-asserted.
        rng = np.random.default_rng(31)
        finals = []
        for _ in range(4):
            init = random_unit_vector(rng, 64)
            result = optimize_beamformer(geom64, pos10, reduced_ofdm, init=init)
            finals.append(result.trace_history[-1])
        spread = (max(finals) - min(finals)) / min(finals)
        print(f"multistart final-trace dispersion: {spread:.3e}")
        assert all(np.isfinite(finals))


def ofdm_with(m_subcarriers):
    """The conftest numerology at a given subcarrier count."""
    return OfdmConfig(m_subcarriers, 14, 480e3, 0.07 / 480e3, 0.1, SIGMA2_W)


def existing_test_positions():
    """(R, d, theta) of every position this file evaluates the trace at."""
    positions = [(0.5, 10.0, 0.7)]  # geom64, pos10
    rng = np.random.default_rng(22)  # test_finite_difference_agreement
    for _ in range(12):
        radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        positions.append((radius, rng.uniform(11.0, 300.0), rng.uniform(0, 2 * math.pi)))
        random_unit_vector(rng, 64)
    rng = np.random.default_rng(30)  # test_never_worse_than_conjugate_focus
    for _ in range(5):
        radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        positions.append((radius, rng.uniform(11.0, 200.0), rng.uniform(0, 2 * math.pi)))
    return positions


# (R, d, M) of the benchmark workloads: small-array, large-aperture, wideband.
BENCHMARK_CELLS = [(0.5, 10.0, 128), (0.5, 50.0, 128), (0.5, 200.0, 128), (5.0, 20.0, 128),
                   (0.5, 10.0, 2048)]


@functools.lru_cache(maxsize=None)
def oracle_result(radius, d, theta, m_subcarriers=128):
    geom = UcaGeometry(64, radius, 0.005)
    return armijo_oracle(geom, PolarPosition(d, theta), ofdm_with(m_subcarriers))


def newton_result(radius, d, theta, m_subcarriers=128, init=None):
    geom = UcaGeometry(64, radius, 0.005)
    pos = PolarPosition(d, theta)
    return optimize_beamformer(geom, pos, ofdm_with(m_subcarriers), init=init)


class TestNewtonAgainstOracle:
    @pytest.mark.parametrize(
        "radius, d, theta, m",
        [(r, d, t, 128) for r, d, t in existing_test_positions()]
        + [(r, d, t, m) for r, d, m in BENCHMARK_CELLS for t in (0.0, 2.0)],
    )
    def test_never_above_the_oracle(self, radius, d, theta, m):
        oracle = oracle_result(radius, d, theta, m).trace_history[-1]
        assert newton_result(radius, d, theta, m).trace_history[-1] <= oracle * (1 + 1e-12)

    @pytest.mark.parametrize("radius, d", [(0.5, 10.0), (5.0, 20.0)])
    def test_well_below_the_capped_oracle(self, radius, d):
        oracle = oracle_result(radius, d, 0.7)
        assert not oracle.converged
        assert newton_result(radius, d, 0.7).trace_history[-1] <= 0.92 * oracle.trace_history[-1]

    @pytest.mark.parametrize("d", [50.0, 200.0])
    def test_agrees_where_the_oracle_converges(self, d):
        oracle = oracle_result(0.5, d, 0.7)
        assert oracle.converged
        assert newton_result(0.5, d, 0.7).trace_history[-1] == pytest.approx(
            oracle.trace_history[-1], rel=1e-10
        )

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("d", [10.0, 20.0, 100.0, 200.0])
    def test_random_starts_never_beat_the_default_start(self, radius, d):
        default = newton_result(radius, d, 0.7).trace_history[-1]
        rng = np.random.default_rng(int(10 * radius + d))
        for _ in range(9):
            start = newton_result(radius, d, 0.7, init=random_unit_vector(rng, 64))
            assert start.trace_history[-1] >= default * (1 - 1e-10)
            # Newton with |lambda| from the projected start: a few steps, not a crawl.
            assert start.converged and start.iterations <= 20

    def test_tolerance_below_rounding_stops_at_the_optimum(self, monkeypatch):
        # At R=2, d=100 the tangent gradient bottoms out near 1e-10 of its
        # starting value; steps that round to no decrease end the search.
        reference = newton_result(2.0, 100.0, 0.7).trace_history[-1]
        monkeypatch.setattr(beamformer_module, "GRAD_TOL", 1e-14)
        tight = newton_result(2.0, 100.0, 0.7)
        assert tight.iterations <= 10
        assert np.all(np.diff(tight.trace_history) < 0)
        assert tight.trace_history[-1] == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("radius, d, m", BENCHMARK_CELLS)
    @pytest.mark.parametrize("theta", [0.0, 1.0, 4.0])
    def test_benchmark_cells_converge_in_few_steps(self, radius, d, m, theta):
        result = newton_result(radius, d, theta, m)
        assert result.converged
        assert result.iterations <= 10


class TestSubspaceModel:
    @pytest.mark.parametrize("radius, d, theta", existing_test_positions())
    def test_forms_match_the_w_matrix_forms(self, radius, d, theta):
        geom = UcaGeometry(64, radius, 0.005)
        pos = PolarPosition(d, theta)
        model = _SubspaceModel(geom, pos, ofdm_with(128))
        oracle = WMatrixTrace(geom, pos, ofdm_with(128))
        np.testing.assert_array_equal(model.basis, oracle.basis)
        for form, expected in zip(model.forms, oracle.forms):
            assert np.max(np.abs(form - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("radius, d, theta", existing_test_positions()[:6])
    @pytest.mark.parametrize("start", ["default", "random"])
    def test_final_grad_norm_is_the_tangent_w_gradient_norm(
        self, monkeypatch, radius, d, theta, start
    ):
        # A random 64-dim start lies outside span Q; with no Newton steps it
        # is returned as given, and its norm must still be the full-space one.
        geom = UcaGeometry(64, radius, 0.005)
        pos = PolarPosition(d, theta)
        init = None
        if start == "random":
            init = random_unit_vector(np.random.default_rng(int(100 * d)), 64)
        monkeypatch.setattr(beamformer_module, "NEWTON_MAX_STEPS", 0)
        result = optimize_beamformer(geom, pos, ofdm_with(128), init=init)
        expected = np.linalg.norm(
            WMatrixTrace(geom, pos, ofdm_with(128)).tangent_gradient(result.beamformer)
        )
        assert result.final_grad_norm == pytest.approx(expected, rel=1e-10)


class TestConjugateFocus:
    def test_unit_norm(self, geom64, pos10):
        assert abs(np.linalg.norm(conjugate_focus_beamformer(geom64, pos10)) - 1) < 1e-12

    def test_unit_transmit_coupling(self, geom64, pos10):
        from nfisac.crlb import beam_coupling

        coupling = beam_coupling(geom64, pos10, conjugate_focus_beamformer(geom64, pos10))
        assert abs(coupling.beta) == pytest.approx(1.0, abs=1e-12)

    def test_snr_dominance_over_random_beams(self, geom64, pos10, table1_ofdm):
        # Conjugate focus is the |a^T f| maximizer; it also dominates the
        # UE SNR against random beams in practice.
        best = ue_received_snr(
            geom64, pos10, conjugate_focus_beamformer(geom64, pos10), table1_ofdm
        )
        rng = np.random.default_rng(32)
        for _ in range(1000):
            f = random_unit_vector(rng, 64)
            assert ue_received_snr(geom64, pos10, f, table1_ofdm) <= best * (1 + 1e-9)
