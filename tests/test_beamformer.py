"""Riemannian descent machinery: gradients, projection, retraction, descent.

The 64-dim project-descend-retract Armijo loop that the subspace Newton
solver replaced lives here as the oracle (``armijo_oracle``).
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from nfisac import (
    OfdmConfig,
    OptimizerConfig,
    PolarPosition,
    UcaGeometry,
    conjugate_focus_beamformer,
    crlb_at,
    crlb_from_fim,
    fim,
    optimize_beamformer,
    trace_objective,
    ue_received_snr,
)
from nfisac.beamformer import (
    OptimizerResult,
    StepTooLargeError,
    _TraceWorkspace,
    retract,
    tangent_project,
    wirtinger_gradient,
)

from conftest import SIGMA2_W, random_unit_vector


def oracle_objective(workspace, f):
    """Trace of the bound from the cached quadratics; +inf when unidentifiable."""
    _, _, quad_r, quad_t, quad_x = workspace.quadratics(f)
    det = quad_r * quad_t - quad_x**2
    if det <= 0.0:
        return np.inf
    return (quad_r + quad_t) / (workspace.scale * det)


def armijo_oracle(geom, pos, config):
    """Project-descend-retract loop with Armijo backtracking in all n_a dims."""
    opt = OptimizerConfig()
    f = conjugate_focus_beamformer(geom, pos)
    workspace = _TraceWorkspace(geom, pos, config)
    objective = oracle_objective(workspace, f)
    history = [objective]
    direction = tangent_project(workspace.gradient(f), f)
    grad_norm = float(np.linalg.norm(direction))
    tol = opt.grad_tol * grad_norm
    iterations = 0
    while iterations < opt.max_iters and grad_norm > tol:
        # Armijo model: directional derivative along -direction is -2 ||P||^2.
        expected_slope = 2.0 * grad_norm**2
        step = opt.initial_step
        accepted = False
        for _ in range(opt.max_backtracks):
            try:
                candidate = retract(f, step, direction)
            except StepTooLargeError:
                step *= opt.backtrack_factor
                continue
            candidate_obj = oracle_objective(workspace, candidate)
            if candidate_obj <= objective - opt.armijo_c * step * expected_slope:
                accepted = True
                break
            step *= opt.backtrack_factor
        if not accepted:
            break
        f = candidate
        objective = candidate_obj
        history.append(objective)
        iterations += 1
        direction = tangent_project(workspace.gradient(f), f)
        grad_norm = float(np.linalg.norm(direction))
    return OptimizerResult(f, np.asarray(history), grad_norm, iterations, grad_norm <= tol)


def fd_vs_projected_gradient(geom, pos, config, f, h=1e-7):
    """Max relative error between renormalized FD and 2*Re/Im of the
    tangent-projected gradient over a sample of coordinate directions."""
    grad = wirtinger_gradient(f, geom, pos, config)
    projected = tangent_project(grad, f)
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
        grad = wirtinger_gradient(result.beamformer, geom64, pos10, reduced_ofdm)
        projected = tangent_project(grad, result.beamformer)
        assert np.linalg.norm(projected) == pytest.approx(result.final_grad_norm, rel=1e-9)


class TestTangentProject:
    def test_radial_input_maps_to_zero(self):
        rng = np.random.default_rng(25)
        f = random_unit_vector(rng, 16)
        assert np.max(np.abs(tangent_project(3.7 * f, f))) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(26)
        f = random_unit_vector(rng, 16)
        g = rng.normal(size=16) + 1j * rng.normal(size=16)
        once = tangent_project(g, f)
        np.testing.assert_allclose(tangent_project(once, f), once, atol=1e-14)

    def test_orthogonality_postcondition(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            f = random_unit_vector(rng, 32)
            g = rng.normal(size=32) + 1j * rng.normal(size=32)
            assert abs(np.real(np.vdot(f, tangent_project(g, f)))) < 1e-12


class TestRetract:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(28)
        f = random_unit_vector(rng, 8)
        np.testing.assert_allclose(retract(f, 0.0, f * 0 + 1.0), f, atol=1e-15)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            f = random_unit_vector(rng, 8)
            direction = rng.normal(size=8) + 1j * rng.normal(size=8)
            out = retract(f, rng.uniform(0, 5), direction)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_orthonormal_right_triangle(self):
        f = np.zeros(4, dtype=complex)
        f[0] = 1.0
        direction = np.zeros(4, dtype=complex)
        direction[1] = 1.0
        out = retract(f, 1.0, direction)
        np.testing.assert_allclose(out, (f - direction) / math.sqrt(2), atol=1e-15)

    def test_degenerate_update_raises(self):
        f = np.zeros(2, dtype=complex)
        f[0] = 1.0
        with pytest.raises(StepTooLargeError):
            retract(f, 1.0, f)


class TestOptimizeBeamformer:
    def test_zero_iteration_budget_returns_init(self, geom64, pos10, reduced_ofdm):
        init = conjugate_focus_beamformer(geom64, pos10)
        result = optimize_beamformer(
            geom64, pos10, reduced_ofdm, OptimizerConfig(max_iters=0), init=init
        )
        np.testing.assert_array_equal(result.beamformer, init)
        assert result.iterations == 0
        assert result.trace_history[0] == trace_objective(init, geom64, pos10, reduced_ofdm)

    def test_monotone_history_and_unit_iterates(self, geom64, pos10, reduced_ofdm):
        norms = []
        result = optimize_beamformer(
            geom64,
            pos10,
            reduced_ofdm,
            OptimizerConfig(max_iters=300),
            on_iterate=lambda f: norms.append(abs(np.linalg.norm(f) - 1.0)),
        )
        assert np.all(np.diff(result.trace_history) <= 0)
        assert max(norms) < 1e-10
        assert len(result.trace_history) == result.iterations + 1

    def test_never_worse_than_conjugate_focus(self, reduced_ofdm):
        rng = np.random.default_rng(30)
        for _ in range(5):
            radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            geom = UcaGeometry(64, radius, 0.005)
            pos = PolarPosition(rng.uniform(11.0, 200.0), rng.uniform(0, 2 * math.pi))
            baseline = trace_objective(
                conjugate_focus_beamformer(geom, pos), geom, pos, reduced_ofdm
            )
            result = optimize_beamformer(
                geom, pos, reduced_ofdm, OptimizerConfig(max_iters=400)
            )
            assert result.trace_history[-1] <= baseline + 1e-12 * baseline

    def test_phase_rotated_init_same_final_trace(self, geom64, pos10, reduced_ofdm):
        opt = OptimizerConfig(max_iters=200)
        init = conjugate_focus_beamformer(geom64, pos10)
        a = optimize_beamformer(geom64, pos10, reduced_ofdm, opt, init=init)
        b = optimize_beamformer(geom64, pos10, reduced_ofdm, opt, init=np.exp(1.3j) * init)
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
            result = optimize_beamformer(
                geom64, pos10, reduced_ofdm, OptimizerConfig(max_iters=400), init=init
            )
            finals.append(result.trace_history[-1])
        spread = (max(finals) - min(finals)) / min(finals)
        print(f"multistart final-trace dispersion: {spread:.3e}")
        assert all(np.isfinite(finals))


def ofdm_with(m_subcarriers):
    """The conftest numerology at a given subcarrier count."""
    return OfdmConfig(m_subcarriers, 14, 480e3, 0.07 / 480e3, 0.1, SIGMA2_W, 60e9)


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

    def test_tolerance_below_rounding_stops_at_the_optimum(self):
        # At R=2, d=100 the tangent gradient bottoms out near 1e-10 of its
        # starting value; steps that round to no decrease end the search.
        geom = UcaGeometry(64, 2.0, 0.005)
        pos = PolarPosition(100.0, 0.7)
        tight = optimize_beamformer(geom, pos, ofdm_with(128), OptimizerConfig(grad_tol=1e-14))
        assert tight.iterations <= 10
        assert np.all(np.diff(tight.trace_history) < 0)
        assert tight.trace_history[-1] == pytest.approx(
            newton_result(2.0, 100.0, 0.7).trace_history[-1], rel=1e-12
        )

    @pytest.mark.parametrize("radius, d, m", BENCHMARK_CELLS)
    @pytest.mark.parametrize("theta", [0.0, 1.0, 4.0])
    def test_benchmark_cells_converge_in_few_steps(self, radius, d, m, theta):
        result = newton_result(radius, d, theta, m)
        assert result.converged
        assert result.iterations <= 10


class TestConjugateFocus:
    def test_unit_norm(self, geom64, pos10):
        assert abs(np.linalg.norm(conjugate_focus_beamformer(geom64, pos10)) - 1) < 1e-12

    def test_unit_transmit_coupling(self, geom64, pos10):
        from nfisac import beam_coupling

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
