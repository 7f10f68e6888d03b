"""CRLB-trace minimization over unit-norm transmit beamformers.

The objective Tr(C) = (J_dd + J_tt) / (J_dd J_tt - J_dt^2) is a smooth
non-convex function of the beamformer f through the coupling scalars
beta = a^T f, z_d = (a o (1 - alpha_d))^T f and z_theta = (a o alpha_theta)^T f.

Subspace. The FIM sees f only through B^T f with B = [a, a o (1 - alpha_d),
a o alpha_theta]. Write f = Q c + f_perp with Q an orthonormal basis of
span(conj B): f_perp carries no information and only spends power, and
Tr(C) is homogeneous of degree -2 in f, so dropping f_perp and
renormalizing lowers the trace by the factor ||Q c||^2. The optimum
therefore lies in the (at most) 3-dim span of Q, and the three
information quadratics become 3x3 Hermitian forms in c. The forms come
from the gamma core of ``crlb``: gamma_d and gamma_theta are linear in
f, so ``crlb.gamma_coefficients`` at each basis column of Q gives the
maps from c to gamma, and the forms are their 1/r^2-weighted Gram
matrices, the sums ``crlb.fim`` takes.

Newton step. On x = [Re c; Im c] in R^6 the scale-invariant objective
F(x) = |x|^2 (R + T) / (K (R T - X^2)) equals Tr(C) at f = Q c / |c|.
Its exact gradient and Hessian are cheap 6x6 algebra. F is invariant
along x (scale) and along the global-phase direction j x, so both are
projected out; on the unit sphere the Riemannian Hessian of a degree-0
function is just the projected Euclidean one, and the step is the
eigen-decomposed Newton step with |lambda| in place of lambda, a descent
direction even at a saddle. The step is orthogonal to f and to j f, so
f + t step has norm at least 1, and renormalizing it is the retraction;
Armijo backtracking on t keeps every accepted iterate a certified
decrease. Candidates are scored by ``trace_objective``.

Stopping rule. Iteration stops when the tangent gradient norm falls to
``GRAD_TOL`` times its value at the start (``converged``), when
``NEWTON_MAX_STEPS`` Newton steps have been taken, or when the line search
finds no certified decrease. The norm is that of the full-space tangent
gradient, read off the subspace model: Tr(C) depends on f only through
B^T f, so its conjugate-coordinate gradient d Tr(C) / d f* lies in
span(conj B) = span Q, and at a unit f in span Q the tangent part of
that gradient has norm (1/2) |grad_x F| (Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 3 and 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crlb import (
    CURVATURE_FLOOR,
    BeamCoupling,
    UnidentifiableParametersError,
    crlb_from_fim,
    fim,
    fim_scale,
    gamma_coefficients,
)
from .geometry import PolarPosition, UcaGeometry, sensitivities, steering_vector
from .signal import OfdmConfig, require_unit_norm

# Newton iteration and line search. At most NEWTON_MAX_STEPS steps (0
# returns the start as given); iteration stops once the tangent gradient
# norm falls below GRAD_TOL times its value at the start. Each step first
# tries the full Newton step, then shrinks it by BACKTRACK_FACTOR up to
# MAX_BACKTRACKS times until the trace falls by at least ARMIJO_C times the
# decrease the Newton model predicts for that step.
NEWTON_MAX_STEPS = 2000
GRAD_TOL = 1e-8
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class OptimizerResult:
    """Final beamformer plus the accepted-step objective history."""

    beamformer: np.ndarray
    trace_history: np.ndarray
    final_grad_norm: float
    iterations: int
    converged: bool


def conjugate_focus_beamformer(geom: UcaGeometry, pos: PolarPosition) -> np.ndarray:
    """Conjugated steering vector: maximizes |a^T f| over the unit sphere."""
    return np.conj(steering_vector(geom, pos))


def trace_objective(
    f: np.ndarray, geom: UcaGeometry, pos: PolarPosition, config: OfdmConfig
) -> float:
    """CRLB trace (J_dd + J_tt) / det J at beamformer f."""
    return crlb_from_fim(fim(geom, pos, f, config)).trace


def _real_form(hermitian: np.ndarray) -> np.ndarray:
    """Real symmetric S with x^T S x = c^H H c for x = [Re c; Im c]."""
    re, im = hermitian.real, hermitian.imag
    return np.block([[re, -im], [im, re]])


class _SubspaceModel:
    """The trace objective on the coupling subspace, built once per position.

    ``basis`` is Q, the orthonormal basis of span(conj B), and ``forms``
    stacks the real 6x6 forms of R = J_dd/K, T = J_tt/K and X = J_dt/K in
    x = [Re c; Im c] for f = Q c. gamma is linear in f, so the gamma core
    at basis column q gives column q of the n_a x k maps from c to gamma_d
    and gamma_theta.
    """

    def __init__(self, geom: UcaGeometry, pos: PolarPosition, config: OfdmConfig):
        sens = sensitivities(geom, pos)
        a = steering_vector(geom, pos)
        couplings = np.column_stack([a, a * (1.0 - sens.alpha_d), a * sens.alpha_theta])
        self.basis = np.linalg.qr(np.conj(couplings))[0]
        self.scale = fim_scale(config, geom)
        gammas = [
            gamma_coefficients(sens, BeamCoupling(*(couplings.T @ q)), geom.wavelength_m)
            for q in self.basis.T
        ]
        m_d = np.column_stack([g.gamma_d for g in gammas])
        m_t = np.column_stack([g.gamma_theta for g in gammas])
        inv_r2 = 1.0 / sens.ranges_m**2
        weighted_t = inv_r2[:, None] * m_t
        cross = np.conj(m_d).T @ weighted_t
        self.forms = np.stack([
            _real_form(np.conj(m_d).T @ (inv_r2[:, None] * m_d)),
            _real_form(np.conj(m_t).T @ weighted_t),
            _real_form(0.5 * (cross + np.conj(cross).T)),
        ])

    def _forms_at(self, f: np.ndarray):
        """c = Q^H f, x = [Re c; Im c], (R, T, X) at x and their x-gradients."""
        c = np.conj(self.basis).T @ f
        x = np.concatenate([c.real, c.imag])
        form_x = self.forms @ x
        return c, x, form_x @ x, 2.0 * form_x

    def tangent_grad_norm(self, f: np.ndarray) -> float:
        """Tangent norm |G - Re<f, G> f| of G = d Tr(C) / d f* at a unit f.

        G = Q g lies in span Q, and g = Q^H G is half the x-gradient of the
        trace at c = Q^H f. With rho = Re<c, g> = Re<f, G>, the tangent part
        G - rho f = Q (g - rho c) - rho (f - Q c) has squared norm
        |g - rho c|^2 + rho^2 |f - Q c|^2; in span Q that is (1/2)|grad_x F|.
        """
        c, x, (quad_r, quad_t, quad_x), (g_r, g_t, g_x) = self._forms_at(f)
        numer = quad_r + quad_t
        det = quad_r * quad_t - quad_x**2
        half_grad = (
            det * (g_r + g_t) - numer * (quad_t * g_r + quad_r * g_t - 2.0 * quad_x * g_x)
        ) / (2.0 * self.scale * det**2)
        rho = x @ half_grad
        outside = f - self.basis @ c
        return float(np.sqrt(
            np.sum((half_grad - rho * x) ** 2) + rho**2 * np.real(np.vdot(outside, outside))
        ))

    def newton_step(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Newton step on F(x) in the coupling subspace, mapped back to f.

        Returns (step, decrease): moving to f + t * step (then
        renormalizing) lowers the trace by about t * decrease for small t,
        with decrease > 0 the model's predicted first-order decrease.
        """
        k = self.basis.shape[1]
        _, x, (quad_r, quad_t, quad_x), (g_r, g_t, g_x) = self._forms_at(f)
        norm2 = x @ x
        s_r, s_t, s_x = self.forms
        numer = quad_r + quad_t
        det = quad_r * quad_t - quad_x**2
        g_numer = g_r + g_t
        g_det = quad_t * g_r + quad_r * g_t - 2.0 * quad_x * g_x
        h_det = (
            2.0 * (quad_t * s_r + quad_r * s_t - 2.0 * quad_x * s_x)
            + np.outer(g_r, g_t) + np.outer(g_t, g_r) - 2.0 * np.outer(g_x, g_x)
        )
        # Derivatives of log F, then grad F = F g and hess F = F (H + g g^T).
        grad_log = 2.0 * x / norm2 + g_numer / numer - g_det / det
        hess_log = (
            2.0 * np.eye(2 * k) / norm2 - 4.0 * np.outer(x, x) / norm2**2
            + 2.0 * (s_r + s_t) / numer - np.outer(g_numer, g_numer) / numer**2
            - h_det / det + np.outer(g_det, g_det) / det**2
        )
        value = norm2 * numer / (self.scale * det)
        grad = value * grad_log
        hess = value * (hess_log + np.outer(grad_log, grad_log))

        # Orthonormal complement of the invariant directions x and j x.
        phase_dir = np.concatenate([-x[k:], x[:k]])
        frame = np.linalg.qr(np.column_stack([x, phase_dir, np.eye(2 * k)]))[0][:, 2:]
        eigvals, eigvecs = np.linalg.eigh(frame.T @ hess @ frame)
        curvature = np.abs(eigvals)
        curvature = np.maximum(curvature, CURVATURE_FLOOR * curvature.max(initial=0.0))
        coeffs = eigvecs.T @ (frame.T @ grad)
        dx = -frame @ (eigvecs @ (coeffs / curvature))
        step = self.basis @ (dx[:k] + 1j * dx[k:])
        return step, float(np.sum(coeffs**2 / curvature))


def optimize_beamformer(
    geom: UcaGeometry,
    pos: PolarPosition,
    config: OfdmConfig,
    init: np.ndarray | None = None,
) -> OptimizerResult:
    """Riemannian Newton descent of the CRLB trace in the coupling subspace.

    Starts from the conjugate-focus beamformer, which lies in the
    subspace, unless ``init`` is given; a given ``init`` is projected onto
    the subspace and renormalized first, which can only lower the trace
    (with ``NEWTON_MAX_STEPS = 0`` it is returned unchanged). Each iteration takes
    one Newton step (see the module docstring) with Armijo backtracking;
    a candidate at which the pair is unidentifiable counts as a rejected
    step. Raises UnidentifiableParametersError if the start is
    unidentifiable.

    Objective values come from ``trace_objective``. ``trace_history``
    holds the start and every accepted step, so it is non-increasing and
    has ``iterations + 1`` entries. ``final_grad_norm`` is the norm of
    the full-space tangent gradient at the result, and ``converged`` means
    it fell to ``GRAD_TOL`` times its value at the start. The settings are
    read when called, so a patched module constant takes effect.
    """
    if init is None:
        f = conjugate_focus_beamformer(geom, pos)
    else:
        f = require_unit_norm(init).copy()
    objective = trace_objective(f, geom, pos, config)

    model = _SubspaceModel(geom, pos, config)
    if init is not None and NEWTON_MAX_STEPS > 0:
        f = model.basis @ (np.conj(model.basis).T @ f)
        f /= np.linalg.norm(f)
        objective = trace_objective(f, geom, pos, config)
    history = [objective]

    grad_norm = model.tangent_grad_norm(f)
    tol = GRAD_TOL * grad_norm
    iterations = 0

    while iterations < NEWTON_MAX_STEPS and grad_norm > tol:
        step_dir, decrease = model.newton_step(f)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            # The step is orthogonal to f and j f, so |f + step * step_dir| >= 1.
            candidate = f + step * step_dir
            candidate /= np.linalg.norm(candidate)
            try:
                candidate_obj = trace_objective(candidate, geom, pos, config)
            except UnidentifiableParametersError:
                candidate_obj = np.inf
            # Below rounding the Armijo bound reads "no increase"; a step
            # must still lower the trace to count as a certified decrease.
            if candidate_obj <= objective - ARMIJO_C * step * decrease and (
                candidate_obj < objective
            ):
                break
            step *= BACKTRACK_FACTOR
        else:
            # Line search exhausted: no further certified decrease available.
            break
        f = candidate
        objective = candidate_obj
        history.append(objective)
        iterations += 1
        grad_norm = model.tangent_grad_norm(f)

    return OptimizerResult(
        beamformer=f,
        trace_history=np.asarray(history),
        final_grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= tol,
    )
