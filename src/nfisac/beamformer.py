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
information quadratics become 3x3 Hermitian forms in c.

Newton step. On x = [Re c; Im c] in R^6 the scale-invariant objective
F(x) = |x|^2 (R + T) / (K (R T - X^2)) equals Tr(C) at f = Q c / |c|.
Its exact gradient and Hessian are cheap 6x6 algebra. F is invariant
along x (scale) and along the global-phase direction j x, so both are
projected out; on the unit sphere the Riemannian Hessian of a degree-0
function is just the projected Euclidean one, and the step is the
eigen-decomposed Newton step with |lambda| in place of lambda, a descent
direction even at a saddle. Armijo backtracking on the step and the
normalizing retraction keep every iterate on the unit sphere.

Stopping rule. Iteration stops when the full-space tangent gradient norm
falls to ``grad_tol`` times its value at the start (``converged``), when
``max_iters`` Newton steps have been taken, or when the line search
finds no certified decrease.

Gradient convention: ``wirtinger_gradient`` returns the conjugate-
coordinate derivative G = d Tr(C) / d f*, so that for a real objective
dT = 2 Re{G^H df}. Along the real parameterization f = u + j v this
means dT/du_i = 2 Re{G_i} and dT/dv_i = 2 Im{G_i}, which is exactly what
the finite-difference checks validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crlb import UnidentifiableParametersError, crlb_from_fim, fim, fim_scale
from .geometry import PolarPosition, UcaGeometry, sensitivities, steering_vector
from .signal import OfdmConfig, require_unit_norm

RETRACT_MIN_NORM = 1e-14

CURVATURE_FLOOR = 1e-12
"""Smallest |eigenvalue| of the Newton model, relative to the largest."""


class StepTooLargeError(ValueError):
    """The retraction update collapsed to (numerically) zero length."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Newton iteration and line-search settings.

    ``max_iters`` caps the Newton steps (0 returns the start as given).
    ``grad_tol`` is relative: iteration stops once the tangent gradient
    norm falls below grad_tol times its value at the start. Each step
    first tries ``initial_step`` times the Newton step, then shrinks it by
    ``backtrack_factor`` up to ``max_backtracks`` times until the trace
    falls by at least ``armijo_c`` times the decrease the Newton model
    predicts for that step.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-8
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    max_backtracks: int = 50

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor}"
            )
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError(f"armijo_c must lie in (0, 1), got {self.armijo_c}")
        if self.initial_step <= 0.0:
            raise ValueError(f"initial_step must be positive, got {self.initial_step}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be >= 1, got {self.max_backtracks}")


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


def _gamma_design_matrices(geom: UcaGeometry, pos: PolarPosition):
    """Matrices W_d, W_t with gamma_d = W_d f and gamma_theta = W_t f.

    Row k collects how element k's derivative factor depends on every
    beamformer entry, splitting the coupling slopes z_d, z_theta into
    their linear forms. Every row is a combination of the transposed
    columns of the returned coupling matrix B = [a, a o (1 - alpha_d),
    a o alpha_theta], so W f depends on f only through B^T f.
    """
    sens = sensitivities(geom, pos)
    a = steering_vector(geom, pos)
    wavenumber = 2.0 * np.pi / geom.wavelength_m
    r = sens.ranges_m
    one_minus_ad = 1.0 - sens.alpha_d
    at = sens.alpha_theta
    ones = np.ones(geom.n_a)
    w_d = -(sens.alpha_d / r)[:, None] * a[None, :] + 1j * wavenumber * (
        ones[:, None] * (a * one_minus_ad)[None, :] + one_minus_ad[:, None] * a[None, :]
    )
    w_t = -(at / r)[:, None] * a[None, :] - 1j * wavenumber * (
        ones[:, None] * (a * at)[None, :] + at[:, None] * a[None, :]
    )
    couplings = np.column_stack([a, a * one_minus_ad, a * at])
    return r, w_d, w_t, couplings


def _real_form(hermitian: np.ndarray) -> np.ndarray:
    """Real symmetric S with x^T S x = c^H H c for x = [Re c; Im c]."""
    re, im = hermitian.real, hermitian.imag
    return np.block([[re, -im], [im, re]])


class _TraceWorkspace:
    """Geometry-dependent pieces of the objective, computed once per position.

    gamma_d = W_d f and gamma_theta = W_t f are linear forms, so every
    gradient evaluation is a couple of matrix-vector products against
    cached matrices. ``basis`` is Q, the orthonormal basis of
    span(conj B), and ``forms`` stacks the real 6x6 forms of R = J_dd/K,
    T = J_tt/K and X = J_dt/K in x = [Re c; Im c] for f = Q c.
    """

    def __init__(self, geom: UcaGeometry, pos: PolarPosition, config: OfdmConfig):
        r, self.w_d, self.w_t, couplings = _gamma_design_matrices(geom, pos)
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

    def quadratics(self, f: np.ndarray):
        gamma_d = self.w_d @ f
        gamma_t = self.w_t @ f
        quad_r = float(np.sum(np.abs(gamma_d) ** 2 * self.inv_r2))
        quad_t = float(np.sum(np.abs(gamma_t) ** 2 * self.inv_r2))
        quad_x = float(np.real(np.sum(np.conj(gamma_d) * gamma_t * self.inv_r2)))
        return gamma_d, gamma_t, quad_r, quad_t, quad_x

    def gradient(self, f: np.ndarray) -> np.ndarray:
        gamma_d, gamma_t, quad_r, quad_t, quad_x = self.quadratics(f)
        det = quad_r * quad_t - quad_x**2
        if det <= 0.0:
            raise UnidentifiableParametersError(
                f"information determinant is non-positive ({det!r}) at this "
                "beamformer; the trace objective has no gradient here"
            )
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

    def newton_step(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Newton step on F(x) in the coupling subspace, mapped back to f.

        Returns (step, decrease): moving to f + t * step (then
        renormalizing) lowers the trace by about t * decrease for small t,
        with decrease > 0 the model's predicted first-order decrease.
        """
        k = self.basis.shape[1]
        c = np.conj(self.basis).T @ f
        x = np.concatenate([c.real, c.imag])
        norm2 = x @ x
        form_x = self.forms @ x
        quad_r, quad_t, quad_x = form_x @ x
        g_r, g_t, g_x = 2.0 * form_x
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


def wirtinger_gradient(
    f: np.ndarray, geom: UcaGeometry, pos: PolarPosition, config: OfdmConfig
) -> np.ndarray:
    """Analytic d Tr(C) / d f* via the quotient rule.

    With R = J_dd/K, T = J_tt/K, X = J_dt/K (all quadratic forms in f),
    Tr(C) = (R + T) / (K (R T - X^2)) and the gradient follows from
    grad R = conj(W_d)^T (gamma_d / r^2) and its T/X analogues.
    """
    f = require_unit_norm(f)
    return _TraceWorkspace(geom, pos, config).gradient(f)


def tangent_project(grad: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Remove the radial component: grad - Re{<f, grad>} f.

    The output satisfies Re{<out, f>} = 0, i.e. it is tangent to the unit
    sphere viewed as a real manifold.
    """
    return grad - np.real(np.vdot(f, grad)) * f


def retract(f: np.ndarray, step: float, descent_dir: np.ndarray) -> np.ndarray:
    """Step against descent_dir and renormalize onto the sphere."""
    update = f - step * descent_dir
    norm = np.linalg.norm(update)
    if norm < RETRACT_MIN_NORM:
        raise StepTooLargeError(
            f"retraction update has norm {norm!r}; shrink the step"
        )
    return update / norm


def optimize_beamformer(
    geom: UcaGeometry,
    pos: PolarPosition,
    config: OfdmConfig,
    opt: OptimizerConfig | None = None,
    init: np.ndarray | None = None,
    on_iterate=None,
) -> OptimizerResult:
    """Riemannian Newton descent of the CRLB trace in the coupling subspace.

    Starts from the conjugate-focus beamformer, which lies in the
    subspace, unless ``init`` is given; a given ``init`` is projected onto
    the subspace and renormalized first, which can only lower the trace
    (with ``max_iters=0`` it is returned unchanged). Each iteration takes
    one Newton step (see the module docstring) with Armijo backtracking;
    a candidate at which the pair is unidentifiable counts as a rejected
    step. Raises UnidentifiableParametersError if the start is
    unidentifiable.

    Objective values come from ``trace_objective``. ``trace_history``
    holds the start and every accepted step, so it is non-increasing and
    has ``iterations + 1`` entries; ``on_iterate(f)`` is called with the
    start and each accepted iterate. ``final_grad_norm`` is the norm of
    the full-space tangent gradient at the result, and ``converged`` means
    it fell to ``grad_tol`` times its value at the start.
    """
    if opt is None:
        opt = OptimizerConfig()
    if init is None:
        f = conjugate_focus_beamformer(geom, pos)
    else:
        f = require_unit_norm(init).copy()
    objective = trace_objective(f, geom, pos, config)

    workspace = _TraceWorkspace(geom, pos, config)
    if init is not None and opt.max_iters > 0:
        f = workspace.basis @ (np.conj(workspace.basis).T @ f)
        f /= np.linalg.norm(f)
        objective = trace_objective(f, geom, pos, config)
    history = [objective]
    if on_iterate is not None:
        on_iterate(f)

    grad_norm = float(np.linalg.norm(tangent_project(workspace.gradient(f), f)))
    tol = opt.grad_tol * grad_norm
    iterations = 0

    while iterations < opt.max_iters and grad_norm > tol:
        step_dir, decrease = workspace.newton_step(f)
        step = opt.initial_step
        for _ in range(opt.max_backtracks):
            try:
                candidate = retract(f, step, -step_dir)
                candidate_obj = trace_objective(candidate, geom, pos, config)
            except (StepTooLargeError, UnidentifiableParametersError):
                candidate_obj = np.inf
            # Below rounding the Armijo bound reads "no increase"; a step
            # must still lower the trace to count as a certified decrease.
            if candidate_obj <= objective - opt.armijo_c * step * decrease and (
                candidate_obj < objective
            ):
                break
            step *= opt.backtrack_factor
        else:
            # Line search exhausted: no further certified decrease available.
            break
        f = candidate
        objective = candidate_obj
        history.append(objective)
        if on_iterate is not None:
            on_iterate(f)
        iterations += 1
        grad_norm = float(np.linalg.norm(tangent_project(workspace.gradient(f), f)))

    return OptimizerResult(
        beamformer=f,
        trace_history=np.asarray(history),
        final_grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= tol,
    )
