"""Fisher information and Cramér-Rao bounds for joint range-angle estimation.

One path computes the bound: ``fim`` assembles the 2x2 information
matrix from the per-element derivative coefficients gamma_k, and
``crlb_from_fim`` inverts it (``crlb_at`` is the two in one call). The
beamformer's line search, the refinement's noise floor and every
printed bound use this path, and the beamformer's Newton forms use its
gamma core: ``gamma_coefficients`` at each basis column of the coupling
subspace, since gamma is linear in the beam.
The paper's fully expanded variance expressions, built from nine geometry
sums (A1..A3, B1..B3, C1..C3), are kept in the tests as the oracle this
path must match.

The subcarrier delay ramp is a fixed known factor when differentiating
the observation mean: the information about (d, theta) is carried by the
spherical-wavefront phase profile and the per-element gains, not by the
common delay. The shared scale

    K = 2 N M P_t lambda^2 / (16 pi^2 sigma^2 n_a)

multiplies every entry; its noise-free half is reused by the ML
estimator so the two modules cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometrySensitivities, PolarPosition, UcaGeometry, sensitivities, steering_vector
from .signal import OfdmConfig, require_unit_norm

DET_RTOL = 1e-12
"""Relative determinant threshold below which the FIM is unidentifiable."""

CURVATURE_FLOOR = 1e-12
"""Smallest |eigenvalue| of a Newton model, relative to the largest.

Both Newton iterations floor their curvatures with it: the beamformer's and
the estimator's refinement.
"""


class UnidentifiableParametersError(ValueError):
    """The information matrix is singular: (d, theta) cannot be separated."""


@dataclass(frozen=True)
class BeamCoupling:
    """Transmit-coupling scalars beta = a^T f, z_d = a^T D_d f, z_theta = a^T D_theta f.

    Products are transposed, not conjugated: the monostatic return couples
    through a^T f, so the coupling peaks at the conjugated steering vector.
    """

    beta: complex
    z_d: complex
    z_theta: complex


@dataclass(frozen=True)
class GammaCoefficients:
    """Per-element derivative factors of the spatial response.

    The derivative of mu[n,m,k] in d (theta) is C[n,m] g_k a_k gamma_d[k]
    (gamma_theta[k]), with the delay ramp C held fixed.
    """

    gamma_d: np.ndarray
    gamma_theta: np.ndarray


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric 2x2 information matrix for eta = [d, theta]."""

    j_dd: float
    j_dtheta: float
    j_thetatheta: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.j_dd, self.j_dtheta], [self.j_dtheta, self.j_thetatheta]]
        )

    @property
    def det(self) -> float:
        return self.j_dd * self.j_thetatheta - self.j_dtheta**2


@dataclass(frozen=True)
class CrlbBound:
    """Variance lower bounds Var(d) in m^2, Var(theta) in rad^2, and their sum."""

    var_d: float
    var_theta: float
    trace: float


def fim_scale(config: OfdmConfig, geom: UcaGeometry) -> float:
    """K = 2 N M P_t lambda^2 / (16 pi^2 sigma^2 n_a)."""
    if config.sigma2_w <= 0.0:
        raise ValueError("Fisher information requires sigma2_w > 0")
    return 2.0 * mean_product_scale(config, geom) / config.sigma2_w


def mean_product_scale(config: OfdmConfig, geom: UcaGeometry) -> float:
    """Noise-free half of the FIM scale: N M P_t lambda^2 / (16 pi^2 n_a).

    This is the constant in front of the deterministic matched-filter
    terms (mu^H mu = scale * |beta|^2 * sum 1/r_k^2); sharing it with the
    ML module keeps Fisher and score arithmetic consistent.
    """
    return (
        config.n_symbols
        * config.m_subcarriers
        * config.p_t_w
        * geom.wavelength_m**2
        / (16.0 * np.pi**2 * geom.n_a)
    )


def beam_coupling(geom: UcaGeometry, pos: PolarPosition, f: np.ndarray) -> BeamCoupling:
    """Coupling scalars for a given beamformer at a given position."""
    f = require_unit_norm(f)
    sens = sensitivities(geom, pos)
    a = steering_vector(geom, pos)
    return BeamCoupling(
        beta=complex(a @ f),
        z_d=complex((a * (1.0 - sens.alpha_d)) @ f),
        z_theta=complex((a * sens.alpha_theta) @ f),
    )


def gamma_coefficients(
    sens: GeometrySensitivities, coupling: BeamCoupling, wavelength_m: float
) -> GammaCoefficients:
    """Entrywise derivative factors gamma_d, gamma_theta.

    gamma_d[k] combines the gain slope (-alpha_d/r * beta), the element
    phase slope (j 2pi/lambda (1 - alpha_d) beta) and the coupling slope
    (j 2pi/lambda z_d); gamma_theta[k] is the angular analogue with the
    opposite phase sign because r_k grows while the phase shrinks.
    """
    wavenumber = 2.0 * np.pi / wavelength_m
    beta = coupling.beta
    gamma_d = -(sens.alpha_d / sens.ranges_m) * beta + 1j * wavenumber * (
        coupling.z_d + beta * (1.0 - sens.alpha_d)
    )
    gamma_theta = -(sens.alpha_theta / sens.ranges_m) * beta - 1j * wavenumber * (
        coupling.z_theta + beta * sens.alpha_theta
    )
    return GammaCoefficients(gamma_d, gamma_theta)


def fim(
    geom: UcaGeometry, pos: PolarPosition, f: np.ndarray, config: OfdmConfig
) -> FisherMatrix:
    """Closed-form 2x2 FIM: K * Re{ sum_k conj(gamma_i) gamma_j / r_k^2 }."""
    f = require_unit_norm(f)
    sens = sensitivities(geom, pos)
    coupling = beam_coupling(geom, pos, f)
    gammas = gamma_coefficients(sens, coupling, geom.wavelength_m)
    scale = fim_scale(config, geom)
    inv_r2 = 1.0 / sens.ranges_m**2
    j_dd = scale * float(np.sum(np.abs(gammas.gamma_d) ** 2 * inv_r2))
    j_tt = scale * float(np.sum(np.abs(gammas.gamma_theta) ** 2 * inv_r2))
    j_dt = scale * float(
        np.real(np.sum(np.conj(gammas.gamma_d) * gammas.gamma_theta * inv_r2))
    )
    return FisherMatrix(j_dd, j_dt, j_tt)


def crlb_from_fim(fisher: FisherMatrix) -> CrlbBound:
    """Invert the 2x2 FIM: Var(d) = J_tt/det, Var(theta) = J_dd/det."""
    det = fisher.det
    if det <= DET_RTOL * abs(fisher.j_dd * fisher.j_thetatheta):
        raise UnidentifiableParametersError(
            f"Fisher matrix is singular or near-singular (det={det!r}); "
            "range and angle are not jointly identifiable here"
        )
    var_d = fisher.j_thetatheta / det
    var_theta = fisher.j_dd / det
    return CrlbBound(var_d=var_d, var_theta=var_theta, trace=var_d + var_theta)


def crlb_at(
    geom: UcaGeometry, pos: PolarPosition, f: np.ndarray, config: OfdmConfig
) -> CrlbBound:
    """Bound straight from (geometry, position, beam): ``crlb_from_fim`` of ``fim``."""
    return crlb_from_fim(fim(geom, pos, f, config))
