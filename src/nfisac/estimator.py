"""Joint range-angle maximum-likelihood estimation from one observation.

Pipeline: the input is the matched-filter bank Z (n_a x M) of one
observation, a sufficient statistic for (d, theta) (see ``signal``): the
Monte Carlo harness draws it from its law (``signal.synthesize_bank``), and
``matched_filter_bank`` collapses the symbol axis of a full observation
into it. A two-stage grid search (delay compensation per range row,
then an O(n_a) correlation per angle cell) ranks candidate basins of the
negative-log-likelihood surface, evaluating only the range rows whose
range-profile lower bound could still hold a top basin and, scaled by
INCUMBENT_KAPPA over the row's range interval, could still beat the
incumbent (a branch-and-bound, see ``coarse_grid_search``). The
incumbent is min(G, W): G the best cell found so far, W the lowest cost
the refinement has reached from the basins of the search's first tile,
the seed window, whose runs ``estimate`` begins inside the search
(``_SeedRuns``). The basins the search returns that cost at most
min(G*, W) / INCUMBENT_KAPPA, G* the surface minimum, are exactly the
full surface's, the best one first if it costs at most W. The bound
pass reads the range profile of the uniform run of range rows the grid
records (``GridSpec.for_array``) off one zero-padded inverse FFT of the
bank, the OFDM-radar range profile (Sturm & Wiesbeck, Proc. IEEE 99(7),
2011), and collapses only the other rows
directly (``_row_norms``). From each of the best basins' grid nodes,
damped Newton iterations on the cost itself (``lm_refine``), with its
exact gradient and Hessian, delay ramp included, find the basin's minimum;
the lowest final cost wins, the cost each run's last accepted iterate
was evaluated at. The basins are refined in lock-step (``_lock_step``):
each step evaluates the pending candidates of every run still going in
one batch, and the winner is picked inside ``lm_refine``. The seed
window's runs take their first steps during the search, pause, and are
resumed by ``lm_refine`` if their starts are still among the basins, so
no candidate is evaluated twice. A candidate's values do not depend on
its batch, so this gives what refining each basin alone would, bit for
bit. Off the grid, every cost, xi and cost
derivative comes from one candidate evaluator, ``_evaluate``, which takes
a batch of (range, angle) candidates as (n, n_a) arrays and collapses the
bank over the subcarriers once per distinct range in the batch. ``cost``
and ``xi`` are its one-candidate views; the windowed scans of
``polish_basin`` are no longer on the estimation path. The bank is the
only data argument of the grid search, the refinement, ``_evaluate``,
``cost`` and ``xi``: it carries the ``config`` and ``beamformer`` that
interpret it.

Cost factorization, for candidate (d, theta) with xi_k the delay- and
pilot-compensated correlation at element k:

    L(d, theta) = s |beta|^2 sum_k 1/r_k^2  -  2 Re{ beta sum_k conj(xi_k) },

with s = N M P_t lambda^2 / (16 pi^2 n_a) shared with the Fisher module.
The angle grid size must be a multiple of the element count: then every
element's angular response is a circular shift of one per-row template,
and on the polyphase lattice (angle index j = p + q*l, q = n_theta / n_a)
each angle sum is a batch of length-n_a circular correlations, evaluated
as circulant matmuls. The search skips single range rows and evaluates
the rest in tiles, runs of at most GRID_BLOCK_ROWS consecutive rows, one
``_cost_rows`` call each, which works through its tile in cache-sized
blocks of b = max(1, KERNEL_BLOCK_CELLS // n_theta) rows. It keeps a
running top list of basins, so its memory is O(GRID_BLOCK_ROWS * n_theta)
for the tiles' costs, plus one block's intermediates, O(b (n_theta + n_a^2)),
in one workspace per search (``_Workspace``), two bounds per range row and
a K-bin range profile, however many range rows the grid has.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crlb import CURVATURE_FLOOR, fim, mean_product_scale
from .geometry import (
    SPEED_OF_LIGHT,
    PolarPosition,
    UcaGeometry,
    element_angles,
    element_gains,
    element_ranges,
)
from .signal import (
    MatchedFilterBank,
    Observation,
    OfdmConfig,
    delay_phases,
)

TWO_PI = 2.0 * np.pi
# Most range rows evaluated in one ``_cost_rows`` call (one tile); the search
# skips single rows, so this caps a tile's output, the costs it holds. A tile
# is not a kernel block (KERNEL_BLOCK_CELLS): shrinking tiles to save memory
# backfires, since a tile of at most 2 rows has no interior rows, so the seed
# window sets no skip thresholds and no refined incumbent (408 rows evaluated
# per large-aperture trial instead of 49, over chunks 0-7 of benchmark seed 11).
GRID_BLOCK_ROWS = 32
# Most lattice cells one block of ``_cost_rows`` evaluates at once: rows per
# block max(1, this // n_theta), capped at GRID_BLOCK_ROWS. A block's
# intermediates, about 75 bytes a cell plus n_a x 2 n_a complex circulant
# entries a row, take 2.5 MB at 32,832 angles and 3.4 MB at 3,328, reused
# block after block, where whole-tile arrays of up to 17 MB each streamed
# from memory. In a sweep of 2^14 to 2^17 no budget was clearly faster per
# trial; on small-array (9 rows a block here) 2^14 read slowest, and 2^16 and
# 2^17 raised its peak RSS by 4 and 9 MiB. ``_row_norms`` takes its range
# spectrum in blocks of about as many bins.
KERNEL_BLOCK_CELLS = 2**15
# Most basins the coarse search returns, the refinement's starts. The last of
# its running list of basins is one of the search's two skip thresholds.
N_BASINS = 15
# Rows on each side of the lowest-bound row in the search's first tile, which
# holds 2 h + 1 rows clipped to the grid. Its interior minima set the first
# skip thresholds, the last of them T and the lowest the incumbent G, and
# their refinement runs set W: per large-aperture trial h = 1, 4 and 16
# evaluate 56, 49 and 49 rows, per wideband trial 8, 13 and 37 (means over
# chunks 0-7 of benchmark seed 11).
SEED_HALF_ROWS = 4
# Relative slack on the range-profile cost bound, far above the rounding of
# the computed costs (about n_a * eps relative).
BOUND_SLACK = 1e-9
# Most the range profile ||c(d)||^2 may rise between two grid rows above the
# larger of its two row samples; the incumbent rule of ``coarse_grid_search``
# skips a row whose interval bound, times this, exceeds the best cell found.
# Basis (sampled, not proven): a single target's profile is a Dirichlet
# kernel, and sampled at 3 rows per delay lobe (the delay-limited rows of
# ``GridSpec.for_array``; the curvature-limited rows are denser) it
# rises between rows by at most 1 / sinc^2(1/6) = 1.10 in the main lobe and
# at most sec^2(pi/6) = 4/3 on the sidelobes. No constant holds for every
# bank: a trigonometric polynomial can vanish at both ends of a gap and not
# between them.
INCUMBENT_KAPPA = 2.0
# Grid nodes per correlation main lobe (``GridSpec.for_array``): in angle, and
# in range an integer, so the delay-limited rows form a K-point FFT's bins.
THETA_NODES_PER_LOBE = 4.0
RANGE_NODES_PER_LOBE = 3
# The damped Newton refinement (``lm_refine``):
# - trial steps (cost evaluations after the start) per basin;
LM_MAX_STEPS = 100
# - Marquardt damping, relative to the largest curvature: 0 until a step is
#   rejected, then LM_LAMBDA_INIT, times LM_LAMBDA_FACTOR on each further
#   rejection and divided by it on each accepted step;
LM_LAMBDA_INIT = 1e-3
LM_LAMBDA_FACTOR = 10.0
# - gradient tolerance at convergence, relative to the natural magnitude of a
#   score term; a larger FIM noise floor replaces it on noisy observations;
LM_TOL_SCORE = 1e-10
# - convergence needs a step below both of these;
LM_STEP_TOL_D_M = 1e-7
LM_STEP_TOL_THETA_RAD = 1e-9
# - the upper range bound, this times the grid's d_max_m: iterates stay
#   inside (R(1 + 1e-6), LM_D_MAX_FACTOR d_max_m).
LM_D_MAX_FACTOR = 1.5


def grid_d_min_m(radius_m: float) -> float:
    """Nearest range of a radius' coarse grid: max(2R, 1 m)."""
    return max(2.0 * radius_m, 1.0)


def _lobe_widths(geom: UcaGeometry, config: OfdmConfig) -> tuple[float, float]:
    """Correlation main lobes: c / (2 M df) in range and 2.405 lambda / (2 pi R) in angle.

    The range lobe is the delay matched filter's; the angle one is the
    half-width of the circular aperture's coherence main lobe.
    """
    range_lobe = SPEED_OF_LIGHT / (2.0 * config.m_subcarriers * config.delta_f_hz)
    angle_lobe = 2.405 * geom.wavelength_m / (TWO_PI * geom.radius_m)
    return range_lobe, angle_lobe


@dataclass(frozen=True)
class GridSpec:
    """Coarse search grid: range nodes and uniform angles.

    ``for_array`` builds the grid of an array and numerology, with
    curvature-adaptive range nodes, and records the uniform run of range
    rows it lays down in ``uniform_run``: (first, stop, K), rows first to
    stop - 1 spaced c / (2 df K), whose range profile the bound pass reads
    off one K-point FFT (``_row_norms``). A hand-built spec has range nodes
    uniform over [d_min_m, d_max_m], or an explicit ``d_nodes`` array, and
    no run: all its rows are collapsed directly. ``n_theta`` must be a
    multiple of the element count of the array searched:
    ``coarse_grid_search`` evaluates the angles as n_theta / n_a polyphase
    components of n_a angles each, in tiles of at most GRID_BLOCK_ROWS
    range rows, and raises ValueError otherwise.
    """

    d_min_m: float
    d_max_m: float
    n_d: int = 256
    n_theta: int = 4096
    d_nodes: tuple[float, ...] | None = None
    uniform_run: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        # Written so that NaN, for which every comparison is False, fails too.
        if not 0.0 < self.d_min_m < self.d_max_m < np.inf:
            raise ValueError(
                f"need 0 < d_min_m < d_max_m < inf, got ({self.d_min_m}, {self.d_max_m})"
            )
        if self.d_nodes is not None:
            # A tuple keeps specs comparable: == on an array is elementwise.
            object.__setattr__(self, "d_nodes", tuple(self.d_nodes))
            object.__setattr__(self, "n_d", len(self.d_nodes))
        if self.n_d < 1 or self.n_theta < 1:
            raise ValueError("grid sizes must be positive")
        if self.uniform_run is not None:
            first, stop, size = self.uniform_run
            if self.d_nodes is None or not 0 <= first < stop <= self.n_d or size < 1:
                raise ValueError(
                    f"uniform_run={self.uniform_run} must be (first, stop, K >= 1) "
                    f"with rows first..stop - 1 among the {self.n_d} explicit nodes"
                )

    @classmethod
    def for_array(cls, geom: UcaGeometry, ofdm: OfdmConfig, d_max_m: float) -> GridSpec:
        """The coarse grid of an array and numerology, from ``grid_d_min_m`` out to ``d_max_m``.

        Angles: THETA_NODES_PER_LOBE nodes across the full angular main
        lobe (``_lobe_widths``), rounded up to a multiple of the element
        count. Several nodes per lobe keep every node's angular offset well
        inside the basin the refinement recovers from.

        Ranges: two mechanisms decorrelate a range mismatch, the subcarrier
        delay ramp, with the d-independent lobe c / (2 M df), and the
        spherical wavefront curvature across the aperture, whose lobe grows
        like 2 lambda d^2 / R^2. Each step is the narrower lobe at the
        current node over RANGE_NODES_PER_LOBE; the last node is clamped to
        ``d_max_m``. Once the delay lobe governs, it governs every later
        step, c / (2 df K) with K = RANGE_NODES_PER_LOBE M, so the rows from
        there to the last unclamped node are the recorded run. It drifts
        from d_0 + j c / (2 df K) only by the rounding of the summed steps
        (6e-11 m over 7800 rows at M = 2048), which ``_row_norms`` measures
        and covers. A grid the delay lobe never governs records no run.
        """
        if not np.isfinite(d_max_m):
            # The node loop below would never reach it.
            raise ValueError(f"d_max_m must be finite, got {d_max_m}")
        delay_lobe, angle_lobe = _lobe_widths(geom, ofdm)
        per_turn = int(np.ceil(TWO_PI / (2.0 * angle_lobe / THETA_NODES_PER_LOBE)))
        d_min_m = grid_d_min_m(geom.radius_m)
        nodes = [d_min_m]
        d = d_min_m
        first = None
        while d < d_max_m:
            curvature_lobe = 2.0 * geom.wavelength_m * d**2 / geom.radius_m**2
            if first is None and delay_lobe <= curvature_lobe:
                first = len(nodes) - 1
            d += min(delay_lobe, curvature_lobe) / RANGE_NODES_PER_LOBE
            nodes.append(min(d, d_max_m))
        run = None
        if first is not None:
            stop = len(nodes) - 1 if d > d_max_m else len(nodes)
            run = (first, stop, RANGE_NODES_PER_LOBE * ofdm.m_subcarriers)
        return cls(
            d_min_m,
            d_max_m,
            n_theta=-(-per_turn // geom.n_a) * geom.n_a,
            d_nodes=nodes,
            uniform_run=run,
        )

    def d_values(self) -> np.ndarray:
        if self.d_nodes is not None:
            return np.asarray(self.d_nodes, dtype=float)
        return np.linspace(self.d_min_m, self.d_max_m, self.n_d)

    def theta_values(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_theta) / self.n_theta


@dataclass(frozen=True)
class GridBasin:
    """One grid-local minimum of the cost surface."""

    position: PolarPosition
    cost: float
    d_index: int
    theta_index: int


@dataclass(frozen=True)
class MlEstimate:
    """Winning refined estimate with its final cost and solver status."""

    d_hat_m: float
    theta_hat_rad: float
    cost: float
    converged: bool
    iterations: int
    basin_index: int


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    wrapped = float(np.mod(theta, TWO_PI))
    # A tiny negative angle wraps to 2 pi - |theta|, which rounds to 2 pi;
    # the angle it stands for is 0.
    return 0.0 if wrapped == TWO_PI else wrapped


def matched_filter_bank(obs: Observation) -> MatchedFilterBank:
    """Collapse the symbol axis: Z[k, m] = sum_n conj(x[n, m]) r[n, m, k].

    One pass over all N*M*n_a samples; the bank keeps the observation's
    config and beamformer.
    """
    aggregates = np.einsum("nm,nmk->km", np.conj(obs.pilots.symbols), obs.samples)
    return MatchedFilterBank(aggregates, obs.config, obs.beamformer)


@dataclass(frozen=True)
class _Evaluation:
    """One candidate batch: xi per (candidate, element), costs, on request cost derivatives."""

    xi: np.ndarray  # (n, n_a)
    cost: np.ndarray  # (n,)
    gradient: np.ndarray | None = None  # (n, 2): dL/dd, dL/dtheta
    hessian: np.ndarray | None = None  # (n, 2, 2)


def _row_dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows[i] @ v for every row, each as its own dot product.

    A stacked matmul gives every candidate bit for bit the value a batch of
    one gives; a single matrix-vector product would round differently.
    """
    return (rows[:, None, :] @ v)[:, 0]


def _evaluate(
    d_m: np.ndarray,
    theta_rad: np.ndarray,
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    with_derivatives: bool = False,
) -> _Evaluation:
    """Matched-filter outputs, costs and cost derivatives of n candidates.

    Candidate i sits at (d_m[i], theta_rad[i]); ranges, steering vectors,
    couplings and derivative factors are (n, n_a) arrays. The bank's
    ``config`` and ``beamformer`` interpret it. The delay
    compensation of the bank is one length-M collapse per *distinct*
    range, so an angle scan shares one. Every product is taken per
    candidate (see ``_row_dots``), so a candidate's values do not depend
    on the batch it comes in. Every call gives xi and the costs; with
    ``with_derivatives`` also the exact gradient and Hessian of the cost in
    (d, theta), delay ramp included (``_cost_derivatives``). For those the
    collapse is one (n_a x M) @ (M x 3) product per distinct range, the
    phasor weighted by 1, w_m and w_m^2 with w_m = j 4 pi m df / c, which
    gives c, dc/dd and d2c/dd2 at once; its first column rounds apart from
    the plain collapse, so xi and the cost differ from a call without
    derivatives in the last bits. Raises ValueError for a candidate on or
    inside the array circle.
    """
    d_m = np.asarray(d_m, dtype=float)
    inside = d_m <= geom.radius_m
    if np.any(inside):
        raise ValueError(
            f"candidate distance {d_m[inside][0]} must exceed the radius {geom.radius_m}"
        )
    config, beamformer = bank.config, bank.beamformer
    if d_m.size == 1:
        distinct, inverse = d_m, np.zeros(1, dtype=np.intp)
    else:
        distinct, inverse = np.unique(d_m, return_inverse=True)
    if with_derivatives:
        m = np.arange(config.m_subcarriers)
        tau = 2.0 * distinct[:, None] / SPEED_OF_LIGHT
        w = (4j * np.pi * config.delta_f_hz / SPEED_OF_LIGHT) * m
        weighted = np.empty((distinct.size, m.size, 3), dtype=complex)
        weighted[:, :, 0] = _phasor(TWO_PI * config.delta_f_hz * (config.t_cp_s + tau) * m)
        np.multiply(weighted[:, :, 0], w, out=weighted[:, :, 1])
        np.multiply(weighted[:, :, 1], w, out=weighted[:, :, 2])
        ramp = (bank.aggregates @ weighted)[inverse]
        collapsed = ramp[:, :, 0]
    else:
        comp = np.conj(delay_phases(config, 2.0 * distinct[:, None] / SPEED_OF_LIGHT))
        collapsed = (bank.aggregates @ comp[:, :, None])[inverse, :, 0]
    d = d_m[:, None]
    phi = np.asarray(theta_rad, dtype=float)[:, None] - element_angles(geom)
    radius = geom.radius_m
    cos_phi = np.cos(phi)
    ranges = np.sqrt(d * d + radius * radius - 2.0 * d * radius * cos_phi)
    a = np.exp(1j * (2.0 * np.pi * (d - ranges) / geom.wavelength_m)) / np.sqrt(geom.n_a)
    gains = element_gains(ranges, geom.wavelength_m)
    xis = gains * np.conj(a) * collapsed
    beta = _row_dots(a, beamformer)
    scale = mean_product_scale(config, geom)
    costs = scale * np.abs(beta) ** 2 * np.sum(1.0 / ranges**2, axis=1)
    # Re{beta * sum_k conj(xi_k)}, spelled out: numpy's vector complex
    # product may fuse multiply-adds, and the scalar product does not.
    data = np.sum(np.conj(xis), axis=1)
    costs -= 2.0 * (beta.real * data.real - beta.imag * data.imag)
    gradient = hessian = None
    if with_derivatives:
        gradient, hessian = _cost_derivatives(
            geom, d, phi, cos_phi, ranges, a * beamformer, gains * a, ramp, scale
        )
    return _Evaluation(xis, costs, gradient, hessian)


# A jet holds a function's value and partials in (d, theta) on its last axis:
# (value, d, theta, dd, dtheta, thetatheta); partial p of the second order is
# the pair (_PAIR_I[p], _PAIR_J[p]).
_PAIR_I = np.array([0, 0, 1])
_PAIR_J = np.array([0, 1, 1])
# The range's own partials: dd/dd = 1, dd/dtheta = 0.
_D_HAT = np.array([1.0, 0.0])


def _leibniz() -> np.ndarray:
    """The product rule as a (36, 6) matrix: jet(x y) = (x outer y).ravel() @ it."""
    rule = np.zeros((6, 6, 6))
    for k in range(6):
        rule[0, k, k] = rule[k, 0, k] = 1.0
    for k, (i, j) in enumerate(zip(_PAIR_I, _PAIR_J)):
        rule[1 + i, 1 + j, 3 + k] += 1.0
        rule[1 + j, 1 + i, 3 + k] += 1.0
    return rule.reshape(36, 6)


_LEIBNIZ = _leibniz()


def _jet_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Jet of the product x y (Leibniz rule), for jets x and y (..., 6)."""
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(outer.shape[:-2] + (36,)) @ _LEIBNIZ


def _exp_jet(log1: np.ndarray, log2: np.ndarray) -> np.ndarray:
    """Jet of e^l relative to its value, from the partials of l: (1, l_i, l_i l_j + l_ij)."""
    out = np.empty(log1.shape[:-1] + (6,), dtype=np.result_type(log1, log2))
    out[..., 0] = 1.0
    out[..., 1:3] = log1
    out[..., 3:] = log1[..., _PAIR_I] * log1[..., _PAIR_J] + log2
    return out


def _cost_derivatives(
    geom: UcaGeometry,
    d: np.ndarray,
    phi: np.ndarray,
    cos_phi: np.ndarray,
    ranges: np.ndarray,
    af: np.ndarray,
    h: np.ndarray,
    ramp: np.ndarray,
    scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (n, 2) and Hessian (n, 2, 2) of the cost in (d, theta).

    L = s B S - 2 Re{beta D} with B = |beta|^2, S = sum_k 1/r_k^2,
    beta = sum_k a_k f_k (``af``) and D = sum_k h_k conj(c_k(d)) with
    h = g a (``h``), each carried as a jet. The per-element factors are
    exponentials of log jets: a_k of j p_k with the phase
    p_k = kappa (d - r_k), g_k of -log r_k, 1/r_k^2 of -2 log r_k, whose
    partials follow from those of the law-of-cosines range r_k. The bank
    row c_k(d) varies with d alone: ``ramp`` holds (c, dc/dd, d2c/dd2) per
    element, the delay-ramp terms that the score pair leaves out.
    """
    radius = geom.radius_m
    kappa = TWO_PI / geom.wavelength_m
    inv_r = (1.0 / ranges)[..., None]
    sin_phi = np.sin(phi)
    r1 = np.empty(phi.shape + (2,))
    r1[..., 0] = d - radius * cos_phi
    r1[..., 1] = d * radius * sin_phi
    r1 *= inv_r
    r11 = r1[..., _PAIR_I] * r1[..., _PAIR_J]
    r2 = np.empty(phi.shape + (3,))
    r2[..., 0] = 1.0
    r2[..., 1] = radius * sin_phi
    r2[..., 2] = d * radius * cos_phi
    r2 -= r11
    r2 *= inv_r
    # Partials of log g = -log r + const and of the phase p.
    log_g1 = -r1 * inv_r
    log_g2 = (r11 * inv_r - r2) * inv_r
    phase1 = 1j * kappa * (_D_HAT - r1)
    phase2 = -1j * kappa * r2

    e = np.conj(ramp)
    e_jet = np.zeros(e.shape[:-1] + (6,), dtype=complex)
    e_jet[..., [0, 1, 3]] = e
    beta = np.sum(af[..., None] * _exp_jet(phase1, phase2), axis=1)
    s_jet = np.sum((inv_r * inv_r) * _exp_jet(2.0 * log_g1, 2.0 * log_g2), axis=1)
    d_jet = np.sum(
        h[..., None] * _jet_mul(_exp_jet(log_g1 + phase1, log_g2 + phase2), e_jet), axis=1
    )
    b_jet = _jet_mul(beta, np.conj(beta)).real
    cost = scale * _jet_mul(b_jet, s_jet) - 2.0 * _jet_mul(beta, d_jet).real
    return cost[:, 1:3], cost[:, [[3, 4], [4, 5]]]


def xi(candidate: PolarPosition, bank: MatchedFilterBank, geom: UcaGeometry) -> np.ndarray:
    """Matched-filter outputs xi_k = g_k conj(a_k) * delay-compensated bank.

    The delay-compensated bank is sum_m e^{+j 2 pi m df (Tcp + tau)} Z[k, m]
    at tau = 2d/c, with the bank's own config. For a noiseless observation
    evaluated at its own truth xi_k equals s * beta / r_k^2 with
    s = N M P_t lambda^2 / (16 pi^2 n_a).
    """
    return _evaluate([candidate.d_m], [candidate.theta_rad], bank, geom).xi[0]


def cost(candidate: PolarPosition, bank: MatchedFilterBank, geom: UcaGeometry) -> float:
    """Negative-log-likelihood surface L = mu^H mu - 2 Re{r^H mu}.

    Equals ||r - mu||^2 - ||r||^2 for the candidate's model mean; the
    deterministic term needs O(n_a) work, the data term O(n_a * M).
    """
    return float(_evaluate([candidate.d_m], [candidate.theta_rad], bank, geom).cost[0])


def _phasor(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{j phase}, written as cos and sin into one complex array (``out`` if given)."""
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _circulants(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Circulant pair [C | C'] of shape (..., n, 2n) for each vector v (..., n), in ``out`` if given.

    C[m, l] = v[(l - m) mod n] convolves a template row with v;
    C'[m, l] = v[(l + 1 + m) mod n] does the same for the reversed row.
    """
    n = v.shape[-1]
    if out is None:
        out = np.empty(v.shape + (2 * n,), dtype=v.dtype)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([v, v], axis=-1), n, axis=-1
    )
    out[..., :n] = windows[..., n:0:-1, :]
    out[..., n:] = windows[..., 1 : n + 1, :]
    return out


def _row_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for a 2-D ``a``, each row's bits the same however many rows ``a`` has.

    numpy hands a one-row product to gemv, whose sums round unlike gemm's
    (about 1e-16 relative); a doubled row keeps it on gemm. The product goes
    to ``out`` if given.
    """
    if a.shape[0] == 1:
        product = (np.concatenate([a, a]) @ b)[:1]
        if out is None:
            return product
        out[...] = product
        return out
    return np.matmul(a, b, out=out)


def _collapse_rows(
    config: OfdmConfig, bank: MatchedFilterBank, d_values: np.ndarray
) -> np.ndarray:
    """Delay-compensated bank c_k(d) per range row, shape (rows, n_a).

    c_k(d) = sum_m e^{+j 2 pi m df (Tcp + 2d/c)} Z[k, m]; a row comes out
    bit for bit the same whichever caller collapses it, with whichever
    other rows.
    """
    tau = 2.0 * d_values[:, None] / SPEED_OF_LIGHT
    m = np.arange(config.m_subcarriers)
    delay_comp = _phasor(TWO_PI * m[None, :] * config.delta_f_hz * (config.t_cp_s + tau))
    return _row_matmul(delay_comp, bank.aggregates.T)


def _row_norms(
    config: OfdmConfig,
    bank: MatchedFilterBank,
    d_values: np.ndarray,
    run: tuple[int, int, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Range profile ||c(d)|| per row, and an absolute bound on its error.

    ``run`` = (first, stop, K) is the grid's recorded uniform run
    (``GridSpec.for_array``). Its rows come from one zero-padded inverse
    FFT: at d_j = d_0 + j c / (2 df K) the collapse is
    c_k(d_j) = sum_m Z[k, m] e^{j 2 pi m df (Tcp + 2 d_0 / c)} e^{j 2 pi m j / K},
    bin j mod K of a K-point inverse DFT of the ramped bank (the sum is
    K-periodic in j, so wrapping is exact). The FFT is used only where
    K >= M, since a shorter one would cut the bank off, and where the run's
    rows * M phasors outnumber its K log2 K butterflies. Every other row,
    and every row of a grid without a run, is collapsed by
    ``_collapse_rows`` and has error 0. The FFT rows differ from what
    ``_collapse_rows`` would give by rounding and by the nodes' drift from
    d_0 + j c / (2 df K); per element that is at most gamma sum_m |Z[k, m]|,
    with

        gamma = eps (64 log2 K + M + 16 (phi_max + 1)) + 4 pi (M - 1) df delta / c,

    covering the FFT (64 log2 K eps: each output is a sum along log2 K
    butterfly stages, Higham 2002, ch. 24), the collapse's matmul (M eps),
    the rounding of both phase arguments, up to phi_max = 2 pi (M - 1) df
    (Tcp + 2 max(d) / c), and of their phasors (16 eps (phi_max + 1)),
    and the phase of the largest drift delta, measured plus 4 eps max(d).
    The drift is measured, not assumed, so a wrong record loosens the bound
    but never breaks it. The row's error bound is gamma ||(sum_m |Z[k, m]|)_k||_2.
    """
    norms = np.empty(d_values.size)
    errors = np.zeros(d_values.size)
    direct = np.ones(d_values.size, dtype=bool)
    m = np.arange(config.m_subcarriers)
    if run is not None:
        first, stop, size = run
        if size < m.size or (stop - first) * m.size < size * np.log2(size):
            run = None
    if run is not None:
        eps = np.finfo(float).eps
        span = m[-1] * config.delta_f_hz
        phi_max = TWO_PI * span * (config.t_cp_s + 2.0 * d_values.max() / SPEED_OF_LIGHT)
        l1 = np.linalg.norm(np.sum(np.abs(bank.aggregates), axis=1))
        d0 = d_values[first]
        j = np.arange(stop - first)
        step = SPEED_OF_LIGHT / (2.0 * config.delta_f_hz * size)
        drift = np.max(np.abs(d_values[first:stop] - (d0 + j * step)))
        drift += 4.0 * eps * d_values.max()
        gamma = eps * (64.0 * np.log2(size) + m.size + 16.0 * (phi_max + 1.0))
        gamma += 2.0 * TWO_PI * span * drift / SPEED_OF_LIGHT
        tau0 = 2.0 * d0 / SPEED_OF_LIGHT
        ramp = _phasor(TWO_PI * m * config.delta_f_hz * (config.t_cp_s + tau0))
        # The profile power, summed over the elements in order (the bits
        # np.sum over axis 0 gives for a C-ordered bank), from
        # KERNEL_BLOCK_CELLS bins' worth of elements' spectra at a time
        # rather than the whole n_a x K spectrum.
        power = np.zeros(size)
        per_block = max(1, KERNEL_BLOCK_CELLS // size)
        for start in range(0, bank.aggregates.shape[0], per_block):
            block = bank.aggregates[start : start + per_block] * ramp
            spectrum = np.fft.ifft(block, n=size, axis=1, norm="forward")
            for element_power in spectrum.real**2 + spectrum.imag**2:
                power += element_power
        norms[first:stop] = np.sqrt(power[j % size])
        errors[first:stop] = gamma * l1
        direct[first:stop] = False
    if np.any(direct):
        collapsed = _collapse_rows(config, bank, d_values[direct])
        norms[direct] = np.sqrt(np.sum(collapsed.real**2 + collapsed.imag**2, axis=1))
    return norms, errors


def _row_bounds(
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    d_values: np.ndarray,
    run: tuple[int, int, int] | None,
) -> np.ndarray:
    """A lower bound on every computed cost of each range row, shape (rows,).

    b(d) = -(lambda / 4 pi)^2 (||c(d)|| + E(d))^2 / (n_a s), from the range
    profile ||c(d)|| and its error bound E(d) (``_row_norms`` with the
    grid's uniform ``run``; 0 on rows collapsed directly), scaled by
    1 + BOUND_SLACK to cover the rounding of the computed costs. See
    ``coarse_grid_search`` for the derivation.
    """
    norms, errors = _row_norms(bank.config, bank, d_values, run)
    scale = (geom.wavelength_m / (4.0 * np.pi)) ** 2 / (
        geom.n_a * mean_product_scale(bank.config, geom)
    )
    return -(1.0 + BOUND_SLACK) * scale * (norms + errors) ** 2


class _Workspace:
    """The intermediates of one ``_cost_rows`` block, for one angle lattice.

    ``coarse_grid_search`` builds one per search and every block of every
    tile fills the same arrays through ``out=``, so the kernel allocates
    nothing per block. A block holds ``rows`` range rows:
    max(1, KERNEL_BLOCK_CELLS // n_theta), at most GRID_BLOCK_ROWS. Also
    holds the lattice's size ``n_theta`` and cos u of its template angles,
    the same for every row. Raises ValueError unless n_theta is a multiple
    of n_a.
    """

    def __init__(self, n_a: int, n_theta: int) -> None:
        if n_theta % n_a:
            raise ValueError(
                f"n_theta={n_theta} must be a multiple of the element count {n_a}"
            )
        q = n_theta // n_a
        half = q // 2 + 1
        rows = min(max(1, KERNEL_BLOCK_CELLS // n_theta), GRID_BLOCK_ROWS)
        self.rows = rows
        self.n_theta = n_theta
        self.cosu = np.cos(TWO_PI * (np.arange(half)[:, None] + q * np.arange(n_a)) / n_theta)
        self.rho = np.empty((rows, half, n_a))
        self.phase = np.empty((rows, half, n_a))
        self.a_u = np.empty((rows, half, n_a), dtype=complex)
        self.ga_u = np.empty((rows, half, n_a), dtype=complex)
        self.inv_sum = np.empty((rows, half))
        self.data_circulants = np.empty((rows, n_a, 2 * n_a), dtype=complex)
        self.beta = np.empty((rows, half, 2 * n_a), dtype=complex)
        self.data_sum = np.empty((rows, half, 2 * n_a), dtype=complex)
        self.cost = np.empty((rows, half, 2 * n_a))
        self.cross = np.empty((rows, half, 2 * n_a))


def _cost_rows(
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    d_values: np.ndarray,
    workspace: _Workspace,
) -> np.ndarray:
    """Cost at every (range row, lattice angle) pair, shape (rows, n_theta).

    The angles are the uniform lattice theta_j = 2 pi j / n_theta of
    ``workspace``, n_theta a multiple of n_a. Writing
    j = p + q*l with q = n_theta / n_a puts the relative angle of element
    k at lattice index p + q*(l - k), so for each phase p both element
    sums are length-n_a circular correlations along l: matmuls against
    circulant matrices. Since rho(u) = rho(2 pi - u), phase q - p is phase
    p with l reversed, so the steering templates are built on phases
    p <= q/2 only, and one matmul against [C | C'] (see ``_circulants``)
    yields each phase and its mirror side by side.

    Blocks. The rows are evaluated in blocks of ``workspace.rows`` rows,
    about KERNEL_BLOCK_CELLS lattice cells, whose intermediates fill the
    arrays of ``workspace`` and so stay in cache; each block's costs go straight
    into the output. Every operation is per row, so a row's costs are the
    same bits in whichever tile and block it comes.

    Templates. The phase 2 pi (d - rho) / lambda of a template is reduced
    to turns before its cosine and sine: x = (d - rho) / lambda, minus
    rint(x) (exact), times 2 pi. The argument then lies within [-pi, pi],
    where cos and sin run 1.6 times faster than on phases up to
    2 pi R / lambda, and its error is about that of x alone: at R = 5 m,
    rows 10 to 30 m, at most 3.6e-13 rad against 1.0e-12 rad unreduced
    (a long-double phase from the same rho as reference).
    """
    config = bank.config
    n_a = geom.n_a
    n_theta = workspace.n_theta
    q = n_theta // n_a
    half = q // 2 + 1
    rows = d_values.size
    radius = geom.radius_m
    collapsed = _collapse_rows(config, bank, d_values)
    beam = _circulants(bank.beamformer / np.sqrt(n_a))
    scale = mean_product_scale(config, geom)
    out = np.empty((rows, n_a, q))
    for start in range(0, rows, workspace.rows):
        n = min(workspace.rows, rows - start)
        d = d_values[start : start + n, None, None]
        rho, phase = workspace.rho[:n], workspace.phase[:n]
        a_u, ga_u = workspace.a_u[:n], workspace.ga_u[:n]
        inv_sum, beta = workspace.inv_sum[:n], workspace.beta[:n]
        data_sum, cost, cross = workspace.data_sum[:n], workspace.cost[:n], workspace.cross[:n]

        np.multiply(2.0 * d * radius, workspace.cosu, out=rho)
        np.subtract(d * d + radius**2, rho, out=rho)
        np.sqrt(rho, out=rho)
        np.square(rho, out=phase)
        np.divide(1.0, phase, out=phase)
        np.sum(phase, axis=2, out=inv_sum)
        # Steering templates e^{j 2 pi (d - rho) / lambda}, the phase reduced
        # to turns; the 1 / sqrt(n_a) of the steering vector is folded into
        # the circulants. a_u's real part holds the whole turns until then.
        np.subtract(d, rho, out=phase)
        phase /= geom.wavelength_m
        phase -= np.rint(phase, out=a_u.real)
        phase *= TWO_PI
        _phasor(phase, out=a_u)
        np.divide(geom.wavelength_m / (4.0 * np.pi), rho, out=rho)
        np.multiply(a_u, rho, out=ga_u)
        _row_matmul(a_u.reshape(n * half, n_a), beam, out=beta.reshape(n * half, 2 * n_a))
        circulants = _circulants(
            np.conj(collapsed[start : start + n]) / np.sqrt(n_a), out=workspace.data_circulants[:n]
        )
        np.matmul(ga_u, circulants, out=data_sum)

        # L = s |beta|^2 sum_k 1/r_k^2 - 2 Re{beta * data_sum}, in place.
        b_re, b_im = beta.real, beta.imag
        np.multiply(b_re, b_re, out=cost)
        cost += np.multiply(b_im, b_im, out=cross)
        inv_sum *= scale
        cost *= inv_sum[:, :, None]
        np.multiply(b_re, data_sum.real, out=cross)
        cross -= np.multiply(b_im, data_sum.imag, out=data_sum.real)
        cross *= 2.0
        cost -= cross

        # cost[:, p, :n_a] is phase p and cost[:, p, n_a:] phase q - p; lay
        # them out by angle index j = p + q*l.
        block = out[start : start + n]
        block[:, :, :half] = cost[:, :, :n_a].transpose(0, 2, 1)
        block[:, :, half:] = cost[:, q - half : 0 : -1, n_a:].transpose(0, 2, 1)
    return out.reshape(rows, n_theta)


def _row_min(costs: np.ndarray) -> np.ndarray:
    """Min over each cell and its two angular neighbours; angles wrap.

    Built in one output array: first the min with the left neighbour, then
    with the right one, the wrapped first and last angles on their own.
    """
    out = np.empty_like(costs)
    np.minimum(costs[:, :-1], costs[:, 1:], out=out[:, 1:])
    np.minimum(costs[:, -1], costs[:, 0], out=out[:, 0])
    np.minimum(out[:, :-1], costs[:, 1:], out=out[:, :-1])
    np.minimum(out[:, -1], costs[:, 0], out=out[:, -1])
    return out


@dataclass(frozen=True)
class _TileEdges:
    """First and last rows of an evaluated tile, awaiting the rows around it.

    A cell's 3x3 neighbourhood lies inside its tile except on these rows,
    so their minima are settled once the neighbouring rows are known. Only
    copies of the edge rows are held until then, so the tile's costs can
    be freed.
    """

    start: int  # grid index of the tile's first row
    rows: np.ndarray  # tile indices of the edge rows: first and last, or the one row
    costs: np.ndarray  # (len(rows), n_theta): the edge rows' costs
    neigh: np.ndarray  # (len(rows), n_theta): min over each neighbourhood inside the tile
    halo: np.ndarray  # (2, n_theta): row-min of the first and last rows


def _tile_minima(start: int, costs: np.ndarray) -> tuple[tuple, _TileEdges]:
    """Local minima of a tile's interior rows, and its edge rows for later.

    A cell is a minimum iff it equals the min over its 3x3 neighbourhood
    (angles wrap). Interior minima come back as (values, range indices,
    angle indices) and are final.
    """
    row_min = _row_min(costs)
    neigh = np.minimum(row_min[:-2], row_min[2:])
    np.minimum(neigh, row_min[1:-1], out=neigh)
    inner = costs[1:-1]
    # flatnonzero and divmod give nonzero's indices several times faster.
    d_idx, t_idx = np.divmod(np.flatnonzero(inner <= neigh), costs.shape[1])
    last = costs.shape[0] - 1
    edge = np.array(sorted({0, last}))
    edge_neigh = np.minimum(row_min[np.maximum(edge - 1, 0)], row_min[np.minimum(edge + 1, last)])
    np.minimum(edge_neigh, row_min[edge], out=edge_neigh)
    edges = _TileEdges(start, edge, costs[edge], edge_neigh, row_min[[0, -1]])
    return (inner[d_idx, t_idx], d_idx + start + 1, t_idx), edges


def _edge_minima(
    edges: _TileEdges, above: np.ndarray | None, below: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minima of a tile's edge rows, given the row-min of the rows just outside.

    ``above``/``below`` are None at the grid edge or next to a skipped tile:
    the neighbourhood clips there.
    """
    neigh = edges.neigh.copy()
    if above is not None:
        np.minimum(neigh[0], above, out=neigh[0])
    if below is not None:
        np.minimum(neigh[-1], below, out=neigh[-1])
    r_idx, t_idx = np.nonzero(edges.costs <= neigh)
    return edges.costs[r_idx, t_idx], edges.rows[r_idx] + edges.start, t_idx


def _run_length(flags: np.ndarray) -> int:
    """Length of the leading run of equal values in a non-empty boolean array."""
    changes = np.flatnonzero(flags != flags[0])
    return int(changes[0]) if changes.size else flags.size


def coarse_grid_search(
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    spec: GridSpec,
    refine_seed: Callable[[list[PolarPosition]], float] | None = None,
) -> list[GridBasin]:
    """Rank grid-local minima of the bank's cost surface, lowest cost first.

    The bank is the data, and its ``config`` and ``beamformer`` interpret
    it. Returns at most N_BASINS basins; ties break on the lowest
    (range index, angle index) pair so the output is deterministic. It is
    a branch-and-bound over range rows that skips every row which cannot
    hold a top basin, or whose range interval cannot beat the incumbent,
    min(G, W): G the best cell found so far, W what ``refine_seed``
    returns. If given, ``refine_seed`` is called once, after the seed
    window (see Search), if it holds a basin and G already rules out some
    row, with the positions of its basins, best first; it returns W, a
    cost that the caller guarantees its estimate will not exceed
    (``estimate`` hands it the refinement, ``_SeedRuns``). Otherwise W is
    infinite and the incumbent is G. The entries that cost at most min(G*, W) /
    INCUMBENT_KAPPA (G* the surface minimum) are exactly the full
    search's, in its order, ahead of the rest, and the full search's best
    basin comes first whenever it costs at most W; see Exactness.

    Bound. A row's cost is L = s |beta|^2 S - 2 Re{beta D} with
    S = sum_k 1/rho_k^2 and D = sum_k (lambda / (4 pi rho_k)) a_k conj(c_k)
    / sqrt(n_a), |a_k| = 1, c the delay-collapsed bank row. Over any
    complex beta, L >= -|D|^2 / (s S); by Cauchy-Schwarz
    |D|^2 <= (lambda / 4 pi)^2 S ||c||^2 / n_a. So every angle of row d
    costs at least b(d) = -(lambda / 4 pi)^2 ||c(d)||^2 / (n_a s), a
    multiple of the noncoherent range profile (the OFDM-radar
    periodogram). Writing L = s S |beta - beta*|^2 - |D|^2 / (s S), the
    rounding of the computed L is about n_a eps (s |beta|^2 S
    + 2 |beta| |D|): at most about 8 n_a eps |b| (1e-13 |b| at 64 elements)
    when |beta| <= 2 |beta*|, and far below L - b otherwise.
    ``_row_bounds`` therefore scales b by 1 + BOUND_SLACK (1e-9).

    FFT rows. The costs of an evaluated row use the collapse
    ``_collapse_rows`` gives. On the uniform run of rows c / (2 df K) apart
    that ``GridSpec.for_array`` records (its delay-limited rows, K = 3M),
    the profile instead comes from one zero-padded K-point inverse FFT,
    ``_row_norms``, if K >= M and the run is long enough to pay; its result
    ||c^|| differs from the direct ||c|| by at most an absolute margin
    E = gamma ||(sum_m |Z[k, m]|)_k||_2: FFT and collapse rounding, phase
    rounding and the nodes' measured drift from the exact run (gamma is
    stated there; 2.5e-9 at M = 2048, set by the 6e-11 m drift of the
    adaptive nodes, and 7e-12 at M = 128). Since ||c|| <= ||c^|| + E, those
    rows use b(d) = -(1 + BOUND_SLACK) (lambda / 4 pi)^2 (||c^|| + E)^2
    / (n_a s), which lies at or below the direct bound; on the adaptive
    grids it is at most a few 1e-7 (relative) looser.

    Search. All rows are bounded in one ``_row_bounds`` call. A tile is
    a run of consecutive rows evaluated in one ``_cost_rows`` call, at
    most GRID_BLOCK_ROWS of them; its interior rows' minima are final at
    once, since their neighbourhoods lie inside it. The first tile is the
    seed window, the SEED_HALF_ROWS rows on each side of the lowest-bound
    row and that row, clipped to the grid (split into tiles if wider than
    GRID_BLOCK_ROWS); its minima seed the running top list. Then the rows
    are streamed in order. A row i is skipped iff its bound exceeds T, the
    list's last entry once it holds N_BASINS minima (infinite before),
    or kappa b~(i) > min(G, W), the incumbent rule: G is the list's first
    entry, W is set once from the seed window's basins (above),
    kappa = INCUMBENT_KAPPA, and b~(i) = min(b(i - 1), b(i), b(i + 1)) (one
    neighbour at a grid edge) bounds the row's range interval on both
    sides. Since b <= 0, the incumbent rule never fires while
    min(G, W) >= 0, nor at kappa = inf; a row whose b~ is not negative,
    which the program's bounds never give, is not ruled out by it. Each
    run of rows that are not skipped is evaluated in tiles that never
    cross the seed window; T and G may tighten inside a tile, which is
    still evaluated whole.
    Nothing is evaluated across a run of skipped rows, so T and G hold
    still there, and its end is found in windows of doubling size: O(run)
    work, not O(rows left). A skipped row acts as the grid edge for its
    neighbours' halo. An evaluated tile's interior minima join the list at
    once, and its edge rows once the rows around it are known.

    Incumbent. L >= b holds off the grid too: at every (d, theta),
    L >= -(lambda / 4 pi)^2 ||c(d)||^2 / (n_a s). Between rows i - 1 and i,
    ||c(d)||^2 stays within kappa times the larger end sample (the basis of
    kappa is stated at INCUMBENT_KAPPA: sampled, not proven), so on the
    interval (d_{i-1}, d_{i+1}) the cost is at least
    kappa b~(i) > min(G, W). The best grid basin is always a refinement
    start (it heads the output), ``estimate`` keeps the run that set W
    among its runs even if its start leaves the list, and Newton never
    accepts a step that raises the cost, so the estimate costs at most
    min(G, W) (G to rounding far below kappa's margin; W exactly, since
    it is a cost that run was evaluated at), and a skipped row's interval
    holds no point that beats it. Proven: each skipped row's cells cost
    more than min(G, W) / kappa. Sampled: the interval claim, through kappa.

    Exactness. The rules alone give this, whatever kappa's basis. Let V be
    the full surface's N_BASINS-th basin value (infinite if it has
    fewer minima), G* its minimum, l = min(G*, W) / kappa and
    m = min(V, l). A row the incumbent rule skips costs more than
    min(G, W) / kappa >= l in every cell, since b >= b~ and G >= G*. The
    full search's best cell is never skipped while G* <= W: its row has
    b~ <= G* <= min(G, W), so kappa b~ <= b~ when G* < 0, and no rule
    fires at G* >= 0; its bound is at most G* <= T, since every list
    entry is a cell's cost. The list holds true minima, and next to a
    skipped row possibly edge cells whose skipped neighbour costs less;
    such a cell costs more than that neighbour, hence more than the T of
    the skip or than l. T never drops below m: by induction, a list whose
    last entry costs less than m holds no such edge cell, so it would hold
    N_BASINS true minima below V. So every cell of a skipped row costs
    more than m, and cannot be the lower neighbour of a cell costing at
    most m. Cells costing at most m are thus evaluated and classified as on
    the full surface, with the same costs (a row's costs do not depend on
    the tile it is evaluated in: see ``_row_matmul``), and they head the
    output in the full search's lexsort((t, d, value)) order. If V <= l,
    the output is the full search's; so it is when min(G*, W) >= 0, where
    the incumbent rule cannot fire. Otherwise it is the full search's entries
    that cost at most l, then up to N_BASINS minus their number of
    others, each costing more than l: true minima and edge cells next to
    skipped rows, which the full search might not return. The output may
    hold fewer than N_BASINS entries. Memory is the costs of the tile
    being evaluated and the edge rows of the tiles awaiting their halo (the
    last streamed tile and the seed window's), plus the one ``_Workspace``
    every block of every tile fills, two bounds per row and the K-bin range
    profile of the bound pass.
    """
    d_values = spec.d_values()
    n_rows = d_values.size
    workspace = _Workspace(geom.n_a, spec.n_theta)
    row_bounds = _row_bounds(bank, geom, d_values, spec.uniform_run)
    # kappa b~(i), b~(i) the lowest bound of row i and its neighbours. kappa
    # scales the range profile ||c||^2 >= 0, so only a negative b~ scales; a
    # row without one (never in the program) is never ruled out by G.
    lowest = row_bounds.copy()
    np.minimum(lowest[1:], row_bounds[:-1], out=lowest[1:])
    np.minimum(lowest[:-1], row_bounds[1:], out=lowest[:-1])
    interval_bounds = np.full(n_rows, -np.inf)
    np.multiply(INCUMBENT_KAPPA, lowest, out=interval_bounds, where=lowest < 0.0)
    theta_values = spec.theta_values()
    best = (np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    refined = np.inf  # W, once the seed window's basins are refined

    def position(d: int, t: int) -> PolarPosition:
        return PolarPosition(float(d_values[d]), float(theta_values[t]))

    def merge(found):
        values, d_idx, t_idx = (np.concatenate(pair) for pair in zip(best, found))
        if values.size > N_BASINS:
            keep = values <= np.partition(values, N_BASINS - 1)[N_BASINS - 1]
            values, d_idx, t_idx = values[keep], d_idx[keep], t_idx[keep]
        order = np.lexsort((t_idx, d_idx, values))[:N_BASINS]
        return values[order], d_idx[order], t_idx[order]

    def ruled_out(start: int, stop: int) -> np.ndarray:
        values = best[0]
        threshold = values[-1] if values.size == N_BASINS else np.inf
        incumbent = min(values[0] if values.size else np.inf, refined)
        return (row_bounds[start:stop] > threshold) | (interval_bounds[start:stop] > incumbent)

    def evaluate(start: int, stop: int) -> _TileEdges:
        nonlocal best
        costs = _cost_rows(bank, geom, d_values[start:stop], workspace)
        interior, edges = _tile_minima(start, costs)
        best = merge(interior)
        return edges

    seed = int(np.argmin(row_bounds))
    lo = max(seed - SEED_HALF_ROWS, 0)
    hi = min(seed + SEED_HALF_ROWS + 1, n_rows)
    held = {
        start: evaluate(start, min(start + GRID_BLOCK_ROWS, hi))
        for start in range(lo, hi, GRID_BLOCK_ROWS)
    }
    # W only tightens the incumbent rule. Where G rules out no row yet, the
    # search is noise-limited: there W (at most 1.26 G at d = 200 m) ruled out
    # no row either, and the stream displaces most seed basins, whose runs'
    # steps would be wasted.
    if refine_seed is not None and best[0].size and np.any(interval_bounds > best[0][0]):
        refined = refine_seed([position(d, t) for d, t in zip(best[1], best[2])])
    pending = None  # edges of the previous tile; None if its rows were skipped
    above = None  # halo of the row just above the pending tile
    row = 0
    while row < n_rows:
        if row in held:
            edges = held.pop(row)
            stop = row + int(edges.rows[-1]) + 1
        else:
            end = lo if row < lo else n_rows
            scanned = min(row + GRID_BLOCK_ROWS, end)
            flags = ruled_out(row, scanned)
            stop = row + _run_length(flags)
            if flags[0]:
                edges = None
                while stop == scanned < end:
                    flags = ruled_out(scanned, min(2 * scanned - row, end))
                    stop = scanned + (_run_length(flags) if flags[0] else 0)
                    scanned += flags.size
            else:
                edges = evaluate(row, stop)
        if pending is not None:
            below = None if edges is None else edges.halo[0]
            best = merge(_edge_minima(pending, above, below))
        above = None if pending is None else pending.halo[1]
        pending = edges
        row = stop
    if pending is not None:
        best = merge(_edge_minima(pending, above, None))

    values, d_idx, t_idx = best
    return [
        GridBasin(
            position=position(d, t),
            cost=float(v),
            d_index=int(d),
            theta_index=int(t),
        )
        for v, d, t in zip(values, d_idx, t_idx)
    ]


def _score_scale(geom: UcaGeometry, config: OfdmConfig, basin: PolarPosition) -> float:
    """Natural magnitude of one score term, used to make LM_TOL_SCORE relative."""
    ranges = element_ranges(geom, basin)
    scale = mean_product_scale(config, geom)
    return (
        scale * (TWO_PI / geom.wavelength_m) * float(np.sum(1.0 / ranges**2))
    )


def _trust_radii(geom: UcaGeometry, config: OfdmConfig) -> tuple[float, float]:
    """Per-iteration step bounds: half the range and angle correlation lobes.

    Capping each refinement step at half the lobes (``_lobe_widths``)
    keeps the iteration inside the basin it starts in.
    """
    range_lobe, angle_lobe = _lobe_widths(geom, config)
    return 0.5 * range_lobe, 0.5 * angle_lobe


class Refinement(NamedTuple):
    """The winning refinement of ``lm_refine``: where it ended, and how it got there."""

    position: PolarPosition
    converged: bool
    iterations: int  # trial steps the winning run evaluated
    basin_index: int  # index of its start
    cost: float  # cost at ``position`` from its evaluation with derivatives


def _newton_run(
    basin: PolarPosition, bank: MatchedFilterBank, geom: UcaGeometry, d_hi: float
) -> Generator[PolarPosition, tuple, tuple[PolarPosition, bool, int, float]]:
    """Damped Newton iterations on the cost L from one start, as a generator.

    It yields each candidate it needs evaluated, the (clamped) start first,
    and is sent back that candidate's (cost, gradient, Hessian) from
    ``_evaluate`` with derivatives; it returns (position, converged, trial
    steps evaluated, cost at the position as sent back). See ``lm_refine``
    for the iteration; ``d_hi`` is its ``d_max_m``.
    """
    config = bank.config
    d_lo = geom.radius_m * (1.0 + 1e-6)
    start = PolarPosition(min(max(basin.d_m, d_lo), d_hi), wrap_angle(basin.theta_rad))
    radii = np.array(_trust_radii(geom, config))
    step_tol = np.array([LM_STEP_TOL_D_M, LM_STEP_TOL_THETA_RAD])
    # The scores F are -1/2 the gradient in angle (and, but for the delay
    # ramp, in range), so twice their floor bounds the gradient: the
    # deterministic tolerance, or four noise standard deviations
    # sigma_F_i = (sigma^2/2) sqrt(J_ii) at the start if larger. The FIM is
    # only needed when the tolerance alone fails.
    tol_floor = 2.0 * LM_TOL_SCORE * _score_scale(geom, config, start)

    def settled(gradient: np.ndarray, hessian: np.ndarray, step: np.ndarray) -> bool:
        if not (
            np.all(np.abs(step) < step_tol)
            and hessian[0, 0] > 0.0
            and hessian[0, 0] * hessian[1, 1] > hessian[0, 1] * hessian[1, 0]
        ):
            return False
        gradient = np.abs(gradient)
        if np.all(gradient <= tol_floor):
            return True
        if config.sigma2_w <= 0.0:
            return False
        info = fim(geom, start, bank.beamformer, config)
        noise = config.sigma2_w * np.sqrt(
            np.array([max(info.j_dd, 0.0), max(info.j_thetatheta, 0.0)])
        )
        return bool(np.all(gradient <= np.maximum(tol_floor, 4.0 * noise)))

    current = start
    value, gradient, hessian = yield current
    damping = 0.0
    converged = False
    iterations = 0
    while iterations < LM_MAX_STEPS:
        eigvals, eigvecs = np.linalg.eigh(hessian * np.outer(radii, radii))
        curvature = np.abs(eigvals)
        top = curvature.max()
        if not top > 0.0:
            break  # a flat or non-finite model: no step to take
        curvature = np.maximum(curvature, CURVATURE_FLOOR * top)
        coeffs = eigvecs.T @ (radii * gradient)
        if settled(gradient, hessian, -radii * (eigvecs @ (coeffs / curvature))):
            converged = True
            break
        step = -(eigvecs @ (coeffs / (curvature + damping * top)))
        step = radii * step / max(1.0, float(np.max(np.abs(step))))
        room = d_hi - current.d_m if step[0] > 0.0 else current.d_m - d_lo
        if step[0] != 0.0 and abs(step[0]) >= room:
            step *= 0.5 * room / abs(step[0])
        candidate = PolarPosition(
            current.d_m + float(step[0]), wrap_angle(current.theta_rad + float(step[1]))
        )
        if candidate == current or not d_lo < candidate.d_m < d_hi:
            # The step rounds to no move, or onto a range bound: this
            # iterate is final.
            converged = settled(gradient, hessian, step)
            break
        iterations += 1
        trial = yield candidate
        if trial[0] > value:
            damping = max(damping * LM_LAMBDA_FACTOR, LM_LAMBDA_INIT)
            if damping > 1e15:
                break
            continue
        current, (value, gradient, hessian) = candidate, trial
        damping /= LM_LAMBDA_FACTOR
        if settled(gradient, hessian, step):
            converged = True
            break
    return current, converged, iterations, value


def _lock_step(
    runs: list[Generator],
    pending: dict[int, PolarPosition],
    finals: list,
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    until: int | None = None,
) -> dict[int, PolarPosition]:
    """Advance Newton runs (``_newton_run``) in lock-step, one batched evaluation per step.

    ``pending`` maps the index in ``runs`` of each run still going to the
    candidate it awaits; each step evaluates all of them in one
    ``_evaluate`` call with derivatives and sends each run its values. A
    run that stops leaves ``pending`` and puts what it returns in
    ``finals``. Steps are taken until no run is pending, or until run
    ``until`` has stopped; returns the runs still pending then, each with
    the candidate it awaits, not yet evaluated.
    """
    while pending and (until is None or finals[until] is None):
        batch = _evaluate(
            [p.d_m for p in pending.values()],
            [p.theta_rad for p in pending.values()],
            bank, geom, with_derivatives=True,
        )
        going = {}
        for row, index in enumerate(pending):
            try:
                going[index] = runs[index].send(
                    (batch.cost[row], batch.gradient[row], batch.hessian[row])
                )
            except StopIteration as stop:
                finals[index] = stop.value
        pending = going
    return pending


class _SeedRuns:
    """Newton runs begun from the seed window's basins, to give the coarse grid its incumbent W.

    ``estimate`` hands one to ``coarse_grid_search`` as ``refine_seed``,
    which calls it once with the seed window's basins, best first. It
    starts a run from each (``_newton_run``) and advances them in
    lock-step (``_lock_step``) until the run from the best one stops. W is
    the lowest final cost among the runs stopped by then, and
    ``kept`` the start of the run that set it (the lower index on a tie).
    The other runs pause, each with the candidate it awaits not yet
    evaluated. ``lm_refine`` takes the runs whose starts it is given out of
    ``runs`` and resumes them, so no candidate is evaluated twice; the rest
    are dropped. A run's steps do not depend on when or in which batch
    they are taken, so a resumed run ends where a run begun in
    ``lm_refine`` would.
    """

    def __init__(self, bank: MatchedFilterBank, geom: UcaGeometry, d_max_m: float) -> None:
        self.bank, self.geom, self.d_max_m = bank, geom, d_max_m
        # start -> (run, the candidate it awaits or None, its end or None)
        self.runs: dict[PolarPosition, tuple] = {}
        self.kept: PolarPosition | None = None

    def __call__(self, starts: list[PolarPosition]) -> float:
        runs = [_newton_run(start, self.bank, self.geom, self.d_max_m) for start in starts]
        finals = [None] * len(runs)
        pending = {index: next(run) for index, run in enumerate(runs)}
        pending = _lock_step(runs, pending, finals, self.bank, self.geom, until=0)
        for index, start in enumerate(starts):
            self.runs[start] = (runs[index], pending.get(index), finals[index])
        stopped = [index for index, final in enumerate(finals) if final is not None]
        index = min(stopped, key=lambda i: (finals[i][3], i))
        self.kept = starts[index]
        return float(finals[index][3])


def lm_refine(
    starts: Sequence[PolarPosition],
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    d_max_m: float,
    begun: _SeedRuns | None = None,
) -> Refinement:
    """Damped Newton iterations on the cost L from each start, in lock-step; the best wins.

    Each iterate's exact gradient g and Hessian H (``_evaluate`` with
    derivatives, delay ramp included) come with its cost, in one candidate
    evaluation. In units of the half-lobe trust radii T = diag(dd, dt)
    (``_trust_radii``), g' = T g and H' = T H T. The step is
    s' = -V (V^T g') / (c + mu max(c)) over the eigenpairs (e, V) of H',
    with curvatures c = |e| floored at CURVATURE_FLOOR max|e|, so a saddle
    or a ridge still gives a descent direction, as in the beamformer's
    Newton. The Marquardt damping mu starts at 0, becomes LM_LAMBDA_INIT
    on a rejected step, grows by LM_LAMBDA_FACTOR on each further
    rejection and shrinks by it on each accepted step. s' is scaled to at
    most 1 per axis, half a correlation lobe, so the iteration stays in the
    basin it starts in, and the step T s' is accepted iff the cost does
    not increase. A step that would take the range out of
    (R(1 + 1e-6), d_max_m) is shortened to half the distance to the bound,
    so every iterate stays strictly inside (a start outside is first
    clamped onto the nearer bound); angles wrap modulo 2 pi.

    Converged means that at the returned iterate H is positive definite,
    each gradient entry lies within 2 LM_TOL_SCORE times the natural score
    scale or four noise standard deviations sigma^2 sqrt(J_ii) (J the FIM),
    and a step below (LM_STEP_TOL_D_M, LM_STEP_TOL_THETA_RAD) is in hand: the
    accepted step that reached the iterate, or the undamped Newton step
    from it, which is then not taken (near a minimum the cost can no
    longer rank so small a step). The iteration stops unconverged after
    LM_MAX_STEPS trial steps or once mu exceeds 1e15; a step that rounds
    to no move, or onto a range bound, ends it too, converged if that step
    meets the test.

    Lock-step. Each start runs its own iteration (``_newton_run``); at each
    step the pending candidates of every run still going are evaluated in
    one ``_evaluate`` call, and a run that stops drops out of the batch
    (``_lock_step``). Each run ends with the cost its final position was
    evaluated at, and the winner is the lowest (cost, start index) pair;
    that cost comes with derivatives, so it rounds apart from what ``cost``
    gives in the last bits. Batching keeps the bits: ``_evaluate`` takes
    every product per candidate (``_row_dots`` and stacked matmuls), so a
    candidate's cost, gradient and Hessian do not depend on the batch it
    comes in, and each run takes the steps it takes alone. ``begun``
    holds runs already begun from some of the starts (the seed window's,
    see ``_SeedRuns``): such a start's run is taken from it, paused runs
    resume with the candidate they await and stopped ones keep their end,
    so each candidate is evaluated once and the result is what runs begun
    here would give. Raises ValueError without starts.
    """
    if not starts:
        raise ValueError("lm_refine needs at least one start")
    runs, pending, finals = [], {}, [None] * len(starts)
    for index, start in enumerate(starts):
        run, candidate, final = (None, None, None)
        if begun is not None:
            run, candidate, final = begun.runs.pop(start, (None, None, None))
        if run is None:
            run = _newton_run(start, bank, geom, d_max_m)
            candidate = next(run)
        runs.append(run)
        if final is None:
            pending[index] = candidate
        else:
            finals[index] = final
    _lock_step(runs, pending, finals, bank, geom)
    index = min(range(len(finals)), key=lambda i: (finals[i][3], i))
    position, converged, iterations, value = finals[index]
    return Refinement(position, converged, iterations, index, float(value))


def polish_basin(
    basin: PolarPosition,
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    spec: GridSpec,
    rounds: int = 2,
    n_scan: int = 65,
) -> PolarPosition:
    """Windowed coordinate descent on the cost around one basin node.

    Alternating 1-D cost scans over the node's range and angle cell, with
    the window shrinking to a few steps of the previous resolution each
    round. Each n_scan-point window is one candidate batch; an angle
    window shares a single range collapse of the bank.

    ``estimate`` no longer calls it: the scans existed to hand a score
    iteration a start inside its quadratic region, and Newton on the cost
    itself (``lm_refine``) starts from the grid node with the same hits.
    It stays defined because the benchmark's tracer (``bench/spans.py``)
    wraps ``estimator.polish_basin`` by name, and a traced run would fail
    without it; it retires with the benchmark change that drops the
    ``estimator.polish_s`` metric.
    """
    d_values = spec.d_values()
    if d_values.size > 1:
        # Local cell size at this basin (range nodes may be non-uniform).
        idx = int(np.argmin(np.abs(d_values - basin.d_m)))
        gaps = np.diff(d_values)
        d_window = float(np.max(gaps[max(idx - 1, 0) : idx + 1]))
    else:
        d_window = max(spec.d_max_m - spec.d_min_m, 1.0)
    t_window = TWO_PI / spec.n_theta
    d_lo = geom.radius_m * (1.0 + 1e-6)
    current = basin

    def window_costs(d_m, theta_rad) -> np.ndarray:
        return _evaluate(d_m, theta_rad, bank, geom).cost

    for _ in range(rounds):
        offsets_d = np.linspace(-d_window, d_window, n_scan)
        cand_d = np.clip(current.d_m + offsets_d, d_lo, None)
        costs_d = window_costs(cand_d, np.full(n_scan, current.theta_rad))
        current = PolarPosition(
            float(cand_d[int(np.argmin(costs_d))]), current.theta_rad
        )
        offsets_t = np.linspace(-t_window, t_window, n_scan)
        cand_t = np.mod(current.theta_rad + offsets_t, TWO_PI)
        costs_t = window_costs(np.full(n_scan, current.d_m), cand_t)
        current = PolarPosition(
            current.d_m,
            wrap_angle(current.theta_rad + float(offsets_t[int(np.argmin(costs_t))])),
        )
        # Next round covers a couple of steps of this round's resolution.
        d_window = 4.0 * (2.0 * d_window / (n_scan - 1))
        t_window = 4.0 * (2.0 * t_window / (n_scan - 1))
    return current


def estimate(
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    spec: GridSpec,
) -> MlEstimate:
    """Full pipeline from the matched-filter bank: coarse grid, then refine the top basins.

    The bank is the data, and its ``config`` and ``beamformer`` interpret
    it.
    The search hands the seed window's basins to a ``_SeedRuns`` (where G
    already rules out a row), which begins their refinement runs and
    returns W, the search's refined incumbent. The grid basins' nodes then
    start one ``lm_refine`` call, which resumes the seed runs whose starts
    are still among them and refines every start in lock-step, and picks
    the refined position with the lowest cost, ties to the better-ranked
    basin; the estimate carries that run's cost, converged flag and step
    count. The start of the run that set W joins the starts, after the
    basins, if the search no longer lists it, so the estimate costs at most
    W; its ``basin_index`` is then the number of basins. The refinement
    keeps the range below LM_D_MAX_FACTOR times the grid's d_max_m.
    Deterministic given (bank, grid); degenerate inputs produce
    converged=False estimates rather than raising.
    """
    d_max_m = LM_D_MAX_FACTOR * spec.d_max_m
    seed_runs = _SeedRuns(bank, geom, d_max_m)
    # ``spec`` goes by keyword: the benchmark's tracer (bench/spans.py) reads the
    # grid size from kwargs["spec"] before it tries a fourth positional argument.
    basins = coarse_grid_search(bank, geom, spec=spec, refine_seed=seed_runs)
    starts = [basin.position for basin in basins]
    if seed_runs.kept is not None and seed_runs.kept not in starts:
        # The run that set W stays a candidate: the estimate costs at most W.
        starts.append(seed_runs.kept)
    if not starts:
        # No local minimum (pathological flat surface): fall back to mid-grid.
        starts = [PolarPosition(float(np.sqrt(spec.d_min_m * spec.d_max_m)), 0.0)]
    best = lm_refine(starts, bank, geom, d_max_m, seed_runs)
    return MlEstimate(
        d_hat_m=best.position.d_m,
        theta_hat_rad=best.position.theta_rad,
        cost=best.cost,
        converged=best.converged,
        iterations=best.iterations,
        basin_index=best.basin_index,
    )
