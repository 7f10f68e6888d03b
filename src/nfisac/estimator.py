"""Joint range-angle maximum-likelihood estimation from one observation.

Pipeline: the input is the matched-filter bank Z (n_a x M) of one
observation, a sufficient statistic for (d, theta) (see ``signal``): the
Monte Carlo harness draws it from its law (``signal.synthesize_bank``),
and ``matched_filter_bank`` collapses the symbol axis of a full
observation into it. The coarse search of ``grid`` ranks candidate basins
of the cost surface. From each of the best basins' grid nodes, damped
Newton iterations on the cost itself (``lm_refine``), with its exact
gradient and Hessian, delay ramp included, find the basin's minimum; the
lowest final cost wins, the cost each run's last accepted iterate was
evaluated at. The basins are refined in lock-step (``_lock_step``): each
step evaluates the pending candidates of every run still going in one
batch, and the winner is picked inside ``lm_refine``. The runs from the
search's seed window (``_SeedRuns``) take their first steps during the
search, giving it its refined incumbent W, pause, and are resumed by
``lm_refine`` if their starts are still among the basins, so no candidate
is evaluated twice. A candidate's values do not depend on its batch, so
this gives what refining each basin alone would, bit for bit. Off the
grid, every cost, xi and cost derivative comes from one candidate
evaluator, ``_evaluate``, which takes a batch of (range, angle) candidates
as (n, n_a) arrays and collapses the bank over the subcarriers once per
distinct range in the batch. ``cost`` and ``xi`` are its one-candidate
views; the windowed scans of ``polish_basin`` are no longer on the
estimation path. The bank is the only data argument of the grid search,
the refinement, ``_evaluate``, ``cost`` and ``xi``: it carries the
``config`` and ``beamformer`` that interpret it.

Cost factorization, for candidate (d, theta) with xi_k the delay- and
pilot-compensated correlation at element k:

    L(d, theta) = s |beta|^2 sum_k 1/r_k^2  -  2 Re{ beta sum_k conj(xi_k) },

with s = N M P_t lambda^2 / (16 pi^2 n_a) shared with the Fisher module.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crlb import fim, floored_newton_step, mean_product_scale
from .geometry import (
    SPEED_OF_LIGHT,
    PolarPosition,
    UcaGeometry,
    element_angles,
    element_gains,
    element_ranges,
)
from .grid import TWO_PI, GridSpec, _collapse_rows, _lobe_widths, _phasor, coarse_grid_search
from .signal import MatchedFilterBank, Observation, OfdmConfig

# The damped Newton refinement (``lm_refine``):
# - trial steps (cost evaluations after the start) per basin;
REFINE_STEP_BUDGET = 100
# - Marquardt damping, relative to the largest curvature: 0 until a step is
#   rejected, then DAMPING_INIT, times DAMPING_FACTOR on each further
#   rejection and divided by it on each accepted step;
DAMPING_INIT = 1e-3
DAMPING_FACTOR = 10.0
# - gradient tolerance at convergence, relative to the natural magnitude of a
#   gradient term; a larger FIM noise floor replaces it on noisy observations;
GRADIENT_RTOL = 1e-10
# - convergence needs a step below both of these;
STEP_TOL_D_M = 1e-7
STEP_TOL_THETA_RAD = 1e-9
# - the upper range bound, this times the grid's d_max_m: iterates stay
#   inside (R(1 + 1e-6), RANGE_CAP_FACTOR d_max_m).
RANGE_CAP_FACTOR = 1.5


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
    ``config`` and ``beamformer`` interpret it. The delay compensation of
    the bank is one length-M collapse per *distinct* range, so an angle scan
    shares one. Every product is taken per candidate (see ``_row_dots``), so
    a candidate's values do not depend on the batch it comes in. Every call
    gives xi and the costs; with ``with_derivatives`` also the exact
    gradient and Hessian of the cost in (d, theta), delay ramp included
    (``_cost_derivatives``). For those the collapse is one
    (n_a x M) @ (M x 3) product per distinct range, the phasor weighted by
    1, w_m and w_m^2 with w_m = j 4 pi m df / c, which gives c, dc/dd and
    d2c/dd2 at once; its first column rounds apart from the plain collapse,
    the grid rows' own (``grid._collapse_rows``), so xi and the cost differ
    from a call without derivatives in the last bits. Raises ValueError for
    a candidate on or inside the array circle.
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
        collapsed = _collapse_rows(config, bank, distinct)[inverse]
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
    element, the delay-ramp terms.
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


def _gradient_scale(geom: UcaGeometry, config: OfdmConfig, basin: PolarPosition) -> float:
    """GRADIENT_RTOL's unit: a gradient term's magnitude, 2 s (2 pi / lambda) sum_k 1/r_k^2."""
    ranges = element_ranges(geom, basin)
    scale = mean_product_scale(config, geom)
    return 2.0 * scale * (TWO_PI / geom.wavelength_m) * float(np.sum(1.0 / ranges**2))


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
    # Trust radii: half the range and angle correlation lobes, a cap on each
    # step that keeps the iteration inside the basin it starts in.
    radii = 0.5 * np.array(_lobe_widths(geom, config))
    step_tol = np.array([STEP_TOL_D_M, STEP_TOL_THETA_RAD])
    # The gradient tolerance, or four noise standard deviations of the
    # gradient, sigma^2 sqrt(J_ii) at the start, if larger. The FIM is only
    # needed when the tolerance alone fails.
    tol_floor = GRADIENT_RTOL * _gradient_scale(geom, config, start)

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
    while iterations < REFINE_STEP_BUDGET:
        model = hessian * np.outer(radii, radii), radii * gradient
        newton = floored_newton_step(*model)
        if newton is None:
            break
        if settled(gradient, hessian, radii * newton[0]):
            converged = True
            break
        if damping > 0.0:
            newton = floored_newton_step(*model, damping)
        step = radii * newton[0] / max(1.0, float(np.max(np.abs(newton[0]))))
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
            damping = max(damping * DAMPING_FACTOR, DAMPING_INIT)
            if damping > 1e15:
                break
            continue
        current, (value, gradient, hessian) = candidate, trial
        damping /= DAMPING_FACTOR
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

    The name stays from the Levenberg-Marquardt solver this replaced: the
    benchmark's tracer (``bench/spans.py``) wraps ``estimator.lm_refine`` by
    name. Each iterate's exact gradient g and Hessian H (``_evaluate`` with
    derivatives, delay ramp included) come with its cost, in one candidate
    evaluation. In units of the trust radii T = diag(dd, dt), half the range
    and angle correlation lobes (``grid._lobe_widths``), g' = T g and H' =
    T H T. The step s' is ``crlb.floored_newton_step`` of (H', g') with the
    Marquardt damping mu, as in the beamformer's Newton. mu starts at 0,
    becomes DAMPING_INIT on a rejected step, grows by DAMPING_FACTOR on each
    further rejection and shrinks by it on each accepted step. s' is scaled to
    at most 1 per axis, half a correlation lobe, so the iteration stays in the
    basin it starts in, and the step T s' is accepted iff the cost does not
    increase. A model with no step (flat, or NaN) ends the run unconverged. A
    step that would take the range out of (R(1 + 1e-6), d_max_m) is shortened
    to half the distance to the bound, so every iterate stays strictly inside
    (a start outside is first clamped onto the nearer bound); angles wrap
    modulo 2 pi.

    Converged means that at the returned iterate H is positive definite, each
    gradient entry lies within GRADIENT_RTOL times the natural gradient scale
    (``_gradient_scale``) or four noise standard deviations sigma^2 sqrt(J_ii)
    (J the FIM), and a step below (STEP_TOL_D_M, STEP_TOL_THETA_RAD) is in
    hand: the accepted step that reached the iterate, or the undamped Newton
    step from it, which is then not taken (near a minimum the cost can no
    longer rank so small a step). The iteration stops unconverged after
    REFINE_STEP_BUDGET trial steps or once mu exceeds 1e15; a step that rounds
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
    taken = {} if begun is None else begun.runs
    for index, start in enumerate(starts):
        run, candidate, final = taken.pop(start, (None, None, None))
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
    keeps the range below RANGE_CAP_FACTOR times the grid's d_max_m.
    Deterministic given (bank, grid); degenerate inputs produce
    converged=False estimates rather than raising.
    """
    d_max_m = RANGE_CAP_FACTOR * spec.d_max_m
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
