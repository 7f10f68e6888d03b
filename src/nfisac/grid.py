"""Coarse grid search of the ML cost surface over one matched-filter bank.

``GridSpec.for_array`` lays down an array's grid. ``coarse_grid_search``
ranks the grid-local minima of the negative-log-likelihood surface (the
cost of ``estimator``) with a branch-and-bound over range rows: every cell
of a row costs at least a multiple of the bank's range profile, the
OFDM-radar range profile (Sturm & Wiesbeck, Proc. IEEE 99(7), 2011), and
its docstring states that bound, the incumbent rule and what of the full
search's output is kept exactly. ``_cost_rows`` evaluates a tile of rows:
one delay collapse of the bank per row, then every angle as length-n_a
circular correlations on the polyphase lattice, in single precision from
the template phasors on, under a proven rounding margin per row
(``_row_bounds``). The search's memory is O(GRID_BLOCK_ROWS * n_theta)
float32 costs for a tile plus one kernel block's intermediates,
O(b (n_theta + n_a^2)) with b = max(1, KERNEL_BLOCK_CELLS // n_theta), kept
per angle lattice (``_workspace``), however many range rows the grid has.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .crlb import mean_product_scale
from .geometry import SPEED_OF_LIGHT, PolarPosition, UcaGeometry
from .signal import MatchedFilterBank, OfdmConfig

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
# intermediates, about 45 bytes a cell (float64 ranges and turns, the rest
# single precision) plus n_a x 2 n_a complex64 circulant entries a row, take
# 1.6 MB at 32,832 angles and 2.0 MB at 3,328, reused block after block,
# where whole-tile arrays of up to 17 MB each streamed from memory. In a
# sweep of 2^14 to 2^17 (three fresh runs each, 24 to 12 trials a run) no
# budget was faster on every workload: on small-array (9 rows a block here)
# 2^16 and 2^17 read 31-34 ms a trial against 38-42 ms, with 2.5 and 5 MiB
# more peak RSS, while large-aperture and wideband showed no order.
# ``_row_norms`` takes its range spectrum and ``_tile_minima`` its candidates
# in blocks of about as many cells.
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
# Relative slack on the range-profile cost bound b, far above the float64
# rounding of the range profile and of the refinement's costs (about n_a * eps
# relative). The grid's own costs are single precision, whose rounding scales
# with s |beta|^2 S rather than with b; the absolute margin E32 of
# ``_row_bounds`` covers them.
BOUND_SLACK = 1e-9
# Most the range profile ||c(d)||^2 may rise between two grid rows above the
# larger of its two row samples, as a factor: the sampled term kappa b~ of a
# row's interval bound (``_interval_bounds``), which the incumbent rule of
# ``coarse_grid_search`` compares with the best cost found. Basis (sampled,
# not proven): a single target's profile is a Dirichlet kernel, and sampled
# at 3 rows per delay lobe (the delay-limited rows of ``GridSpec.for_array``)
# it rises between rows by at most 1 / sinc^2(1/6) = 1.10 in the main lobe and
# at most sec^2(pi/6) = 4/3 on the sidelobes. No constant holds for every
# bank: a trigonometric polynomial can vanish at both ends of a gap and not
# between them. The interval bound's other term, b_B, is proven, and is the
# tighter one on the curvature-limited rows, whose gaps are far below a delay
# lobe (0.053 m against 2.44 m near d = 20 m at R = 5 m, M = 128); kappa
# stays for the delay-limited rows away from the target, where b_B is looser.
INCUMBENT_KAPPA = 2.0
# Grid nodes per correlation main lobe (``GridSpec.for_array``): in angle, and
# in range an integer, so the delay-limited rows form a K-point FFT's bins.
THETA_NODES_PER_LOBE = 4.0
RANGE_NODES_PER_LOBE = 3


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


def _collapse_rows(bank: MatchedFilterBank, d_values: np.ndarray) -> np.ndarray:
    """Delay-compensated bank c_k(d) per range row, shape (rows, n_a).

    c_k(d) = sum_m e^{+j 2 pi m df (Tcp + 2d/c)} Z[k, m]; a row comes out
    bit for bit the same whichever caller collapses it, with whichever
    other rows.
    """
    config = bank.config
    tau = 2.0 * d_values[:, None] / SPEED_OF_LIGHT
    m = np.arange(config.m_subcarriers)
    delay_comp = _phasor(TWO_PI * m[None, :] * config.delta_f_hz * (config.t_cp_s + tau))
    return _row_matmul(delay_comp, bank.aggregates.T)


def _row_norms(
    bank: MatchedFilterBank,
    d_values: np.ndarray,
    run: tuple[int, int, int] | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Range profile ||c(d)|| per row, an absolute bound on its error, and the bank's l1.

    l1 = ||(sum_m |Z[k, m]|)_k||_2 bounds ||c(d)|| at every range d, on
    the grid or off it, since |c_k(d)| <= sum_m |Z[k, m]|.

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
    but never breaks it. The row's error bound is gamma l1.
    """
    config = bank.config
    l1 = float(np.linalg.norm(np.sum(np.abs(bank.aggregates), axis=1)))
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
        collapsed = _collapse_rows(bank, d_values[direct])
        norms[direct] = np.sqrt(np.sum(collapsed.real**2 + collapsed.imag**2, axis=1))
    return norms, errors, l1


def _row_bounds(
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    d_values: np.ndarray,
    run: tuple[int, int, int] | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per range row a lower bound on the cost and a rounding margin, shape (rows,) each, and a floor.

    b(d) = -(lambda / 4 pi)^2 (||c(d)|| + E(d))^2 / (n_a s), from the range
    profile ||c(d)|| and its error bound E(d) (``_row_norms`` with the
    grid's uniform ``run``; 0 on rows collapsed directly), scaled by
    1 + BOUND_SLACK, lies below the cost of every point of row d. The
    margin E32(d) bounds how far a cost ``_cost_rows`` computes in single
    precision may lie from that cost, so every computed cost of the row is
    at least b(d) - E32(d). The floor is b at the profile's ceiling l1
    (``_row_norms``), below every cost at every range. See
    ``coarse_grid_search`` for the derivations.

    E32 is a forward error bound (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3) at the float32 unit roundoff
    u = 2^-24, gamma_n = n u / (1 - n u), on the kernel's steps after its
    float64 ranges and turns; float64 rounding, 2^-29 u relative, is
    absorbed in the spare u of each count below. Each template a_k and
    gain-weighted template g_k a_k enters its matmul within
    e_in = (pi + 4 sqrt 2 + 4) u of its value relative to |g_k a_k|: the
    phase's cast (pi u), float32 cos and sin (4 u each; measured 1.2 u on
    [-pi, pi]), and the casts and product of the gain and the circulant
    vectors (u each). A complex inner product of n_a terms errs by at most
    sqrt 2 gamma_{2 n_a} sum_k |x_k| |y_k| in any summation order (its real
    and imaginary parts are real ones of 2 n_a terms; Higham 2002, section
    3.1), so with eta = sqrt 2 gamma_{2 n_a} (1 + e_in) + e_in the computed
    beta and D lie within eta B and eta D of theirs. Here
    |beta| <= B = ||f||_1 / sqrt n_a, and
    |D| <= D(d) = (lambda / 4 pi) sqrt(S_max(d) / n_a) (||c(d)|| + E(d)) by
    Cauchy-Schwarz, with S = sum_k 1 / rho_k^2 at most its largest value
    over all angles, S_max(d) = n_a (1 + r) / ((d^2 - R^2) (1 - r)),
    r = (R / d)^n_a: the elements lie at angles 2 pi k / n_a, where
    sum_k 1 / rho_k^2 = n_a (d^(2 n_a) - R^(2 n_a)) / ((d^2 - R^2)
    (d^(2 n_a) - 2 (d R)^n_a cos(n_a theta) + R^(2 n_a))). The cost
    arithmetic then adds gamma_5 to the term s |beta|^2 S, gamma_2 to
    2 Re{beta D} and u to their difference, so that

        E32 = s S_max B^2 (gamma_5 (1 + eta)^2 + (2 + eta) eta
                           + u (1 + gamma_5) (1 + eta)^2)
              + 2 B D ((gamma_2 + u (1 + gamma_2)) (1 + eta)^2 + (2 + eta) eta),

    infinite on rows at d <= R, where S has no bound. Underflow is not
    covered: the costs of the sweeps lie many decades above float32's.
    """
    norms, errors, l1 = _row_norms(bank, d_values, run)
    n_a = geom.n_a
    scale = mean_product_scale(bank.config, geom)
    b_scale = (geom.wavelength_m / (4.0 * np.pi)) ** 2 / (n_a * scale)
    b_scale *= -(1.0 + BOUND_SLACK)
    profile = norms + errors

    u = float(np.finfo(np.float32).eps) / 2.0
    gamma_2, gamma_5, gamma_inner = (k * u / (1.0 - k * u) for k in (2, 5, 2 * n_a))
    e_in = (np.pi + 4.0 * np.sqrt(2.0) + 4.0) * u
    eta = np.sqrt(2.0) * gamma_inner * (1.0 + e_in) + e_in
    grown = (1.0 + eta) ** 2
    beam = float(np.sum(np.abs(bank.beamformer))) / np.sqrt(n_a)
    margins = np.full(d_values.size, np.inf)
    far = d_values > geom.radius_m
    d_far = d_values[far]
    ratio = (geom.radius_m / d_far) ** n_a
    s_max = n_a * (1.0 + ratio) / ((d_far**2 - geom.radius_m**2) * (1.0 - ratio))
    d_max = geom.wavelength_m / (4.0 * np.pi) * np.sqrt(s_max / n_a) * profile[far]
    margins[far] = scale * s_max * beam**2 * (
        gamma_5 * grown + (2.0 + eta) * eta + u * (1.0 + gamma_5) * grown
    ) + 2.0 * beam * d_max * ((gamma_2 + u * (1.0 + gamma_2)) * grown + (2.0 + eta) * eta)
    return b_scale * profile**2, margins, b_scale * l1**2


def _interval_bounds(
    bank: MatchedFilterBank,
    d_values: np.ndarray,
    row_bounds: np.ndarray,
    margins: np.ndarray,
    floor: float,
) -> np.ndarray:
    """A lower bound on the cost over each row's range interval (d_{i-1}, d_{i+1}), shape (rows,).

    max(min(kappa b~(i), kappa b'(i)), min(b_B(i), b'(i))), with
    b~(i) = min(b(i - 1), b(i), b(i + 1)) (one neighbour at a grid edge)
    from ``row_bounds`` b, b_B(i) = b~(i) + floor (h_i omega / 4)^2 from the
    ``floor`` of ``_row_bounds``, and b'(i) = b(i) - E32(i) the row's bound
    on the costs the kernel computes, E32 the row's ``margins``: h_i is the
    wider of the row's two gaps (the one gap at a grid edge) and
    omega = 4 pi (M - 1) df / c. kappa = INCUMBENT_KAPPA scales the range
    profile ||c||^2 >= 0, so only a negative b~ scales; a row without one
    (never in the program) gets the b_B term alone. b_B is proven and
    kappa b~ sampled; capping each term by the row's own b' makes a row it
    rules out cost more than the incumbent (kappa b~) or its kappa-th part
    in every computed cell too; see ``coarse_grid_search``, Incumbent.
    """
    lowest = row_bounds.copy()
    np.minimum(lowest[1:], row_bounds[:-1], out=lowest[1:])
    np.minimum(lowest[:-1], row_bounds[1:], out=lowest[:-1])
    gaps = np.diff(d_values)
    reach = np.zeros(d_values.size)
    reach[:-1] = gaps
    np.maximum(reach[1:], gaps, out=reach[1:])
    config = bank.config
    omega = 2.0 * TWO_PI * (config.m_subcarriers - 1) * config.delta_f_hz / SPEED_OF_LIGHT
    proven = lowest + floor * (reach * (omega / 4.0)) ** 2
    sampled = np.full(d_values.size, -np.inf)
    np.multiply(INCUMBENT_KAPPA, lowest, out=sampled, where=lowest < 0.0)
    computed = row_bounds - margins
    return np.maximum(
        np.minimum(sampled, INCUMBENT_KAPPA * computed), np.minimum(proven, computed)
    )


class _Workspace:
    """The intermediates of one ``_cost_rows`` block, for one angle lattice.

    ``_workspace`` keeps one per lattice, and every block of every tile of
    every search on it fills the same arrays through ``out=``, so the kernel
    allocates nothing per block. A block holds ``rows`` range rows:
    max(1, KERNEL_BLOCK_CELLS // n_theta), at most GRID_BLOCK_ROWS. The
    ranges and turns are float64, everything from the phasors on float32
    (see ``_cost_rows``). Also holds the lattice's size ``n_theta`` and
    cos u of its template angles, the same for every row. Raises ValueError
    unless n_theta is a multiple of n_a.
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
        self.turns = np.empty((rows, half, n_a))
        self.inv_sum = np.empty((rows, half))
        self.phase = np.empty((rows, half, n_a), dtype=np.float32)
        self.gain = np.empty((rows, half, n_a), dtype=np.float32)
        self.scaled_sum = np.empty((rows, half), dtype=np.float32)
        self.a_u = np.empty((rows, half, n_a), dtype=np.complex64)
        self.ga_u = np.empty((rows, half, n_a), dtype=np.complex64)
        self.data_circulants = np.empty((rows, n_a, 2 * n_a), dtype=np.complex64)
        self.beta = np.empty((rows, half, 2 * n_a), dtype=np.complex64)
        self.data_sum = np.empty((rows, half, 2 * n_a), dtype=np.complex64)
        self.cost = np.empty((rows, half, 2 * n_a), dtype=np.float32)
        self.cross = np.empty((rows, half, 2 * n_a), dtype=np.float32)


@functools.lru_cache(maxsize=4)
def _workspace(n_a: int, n_theta: int) -> _Workspace:
    """The one ``_Workspace`` of a lattice, built on first use and kept.

    A sweep searches one lattice per radius, so its searches reuse a few
    arrays instead of faulting fresh ones in on every trial. The arrays are
    shared: no two searches of one lattice may run at once in one process.
    """
    return _Workspace(n_a, n_theta)


def _cost_rows(
    bank: MatchedFilterBank,
    geom: UcaGeometry,
    d_values: np.ndarray,
    workspace: _Workspace,
) -> np.ndarray:
    """Cost at every (range row, lattice angle) pair, shape (rows, n_theta), in float32.

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
    to turns in float64 before its cosine and sine, since it runs up to
    2 pi R / lambda: x = (d - rho) / lambda, minus rint(x) (exact), times
    2 pi, within 3.6e-13 rad of a long-double phase from the same rho at
    R = 5 m, rows 10 to 30 m. The reduced phase, in [-pi, pi], is cast to
    float32.

    Precision. rho, the turns, S = sum_k 1 / rho_k^2 and the collapse
    (``_collapse_rows``) are float64; from the phase's cast on, cos and sin,
    the gain lambda / (4 pi rho), both circulant correlations (complex64
    matmuls) and the cost arithmetic are float32. numpy's SIMD float32 cos
    and sin took 0.56 ns a value against 12.2 ns in float64 on the 2-core
    x86-64 host of ``BENCH_trials.json``. A computed cost lies
    within its row's margin E32 (``_row_bounds``) of the cost in exact
    arithmetic from the same float64 rho, turns and collapse.
    """
    config = bank.config
    n_a = geom.n_a
    n_theta = workspace.n_theta
    q = n_theta // n_a
    half = q // 2 + 1
    rows = d_values.size
    radius = geom.radius_m
    collapsed = _collapse_rows(bank, d_values)
    beam = _circulants((bank.beamformer / np.sqrt(n_a)).astype(np.complex64))
    scale = mean_product_scale(config, geom)
    out = np.empty((rows, n_a, q), dtype=np.float32)
    for start in range(0, rows, workspace.rows):
        n = min(workspace.rows, rows - start)
        d = d_values[start : start + n, None, None]
        rho, turns, inv_sum = workspace.rho[:n], workspace.turns[:n], workspace.inv_sum[:n]
        phase, gain, scaled_sum = workspace.phase[:n], workspace.gain[:n], workspace.scaled_sum[:n]
        a_u, ga_u, beta = workspace.a_u[:n], workspace.ga_u[:n], workspace.beta[:n]
        data_sum, cost, cross = workspace.data_sum[:n], workspace.cost[:n], workspace.cross[:n]

        np.multiply(2.0 * d * radius, workspace.cosu, out=rho)
        np.subtract(d * d + radius**2, rho, out=rho)
        np.sqrt(rho, out=rho)
        np.square(rho, out=turns)
        np.divide(1.0, turns, out=turns)
        np.sum(turns, axis=2, out=inv_sum)
        np.multiply(inv_sum, scale, out=scaled_sum)
        np.divide(geom.wavelength_m / (4.0 * np.pi), rho, out=gain)
        # Steering templates e^{j 2 pi (d - rho) / lambda}, the phase reduced
        # to turns in float64 (rho's array holds the whole turns); the
        # 1 / sqrt(n_a) of the steering vector is folded into the circulants.
        np.subtract(d, rho, out=turns)
        turns /= geom.wavelength_m
        turns -= np.rint(turns, out=rho)
        np.multiply(turns, TWO_PI, out=phase)
        _phasor(phase, out=a_u)
        np.multiply(a_u, gain, out=ga_u)
        _row_matmul(a_u.reshape(n * half, n_a), beam, out=beta.reshape(n * half, 2 * n_a))
        circulants = _circulants(
            np.conj(collapsed[start : start + n]) / np.sqrt(n_a), out=workspace.data_circulants[:n]
        )
        np.matmul(ga_u, circulants, out=data_sum)

        # L = s |beta|^2 sum_k 1/r_k^2 - 2 Re{beta * data_sum}, in place.
        b_re, b_im = beta.real, beta.imag
        np.multiply(b_re, b_re, out=cost)
        cost += np.multiply(b_im, b_im, out=cross)
        cost *= scaled_sum[:, :, None]
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


def _tile_minima(
    start: int, costs: np.ndarray, threshold: float
) -> tuple[tuple, _TileEdges]:
    """Local minima of a tile's interior rows that cost at most ``threshold``, and its edge rows.

    A cell is a minimum iff it is no higher than any cell of its 3x3
    neighbourhood (angles wrap). Interior minima costing at most
    ``threshold`` come back as (values, range indices, angle indices), in
    row-major order, and are final. The candidates, cells at most the
    threshold and no higher than their two angular neighbours, are found
    KERNEL_BLOCK_CELLS cells' worth of rows at a time, and only they are
    compared with the rows above and below, so nothing tile-sized is
    allocated.
    """
    rows, n_theta = costs.shape
    per_block = max(1, KERNEL_BLOCK_CELLS // n_theta)
    empty = np.empty(0, dtype=np.intp)
    found = [(costs[:0, 0], empty, empty)]
    for first in range(1, rows - 1, per_block):
        block = costs[first : min(first + per_block, rows - 1)]
        keep = block <= threshold
        lower = np.empty_like(keep)
        np.less_equal(block[:, 1:], block[:, :-1], out=lower[:, 1:])
        np.less_equal(block[:, 0], block[:, -1], out=lower[:, 0])
        keep &= lower
        np.less_equal(block[:, :-1], block[:, 1:], out=lower[:, :-1])
        np.less_equal(block[:, -1], block[:, 0], out=lower[:, -1])
        keep &= lower
        # flatnonzero and divmod give nonzero's indices several times faster.
        d_idx, t_idx = np.divmod(np.flatnonzero(keep), n_theta)
        d_idx += first
        values = costs[d_idx, t_idx]
        for step in (-1, 0, 1):
            t_near = (t_idx + step) % n_theta
            keep = values <= costs[d_idx - 1, t_near]
            keep &= values <= costs[d_idx + 1, t_near]
            values, d_idx, t_idx = values[keep], d_idx[keep], t_idx[keep]
        found.append((values, d_idx, t_idx))
    last = rows - 1
    edge = np.array(sorted({0, last}))
    # Row-min of the first two and the last two rows (a row twice in a
    # tile of fewer than four).
    row_min = _row_min(costs[[0, min(1, last), max(last - 1, 0), last]])
    edge_neigh = np.minimum(row_min[[0, 2]], row_min[[1, 3]])[: edge.size]
    edges = _TileEdges(start, edge, costs[edge], edge_neigh, row_min[[0, 3]])
    values, d_idx, t_idx = (np.concatenate(part) for part in zip(*found))
    return (values, d_idx + start, t_idx), edges


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
    (``estimator.estimate`` hands it ``estimator._SeedRuns``). Otherwise W is
    infinite and the incumbent is G. The surface searched is the one
    ``_cost_rows`` computes, in single precision (see Bound), and its costs
    are what the basins carry. The entries that cost at most min(G*, W) /
    INCUMBENT_KAPPA (G* the surface minimum), or at most min(G*, W) where
    the proven interval term alone ruled out a row, are exactly the full
    search's on that surface, in its order, ahead of the rest, and the full
    search's best basin comes first whenever it costs at most W; see
    Exactness.

    Bound. A row's cost is L = s |beta|^2 S - 2 Re{beta D} with
    S = sum_k 1/rho_k^2 and D = sum_k (lambda / (4 pi rho_k)) a_k conj(c_k)
    / sqrt(n_a), |a_k| = 1, c the delay-collapsed bank row. Over any
    complex beta, L >= -|D|^2 / (s S); by Cauchy-Schwarz
    |D|^2 <= (lambda / 4 pi)^2 S ||c||^2 / n_a. So every angle of row d
    costs at least b(d) = -(lambda / 4 pi)^2 ||c(d)||^2 / (n_a s), a
    multiple of the noncoherent range profile (the OFDM-radar
    periodogram), whatever the ranges rho_k: so for the float64 rho the
    kernel computes too. Writing L = s S |beta - beta*|^2 - |D|^2 / (s S),
    the float64 rounding of L (the refinement's) is about n_a eps
    (s |beta|^2 S + 2 |beta| |D|): at most about 8 n_a eps |b| (1e-13 |b|
    at 64 elements) when |beta| <= 2 |beta*|, and far below L - b
    otherwise. ``_row_bounds`` therefore scales b by 1 + BOUND_SLACK (1e-9).

    Single precision. ``_cost_rows`` computes the costs the search ranks in
    float32 from the template phasors on (rho, the turns, S and c stay
    float64). That rounding scales with s |beta|^2 S, not with b, so no
    relative slack covers it: ``_row_bounds`` gives each row an absolute
    margin E32(d) from a forward error analysis (stated there), and every
    computed cost of row d lies within E32(d) of L, so at or above
    b'(d) = b(d) - E32(d). E32 is 2e-5 to 1e-4 of |b| at the benchmark
    workloads' targets and exceeds |b| only on the rows nearest the array;
    it is 200 to 2,500 times the largest error measured on seeded banks.
    Wherever a bound meets computed costs, it is b' (Search, Incumbent).

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

    Search. All rows are bounded in one ``_row_bounds`` call, and their
    interval bounds built from it in one ``_interval_bounds`` call. A tile is
    a run of consecutive rows evaluated in one ``_cost_rows`` call, at
    most GRID_BLOCK_ROWS of them; its interior rows' minima are final at
    once, since their neighbourhoods lie inside it. The first tile is the
    seed window, the SEED_HALF_ROWS rows on each side of the lowest-bound
    row and that row, clipped to the grid (split into tiles if wider than
    GRID_BLOCK_ROWS); its minima seed the running top list. Then the rows
    are streamed in order. A row i is skipped iff b'(i) exceeds T, the
    list's last entry once it holds N_BASINS minima (infinite before),
    or B(i) > min(G + E32(g), W), the incumbent rule: G is the list's first
    entry, g its row, W is set once from the seed window's basins (above),
    and the interval bound B(i) bounds the cost over the row's range
    interval on both sides and, by b'(i), every computed cost of the row
    (see Incumbent). Since b' <= 0, B <= 0 and the incumbent rule never
    fires while min(G, W) >= 0. Each
    run of rows that are not skipped is evaluated in tiles that never
    cross the seed window; T and G may tighten inside a tile, which is
    still evaluated whole.
    Nothing is evaluated across a run of skipped rows, so T and G hold
    still there, and its end is found in windows of doubling size: O(run)
    work, not O(rows left). A skipped row acts as the grid edge for its
    neighbours' halo. An evaluated tile's interior minima that cost at most
    T join the list at once (the list keeps the N_BASINS lowest and T only
    falls, so no other could stay in it), and its edge rows' minima once
    the rows around it are known.

    Incumbent. L >= b holds off the grid too: at every (d, theta),
    L >= -(lambda / 4 pi)^2 P(d) / (n_a s), P(d) = ||c(d)||^2. Row i's
    interval bound (``_interval_bounds``) is the larger of two lower bounds
    on the cost over its range interval (d_{i-1}, d_{i+1}), both built on
    b~(i) = min(b(i - 1), b(i), b(i + 1)) (one neighbour at a grid edge),
    each capped by the row's own b'(i), kappa b~ by kappa b'(i):
    - b_B(i), proven. P is a real trigonometric polynomial in d whose
      frequencies are multiples of 4 pi df / c, up to
      omega = 4 pi (M - 1) df / c, and 0 <= P <= P^ = l1^2
      (``_row_norms``). Bernstein's inequality (S. Bernstein, 1912;
      Rahman & Schmeisser, Analytic Theory of Polynomials, 2002, ch. 14),
      applied twice to P - P^ / 2, gives |P''| <= omega^2 P^ / 2, so on a
      gap of length h, P is at most the larger end sample plus
      h^2 omega^2 P^ / 16, the error bound of linear interpolation. With
      h_i the wider of the row's two gaps and the floor
      b^ = -(1 + BOUND_SLACK) (lambda / 4 pi)^2 P^ / (n_a s) of
      ``_row_bounds``, the cost on the interval is at least
      b_B(i) = b~(i) + b^ (h_i omega / 4)^2.
    - kappa b~(i), sampled: between rows, P stays within kappa times the
      larger end sample (the basis of kappa is stated at INCUMBENT_KAPPA).
    b_B is the tighter term on curvature-limited rows, which lie far closer
    together than the delay lobe, and near the target; kappa b~ on
    delay-limited rows away from it. The best grid basin is always a
    refinement start (it heads the output), ``estimator.estimate`` keeps the
    run that set W among its runs even if its start leaves the list, and
    Newton never accepts a step that raises the cost, so the estimate costs
    at most min(G + E32(g), W): G's node costs within E32(g) of G in exact
    arithmetic, and the refinement's float64 cost of it differs from that by
    float64 rounding alone, orders of magnitude below E32; W exactly, since
    it is a cost that run was evaluated at. So a skipped row's interval
    holds no point that beats the estimate. Proven: each skipped row's
    computed cells cost more than min(G, W) / kappa, and more than
    min(G, W) where the b_B term rules the row out, since they cost at
    least b'(i); the interval then holds no point below min(G + E32(g), W).
    Sampled, through kappa: the interval claim of a row that only the
    kappa term rules out.

    Exactness. The rules alone give this, whatever kappa's basis; every
    cost in it is one ``_cost_rows`` computes. Let V be the full surface's
    N_BASINS-th basin value (infinite if it has fewer minima), G* its
    minimum, l = min(G*, W) / kappa, or l = min(G*, W) if the b_B term
    ruled out a row that the kappa term did not, and m = min(V, l). A row
    the incumbent rule skips costs more than l in every cell: more than
    min(G, W) / kappa where its kappa term rules it out, since
    kappa b'(i) > min(G + E32(g), W) >= min(G, W), and more than min(G, W)
    where its b_B term does, since b'(i) does too; and G >= G*. So where
    the b_B term rules out a row that the kappa term does not, only the
    entries costing at most min(G*, W) are sure to be the full search's:
    its best basin when that costs at most W, and exact ties. The full
    search's best cell is never skipped while G* <= W: its row has
    b' <= G* <= min(G, W), so both capped terms are at most G* when
    G* < 0, and no rule fires at G* >= 0; its b' is at most G* <= T, since
    every list entry is a cell's cost. The list holds true minima, and next to a
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
    hold fewer than N_BASINS entries. Memory is the float32 costs of the
    tile being evaluated and the edge rows of the tiles awaiting their halo
    (the last streamed tile and the seed window's), plus the lattice's one
    ``_Workspace`` (``_workspace``) that every block of every tile fills,
    three bounds per row and the K-bin range profile of the bound pass.
    """
    d_values = spec.d_values()
    n_rows = d_values.size
    workspace = _workspace(geom.n_a, spec.n_theta)
    row_bounds, margins, floor = _row_bounds(bank, geom, d_values, spec.uniform_run)
    computed_bounds = row_bounds - margins
    interval_bounds = _interval_bounds(bank, d_values, row_bounds, margins, floor)
    theta_values = spec.theta_values()
    empty = np.empty(0, dtype=np.intp)
    best = (np.empty(0, dtype=np.float32), empty, empty)
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

    def threshold() -> float:
        """T: the list's last entry once it holds N_BASINS minima, else infinite."""
        values = best[0]
        return values[-1] if values.size == N_BASINS else np.inf

    def best_cell() -> float:
        """G plus its row's margin, above G's cost on the float64 surface; infinite before G."""
        values = best[0]
        return float(values[0]) + margins[best[1][0]] if values.size else np.inf

    def ruled_out(start: int, stop: int) -> np.ndarray:
        incumbent = min(best_cell(), refined)
        return (computed_bounds[start:stop] > threshold()) | (
            interval_bounds[start:stop] > incumbent
        )

    def evaluate(start: int, stop: int) -> _TileEdges:
        nonlocal best
        costs = _cost_rows(bank, geom, d_values[start:stop], workspace)
        interior, edges = _tile_minima(start, costs, threshold())
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
    if refine_seed is not None and best[0].size and np.any(interval_bounds > best_cell()):
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
