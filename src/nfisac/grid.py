"""Coarse grid search of the ML cost surface over one matched-filter bank.

``GridSpec.for_array`` lays down an array's grid. ``coarse_grid_search``
ranks the grid-local minima of the negative-log-likelihood surface (the
cost of ``estimator``) with a branch-and-bound over range rows: every cell
of a row costs at least a multiple of the bank's range profile, the
OFDM-radar range profile (Sturm & Wiesbeck, Proc. IEEE 99(7), 2011), and
its docstring states that bound, the incumbent rule and what of the full
search's output is kept exactly. ``_cost_rows`` evaluates a tile of rows:
one delay collapse of the bank per row, then every angle as length-n_a
circular correlations on the polyphase lattice. The search's memory is
O(GRID_BLOCK_ROWS * n_theta) for a tile's costs plus one kernel block's
intermediates, O(b (n_theta + n_a^2)) with b = max(1, KERNEL_BLOCK_CELLS
// n_theta), however many range rows the grid has.
"""

from __future__ import annotations

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
    (``estimator.estimate`` hands it ``estimator._SeedRuns``). Otherwise W is
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
    start (it heads the output), ``estimator.estimate`` keeps the run that set W
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
