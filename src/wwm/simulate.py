"""Monte Carlo realization of the weak-measurement / post-selection protocol.

Per shot (initial momentum bin b): draw a standard normal S; record
r = <Pi_b> + sigma*S; disturb the state by the exact normalized update
psi -> N [1 + (Pi_b - <Pi_b>) S / (2 sigma)] psi; pick a which-way channel
with probability |O_xi psi'|^2; sample the final momentum p_f from that
channel's momentum density.  Every output depends on p_f only through its
bin, so the fast path never locates p_f on the grid: it bisects the
channel's cumulative distribution over the first grid index of each p_f
bin edge, which gives the bin the grid inversion would.  Cell means of r
over shots that landed in a p_f bin estimate the weak-valued conditional
probability mass.

The disturbed state always lives in span{psi, Pi_b psi}, so channel norms
and p_f distributions are quadratic forms in the two per-shot coefficients
with coefficients computable once per (channel, bin).  The vectorized
runner exploits that, and never forms the disturbed state.

Randomness: each p_i bin b draws from three counter-based Philox
streams, keyed (seed, 3 b + k): k = 0 gives the shots' S, k = 1 their
channel uniforms and k = 2 their p_f uniforms.  Shot j takes the j-th
draw of each stream, so a run with more shots extends one with fewer.
The fast path reads the three streams once, from their start, in chunks
of _SHOT_CHUNK shots, so its memory does not grow with the shot count
and any chunk size gives the same bits.  The bins run one after another
in the calling thread; since each has its own streams, no bit depends on
the order they run in.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import WWMError
from .grid import BIN_SPAN, EMPTY_BIN_MASS, bin_indices, fourier_values, inverse_fourier_values
from .scheme import require_complete


@dataclass
class MCConfig:
    sigma: float
    shots_per_bin: int
    p_i_edges: np.ndarray
    p_f_edges: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.p_i_edges = np.asarray(self.p_i_edges, dtype=float)
        self.p_f_edges = np.asarray(self.p_f_edges, dtype=float)
        if not (np.isfinite(self.sigma) and self.sigma >= 5):
            raise WWMError(
                "sigma must be a finite number of at least 5 for the weak-probe "
                f"model, got {self.sigma}"
            )
        if self.shots_per_bin < 1:
            raise WWMError("shots_per_bin must be positive")
        for edges in (self.p_i_edges, self.p_f_edges):
            if edges.size < 2 or np.any(np.diff(edges) <= 0):
                raise WWMError("bin edges must be strictly increasing")
        require_seed(self.seed)

    @property
    def n_i(self):
        return self.p_i_edges.size - 1

    @property
    def n_f(self):
        return self.p_f_edges.size - 1


def require_seed(seed):
    if not 0 <= seed < 2 ** 64:
        raise WWMError(f"seed must fit in 64 bits, got {seed}")


def default_bins(s, n_bins, span=None):
    """Uniform bin edges over [-span, span], default span BIN_SPAN / s."""
    if span is None:
        span = BIN_SPAN / s
    return np.linspace(-span, span, n_bins + 1)


@dataclass
class MCEstimate:
    means: np.ndarray  # (n_i, n_f), NaN where a cell got no shots
    std_errors: np.ndarray
    counts: np.ndarray
    overflow: np.ndarray  # shots per p_i bin that missed every p_f bin
    oracle: np.ndarray  # weak limit of means from the same tables, NaN: empty p_f bin
    config: MCConfig = field(repr=False)


class _ShotTables:
    """Per-(channel, bin) quadratic-form coefficients for the fast path,
    kept only as the reductions read: channel totals, cumulative masses
    just before the searched p_f edges, and the mass in each p_f bin.
    Each n-point mass row is reduced as soon as it exists, one channel
    at a time, so no (channels x n) array is held."""

    def __init__(self, scheme, state, cfg):
        state.require_grid("run_weak_experiment")
        require_complete(scheme, state)
        grid = state.grid
        self.grid = grid
        dp = grid.dp
        psit = fourier_values(grid, state.values)
        chan_vals = [ch.evaluate(grid.xs) for ch in scheme.channels]
        n_ch = len(chan_vals)
        nb, nc = cfg.n_i, cfg.n_f

        # A shot lands at or beyond p_f edge k when its channel's cumulative
        # mass just before the edge's first grid index is below its target.
        # Edges at index 0 are always passed; edges at index n never are
        # (the grid inversion tops out at n - 1).  Only the edges between
        # are searched, through the cumulative tables sampled there, padded
        # to 2^k - 1 columns with cu = +inf and cv = cw = 0: no shot passes
        # a pad column, so the bisection needs no range test.
        first = np.searchsorted(grid.ps, cfg.p_f_edges, side="left")
        self.edge_lo = int(np.sum(first == 0))
        self.edge_hi = int(np.sum(first < grid.n))
        before = first[self.edge_lo : self.edge_hi] - 1
        m = before.size
        self.width = (1 << m.bit_length()) - 1
        f_bins = bin_indices(cfg.p_f_edges, grid.ps)
        valid = f_bins >= 0

        def fold(row, summed):  # one channel's mass row -> its total and edge cumulatives
            summed += row  # the channels' mass per grid point, added in channel order
            np.cumsum(row, out=row)
            return row[-1], row[before]

        def cells(summed):  # p_f-bin masses of the channel-summed row
            return np.bincount(f_bins[valid], weights=summed[valid], minlength=nc)

        g = [fourier_values(grid, cv * state.values) for cv in chan_vals]
        self.na = np.empty(n_ch)
        self.cu_edges = np.full((n_ch, self.width), np.inf)
        summed = np.zeros(grid.n)
        for ch, g_ch in enumerate(g):
            self.na[ch], self.cu_edges[ch, :m] = fold(np.abs(g_ch) ** 2 * dp, summed)
        self.u_cells = cells(summed)

        self.expectations = np.empty(nb)
        self.nv, self.nw = np.empty((2, nb, n_ch))
        self.cv_edges, self.cw_edges = np.zeros((2, nb, n_ch, self.width))
        self.v_cells, self.w_cells = np.empty((2, nb, nc))
        i_bins = bin_indices(cfg.p_i_edges, grid.ps)
        for b in range(nb):
            mask = i_bins == b
            self.expectations[b] = np.sum(np.abs(psit[mask]) ** 2) * dp
            phi_pos = inverse_fourier_values(grid, mask * psit)
            v_summed, w_summed = np.zeros((2, grid.n))
            for ch, (g_ch, cv) in enumerate(zip(g, chan_vals)):
                h = fourier_values(grid, cv * phi_pos)
                self.nv[b, ch], self.cv_edges[b, ch, :m] = fold(
                    2.0 * np.real(np.conj(g_ch) * h) * dp, v_summed
                )
                self.nw[b, ch], self.cw_edges[b, ch, :m] = fold(np.abs(h) ** 2 * dp, w_summed)
                del h  # before the next channel's transform
            self.v_cells[b], self.w_cells[b] = cells(v_summed), cells(w_summed)

    def landing_bins(self, b, picked, a2, ab, b2, targets):
        """p_f bin of each shot: the last edge passed, by bisection.

        The cumulative distribution |alpha g + beta h|^2 is monotone, so the
        passed edges are a prefix.  Returns -1 below the first edge and
        n_f at or beyond the last, i.e. outside every p_f bin.
        """
        width = self.width
        cu, cv, cw = self.cu_edges.ravel(), self.cv_edges[b].ravel(), self.cw_edges[b].ravel()
        row = picked * width
        at = row.copy()  # flat index of the picked row's first edge not yet passed
        step = width + 1
        while step > 1:
            step >>= 1
            # Test edge at + step - 1; the lane moves past it when passed,
            # so `at` never overshoots the passed prefix nor leaves its row.
            col = at + (step - 1)
            vals = a2 * cu[col] + ab * cv[col] + b2 * cw[col]
            at += step * (vals < targets)
        return at - row + (self.edge_lo - 1)


# Shots per streamed chunk: bounds the fast path's working set, whatever
# shots_per_bin is (a chunk's arrays are 32 KiB).  Any value gives the same bits.
_SHOT_CHUNK = 2 ** 12


def run_weak_experiment(scheme, state, cfg):
    """Run the full protocol in the calling thread, bin by bin; vectorized
    over each chunk of a bin's shots."""
    tables = _ShotTables(scheme, state, cfg)
    nb, nc = cfg.n_i, cfg.n_f
    # p_f slot nc takes the shots outside every p_f bin: its counts are the
    # overflow, its sums are dropped.
    sum_r, sum_r2 = np.zeros((2, nb, nc + 1))
    counts = np.zeros((nb, nc + 1), dtype=np.int64)
    with np.errstate(over="ignore"):  # a huge sigma overflows r**2; the CLI refuses it
        for b in range(nb):
            _run_bin(tables, cfg, b, sum_r[b], sum_r2[b], counts[b])
    oracle = _expected_means(tables, cfg, None)
    return _estimate(sum_r[:, :nc], sum_r2[:, :nc], counts[:, :nc], counts[:, nc], oracle, cfg)


def _run_bin(tables, cfg, b, sum_r, sum_r2, counts):
    """Add bin b's shots, chunk by chunk, into its n_f + 1 p_f slots."""
    nc, shots = cfg.n_f, cfg.shots_per_bin
    exp_b, nv, nw = tables.expectations[b], tables.nv[b], tables.nw[b]
    normals, channel, pf = (
        np.random.Generator(np.random.Philox(key=np.array([cfg.seed, key], dtype=np.uint64)))
        for key in (3 * b, 3 * b + 1, 3 * b + 2)
    )
    for lo in range(0, shots, _SHOT_CHUNK):
        size = min(_SHOT_CHUNK, shots - lo)
        S, u_channel, u_pf = normals.standard_normal(size), channel.random(size), pf.random(size)
        lam = S / (2.0 * cfg.sigma)
        alpha = 1.0 - lam * exp_b
        a2, ab, b2 = alpha * alpha, alpha * lam, lam * lam
        probs = a2 * tables.na[:, None] + ab * nv[:, None] + b2 * nw[:, None]  # (channels, shots)
        cum = np.cumsum(probs, axis=0)
        targets = u_channel * cum[-1]
        picked = np.zeros(size, dtype=np.intp)  # the total is never below its target
        for row in cum[:-1]:
            picked += row < targets
        t2 = u_pf * probs.ravel()[picked * size + np.arange(size)]  # the picked rows
        c_bin = tables.landing_bins(b, picked, a2, ab, b2, t2)
        r = exp_b + cfg.sigma * S
        slot = np.where(c_bin < 0, nc, c_bin)  # c_bin <= nc
        counts += np.bincount(slot, minlength=nc + 1)
        # add.at sums shot by shot into the running totals, the order a
        # single bincount over all of the bin's shots would use.
        np.add.at(sum_r, slot, r)
        np.add.at(sum_r2, slot, r ** 2)


@np.errstate(over="ignore", invalid="ignore")  # r**2 past the float range reads inf or nan
def _estimate(sum_r, sum_r2, counts, overflow, oracle, cfg):
    """Cell means and standard errors from the accumulated shot sums."""
    means = np.full(counts.shape, np.nan)
    ses = np.full(counts.shape, np.nan)
    got = counts > 0
    means[got] = sum_r[got] / counts[got]
    several = counts > 1
    var = np.zeros(counts.shape)
    var[several] = (
        sum_r2[several] - counts[several] * means[several] ** 2
    ) / (counts[several] - 1)
    ses[several] = np.sqrt(np.maximum(var[several], 0.0) / counts[several])
    return MCEstimate(means, ses, counts, overflow, oracle, cfg)


_HERMITE_NODES = 61  # Gauss-Hermite nodes for the finite-sigma average


def deterministic_cells(scheme, state, cfg, sigma=None):
    """Expected value of the estimator without sampling noise.

    sigma=None gives the weak-probe limit; a finite sigma averages the
    exact normalized update over the probe noise by Gauss-Hermite
    quadrature, exposing the O(sigma^-2) estimator bias deterministically.
    NaN marks an empty p_f bin: weak-limit landing mass <= EMPTY_BIN_MASS.
    """
    return _expected_means(_ShotTables(scheme, state, cfg), cfg, sigma)


def _expected_means(tables, cfg, sigma):
    """deterministic_cells over tables already built (sigma None: weak limit)."""
    u_cells = tables.u_cells
    full = u_cells > EMPTY_BIN_MASS
    means = np.full((cfg.n_i, cfg.n_f), np.nan)
    if sigma is not None:
        t, wts = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
        s_nodes = np.sqrt(2.0) * t
        wts = wts / np.sqrt(np.pi)
        na = tables.na.sum()
    for b in range(cfg.n_i):
        v_cells, w_cells = tables.v_cells[b], tables.w_cells[b]
        exp_b = tables.expectations[b]
        if sigma is None:
            # <r 1_c> -> Re <psi| Pi_b O^dag Proj_c O |psi> = V_c / 2: the
            # sigma-independent pieces cancel exactly in the expansion.
            numerator = 0.5 * v_cells
            denominator = u_cells
        else:
            numerator, denominator = np.zeros(cfg.n_f), np.zeros(cfg.n_f)
            nv, nw = tables.nv[b].sum(), tables.nw[b].sum()
            for s_node, wt in zip(s_nodes, wts):
                lam = s_node / (2.0 * sigma)
                alpha = 1.0 - lam * exp_b
                a2, ab, b2 = alpha * alpha, alpha * lam, lam * lam
                cell_mass = a2 * u_cells + ab * v_cells + b2 * w_cells
                norm = a2 * na + ab * nv + b2 * nw
                prob = cell_mass / norm
                numerator += wt * (exp_b + sigma * s_node) * prob
                denominator += wt * prob
        means[b, full] = numerator[full] / denominator[full]
    return means
