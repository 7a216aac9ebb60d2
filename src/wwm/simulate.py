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
runner exploits that; run_reference executes the same protocol state by
state on identical random draws and exists to cross-check the fast path.

Randomness: one counter-based Philox stream per (seed, bin), from which a
bin's shots consume a fixed layout (all S first, then the channel
uniforms, then the p_f uniforms).  The fast path streams that layout in
chunks of _SHOT_CHUNK shots, so its memory does not grow with the shot
count and any chunk size gives the same bits.  Each bin is one thread
task writing only its own rows, so no bit depends on the core count.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import WWMError
from .grid import (
    bin_indices,
    fourier_values,
    inverse_fourier_values,
    momentum_field,
    position_field,
)
from .parallel import map_threads
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


def default_bins(s, n_bins=16, span=None):
    """Uniform bin edges over [-span, span], default span 6 pi / s."""
    if span is None:
        span = 6.0 * np.pi / s
    return np.linspace(-span, span, n_bins + 1)


@dataclass
class MCEstimate:
    means: np.ndarray  # (n_i, n_f), NaN where a cell got no shots
    std_errors: np.ndarray
    counts: np.ndarray
    overflow: np.ndarray  # shots per p_i bin that missed every p_f bin
    channel_sums: np.ndarray  # (n_i, n_f, n_channels) accumulated r
    channel_counts: np.ndarray
    config: MCConfig = field(repr=False)


def back_action(psi, p_bin, S, sigma):
    """Exact normalized weak-measurement update of a state.

    p_bin is a (lo, hi) momentum interval; the projector keeps grid
    momenta lo <= p < hi.  The state change vanishes like |S|/sigma.
    """
    work = psi
    was_position = psi.space == "position"
    if was_position:
        work = momentum_field(psi.grid, fourier_values(psi.grid, psi.values))
    ps = work.grid.ps
    mask = (ps >= p_bin[0]) & (ps < p_bin[1])
    dp = work.grid.dp
    expectation = float(np.sum(np.abs(work.values[mask]) ** 2) * dp)
    lam = S / (2.0 * sigma)
    updated = work.values + lam * (mask * work.values - expectation * work.values)
    updated = updated / np.sqrt(np.sum(np.abs(updated) ** 2) * dp)
    if was_position:
        return position_field(psi.grid, inverse_fourier_values(psi.grid, updated))
    return momentum_field(psi.grid, updated)


class _ShotTables:
    """Per-(channel, bin) quadratic-form coefficients for the fast path."""

    def __init__(self, scheme, state, cfg):
        state.require_grid("run_weak_experiment")
        require_complete(scheme, state)
        grid = state.grid
        self.grid = grid
        self.cfg = cfg
        dp = grid.dp
        self.ps = grid.ps
        psit = fourier_values(grid, state.values)
        chan_vals = [ch.evaluate(grid.xs, state.s) for ch in scheme.channels]
        self.n_ch = len(chan_vals)
        g = np.stack(
            [fourier_values(grid, cv * state.values) for cv in chan_vals]
        )  # (n_ch, n)
        self.u = np.abs(g) ** 2 * dp
        cu = np.cumsum(self.u, axis=1)
        self.na = cu[:, -1]
        self.expectations = np.empty(cfg.n_i)
        self.v = np.empty((cfg.n_i, self.n_ch, grid.n))
        self.w = np.empty((cfg.n_i, self.n_ch, grid.n))
        i_bins = bin_indices(cfg.p_i_edges, self.ps)

        def bin_rows(b):  # writes only row b of expectations, v and w
            mask = i_bins == b
            self.expectations[b] = np.sum(np.abs(psit[mask]) ** 2) * dp
            phi_pos = inverse_fourier_values(grid, mask * psit)
            h = np.stack(
                [fourier_values(grid, cv * phi_pos) for cv in chan_vals]
            )
            self.v[b] = 2.0 * np.real(np.conj(g) * h) * dp
            self.w[b] = np.abs(h) ** 2 * dp

        map_threads(bin_rows, range(cfg.n_i))
        cv = np.cumsum(self.v, axis=2)
        cw = np.cumsum(self.w, axis=2)
        self.nv = cv[:, :, -1]
        self.nw = cw[:, :, -1]

        # A shot lands at or beyond p_f edge k when its channel's cumulative
        # mass just before the edge's first grid index is below its target.
        # Edges at index 0 are always passed; edges at index n never are
        # (the grid inversion tops out at n - 1).  Only the edges between
        # are searched, through the cumulative tables sampled there.
        first = np.searchsorted(self.ps, cfg.p_f_edges, side="left")
        self.edge_lo = int(np.sum(first == 0))
        self.edge_hi = int(np.sum(first < grid.n))
        before = first[self.edge_lo : self.edge_hi] - 1
        self.cu_edges = cu[:, before]  # (n_ch, searched edges)
        self.cv_edges = cv[:, :, before]  # (n_i, n_ch, searched edges)
        self.cw_edges = cw[:, :, before]

    def landing_bins(self, b, picked, a2, ab, b2, targets):
        """p_f bin of each shot: the last edge passed, by bisection.

        The cumulative distribution |alpha g + beta h|^2 is monotone, so the
        passed edges are a prefix.  Returns -1 below the first edge and
        n_f at or beyond the last, i.e. outside every p_f bin.
        """
        m = self.edge_hi - self.edge_lo
        cu, cv, cw = self.cu_edges.ravel(), self.cv_edges[b].ravel(), self.cw_edges[b].ravel()
        row = picked * m
        count = np.zeros(picked.shape, dtype=np.int64)  # searched edges passed
        step = 1 << m.bit_length()
        while step > 1:
            step >>= 1
            # Test edge count + step - 1; a lane moves only if it is in range
            # and passed, so the count never overshoots the passed prefix.
            col = count + (step - 1)
            inside = col < m
            at = row + np.minimum(col, m - 1)
            vals = a2 * cu[at] + ab * cv[at] + b2 * cw[at]
            count += step * (inside & (vals < targets))
        return count + (self.edge_lo - 1)


# Shots per streamed chunk: bounds the fast path's working set, whatever
# shots_per_bin is.  Any value gives the same bits.
_SHOT_CHUNK = 2 ** 14


def _philox(cfg, b):
    return np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, b], dtype=np.uint64))
    )


def _draws(cfg, b):
    """The bin's whole draw layout in one call: all S, channel, p_f uniforms."""
    gen = _philox(cfg, b)
    shots = cfg.shots_per_bin
    return gen.standard_normal(shots), gen.random(shots), gen.random(shots)


def _draw_chunks(cfg, b):
    """The layout of _draws, yielded in chunks of _SHOT_CHUNK shots.

    The ziggurat normals take a variable number of raw words, so the
    uniforms' offset is found by running the S stream through once; each
    uniform then takes exactly one word, which locates the p_f uniforms.
    """
    shots = cfg.shots_per_bin
    starts = range(0, shots, _SHOT_CHUNK)
    normals = _philox(cfg, b)
    for lo in starts:
        normals.standard_normal(min(_SHOT_CHUNK, shots - lo))
    channel, pf = _philox(cfg, b), _philox(cfg, b)
    channel.bit_generator.state = pf.bit_generator.state = normals.bit_generator.state
    pf.bit_generator.random_raw(shots, output=False)
    normals = _philox(cfg, b)
    for lo in starts:
        size = min(_SHOT_CHUNK, shots - lo)
        yield normals.standard_normal(size), channel.random(size), pf.random(size)


def run_weak_experiment(scheme, state, cfg):
    """Run the full protocol; vectorized over each chunk of a bin's shots."""
    tables = _ShotTables(scheme, state, cfg)
    n_ch = tables.n_ch
    nb, nc = cfg.n_i, cfg.n_f
    size = nc * n_ch
    sum_r = np.zeros((nb, nc, n_ch))
    sum_r2 = np.zeros((nb, nc))
    counts_ch = np.zeros((nb, nc, n_ch), dtype=np.int64)
    overflow = np.zeros(nb, dtype=np.int64)

    def run_bin(b):  # writes only row b of the sums, counts and overflow
        for S, u_channel, u_pf in _draw_chunks(cfg, b):
            lam = S / (2.0 * cfg.sigma)
            alpha = 1.0 - lam * tables.expectations[b]
            beta = lam
            a2, ab, b2 = alpha * alpha, alpha * beta, beta * beta
            probs = (
                a2[None, :] * tables.na[:, None]
                + ab[None, :] * tables.nv[b][:, None]
                + b2[None, :] * tables.nw[b][:, None]
            )  # (n_ch, shots)
            cum = np.cumsum(probs, axis=0)
            total = cum[-1]
            targets = u_channel * total
            picked = np.minimum((cum < targets[None, :]).sum(axis=0), n_ch - 1)
            t2 = u_pf * (
                a2 * tables.na[picked] + ab * tables.nv[b][picked] + b2 * tables.nw[b][picked]
            )
            c_bin = tables.landing_bins(b, picked, a2, ab, b2, t2)

            r = tables.expectations[b] + cfg.sigma * S
            ok = (c_bin >= 0) & (c_bin < nc)
            overflow[b] += int((~ok).sum())
            flat = c_bin[ok] * n_ch + picked[ok]
            counts_ch[b] += np.bincount(flat, minlength=size).reshape(nc, n_ch)
            # add.at sums shot by shot into the running totals, the order a
            # single bincount over all of the bin's shots would use.
            np.add.at(sum_r[b].reshape(size), flat, r[ok])
            np.add.at(sum_r2[b], c_bin[ok], r[ok] ** 2)

    map_threads(run_bin, range(nb))
    counts = counts_ch.sum(axis=2)
    means = np.full((nb, nc), np.nan)
    ses = np.full((nb, nc), np.nan)
    got = counts > 0
    means[got] = sum_r.sum(axis=2)[got] / counts[got]
    several = counts > 1
    var = np.zeros((nb, nc))
    var[several] = (
        sum_r2[several] - counts[several] * means[several] ** 2
    ) / (counts[several] - 1)
    ses[several] = np.sqrt(np.maximum(var[several], 0.0) / counts[several])
    return MCEstimate(
        means,
        ses,
        counts,
        overflow,
        sum_r,
        counts_ch,
        cfg,
    )


def run_reference(scheme, state, cfg):
    """Shot-by-shot protocol with explicit state updates; same draws as the
    fast path, so the two agree up to floating-point noise."""
    state.require_grid("run_reference")
    require_complete(scheme, state)
    grid = state.grid
    dp = grid.dp
    psit = fourier_values(grid, state.values)
    chan_vals = [ch.evaluate(grid.xs, state.s) for ch in scheme.channels]
    n_ch = len(chan_vals)
    nb, nc = cfg.n_i, cfg.n_f
    sum_r = np.zeros((nb, nc, n_ch))
    counts_ch = np.zeros((nb, nc, n_ch), dtype=np.int64)
    overflow = np.zeros(nb, dtype=np.int64)
    i_bins = bin_indices(cfg.p_i_edges, grid.ps)

    for b in range(nb):
        mask = i_bins == b
        expectation = float(np.sum(np.abs(psit[mask]) ** 2) * dp)
        S, u_channel, u_pf = _draws(cfg, b)
        for k in range(cfg.shots_per_bin):
            lam = S[k] / (2.0 * cfg.sigma)
            disturbed = psit + lam * (mask * psit - expectation * psit)
            pos = inverse_fourier_values(grid, disturbed)
            dens = np.stack(
                [np.abs(fourier_values(grid, cv * pos)) ** 2 * dp for cv in chan_vals]
            )
            channel_norms = dens.sum(axis=1)
            cum = np.cumsum(channel_norms)
            xi = min(int((cum < u_channel[k] * cum[-1]).sum()), n_ch - 1)
            cdf = np.cumsum(dens[xi])
            f_idx = int(np.searchsorted(cdf, u_pf[k] * cdf[-1], side="left"))
            r = expectation + cfg.sigma * S[k]
            c = int(bin_indices(cfg.p_f_edges, grid.ps[f_idx : f_idx + 1])[0])
            if c < 0:
                overflow[b] += 1
                continue
            sum_r[b, c, xi] += r
            counts_ch[b, c, xi] += 1

    counts = counts_ch.sum(axis=2)
    means = np.full((nb, nc), np.nan)
    got = counts > 0
    means[got] = sum_r.sum(axis=2)[got] / counts[got]
    return MCEstimate(
        means,
        np.full((nb, nc), np.nan),
        counts,
        overflow,
        sum_r,
        counts_ch,
        cfg,
    )


_HERMITE_NODES = 61  # Gauss-Hermite nodes for the finite-sigma average


def deterministic_cells(scheme, state, cfg, sigma=None):
    """Expected value of the estimator without sampling noise.

    sigma=None gives the weak-probe limit; a finite sigma averages the
    exact normalized update over the probe noise by Gauss-Hermite
    quadrature, exposing the O(sigma^-2) estimator bias deterministically.
    """
    tables = _ShotTables(scheme, state, cfg)
    nb, nc = cfg.n_i, cfg.n_f
    f_bins = bin_indices(cfg.p_f_edges, tables.ps)
    valid = f_bins >= 0

    def per_cell(arr):  # (n_ch, n) -> (nc,) column-aggregated over channels
        flat = arr[:, valid].sum(axis=0)
        return np.bincount(f_bins[valid], weights=flat, minlength=nc)

    u_cells = per_cell(tables.u)
    means = np.empty((nb, nc))
    for b in range(nb):
        v_cells = per_cell(tables.v[b])
        w_cells = per_cell(tables.w[b])
        exp_b = tables.expectations[b]
        if sigma is None:
            # <r 1_c> -> Re <psi| Pi_b O^dag Proj_c O |psi> = V_c / 2: the
            # sigma-independent pieces cancel exactly in the expansion.
            numerator = 0.5 * v_cells
            denominator = u_cells
        else:
            t, wts = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
            s_nodes = np.sqrt(2.0) * t
            wts = wts / np.sqrt(np.pi)
            numerator = np.zeros(nc)
            denominator = np.zeros(nc)
            na = tables.na.sum()
            nv = tables.nv[b].sum()
            nw = tables.nw[b].sum()
            for s_node, wt in zip(s_nodes, wts):
                lam = s_node / (2.0 * sigma)
                alpha = 1.0 - lam * exp_b
                a2, ab, b2 = alpha * alpha, alpha * lam, lam * lam
                cell_mass = a2 * u_cells + ab * v_cells + b2 * w_cells
                norm = a2 * na + ab * nv + b2 * nw
                prob = cell_mass / norm
                numerator += wt * (exp_b + sigma * s_node) * prob
                denominator += wt * prob
        with np.errstate(invalid="ignore", divide="ignore"):
            means[b] = numerator / denominator
    return means
