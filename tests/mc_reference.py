"""The two reference MCs that wwm.simulate's fast path is checked against.

Both draw each p_i bin's shots in one unchunked call per stream: the S,
the channel uniforms and the p_f uniforms each come from their own
Philox stream, keyed (seed, 3 bin), (seed, 3 bin + 1) and (seed, 3 bin + 2).
They differ only in how a shot lands:
- explicit_experiment updates the state shot by shot (back_action) and
  samples the channel and p_f from the updated state's densities;
- grid_bisection_experiment samples them from the quadratic forms in the
  two per-shot coefficients, bisecting over all n grid points.
Both then tally the shots and estimate the cells with the code below,
which shares nothing with the fast path's.
"""

import numpy as np

from wwm.grid import bin_indices, fourier_values, inverse_fourier_values
from wwm.simulate import MCEstimate, deterministic_cells

FIELDS = ("means", "std_errors", "counts", "overflow", "oracle")


def assert_same(fast, ref):
    for name in FIELDS:
        assert np.array_equal(getattr(fast, name), getattr(ref, name), equal_nan=True), name


def draws(cfg, b):
    """Bin b's S, channel uniforms and p_f uniforms, each from its own stream."""
    def stream(k):
        key = np.array([cfg.seed, 3 * b + k], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    shots = cfg.shots_per_bin
    return stream(0).standard_normal(shots), stream(1).random(shots), stream(2).random(shots)


def run(scheme, state, cfg, land):
    """The protocol, with land(b, <Pi_b>, S, u_channel, u_pf) giving the
    p_f grid index of each of bin b's shots."""
    grid = state.grid
    psit = fourier_values(grid, state.values)
    i_bins = bin_indices(cfg.p_i_edges, grid.ps)
    nb, nc = cfg.n_i, cfg.n_f
    sum_r, sum_r2 = np.zeros((2, nb, nc))
    counts, overflow = np.zeros((nb, nc), dtype=np.int64), np.zeros(nb, dtype=np.int64)
    for b in range(nb):
        expectation = np.sum(np.abs(psit[i_bins == b]) ** 2) * grid.dp
        S, u_channel, u_pf = draws(cfg, b)
        f_idx = land(b, expectation, S, u_channel, u_pf)
        c = bin_indices(cfg.p_f_edges, grid.ps[f_idx])
        ok = c >= 0
        r = (expectation + cfg.sigma * S)[ok]
        overflow[b] = np.count_nonzero(~ok)
        counts[b] = np.bincount(c[ok], minlength=nc)
        sum_r[b] = np.bincount(c[ok], weights=r, minlength=nc)
        sum_r2[b] = np.bincount(c[ok], weights=r ** 2, minlength=nc)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(counts > 0, sum_r / counts, np.nan)
        var = (sum_r2 - counts * means ** 2) / (counts - 1)
        ses = np.where(counts > 1, np.sqrt(np.maximum(var, 0.0) / counts), np.nan)
    oracle = deterministic_cells(scheme, state, cfg)
    return MCEstimate(means, ses, counts, overflow, oracle, cfg)


def back_action(grid, psi, p_bin, S, sigma):
    """Exact normalized weak-measurement update of position samples psi.

    p_bin is a (lo, hi) momentum interval; the projector keeps grid
    momenta lo <= p < hi.  The state change vanishes like |S|/sigma.
    """
    tilde = fourier_values(grid, psi)
    mask = bin_indices(p_bin, grid.ps) == 0
    expectation = float(np.sum(np.abs(tilde[mask]) ** 2) * grid.dp)
    lam = S / (2.0 * sigma)
    updated = tilde + lam * (mask * tilde - expectation * tilde)
    updated = updated / np.sqrt(np.sum(np.abs(updated) ** 2) * grid.dp)
    return inverse_fourier_values(grid, updated)


def explicit_experiment(scheme, state, cfg):
    """Shot by shot, on the explicitly updated state."""
    grid = state.grid
    chan_vals = [ch.evaluate(grid.xs) for ch in scheme.channels]

    def land(b, expectation, S, u_channel, u_pf):
        f_idx = np.empty(S.size, dtype=np.intp)
        for k in range(S.size):
            pos = back_action(grid, state.values, cfg.p_i_edges[b : b + 2], S[k], cfg.sigma)
            dens = np.stack(
                [np.abs(fourier_values(grid, cv * pos)) ** 2 * grid.dp for cv in chan_vals]
            )
            cum = np.cumsum(dens.sum(axis=1))
            xi = min(np.count_nonzero(cum < u_channel[k] * cum[-1]), len(chan_vals) - 1)
            cdf = np.cumsum(dens[xi])
            f_idx[k] = np.searchsorted(cdf, u_pf[k] * cdf[-1], side="left")
        return f_idx

    return run(scheme, state, cfg, land)


def full_cumulative_tables(scheme, state, cfg):
    """The per-momentum cumulative quadratic-form coefficients over all n
    grid points: cu (n_ch, n), cv and cw (n_i, n_ch, n)."""
    grid = state.grid
    dp = grid.dp
    psit = fourier_values(grid, state.values)
    chan_vals = [ch.evaluate(grid.xs) for ch in scheme.channels]
    g = np.stack([fourier_values(grid, cv * state.values) for cv in chan_vals])
    i_bins = bin_indices(cfg.p_i_edges, grid.ps)
    v = np.empty((cfg.n_i, len(chan_vals), grid.n))
    w = np.empty_like(v)
    for b in range(cfg.n_i):
        phi_pos = inverse_fourier_values(grid, (i_bins == b) * psit)
        h = np.stack([fourier_values(grid, cv * phi_pos) for cv in chan_vals])
        v[b] = 2.0 * np.real(np.conj(g) * h) * dp
        w[b] = np.abs(h) ** 2 * dp
    u = np.abs(g) ** 2 * dp
    return np.cumsum(u, axis=1), np.cumsum(v, axis=2), np.cumsum(w, axis=2)


def grid_bisection_experiment(scheme, state, cfg):
    """Each shot's channel from the quadratic forms' totals, and its p_f
    grid index by bisection over all n grid points of that channel's
    cumulative distribution."""
    cu, cv_all, cw_all = full_cumulative_tables(scheme, state, cfg)
    n_ch, n = cu.shape
    na = cu[:, -1]

    def land(b, expectation, S, u_channel, u_pf):
        cv, cw = cv_all[b], cw_all[b]
        lam = S / (2.0 * cfg.sigma)
        alpha = 1.0 - lam * expectation
        a2, ab, b2 = alpha * alpha, alpha * lam, lam * lam
        probs = a2 * na[:, None] + ab * cv[:, -1, None] + b2 * cw[:, -1, None]
        cum = np.cumsum(probs, axis=0)
        picked = np.minimum((cum < u_channel * cum[-1]).sum(axis=0), n_ch - 1)
        t2 = u_pf * probs[picked, np.arange(S.size)]
        lo, hi = np.full(S.size, -1), np.full(S.size, n - 1)
        while np.any(hi - lo > 1):
            mid = (lo + hi) // 2
            ge = a2 * cu[picked, mid] + ab * cv[picked, mid] + b2 * cw[picked, mid] >= t2
            hi, lo = np.where(ge, mid, hi), np.where(ge, lo, mid)
        return hi

    return run(scheme, state, cfg, land)
