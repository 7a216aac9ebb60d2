"""The streamed bin-edge MC search against the grid-bisection reference."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wwm import simulate
from wwm.config import build_grid, build_scheme, build_state, parse_config
from wwm.grid import bin_indices, fourier_values, inverse_fourier_values, make_grid
from wwm.simulate import (
    MCConfig,
    MCEstimate,
    _ShotTables,
    _draws,
    default_bins,
    run_weak_experiment,
)
from wwm.state import SlitState, gaussian_twin_slits
from conftest import S, random_complete_scheme

MIB = 2 ** 20
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIELDS = ("counts", "channel_sums", "channel_counts", "overflow", "means", "std_errors")


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
    """Reference: each shot's p_f grid index by bisection over all n grid
    points of its channel's cumulative distribution, on the draws of one
    unchunked call, then binned."""
    tables = _ShotTables(scheme, state, cfg)
    n = tables.grid.n
    n_ch = tables.n_ch
    nb, nc = cfg.n_i, cfg.n_f
    cu, cv_all, cw_all = full_cumulative_tables(scheme, state, cfg)
    sum_r = np.zeros((nb, nc, n_ch))
    sum_r2 = np.zeros((nb, nc))
    counts_ch = np.zeros((nb, nc, n_ch), dtype=np.int64)
    overflow = np.zeros(nb, dtype=np.int64)

    for b in range(nb):
        S_, u_channel, u_pf = _draws(cfg, b)
        lam = S_ / (2.0 * cfg.sigma)
        alpha = 1.0 - lam * tables.expectations[b]
        beta = lam
        a2, ab, b2 = alpha * alpha, alpha * beta, beta * beta
        probs = (
            a2[None, :] * tables.na[:, None]
            + ab[None, :] * tables.nv[b][:, None]
            + b2[None, :] * tables.nw[b][:, None]
        )
        cum = np.cumsum(probs, axis=0)
        targets = u_channel * cum[-1]
        picked = np.minimum((cum < targets[None, :]).sum(axis=0), n_ch - 1)

        cv, cw = cv_all[b], cw_all[b]
        t2 = u_pf * (
            a2 * tables.na[picked] + ab * tables.nv[b][picked] + b2 * tables.nw[b][picked]
        )
        lo = np.full(S_.shape, -1, dtype=np.int64)
        hi = np.full(S_.shape, n - 1, dtype=np.int64)
        while int((hi - lo).max()) > 1:
            mid = (lo + hi) // 2
            vals = a2 * cu[picked, mid] + ab * cv[picked, mid] + b2 * cw[picked, mid]
            ge = vals >= t2
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)

        r = tables.expectations[b] + cfg.sigma * S_
        c_bin = bin_indices(cfg.p_f_edges, tables.grid.ps[hi])
        ok = c_bin >= 0
        overflow[b] = int((~ok).sum())
        flat = c_bin[ok] * n_ch + picked[ok]
        size = nc * n_ch
        counts_ch[b] += np.bincount(flat, minlength=size).reshape(nc, n_ch)
        sum_r[b] += np.bincount(flat, weights=r[ok], minlength=size).reshape(nc, n_ch)
        sum_r2[b] += np.bincount(c_bin[ok], weights=r[ok] ** 2, minlength=nc)

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
    oracle = simulate._expected_means(tables, cfg, None)
    return MCEstimate(means, ses, counts, overflow, sum_r, counts_ch, oracle, cfg)


def assert_same(fast, ref):
    for name in FIELDS:
        assert np.array_equal(getattr(fast, name), getattr(ref, name), equal_nan=True), name


def shipped(name, n=None):
    """(scheme, state, s) of a shipped config, optionally at another n."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    if n is not None:
        text = text.replace("n = 4096", f"n = {n}")
    cfg = parse_config(text)
    grid = build_grid(cfg)
    return build_scheme(cfg), build_state(cfg, grid), cfg.s


def mc_config(s, seed, shots, n_bins=16, p_f_edges=None):
    edges = default_bins(s, n_bins)
    return MCConfig(
        sigma=10.0,
        shots_per_bin=shots,
        p_i_edges=edges,
        p_f_edges=edges if p_f_edges is None else p_f_edges,
        seed=seed,
    )


@pytest.mark.parametrize(
    "name,n",
    [("sign", 16384), ("kick_pair", None), ("phase_ramp", None), ("sew_flat", None)],
)
def test_edge_search_equals_grid_bisection(name, n):
    scheme, state, s = shipped(name, n)
    for seed in (0, 7, 2 ** 63 + 5):
        cfg = mc_config(s, seed, shots=3000)
        fast = run_weak_experiment(scheme, state, cfg)
        assert_same(fast, grid_bisection_experiment(scheme, state, cfg))
        assert fast.overflow.sum() > 0  # the outer edges are searched too


@pytest.mark.parametrize("chunk", [1, 7, 37, 300, 1000])
def test_any_chunk_size_gives_the_same_bits(monkeypatch, chunk):
    scheme, state, s = shipped("sign")
    cfg = mc_config(s, seed=3, shots=300, n_bins=6)
    monkeypatch.setattr(simulate, "_SHOT_CHUNK", chunk)
    assert_same(
        run_weak_experiment(scheme, state, cfg),
        grid_bisection_experiment(scheme, state, cfg),
    )


def test_edges_at_grid_index_zero_and_n(sign):
    """One-sample slits on a 64-point grid have a flat momentum density, so
    shots reach both grid ends.  The p_f edges sit below the grid (first
    index 0), on its first and last samples (0 and n - 1), beyond it (n),
    and twice inside one grid step (an empty bin)."""
    grid = make_grid(-8, 8, 64)
    values = np.zeros(grid.n, dtype=complex)
    values[np.isin(grid.xs, (-S / 2, S / 2))] = grid.dx ** -0.5 / np.sqrt(2)
    state = SlitState("gaussian", S, (2 ** -0.5, 2 ** -0.5), grid, values)
    ps, dp = grid.ps, grid.dp
    p_f_edges = np.array(
        [ps[0] - 1, ps[0], ps[5] + 0.25 * dp, ps[5] + 0.5 * dp, 0.0, ps[-1], ps[-1] + 1]
    )
    first = np.searchsorted(ps, p_f_edges, side="left")
    assert first[0] == first[1] == 0 and first[-2] == grid.n - 1 and first[-1] == grid.n
    for seed in (0, 1, 2):
        cfg = mc_config(S, seed, shots=2000, n_bins=4, p_f_edges=p_f_edges)
        fast = run_weak_experiment(sign, state, cfg)
        assert_same(fast, grid_bisection_experiment(sign, state, cfg))
        assert np.all(fast.counts[:, [0, 2]] == 0)  # no grid momentum inside
        assert np.all(fast.counts[:, [1, 3, 4, 5]] > 0)  # bin 5: grid index n - 1
        assert np.all(fast.overflow == 0)


def test_three_channel_scheme(state_a20):
    scheme = random_complete_scheme(np.random.default_rng(17), n_channels=3)
    for seed in (0, 9, 21):
        cfg = mc_config(S, seed, shots=2000)
        fast = run_weak_experiment(scheme, state_a20, cfg)
        assert fast.channel_counts.shape[2] == 3
        assert_same(fast, grid_bisection_experiment(scheme, state_a20, cfg))


def _mc_peak(scheme, state, shots):
    edges = default_bins(S, 16)
    cfg = MCConfig(
        sigma=10.0,
        shots_per_bin=shots,
        p_i_edges=edges[8:10],
        p_f_edges=edges,
        seed=0,
    )
    tracemalloc.start()
    try:
        run_weak_experiment(scheme, state, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_does_not_grow_with_shots(sign, grid_small):
    """1e6 shots per bin peak within a few MiB of 1e4 (unchunked, the peak
    grew linearly: 37 MiB at 1e5 shots per bin)."""
    state = gaussian_twin_slits(S, S / 20, grid_small)
    small = _mc_peak(sign, state, 10 ** 4)
    large = _mc_peak(sign, state, 10 ** 6)
    assert large <= small + 4 * MIB


def test_shot_tables_hold_no_per_momentum_rows():
    """At n = 16384 with 16 p_i bins the (bins x channels x n) coefficient
    arrays alone are 17 MiB.  The tables keep only their per-bin
    reductions, under a quarter of one n-point complex row (64 KiB;
    31 KiB measured).  The run builds its rows one channel at a time
    and streams its shots in fixed chunks, so its peak does not follow
    the shot count: 3.2 MiB at both 1e4 and 1e5 shots per bin (numpy 2.4),
    where rows built on two threads with 2^14-shot chunks on each peaked
    at 4.9 and 6.7 MiB.  The 4 MiB bound leaves 25% over the measured
    peak; ten times the shots may add 0.25 MiB."""
    scheme, state, s = shipped("sign", 16384)
    # Lazy imports (numpy.random) and the grid's caches, before the count
    run_weak_experiment(scheme, state, mc_config(s, seed=0, shots=1))
    peaks = []
    tracemalloc.start()
    try:
        tables = _ShotTables(scheme, state, mc_config(s, seed=0, shots=1))
        retained = tracemalloc.get_traced_memory()[0]
        del tables
        for shots in (10 ** 4, 10 ** 5):
            tracemalloc.reset_peak()
            run_weak_experiment(scheme, state, mc_config(s, seed=0, shots=shots))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert retained < MIB / 16
    assert peaks[0] < 4 * MIB
    assert peaks[1] < peaks[0] + MIB / 4
