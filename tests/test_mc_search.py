"""The streamed bin-edge MC search against the grid-bisection reference."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wwm import simulate
from wwm.config import build_grid, build_scheme, build_state, parse_config
from wwm.grid import make_grid
from wwm.simulate import MCConfig, _ShotTables, default_bins, run_weak_experiment
from wwm.state import SlitState, gaussian_twin_slits
from conftest import S, refuse_threads
from mc_reference import assert_same, grid_bisection_experiment

MIB = 2 ** 20
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    for seed in (0, 7, 2 ** 63 + 5, 2 ** 64 - 1):  # 2^64 - 1: the largest seed
        cfg = mc_config(s, seed, shots=3000)
        fast = run_weak_experiment(scheme, state, cfg)
        assert_same(fast, grid_bisection_experiment(scheme, state, cfg))
        assert fast.overflow.sum() > 0  # the outer edges are searched too


@pytest.mark.parametrize("chunk", [1, 7, 37, 300, 333, 1000, 4096])
def test_any_chunk_size_gives_the_same_bits(monkeypatch, schemes, state_a20, chunk):
    """On each scheme, chunks that divide the 1200 shots (1, 300), chunks
    that leave a short last one, and one chunk a bin, without a thread."""
    edges = default_bins(S, 8)
    cfg = MCConfig(sigma=10.0, shots_per_bin=1200, p_i_edges=edges[3:6], p_f_edges=edges, seed=9)
    monkeypatch.setattr(simulate, "_SHOT_CHUNK", chunk)
    refuse_threads(monkeypatch)
    for scheme in schemes:
        assert_same(
            run_weak_experiment(scheme, state_a20, cfg),
            grid_bisection_experiment(scheme, state_a20, cfg),
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


def test_three_channel_scheme(state_a20, three_channel):
    for seed in (0, 9, 21):
        cfg = mc_config(S, seed, shots=2000)
        fast = run_weak_experiment(three_channel, state_a20, cfg)
        assert_same(fast, grid_bisection_experiment(three_channel, state_a20, cfg))


def test_one_more_shot_extends_the_run():
    """Shot j takes the j-th draw of each of its bin's three streams, so 21
    shots a bin are the 20-shot run plus one shot in each p_i row: no count
    falls, and each row's counts and overflow gain one shot in all."""
    scheme, state, s = shipped("sign")
    short = run_weak_experiment(scheme, state, mc_config(s, seed=0, shots=20))
    longer = run_weak_experiment(scheme, state, mc_config(s, seed=0, shots=21))
    assert np.all(longer.counts >= short.counts)
    assert np.all(longer.overflow >= short.overflow)
    gained = longer.counts.sum(axis=1) + longer.overflow - short.counts.sum(axis=1) - short.overflow
    assert np.all(gained == 1)


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
