from dataclasses import replace

import numpy as np
import pytest

from wwm.errors import WWMError
from wwm.grid import fourier_values, inverse_fourier_values, make_grid
from wwm.simulate import MCConfig, default_bins, deterministic_cells, run_weak_experiment
from wwm.state import gaussian_twin_slits
from wwm.weakvalue import conditional_cells, pwv_joint
from conftest import POWERED_Z, S, most_negative_cell
from mc_reference import assert_same, back_action, explicit_experiment


@pytest.fixture(scope="module")
def mc_grid():
    return make_grid(-8, 8, 2048)


@pytest.fixture(scope="module")
def mc_state(mc_grid):
    return gaussian_twin_slits(S, S / 20, mc_grid)


def small_cfg(seed=42, shots=400, n_bins=6, sigma=10.0):
    edges = default_bins(S, n_bins)
    return MCConfig(
        sigma=sigma, shots_per_bin=shots, p_i_edges=edges, p_f_edges=edges, seed=seed
    )


def test_config_validation():
    edges = default_bins(S, 4)
    for sigma in (2.0, np.nan, np.inf):
        with pytest.raises(WWMError):
            MCConfig(sigma=sigma, shots_per_bin=10, p_i_edges=edges, p_f_edges=edges)
    with pytest.raises(WWMError):
        MCConfig(sigma=10.0, shots_per_bin=0, p_i_edges=edges, p_f_edges=edges)
    with pytest.raises(WWMError):
        MCConfig(
            sigma=10.0, shots_per_bin=10, p_i_edges=edges[::-1], p_f_edges=edges
        )
    with pytest.raises(WWMError):
        MCConfig(
            sigma=10.0, shots_per_bin=10, p_i_edges=edges, p_f_edges=edges, seed=-1
        )


def test_back_action_cases(mc_state, mc_grid):
    psi = mc_state.values
    unchanged = back_action(mc_grid, psi, (0.0, 2.0), 0.0, 10.0)
    assert np.max(np.abs(unchanged - psi)) < 1e-12

    # eigenstate of the projector: only the normalization can change
    tilde = fourier_values(mc_grid, psi)
    inside = tilde * ((mc_grid.ps >= -5) & (mc_grid.ps < 5))
    inside = inside / np.sqrt(np.sum(np.abs(inside) ** 2) * mc_grid.dp)
    eigen = inverse_fourier_values(mc_grid, inside)
    kicked = back_action(mc_grid, eigen, (-5.0, 5.0), 1.7, 10.0)
    assert np.max(np.abs(kicked - eigen)) < 1e-10

    rng = np.random.default_rng(8)
    raw = rng.standard_normal(mc_grid.n) + 1j * rng.standard_normal(mc_grid.n)
    raw /= np.sqrt(np.sum(np.abs(raw) ** 2) * mc_grid.dx)
    out = back_action(mc_grid, raw, (0.0, 2.0), 1.0, 20.0)
    change = np.sqrt(np.sum(np.abs(out - raw) ** 2) * mc_grid.dx)
    assert change <= 0.05  # |S| / sigma bound


def test_fast_path_matches_reference(mc_state, sign, phase_ramp, three_channel):
    """The quadratic forms against explicit state updates: a real
    channel pair, a complex asymmetric channel and three channels, also at
    the largest seed."""
    for cfg in (small_cfg(), small_cfg(seed=2 ** 64 - 1, shots=100)):
        for scheme in (sign, phase_ramp, three_channel):
            fast = run_weak_experiment(scheme, mc_state, cfg)
            assert_same(fast, explicit_experiment(scheme, mc_state, cfg))


def test_seed_determinism_and_bin_order_independence(mc_state, sign):
    cfg = small_cfg(seed=3)
    a = run_weak_experiment(sign, mc_state, cfg)
    b = run_weak_experiment(sign, mc_state, cfg)
    assert np.array_equal(a.means, b.means, equal_nan=True)
    assert np.array_equal(a.std_errors, b.std_errors, equal_nan=True)
    other = run_weak_experiment(sign, mc_state, small_cfg(seed=4))
    assert not np.array_equal(a.means, other.means, equal_nan=True)

    edges = cfg.p_i_edges
    solo = MCConfig(
        sigma=cfg.sigma,
        shots_per_bin=cfg.shots_per_bin,
        p_i_edges=edges[2:4],
        p_f_edges=cfg.p_f_edges,
        seed=3,
    )
    est = run_weak_experiment(sign, mc_state, solo)
    assert est.counts.shape == (1, cfg.n_f)

    # per-bin streams, keyed on (seed, 3 bin + k) for the S, channel and p_f
    # draws: widening only the last p_i bin leaves every other row's bits
    # alone and moves the last row
    wide_edges = edges.copy()
    wide_edges[-1] += 2 * np.pi / S
    wide = run_weak_experiment(sign, mc_state, replace(cfg, p_i_edges=wide_edges))
    for name in ("means", "std_errors", "counts", "overflow", "oracle"):
        assert np.array_equal(getattr(a, name)[:-1], getattr(wide, name)[:-1], equal_nan=True), name
    for name in ("means", "oracle"):
        assert not np.array_equal(getattr(a, name)[-1], getattr(wide, name)[-1], equal_nan=True)


def test_counts_reconcile_with_shots(mc_state, sign):
    cfg = small_cfg(seed=14)
    est = run_weak_experiment(sign, mc_state, cfg)
    per_bin = est.counts.sum(axis=1) + est.overflow
    assert np.all(per_bin == cfg.shots_per_bin)


def test_identity_diagonal_cells(mc_grid, identity):
    state = gaussian_twin_slits(S, S / 20, mc_grid)
    cfg = small_cfg(seed=5, shots=4000, n_bins=8)
    est = run_weak_experiment(identity, state, cfg)
    # without a which-way step the conditional is the identity matrix
    for b in range(cfg.n_i):
        if est.counts[b, b] > 50:
            assert abs(est.means[b, b] - 1.0) <= 4 * est.std_errors[b, b]
    off = ~np.eye(cfg.n_i, dtype=bool) & (est.counts > 50)
    z = np.abs(est.means[off]) / est.std_errors[off]
    assert np.mean(z <= 3) > 0.9


def test_cell_means_against_oracle(mc_state, sign):
    cfg = small_cfg(seed=12, shots=20000, n_bins=8)
    est = run_weak_experiment(sign, mc_state, cfg)
    oracle = conditional_cells(
        pwv_joint(sign, mc_state), cfg.p_i_edges, cfg.p_f_edges
    )
    mask = np.abs(oracle) > 1e-3
    z = np.abs(est.means - oracle) / est.std_errors
    valid = z[mask & np.isfinite(z)]
    assert np.mean(valid <= 3) >= 0.95
    # negative-mean cells appear (weak-value signature)
    assert np.nanmin(est.means) < 0


def test_variance_scaling(mc_state, sign):
    # std errors scale like sigma / sqrt(count): 4x the shots halves them
    base = run_weak_experiment(sign, mc_state, small_cfg(seed=21, shots=2000))
    quad = run_weak_experiment(sign, mc_state, small_cfg(seed=22, shots=8000))
    both = (base.counts > 400) & (quad.counts > 400)
    ratio = base.std_errors[both] / quad.std_errors[both]
    assert np.allclose(ratio, 2.0, rtol=0.1)
    se = base.std_errors[both]
    predicted = base.config.sigma / np.sqrt(base.counts[both])
    assert np.allclose(se, predicted, rtol=0.1)


def test_bias_decays_like_sigma_squared(mc_state, sign):
    cfg = small_cfg(seed=0, shots=1)  # shots irrelevant: deterministic expectation
    target = deterministic_cells(sign, mc_state, cfg)
    biases = []
    for sigma in (5.0, 10.0, 20.0):
        cells = deterministic_cells(sign, mc_state, cfg, sigma=sigma)
        biases.append(np.nanmax(np.abs(cells - target)))
    assert biases[0] > biases[1] > biases[2]
    assert biases[0] / biases[1] == pytest.approx(4.0, rel=0.2)
    assert biases[1] / biases[2] == pytest.approx(4.0, rel=0.2)


def test_deterministic_cells_match_rebinned_conditional(mc_state, sign):
    cfg = small_cfg()
    cells = deterministic_cells(sign, mc_state, cfg)
    oracle = conditional_cells(
        pwv_joint(sign, mc_state), cfg.p_i_edges, cfg.p_f_edges
    )
    both = np.isfinite(cells) & np.isfinite(oracle)
    # both normalize by the landing probability of the p_f bin; what is
    # left is the table's own column-sum bias (1.85e-3 here)
    assert np.max(np.abs(cells[both] - oracle[both])) < 5e-3


def test_kick_oracle_is_the_expectation_of_the_cell_mean(mc_state, kick_pair):
    """A kick table is exact, so the oracle equals the estimator limit: the
    p_i rows outside the edges count towards the landing probability."""
    cfg = small_cfg()
    cells = deterministic_cells(kick_pair, mc_state, cfg)
    oracle = conditional_cells(pwv_joint(kick_pair, mc_state), cfg.p_i_edges, cfg.p_f_edges)
    assert np.array_equal(np.isfinite(cells), np.isfinite(oracle))
    both = np.isfinite(cells)
    assert np.max(np.abs(cells[both] - oracle[both])) <= 1e-12


def test_significantly_negative_cell_high_power(mc_grid, sign):
    """Powered negativity: the cell is picked from the deterministic table
    before the run (expected z -5.57 in cell [1, 3] at these settings; the
    seed-0 run observes -6.54), then the experiment is run once at a fixed
    seed."""
    state = gaussian_twin_slits(S, S / 10, mc_grid)
    p_i_edges = np.array([-3 * np.pi, -3.0, 3.0, 3 * np.pi])
    p_f_edges = np.array([-4 * np.pi, -6.68, 0.0, 6.68, 4 * np.pi])
    cfg = MCConfig(
        sigma=10.0,
        shots_per_bin=10 ** 6,
        p_i_edges=p_i_edges,
        p_f_edges=p_f_edges,
        seed=0,
    )
    cell, _, z_expected = most_negative_cell(sign, state, cfg)
    assert z_expected <= POWERED_Z
    est = run_weak_experiment(sign, state, cfg)
    oracle = conditional_cells(pwv_joint(sign, state), p_i_edges, p_f_edges)
    assert oracle[cell] < -0.1  # central lobe, outer window
    significant = est.means + 3 * est.std_errors < 0
    assert significant[cell]
