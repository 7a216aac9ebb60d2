"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see every line.
Desk-scale defaults: s = 1, grid [-8, 8] x 4096, a = s/50 unless a
criterion states otherwise.
"""

import numpy as np
import pytest

from wwm.grid import make_grid
from wwm.scheme import Channel, Scheme, builtin, haar_unitary, rebase
from wwm.simulate import MCConfig, default_bins, run_weak_experiment
from wwm.state import (
    apply_wwm,
    gaussian_twin_slits,
    momentum_density,
    narrow_twin_slits,
)
from wwm.transfer import (
    char_fn,
    classical_transfer,
    moments,
    phi_symmetric,
    support_metric,
    verify_wigner_identity,
)
from wwm.weakvalue import (
    conditional_cells,
    marginal_from_joint,
    pwv_joint,
    pwv_marginal,
    pwv_narrow_sign,
)
from conftest import POWERED_Z, S, most_negative_cell, random_complete_scheme


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:2d}: {status}  {detail}")
    return ok


@pytest.fixture(scope="module")
def builtins(sign, identity, kick_pair, sew):
    return {"identity": identity, "sign": sign, "kicks": kick_pair, "sew_flat": sew}


@pytest.fixture(scope="module")
def random_schemes():
    rng = np.random.default_rng(20260811)
    return [random_complete_scheme(rng) for _ in range(20)]


@pytest.fixture(scope="module")
def chi_set(builtins, random_schemes, state_a50):
    out = {}
    for name, sch in builtins.items():
        out[name] = char_fn(sch, state_a50)
    for k, sch in enumerate(random_schemes):
        out[f"random{k}"] = char_fn(sch, state_a50)
    return out


def test_criterion_01_sign_closed_form(grid, sign, state_a50):
    exact = pwv_marginal(sign, narrow_twin_slits(S, grid=grid))
    ref = pwv_narrow_sign(S, grid.ps)
    analytic_ok = exact.atoms == [(0.0, 0.5)] and np.array_equal(
        exact.density, ref.density
    )

    dist = pwv_marginal(sign, state_a50)
    loc, weight = dist.atoms[0]
    window = (np.abs(dist.ps) * S >= 0.1) & (np.abs(dist.ps) * S <= 10)
    rel = np.max(np.abs(dist.density[window] - ref.density[window])) / np.max(
        np.abs(ref.density[window])
    )
    grid_ok = loc == 0.0 and abs(weight - 0.5) <= 0.010 and rel <= 0.02
    ok = report(
        1,
        analytic_ok and grid_ok,
        f"narrow exact, grid rel Linf {rel:.2e}, atom {weight:.4f}",
    )
    assert ok


def test_criterion_02_chi_normalization(chi_set):
    worst = max(abs(chi.at0() - 1.0) for chi in chi_set.values())
    ok = report(2, worst <= 1e-9, f"max |chi(0) - 1| = {worst:.2e} over {len(chi_set)} schemes")
    assert ok


def test_criterion_03_schwartz_bound(chi_set):
    worst = max(float(np.max(np.abs(chi.values))) for chi in chi_set.values())
    ok = report(3, worst <= 1.0 + 1e-9, f"max |chi| = {worst:.12f}")
    assert ok


def test_criterion_04_half_bound(builtins, state_a50, narrow):
    zero_vis = ("sign", "kicks", "sew_flat")
    worst = 0.0
    for name in zero_vis:
        chi = char_fn(builtins[name], state_a50)
        k = int(np.argmin(np.abs(chi.qs - S)))
        worst = max(worst, abs(chi.values[k]))
    narrow_attained = phi_symmetric(builtins["sign"], narrow_twin_slits(S), S)
    ok = (worst <= 0.5 + 1e-6) and abs(narrow_attained - 0.5) <= 1e-6
    ok = report(
        4, ok, f"max |chi(s)| = {worst:.8f}, sign narrow attains {narrow_attained:.8f}"
    )
    assert ok


def test_criterion_05_support_exclusion(builtins, state_a50):
    masses = {}
    ok = True
    for name in ("sign", "kicks", "sew_flat"):
        dist = pwv_marginal(builtins[name], state_a50)
        third = support_metric(dist, np.pi / (3 * S))
        inv = support_metric(dist, 1.0 / S)
        masses[name] = (third, inv)
        ok = ok and third > 0.1 and inv > 0.05
    detail = "; ".join(f"{n}: {t:.3f}/{i:.3f}" for n, (t, i) in masses.items())
    assert report(5, ok, f"outside pi/(3s) and 1/s: {detail}")


def test_criterion_06_sew_zero_moments(grid, sew):
    st = gaussian_twin_slits(S, S / 20, grid)
    qs = (S / 128.0) * np.arange(-16, 17)
    rep = moments(char_fn(sew, st, qs=qs))
    scaled = np.abs(rep.values) * S ** np.arange(1, 5)
    initial = momentum_density(st)
    final = momentum_density(apply_wwm(sew, st))
    l1 = float(np.sum(np.abs(final - initial)) * grid.dp)
    ok = np.max(scaled) < 1e-6 and l1 > 0.1
    assert report(6, ok, f"max scaled moment {np.max(scaled):.2e}, pattern L1 {l1:.3f}")


def test_criterion_07_classical_agreement(kick_pair, state_a50, grid):
    dist = pwv_marginal(kick_pair, state_a50)
    classical = classical_transfer(kick_pair)
    k = np.pi / (2 * S)
    ok = len(dist.atoms) == 2
    for (loc, weight), target in zip(dist.atoms, (-k, k)):
        ok = ok and abs(loc - target) <= grid.dp and abs(weight - 0.5) <= 0.005
    ok = ok and abs(support_metric(dist, 0.0) - 1.0) <= 1e-6
    ok = ok and dist.atoms == classical.atoms
    assert report(7, ok, f"atoms {dist.atoms}, abs mass {support_metric(dist, 0.0):.9f}")


def _with_zero_channel(scheme):
    zero = Channel(lambda x: np.zeros_like(x, dtype=complex))
    return Scheme(scheme.channels + [zero], base=scheme.base)


def test_criterion_08_basis_invariance(sign, sew, state_a50):
    rng = np.random.default_rng(8)
    worst = 0.0
    for sch in (sign, sew):
        base = pwv_marginal(sch, state_a50).bin_masses()
        padded = _with_zero_channel(sch)
        base3 = pwv_marginal(padded, state_a50).bin_masses()
        for _ in range(5):
            mixed = rebase(sch, haar_unitary(2, rng))
            worst = max(
                worst,
                float(np.max(np.abs(pwv_marginal(mixed, state_a50).bin_masses() - base))),
            )
            mixed3 = rebase(padded, haar_unitary(3, rng))
            worst = max(
                worst,
                float(np.max(np.abs(pwv_marginal(mixed3, state_a50).bin_masses() - base3))),
            )
    assert report(8, worst < 1e-9, f"max Linf over 20 rebasings = {worst:.2e}")


def test_criterion_09_route_equivalence(builtins, grid):
    st = gaussian_twin_slits(S, S / 20, grid)
    worst = 0.0
    for name, sch in builtins.items():
        chi_bins = pwv_marginal(sch, st).bin_masses()
        joint_bins = marginal_from_joint(pwv_joint(sch, st))
        worst = max(worst, float(np.max(np.abs(chi_bins - joint_bins))))
    assert report(9, worst <= 1e-6, f"max route Linf = {worst:.2e}")


def test_criterion_10_wigner_identity(identity, sign):
    wgrid = make_grid(-4, 4, 1024)
    st = gaussian_twin_slits(S, S / 20, wgrid)
    kicked = builtin("kicks", kicks=[(0.5, np.pi / 2), (0.5, -np.pi / 2)])
    worst = max(
        verify_wigner_identity(sch, st) for sch in (identity, kicked, sign)
    )
    assert report(10, worst < 1e-6, f"max residual = {worst:.2e}")


def test_criterion_11_mc_convergence(grid, sign, state_a50):
    """MC cell means converge to the conditional table and resolve a
    negative cell.

    Convergence runs at a = s/50 on a 16x16 default_bins layout with 1e5
    shots per bin.  No statistic on that run can resolve negativity (its
    best cell has expected z ~ -0.42), so negativity runs at a = s/10 with
    1e6 shots per bin on a 3x4 layout, in the one cell that
    most_negative_cell picks from deterministic_cells before any shot.
    """
    edges = default_bins(S, 16)
    cfg = MCConfig(
        sigma=10.0, shots_per_bin=10 ** 5, p_i_edges=edges, p_f_edges=edges, seed=0
    )
    est = run_weak_experiment(sign, state_a50, cfg)
    oracle = conditional_cells(pwv_joint(sign, state_a50), edges, edges)
    meaningful = (np.abs(oracle) > 1e-3) & np.isfinite(est.means)
    z = np.abs(est.means - oracle) / est.std_errors
    agree = float(np.mean(z[meaningful] <= 3.0))

    state = gaussian_twin_slits(S, S / 10, grid)
    powered = MCConfig(
        sigma=10.0,
        shots_per_bin=10 ** 6,
        p_i_edges=np.array([-3 * np.pi, -3.0, 3.0, 3 * np.pi]),
        p_f_edges=np.array([-4 * np.pi, -6.68, 0.0, 6.68, 4 * np.pi]),
        seed=0,
    )
    cell, expected, z_expected = most_negative_cell(sign, state, powered)
    assert z_expected <= POWERED_Z, f"cell {cell}: expected z {z_expected:.2f}"
    neg = run_weak_experiment(sign, state, powered)
    mean, se = neg.means[cell], neg.std_errors[cell]
    negative = bool(mean + 3 * se < 0 and abs(mean - expected) <= 3 * se)
    ok = report(
        11,
        agree >= 0.95 and negative,
        f"within 3 SE: {agree:.1%}; cell {cell} expected z {z_expected:.2f}, "
        f"observed z {mean / se:.2f}, {abs(mean - expected) / se:.2f} SE "
        "from expected",
    )
    assert ok


def test_criterion_12_moment_decay(grid, sign):
    values = []
    qs = (S / 128.0) * np.arange(-16, 17)
    for a in (S / 10, S / 20):
        st = gaussian_twin_slits(S, a, grid)
        rep = moments(char_fn(sign, st, qs=qs))
        values.append(abs(rep.values[1]))
    ok = values[1] < values[0] and values[1] < 1e-2 * values[0]
    assert report(
        12, ok, f"<p^2> at a=s/10: {values[0]:.2e}, a=s/20: {values[1]:.2e}"
    )
