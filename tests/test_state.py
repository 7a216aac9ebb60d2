import numpy as np
import pytest

from wwm.errors import CompletenessError, StateError
from wwm.grid import make_grid
from wwm.scheme import builtin, haar_unitary, parse_scheme, rebase, visibility
from wwm.state import (
    apply_wwm,
    gaussian_twin_slits,
    momentum_density,
    narrow_twin_slits,
)
from conftest import S


def fringe_visibility(grid, density, s, a):
    """Fringe contrast of a momentum pattern, windowed to |p| <= 3 pi / s.

    The single-slit envelope exp(-a^2 p^2) is divided out first so that
    envelope decay across the window does not masquerade as fringes.
    """
    ps = grid.ps
    window = np.abs(ps) <= 3 * np.pi / s
    ratio = density[window] / np.exp(-(a * ps[window]) ** 2)
    hi, lo = float(ratio.max()), float(ratio.min())
    if hi + lo == 0:
        return 0.0
    return (hi - lo) / (hi + lo)


def test_gaussian_norm_and_analytic_momentum_density(grid, state_a50):
    a = S / 50
    assert np.sum(np.abs(state_a50.values) ** 2) * grid.dx == pytest.approx(1.0, abs=1e-10)
    dens = momentum_density(state_a50)
    # independent oracle: |psi~|^2 = (a/sqrt(pi)) exp(-a^2 p^2) 2 cos^2(p s / 2)
    ref = (a / np.sqrt(np.pi)) * np.exp(-(a * grid.ps) ** 2) * 2 * np.cos(grid.ps * S / 2) ** 2
    assert np.max(np.abs(dens - ref)) < 1e-8
    assert np.sum(dens) * grid.dp == pytest.approx(1.0, abs=1e-8)


def test_single_slit_has_no_fringes(grid):
    st = gaussian_twin_slits(S, S / 50, grid, amplitudes=(1.0, 0.0))
    dens = momentum_density(st)
    assert fringe_visibility(grid, dens, S, S / 50) < 1e-6


def test_state_validation(grid):
    with pytest.raises(StateError):
        gaussian_twin_slits(S, 0.3, grid)  # a >= s/4
    small = make_grid(-2, 2, 1024)
    with pytest.raises(StateError):
        gaussian_twin_slits(S, S / 50, small)  # span < 4s
    coarse = make_grid(-8, 8, 1024)
    with pytest.raises(StateError):
        gaussian_twin_slits(S, S / 50, coarse)  # dx >= a/4
    with pytest.raises(StateError):
        narrow_twin_slits(-1.0)
    with pytest.raises(StateError):
        narrow_twin_slits(S, amplitudes=(0.0, 0.0))


def test_apply_wwm_probabilities(grid, state_a50, sign, identity, sew):
    ens = apply_wwm(sign, state_a50)
    assert np.allclose(ens.probabilities, [0.5, 0.5], atol=1e-10)
    ens = apply_wwm(identity, state_a50)
    assert ens.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(ens.states[0] - state_a50.values)) < 1e-12
    ens = apply_wwm(sew, state_a50)
    assert np.allclose(ens.probabilities, [0.5, 0.5], atol=1e-10)


def test_apply_wwm_rejects_incomplete(grid, state_a50):
    lonely = parse_scheme(["theta(x)"])
    with pytest.raises(CompletenessError):
        apply_wwm(lonely, state_a50)


def test_final_density_normalized_and_sign_kills_fringes(grid, state_a50, sign):
    dens = momentum_density(apply_wwm(sign, state_a50))
    assert np.sum(dens) * grid.dp == pytest.approx(1.0, abs=1e-8)
    assert fringe_visibility(grid, dens, S, S / 50) < 0.01
    # envelope width matches the single slit pattern
    single = momentum_density(
        gaussian_twin_slits(S, S / 50, grid, amplitudes=(1.0, 0.0))
    )
    window = np.abs(grid.ps) < 40
    assert np.max(np.abs(dens[window] - single[window])) < 2e-4


def test_kick_translates_pattern(grid, state_a50):
    k0 = 8 * grid.dp
    kicked = builtin("kicks", kicks=[(1.0, k0)])
    dens = momentum_density(apply_wwm(kicked, state_a50))
    base = momentum_density(state_a50)
    l1 = np.sum(np.abs(dens - np.roll(base, 8))) * grid.dp
    assert l1 < 1e-6


def test_momentum_density_invariant_under_rebase(grid, state_a50, sign):
    u = haar_unitary(2, np.random.default_rng(1))
    d0 = momentum_density(apply_wwm(sign, state_a50))
    d1 = momentum_density(apply_wwm(rebase(sign, u), state_a50))
    assert np.max(np.abs(d0 - d1)) < 1e-12


@pytest.mark.parametrize(
    "builtin_name,kw,expected_v",
    [("identity", {}, 1.0), ("sign", {}, 0.0), ("sew_flat", {"w": 0.25}, 0.0)],
)
def test_extracted_fringe_visibility_matches_formula(grid, builtin_name, kw, expected_v):
    sch = builtin(builtin_name, s=S, **kw) if kw else builtin(builtin_name)
    a = S / 40
    st = gaussian_twin_slits(S, a, grid)
    dens = momentum_density(apply_wwm(sch, st))
    extracted = fringe_visibility(grid, dens, S, a)
    assert abs(extracted - expected_v) < 0.02
    assert abs(visibility(sch, S) - expected_v) < 1e-10


def test_random_complete_scheme_density_mass(grid, state_a20):
    from conftest import random_complete_scheme

    sch = random_complete_scheme(np.random.default_rng(77))
    dens = momentum_density(apply_wwm(sch, state_a20))
    assert np.sum(dens) * grid.dp == pytest.approx(1.0, abs=1e-8)


def test_narrow_mode_blocks_grid_operations(narrow, sign):
    with pytest.raises(StateError):
        momentum_density(narrow)
    with pytest.raises(StateError):
        apply_wwm(sign, narrow)
