from dataclasses import replace

import numpy as np
import pytest

from wwm import transfer
from wwm.errors import CompletenessError, SchemeError, WWMError
from wwm.grid import fourier_values, make_grid
from wwm.scheme import builtin, parse_scheme, rebase
from wwm.state import gaussian_twin_slits, narrow_twin_slits
from wwm.transfer import (
    MixedDistribution,
    _pair_products,
    asymptote_split,
    char_fn,
    classical_transfer,
    correlation_g,
    distribution_from_chi,
    moments,
    support_metric,
    verify_wigner_identity,
    wigner_kernel,
)
from wwm.weakvalue import pwv_narrow_sign
from conftest import S, haar_unitary, half_row_wigner, random_complete_scheme, total_mass


# --- classical transfer ---------------------------------------------------


def test_classical_transfer_single_and_pair(kick_pair):
    single = builtin("kicks", kicks=[(1.0, 2.0)])
    dist = classical_transfer(single)
    assert dist.atoms == [(2.0, 1.0)]
    dist = classical_transfer(kick_pair)
    assert len(dist.atoms) == 2
    assert dist.atoms[0] == pytest.approx((-np.pi / 2, 0.5))
    assert dist.atoms[1] == pytest.approx((np.pi / 2, 0.5))


def test_classical_transfer_rejects_non_kick(sign):
    with pytest.raises(SchemeError):
        classical_transfer(sign)


def test_mixed_distribution_drops_negligible_atoms(grid):
    # the one rule for negligible atoms: tail_split returns its constant
    # whatever its weight and leaves the drop to MixedDistribution
    above = np.nextafter(1e-12, 1.0)
    atoms = [(0.0, 1e-12), (1.0, -1e-12), (2.0, above), (3.0, -above)]
    dist = MixedDistribution(atoms, grid.ps, np.zeros(grid.n))
    assert dist.atoms == [(2.0, above), (3.0, -above)]


# --- characteristic function ----------------------------------------------


def test_chi_identity_is_one(identity, state_a50):
    chi = char_fn(identity, state_a50)
    assert np.max(np.abs(chi.values - 1.0)) < 1e-12


def test_chi_single_kick_closed_form(narrow):
    k0 = 2.0
    sch = builtin("kicks", kicks=[(1.0, k0)])
    qs = np.linspace(-4, 4, 257)
    chi = char_fn(sch, narrow, qs=qs)
    assert np.max(np.abs(chi.values - np.exp(1j * k0 * qs))) < 1e-12
    # the symmetric Re form would give cos(k0 q) instead
    assert np.max(np.abs(correlation_g(sch, narrow, qs).real - np.cos(k0 * qs))) < 1e-12


def test_chi_sign_gaussian_matches_cumulative_oracle(grid, state_a50, sign):
    # continuum oracle: chi(q) = 1 - integral of |psi|^2 between 0 and q,
    # with the integral in closed form (normal CDF per slit)
    erf = pytest.importorskip("scipy.special").erf
    chi = char_fn(sign, state_a50)
    sigma = (S / 50) / np.sqrt(2)

    def cumulative(x):
        return 0.25 * (erf((x + S / 2) / (sigma * np.sqrt(2)))
                       + erf((x - S / 2) / (sigma * np.sqrt(2))))

    oracle = 1.0 - np.abs(cumulative(grid.xs) - cumulative(0.0))
    # pointwise agreement is limited by the O(dx^2) Riemann residue of the
    # step integrand at the slit edges (~5e-5 for a = s/50 on this grid)
    assert np.max(np.abs(chi.values.real - oracle)) < 1e-4
    assert np.max(np.abs(chi.values.imag)) < 1e-12


def test_chi_asymptotes_and_validation(sign, state_a50):
    chi = char_fn(sign, state_a50)
    even_const, odd_const, band_spread = asymptote_split(chi.values, "chi")
    assert np.real(even_const) == pytest.approx(0.5, abs=1e-10)
    assert abs(odd_const) < 1e-10
    assert band_spread < 1e-10
    assert chi.at0() == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(chi.values)) <= 1.0 + 1e-9


def test_chi_rejects_incomplete(state_a50):
    with pytest.raises(CompletenessError):
        char_fn(parse_scheme(["theta(x)"]), state_a50)


def nan_beyond_zero(scheme, state, qs):
    """g with NaN at every q but 0: chi(0) = 1 holds, |chi| <= 1 cannot."""
    return np.where(np.asarray(qs) == 0.0, 1.0, np.nan)


def test_chi_nan_fails_validation(monkeypatch, sign, state_a50):
    qs = np.linspace(-1, 1, 9)
    nan_psi = replace(state_a50, values=np.full_like(state_a50.values, np.nan))
    with pytest.raises(CompletenessError):
        char_fn(sign, nan_psi, qs=qs)
    monkeypatch.setattr(transfer, "correlation_g", nan_beyond_zero)
    with pytest.raises(WWMError, match="Schwartz"):
        char_fn(sign, state_a50, qs=qs)


def test_chi_random_schemes_bounds(state_a20):
    rng = np.random.default_rng(99)
    for _ in range(3):
        sch = random_complete_scheme(rng)
        chi = char_fn(sch, state_a20)
        assert abs(chi.at0() - 1.0) < 1e-9
        assert np.max(np.abs(chi.values)) <= 1.0 + 1e-9


def test_phi_narrow_values(sign, identity):
    assert correlation_g(sign, narrow_twin_slits(S), S).real == pytest.approx(0.5)
    assert correlation_g(sign, narrow_twin_slits(S), 0.0).real == pytest.approx(1.0)
    assert correlation_g(identity, narrow_twin_slits(S), 2.7).real == pytest.approx(1.0)


def test_half_bound_at_s_for_zero_visibility(sign, sew, kick_pair, narrow):
    for sch in (sign, sew, kick_pair):
        val = abs(complex(np.asarray(
            char_fn(sch, narrow, qs=np.linspace(-2, 2, 129)).values[
                np.searchsorted(np.linspace(-2, 2, 129), 1.0)
            ]
        )))
        assert val <= 0.5 + 1e-9


def test_chi_gaussian_converges_to_narrow(grid, narrow, sew, kick_pair, sign):
    qs = (S / 64) * np.arange(-256, 257)  # phi's q grid, on the x lattice
    chi_n = {s.base: char_fn(s, narrow, qs=qs).values for s in (sew, kick_pair, sign)}
    errs = {}
    for a in (S / 20, S / 40):
        st = gaussian_twin_slits(S, a, grid)
        for sch in (sew, kick_pair, sign):
            err = np.abs(char_fn(sch, st, qs=qs).values - chi_n[sch.base])
            if sch.base == "sign":  # chi has jumps at |q| = s/2; compare away
                err = err[np.abs(np.abs(qs) - 0.5) > 0.15]
            errs[(sch.base, a)] = float(np.max(err))
    for base in ("sew_flat", "sign"):
        assert errs[(base, S / 20)] <= 0.25 * (S / 20) / S  # C * (a/s) bound
        assert errs[(base, S / 40)] <= 0.6 * errs[(base, S / 20)] + 1e-12
    assert errs[("kicks", S / 20)] < 1e-12  # kick chi has no a dependence


# --- moments ----------------------------------------------------------------


def moments_chi(scheme, state, n_points=16):
    qs = (S / 128.0) * np.arange(-n_points, n_points + 1)
    return char_fn(scheme, state, qs=qs)


def test_moments_identity_zero(identity, state_a50):
    rep = moments(moments_chi(identity, state_a50))
    # the 4th difference amplifies chi rounding by 16/dq^4: floor ~1e-7
    assert np.max(np.abs(rep.values)) < 5e-7


def test_moments_kick_pair_analytic(kick_pair, narrow):
    rep = moments(moments_chi(kick_pair, narrow))
    k = np.pi / 2
    assert abs(rep.values[0]) < 1e-8
    assert rep.values[1] == pytest.approx(k ** 2, abs=1e-8)
    assert abs(rep.values[2]) < 1e-6
    assert rep.values[3] == pytest.approx(k ** 4, rel=1e-6)
    assert rep.imag_residual < 1e-8


def test_moments_flat_chi_exactly_zero(sign, narrow):
    """Narrow-slit sign: chi is one value at every stencil point (1 + 2^-52),
    so the stencils, summed by mirrored pairs, cancel exactly (<p^4> read
    8.3e-8 when each stencil was summed left to right)."""
    chi = moments_chi(sign, narrow)
    assert np.all(chi.values == chi.values[chi.index0])
    rep = moments(chi)
    assert np.all(rep.values == 0.0)
    assert rep.imag_residual == 0.0


def test_moments_even_chi_has_exactly_zero_imag_residual(kick_pair, state_a50):
    """kick_pair on its a = s/50 grid state: chi is exactly real and even, so
    every odd-order difference is exactly 0 (the residual read 1.66e-10)."""
    chi = moments_chi(kick_pair, state_a50)
    assert np.all(chi.values == chi.values[::-1]) and np.all(chi.values.imag == 0)
    rep = moments(chi)
    assert rep.imag_residual == 0.0
    assert rep.values[0] == 0.0 and rep.values[2] == 0.0


def test_moments_single_kick_keeps_odd_orders(narrow):
    sch = builtin("kicks", kicks=[(1.0, 2.0)])
    rep = moments(moments_chi(sch, narrow))
    assert np.allclose(rep.values, [2.0, 4.0, 8.0, 16.0], rtol=1e-5)


def test_moments_sew_flat_tiny(sew, grid):
    st = gaussian_twin_slits(S, S / 20, grid)
    rep = moments(moments_chi(sew, st))
    for n, value in enumerate(rep.values, start=1):
        assert abs(value) < 1e-6 * S ** -n


def test_moments_stencil_bounds(identity, state_a50):
    qs = (S / 128.0) * np.arange(-4, 5)  # too short for the 8-step stencil
    chi = char_fn(identity, state_a50, qs=qs)
    with pytest.raises(WWMError):
        moments(chi)


# --- support metric ---------------------------------------------------------


def test_support_metric_cases(grid):
    ident = MixedDistribution([(0.0, 1.0)], grid.ps, np.zeros(grid.n))
    assert support_metric(ident, 1.0 / S) == 0.0

    eq21 = pwv_narrow_sign(S, grid.ps)
    val = support_metric(eq21, np.pi / (3 * S))
    assert val > 0.2
    # independent check: fine Riemann quadrature of the |density| tails
    fine = np.linspace(np.pi / (3 * S), grid.ps[-1], 200001)
    tail = 2 * np.trapezoid(np.abs(np.sin(fine * S / 2) / (2 * np.pi * fine)), fine)
    assert val == pytest.approx(tail + 0.0, rel=0.02)

    kick = classical_transfer(
        builtin("kicks", kicks=[(0.5, np.pi / 2), (0.5, -np.pi / 2)])
    )
    assert support_metric(kick, 1.0 / S) == pytest.approx(1.0)
    with pytest.raises(WWMError):
        support_metric(kick, -1.0)


def test_narrow_sign_distribution_values(grid):
    dist = pwv_narrow_sign(S, grid.ps)
    assert dist.atoms == [(0.0, 0.5)]
    k = np.searchsorted(grid.ps, np.pi)
    assert grid.ps[k] == pytest.approx(np.pi)
    assert dist.density[k] == pytest.approx(1.0 / (2 * np.pi ** 2))
    k0 = np.searchsorted(grid.ps, 0.0)
    assert dist.density[k0] == pytest.approx(S / (4 * np.pi))


def test_narrow_sign_mass_against_dirichlet_oracle():
    # partial Dirichlet integral: atom + integral to B = (1/2) + Si(B/2)/pi
    sici = pytest.importorskip("scipy.special").sici
    ps = (2 * np.pi / 16) * np.arange(-512, 512)  # |p| <= 200/s roughly
    dist = pwv_narrow_sign(S, ps)
    mass = total_mass(dist)
    oracle = 0.5 + sici(float(-ps[0]) * S / 2)[0] / np.pi
    assert mass == pytest.approx(oracle, abs=5e-5)
    # the tail deficit is real: cos(B s/2)/(pi B s/2) ~ 3e-3 at B = 200/s
    assert abs(mass - 1.0) < 5e-3


# --- wigner -----------------------------------------------------------------


@pytest.fixture(scope="module")
def wgrid():
    return make_grid(-4, 4, 1024)


@pytest.fixture(scope="module")
def wstate(wgrid):
    return gaussian_twin_slits(S, S / 20, wgrid)


def wigner_rows(state):
    """Wigner function of a grid state on (grid xs) x (momenta dp/2 apart, 0 at n/2)."""
    grid = state.grid
    ext = np.pad(state.values, grid.n // 2)
    return half_row_wigner(_pair_products(ext, grid.n), grid.dx)


def fine_momentum_amplitudes(grid, values):
    """psi~ evaluated on the half-spaced momentum grid (exact, via two DFTs)."""
    fine = np.empty(2 * grid.n, dtype=complex)
    base = fourier_values(grid, values)
    shift = 0.5 * grid.dp
    modulated = values * np.exp(-1j * shift * grid.xs)
    odd = fourier_values(grid, modulated)  # samples at ps + dp/2
    fine[0::2] = base
    fine[1::2] = odd
    ps_fine = np.empty(2 * grid.n)
    ps_fine[0::2] = grid.ps
    ps_fine[1::2] = grid.ps + shift
    return ps_fine, fine


def test_wigner_single_gaussian_nonnegative(wgrid):
    st = gaussian_twin_slits(S, S / 20, wgrid, amplitudes=(1.0, 0.0))
    assert wigner_rows(st).min() > -1e-12


def test_wigner_twin_slits_negative_ridge(wgrid, wstate):
    w = wigner_rows(wstate)
    mid = np.searchsorted(wgrid.xs, 0.0)
    assert w[mid].min() < -0.1


def test_wigner_marginals(wgrid, wstate):
    w = wigner_rows(wstate)
    ps = 0.5 * wgrid.dp * np.arange(-wgrid.n // 2, wgrid.n // 2)
    x_marginal = w.sum(axis=1) * (ps[1] - ps[0])
    assert np.max(np.abs(x_marginal - np.abs(wstate.values) ** 2)) < 1e-6
    p_marginal = w.sum(axis=0) * wgrid.dx
    ps_f, amps = fine_momentum_amplitudes(wgrid, wstate.values)
    order = np.argsort(ps_f)
    ref = np.interp(ps, ps_f[order], (np.abs(amps) ** 2)[order])
    assert np.max(np.abs(p_marginal - ref)) < 1e-6


def test_wigner_kernel_identity_and_kicks(wgrid, identity):
    dist = wigner_kernel(identity, 0.3, wgrid)
    assert dist.atoms == [(0.0, pytest.approx(1.0))]
    assert np.max(np.abs(dist.density)) < 1e-12
    kicked = builtin("kicks", kicks=[(1.0, 2.0)])
    dist = wigner_kernel(kicked, -0.7, wgrid)
    assert dist.atoms == [(2.0, pytest.approx(1.0))]


def test_wigner_kernel_sign_closed_form(wgrid, sign):
    # kernel of the sign measurement at x: sin(2|x| p) / (pi p)
    x0 = 0.25
    dist = wigner_kernel(sign, x0, wgrid)
    ref = np.zeros_like(dist.ps)
    nonzero = dist.ps != 0
    ref[nonzero] = np.sin(2 * x0 * dist.ps[nonzero]) / (np.pi * dist.ps[nonzero])
    ref[~nonzero] = 2 * x0 / np.pi
    assert np.max(np.abs(dist.density - ref)) < 2e-3
    assert total_mass(dist) == pytest.approx(1.0, abs=1e-6)
    # nonlocal transfer just off the midpoint: negative lobes
    near = wigner_kernel(sign, S / 20, wgrid)
    assert near.density.min() < -1e-3


def test_wigner_kernel_basis_invariant(wgrid, sign, sew):
    rng = np.random.default_rng(17)
    for sch in (sign, sew):
        u = haar_unitary(2, rng)
        d0 = wigner_kernel(sch, 0.2, wgrid)
        d1 = wigner_kernel(rebase(sch, u), 0.2, wgrid)
        assert np.max(np.abs(d0.bin_masses() - d1.bin_masses())) < 1e-9


@pytest.mark.parametrize("box", [(-4, 4, 1024), (-3.1, 2.9, 256)])
def test_wigner_kernel_kicks_share_the_dual_grid(box, sign, kick_pair):
    g = make_grid(*box)
    kicks = wigner_kernel(kick_pair, 0.3, g)
    assert np.array_equal(kicks.ps, wigner_kernel(sign, 0.3, g).ps)
    assert np.allclose(kicks.ps, 0.5 * g.dp * np.arange(-g.n // 2, g.n // 2), rtol=1e-13, atol=0)


@pytest.mark.parametrize("step", [-1, 1])
def test_characteristic_function_needs_q0_at_its_middle_sample(wgrid, step):
    n = wgrid.n
    qs = wgrid.dx * np.arange(-n // 2, n // 2)
    centred = distribution_from_chi(transfer.CharacteristicFunction(qs, np.ones(n, complex)))
    assert centred.atoms == [(0.0, 1.0)] and not centred.density.any()
    with pytest.raises(WWMError, match=f"q = 0 is not the middle sample {n // 2} of the q grid"):
        transfer.CharacteristicFunction(qs + step * wgrid.dx, np.ones(n, complex))


def test_wigner_identity_all_builtins(wgrid, wstate, identity, sign, sew):
    kicked = builtin("kicks", kicks=[(0.5, np.pi / 2), (0.5, -np.pi / 2)])
    for sch in (identity, kicked, sign, sew):
        assert verify_wigner_identity(sch, wstate) < 1e-14


def test_wigner_identity_random_scheme(wgrid, wstate):
    sch = random_complete_scheme(np.random.default_rng(5))
    assert verify_wigner_identity(sch, wstate) < 1e-14
