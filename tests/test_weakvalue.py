from pathlib import Path

import numpy as np
import pytest

from wwm.errors import CompletenessError, StateError
from wwm.grid import bin_indices, make_grid
from wwm.scheme import Channel, Scheme, builtin, parse_scheme, rebase
from wwm.simulate import default_bins
from wwm.state import apply_wwm, gaussian_twin_slits, momentum_density, narrow_twin_slits
from wwm.transfer import (
    asymptote_split,
    char_fn,
    classical_transfer,
    correlation_g,
    moments,
    support_metric,
    wigner_kernel,
)
from wwm.weakvalue import (
    conditional_cells,
    marginal_from_joint,
    pwv_joint,
    pwv_marginal,
    pwv_narrow_sign,
)
from conftest import S, haar_unitary, random_complete_scheme, total_mass


def rel_linf(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


# --- marginal distribution --------------------------------------------------


def test_identity_gives_delta(identity, state_a50):
    dist = pwv_marginal(identity, state_a50)
    assert dist.atoms == [(0.0, pytest.approx(1.0, abs=1e-9))]
    assert np.max(np.abs(dist.density)) < 1e-12


def test_sign_narrow_closed_form(sign, grid):
    dist = pwv_marginal(sign, narrow_twin_slits(S, grid=grid))
    ref = pwv_narrow_sign(S, grid.ps)
    assert dist.atoms == ref.atoms
    assert np.array_equal(dist.density, ref.density)


def test_sign_grid_matches_narrow_form(grid, state_a50, sign):
    dist = pwv_marginal(sign, state_a50)
    assert len(dist.atoms) == 1
    loc, weight = dist.atoms[0]
    assert loc == 0.0 and weight == pytest.approx(0.5, abs=0.01)
    ref = pwv_narrow_sign(S, dist.ps)
    window = (np.abs(dist.ps) * S >= 0.1) & (np.abs(dist.ps) * S <= 10)
    assert rel_linf(dist.density[window], ref.density[window]) < 0.02
    assert total_mass(dist) == pytest.approx(1.0, abs=1e-6)


def test_kick_pair_matches_classical(kick_pair, state_a50):
    dist = pwv_marginal(kick_pair, state_a50)
    classical = classical_transfer(kick_pair)
    assert dist.atoms == classical.atoms
    assert support_metric(dist, 0.0) == pytest.approx(1.0, abs=1e-8)
    assert total_mass(dist) == pytest.approx(1.0, abs=1e-8)


def test_abs_mass_exceeds_one_iff_negative(state_a50, sign, identity):
    signed = pwv_marginal(sign, state_a50)
    assert support_metric(signed, 0.0) > 1.0
    assert signed.density.min() < 0
    positive = pwv_marginal(identity, state_a50)
    assert support_metric(positive, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_rebased_sign_identical_distribution(grid, state_a50, sign):
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    eraser = rebase(sign, hadamard)
    d0 = pwv_marginal(sign, state_a50)
    d1 = pwv_marginal(eraser, state_a50)
    assert np.max(np.abs(d0.bin_masses() - d1.bin_masses())) < 1e-9


def test_rebased_sign_narrow_uses_same_closed_form(sign, grid):
    u = haar_unitary(2, np.random.default_rng(2))
    d0 = pwv_marginal(sign, narrow_twin_slits(S, grid=grid))
    d1 = pwv_marginal(rebase(sign, u), narrow_twin_slits(S, grid=grid))
    assert np.array_equal(d0.density, d1.density) and d0.atoms == d1.atoms


def test_zero_moments_with_nonzero_support(grid, sew):
    # the central coexistence: all moments vanish yet the support does not
    st = gaussian_twin_slits(S, S / 20, grid)
    qs = (S / 128.0) * np.arange(-16, 17)
    rep = moments(char_fn(sew, st, qs=qs))
    assert np.max(np.abs(rep.values * S ** np.arange(1, 5))) < 1e-6
    dist = pwv_marginal(sew, st)
    assert support_metric(dist, 1.0 / S) > 0.05


def test_support_exclusion_for_zero_visibility(grid, sign, sew, kick_pair):
    st = gaussian_twin_slits(S, S / 20, grid)
    for sch in (sign, sew, kick_pair):
        dist = pwv_marginal(sch, st)
        assert support_metric(dist, np.pi / (3 * S)) > 0.1
        assert support_metric(dist, 1.0 / S) > 0.05


# --- joint table --------------------------------------------------------------


def test_joint_identity_diagonal(identity, state_a50, grid):
    table = pwv_joint(identity, state_a50)
    dens_bins = momentum_density(state_a50) * grid.dp
    rows = slice(table.row_offset, table.row_offset + table.p_i.size)
    diag = table.matrix[np.arange(table.p_i.size), np.arange(*rows.indices(grid.n))]
    assert np.max(np.abs(diag - dens_bins[rows])) < 1e-12
    off = table.matrix.copy()
    off[np.arange(table.p_i.size), np.arange(*rows.indices(grid.n))] = 0.0
    assert np.max(np.abs(off)) < 1e-12
    assert np.max(np.abs(table.marginal_pf - dens_bins)) < 1e-12


def test_joint_kicks_superdiagonal(state_a50, grid):
    k0 = 8 * grid.dp
    sch = builtin("kicks", kicks=[(1.0, k0)])
    table = pwv_joint(sch, state_a50)
    rows = np.arange(table.p_i.size)
    cols = rows + table.row_offset + 8
    shifted = table.matrix[rows, cols]
    dens_bins = momentum_density(state_a50) * grid.dp
    assert np.max(np.abs(shifted - dens_bins[rows + table.row_offset])) < 1e-10
    total = table.matrix.copy()
    total[rows, cols] = 0.0
    assert np.max(np.abs(total)) < 1e-12


def test_joint_sign_has_negative_entries(state_a50, sign):
    table = pwv_joint(sign, state_a50)
    assert table.matrix.min() < -1e-5
    assert table.matrix.sum() == pytest.approx(1.0, abs=1e-6)


def test_joint_column_sums(state_a50, sign, identity, kick_pair, grid):
    dens_bins = momentum_density(apply_wwm(sign, state_a50)) * grid.dp
    table = pwv_joint(sign, state_a50)
    # line-physics kernel: column sums track the density bins only to O(dp)
    assert np.max(np.abs(table.marginal_pf - dens_bins)) < 0.1 * dens_bins.max()
    # the rebased kick pair: kick rows do not depend on the channel basis
    rebased = rebase(kick_pair, haar_unitary(2, np.random.default_rng(0)))
    for sch in (identity, kick_pair, rebased):
        dens = momentum_density(apply_wwm(sch, state_a50)) * grid.dp
        t = pwv_joint(sch, state_a50)
        assert np.max(np.abs(t.marginal_pf - dens)) < 1e-10


def test_route_equivalence_all_builtins(grid, state_a20, identity, sign, kick_pair, sew):
    for sch in (identity, sign, kick_pair, sew):
        chi_bins = pwv_marginal(sch, state_a20).bin_masses()
        joint_bins = marginal_from_joint(pwv_joint(sch, state_a20))
        assert np.max(np.abs(chi_bins - joint_bins)) < 1e-6


def test_conditional_profiles(identity, sign, state_a50, grid):
    table = pwv_joint(identity, state_a50)
    center = grid.n // 2 + 2
    profile = table.matrix[:, center] / table.marginal_pf[center]
    expected = np.zeros(table.p_i.size)
    expected[center - table.row_offset] = 1.0
    assert np.max(np.abs(profile - expected)) < 1e-9

    table = pwv_joint(sign, state_a50)
    profile = table.matrix[:, grid.n // 2 + 1] / table.marginal_pf[grid.n // 2 + 1]
    assert profile.sum() == pytest.approx(1.0, abs=1e-9)
    assert profile.min() < 0

    far = int(np.searchsorted(grid.ps, 700.0))
    assert table.marginal_pf[far] <= 1e-12


def test_joint_requires_grid_state(narrow, sign):
    with pytest.raises(StateError):
        pwv_joint(sign, narrow)


def test_rebin_and_conditional_cells(state_a50, sign):
    table = pwv_joint(sign, state_a50)
    edges = default_bins(S, 8)
    cond = conditional_cells(table, edges, edges)
    assert cond.shape == (8, 8)
    # each column sums to the share of its p_f bin's mass whose p_i lies
    # inside the edges: the cells are normalised by the whole column mass
    in_rows = bin_indices(edges, table.p_i) >= 0
    f_bins = bin_indices(edges, table.p_f)
    whole = np.array([table.matrix[:, f_bins == c].sum() for c in range(8)])
    inside = np.array([table.matrix[in_rows][:, f_bins == c].sum() for c in range(8)])
    good = whole > 1e-12
    assert np.allclose(cond[:, good].sum(axis=0), inside[good] / whole[good], atol=1e-6)


def test_unsettled_tails_warn(grid_small):
    # a chirp channel never settles at the box edges, on either route
    chirp = parse_scheme(["exp(i*x^2)"])
    state = gaussian_twin_slits(S, S / 20, grid_small)
    with pytest.warns(UserWarning):
        pwv_marginal(chirp, state)
    with pytest.warns(UserWarning):
        wigner_kernel(chirp, S / 4, grid_small)
    with pytest.warns(UserWarning):
        pwv_joint(chirp, state)


def test_unsettled_warning_points_at_the_caller_of_the_split_helper(grid_small):
    # stacklevel 4: the caller of distribution_from_chi (pwv_marginal,
    # wigner_kernel) or of pwv_joint
    chirp = parse_scheme(["exp(i*x^2)"])
    state = gaussian_twin_slits(S, S / 20, grid_small)
    for run, where in (
        (lambda: pwv_marginal(chirp, state), "weakvalue.py"),
        (lambda: wigner_kernel(chirp, S / 4, grid_small), "transfer.py"),
        (lambda: pwv_joint(chirp, state), "test_weakvalue.py"),
    ):
        with pytest.warns(UserWarning) as record:
            run()
        assert [Path(w.filename).name for w in record] == [where]


def test_random_scheme_basis_invariance(grid, state_a20):
    rng = np.random.default_rng(31)
    sch = random_complete_scheme(rng)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore")  # oscillating tails never settle
        d0 = pwv_marginal(sch, state_a20)
        d1 = pwv_marginal(rebase(sch, haar_unitary(2, rng)), state_a20)
    assert np.max(np.abs(d0.bin_masses() - d1.bin_masses())) < 1e-9


# --- asymmetric schemes: the odd-asymptote (damped 1/p) machinery ----------


@pytest.fixture(scope="module")
def phase_ramp():
    # single channel exp(i*alpha*ramp(x)): a partial phase kick felt only by
    # the right slit; chi has unequal box-edge asymptotes (odd part != 0)
    alpha = 0.8
    return alpha, parse_scheme([f"exp(i*{alpha}*(theta(x)*theta(1.0-x)*x + theta(x-1.0)))"])


def test_phase_ramp_chi_asymmetric(grid, state_a20, phase_ramp):
    alpha, sch = phase_ramp
    chi = char_fn(sch, state_a20)
    _, odd_const, band_spread = asymptote_split(chi.values, "chi")
    assert band_spread < 1e-10
    assert abs(np.imag(odd_const)) > 0.1  # genuinely asymmetric
    gap = np.max(np.abs(chi.values - correlation_g(sch, state_a20, chi.qs).real))
    assert gap > 0.1  # the symmetric Re form is a different object here


def test_phase_ramp_marginal_mass_and_moment(grid, state_a20, phase_ramp):
    alpha, sch = phase_ramp
    dist = pwv_marginal(sch, state_a20)
    assert total_mass(dist) == pytest.approx(1.0, abs=1e-6)
    # only the right slit traverses the ramp: mean transfer alpha/2
    qs = (1.0 / 128.0) * np.arange(-16, 17)
    rep = moments(char_fn(sch, state_a20, qs=qs))
    assert rep.values[0] == pytest.approx(alpha / 2, abs=1e-9)


def test_phase_ramp_route_equivalence(grid, state_a20, phase_ramp):
    _, sch = phase_ramp
    chi_bins = pwv_marginal(sch, state_a20).bin_masses()
    joint_bins = marginal_from_joint(pwv_joint(sch, state_a20))
    assert np.max(np.abs(chi_bins - joint_bins)) < 1e-6


def test_asymmetric_amplitudes_round_trip(grid, sign):
    st = gaussian_twin_slits(S, S / 20, grid, amplitudes=(0.8, 0.6))
    dist = pwv_marginal(sign, st)
    assert total_mass(dist) == pytest.approx(1.0, abs=1e-6)
    joint_bins = marginal_from_joint(pwv_joint(sign, st))
    assert np.max(np.abs(dist.bin_masses() - joint_bins)) < 1e-6


def test_damped_pv_kernel_closed_form():
    # check FT[tanh(q/lam) - sgn(q)] (a decaying integrand) against the
    # closed forms (lam/2) csch(pi lam p / 2) - 1/(pi p)
    from wwm.transfer import damped_pv_kernel

    lam = 0.8
    qs = np.linspace(-40, 40, 400001)
    for p0 in (0.9, 2.3):
        direct = np.trapezoid(
            (np.tanh(qs / lam) - np.sign(qs)) * np.exp(-1j * p0 * qs), qs
        ) / (2 * np.pi)
        closed = damped_pv_kernel(np.array([p0]), lam)[0] - 1.0 / (np.pi * p0)
        assert abs(direct - (-1j) * closed) < 1e-8


def test_kick_pwv_passes_the_chi_checks(state_a20):
    """A kick scheme's marginal is its atoms read off chi, so a scheme whose
    kick_terms do not match its channels is refused like any incomplete one."""
    half = Scheme([Channel(lambda x: np.sqrt(0.5) * np.exp(2j * x))], "kicks", [(1.0, 2.0)])
    with pytest.raises(CompletenessError):
        pwv_marginal(half, state_a20)


@pytest.mark.parametrize("box", [(-8.3, 8.3), (-7, 9.1)])
def test_dual_grid_is_the_momentum_grid_on_a_non_dyadic_box(box, sign, kick_pair):
    """chi's dq is read from its end samples, so pwv's p samples are grid.ps to
    rounding where dx is not dyadic (qs[1] - qs[0] put them 8.8e-14 off, relative)."""
    grid = make_grid(*box, 4096)
    state = gaussian_twin_slits(S, S / 50, grid)
    for scheme in (sign, kick_pair):
        ps = pwv_marginal(scheme, state).ps
        assert np.max(np.abs(ps - grid.ps)) <= 4 * np.spacing(np.max(np.abs(grid.ps)))
