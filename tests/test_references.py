"""The sign config against its exact weak-valued transfer distribution.

With the channels theta(+-x) and Gaussian slits |psi|^2 ~ exp(-x^2/a^2)
at +-s/2, chi(q) = 1 - P(0 < x < |q|) = 1/2 + Phi((s/2 - |q|)/(a/sqrt 2))/2
up to the slit overlap exp(-s^2/(4 a^2)) (e^-625 at a = s/50), whose
transform is

    P_wv(p) = delta(p)/2 + sin(p s/2)/(2 pi p) exp(-a^2 p^2/4).

Each bound is the error measured on the shipped code times ERROR_FACTOR;
the error is second order in dx and does not depend on the box length.
Acceptance criterion 1's 2% against the narrow closed form is left as it is.

The same config has two more exact answers.  Each channel keeps one slit,
so the final momentum pattern is one slit's, (a/sqrt pi) exp(-a^2 p^2), to
rounding.  For x > 0 the Wigner kernel's channel contraction is 1 for
|u| < x, 1/2 at |u| = x (theta(0) = 1/2) and 0 beyond, so on the lattice
the kernel is the Dirichlet sum, to rounding, and the continuum kernel
sin(2xp)/(pi p) is met at first order in dx, whatever the box length.

The transfer moments <p^n> = (-i d/dq)^n chi(0) are exact too: 0 for sign,
since chi = 1 on |q| < s/2, and (1/2) 0.8^n for the phase_ramp config.
"""

import math
from functools import cache

import numpy as np
import pytest

from wwm.cli import main
from wwm.grid import make_grid
from wwm.scheme import builtin, parse_scheme
from wwm.state import apply_wwm, gaussian_twin_slits, momentum_density
from wwm.transfer import char_fn, moment_qs, moments, wigner_kernel
from wwm.weakvalue import pwv_marginal
from conftest import PHASE_RAMP, S

A = 0.02
ERROR_FACTOR = 1.1
# (box length L, n) -> max |density - exact| measured
MEASURED = {(16, 4096): 5.42e-7, (16, 8192): 1.36e-7, (16, 16384): 3.39e-8, (32, 8192): 5.42e-7}


def exact_density(ps):
    out = np.full(ps.shape, S / (4.0 * np.pi))  # the removable p = 0 value
    nonzero = ps != 0.0
    out[nonzero] = np.sin(0.5 * S * ps[nonzero]) / (2.0 * np.pi * ps[nonzero])
    return out * np.exp(-(A * ps) ** 2 / 4.0)


@cache
def sign_transfer(length, n):
    state = gaussian_twin_slits(S, A, make_grid(-length / 2, length / 2, n))
    return pwv_marginal(builtin("sign"), state)


def density_error(length, n):
    dist = sign_transfer(length, n)
    return float(np.max(np.abs(dist.density - exact_density(dist.ps))))


@pytest.mark.parametrize("length, n", sorted(MEASURED))
def test_sign_density_matches_closed_form(length, n):
    assert density_error(length, n) < ERROR_FACTOR * MEASURED[length, n]


@pytest.mark.parametrize("n", [4096, 8192])
def test_sign_density_converges_at_second_order(n):
    order = np.log2(density_error(16, n) / density_error(16, 2 * n))
    assert order >= 1.9  # measured 2.00 at both steps


@pytest.mark.parametrize("length, n", sorted(MEASURED))
def test_sign_atom_is_one_half(length, n):
    atoms = sign_transfer(length, n).atoms
    assert len(atoms) == 1
    loc, weight = atoms[0]
    assert loc == 0.0
    assert abs(weight - 0.5) <= 1e-15  # measured 2.2e-16 at n = 16384


PATTERN_BOUND = 4e-17  # rounding: measured 5.2e-18 to 1.04e-17 on the MEASURED cases


@pytest.mark.parametrize("length, n", sorted(MEASURED))
def test_sign_final_pattern_matches_closed_form(length, n):
    state = gaussian_twin_slits(S, A, make_grid(-length / 2, length / 2, n))
    final = momentum_density(apply_wwm(builtin("sign"), state))
    exact = A / np.sqrt(np.pi) * np.exp(-(A * state.grid.ps) ** 2)
    assert np.max(np.abs(final - exact)) < PATTERN_BOUND


SLICES = (S / 4, S / 2)
# (box length L, n) -> max |kernel - sin(2xp)/(pi p)| measured at each of SLICES
KERNEL_MEASURED = {
    (16, 4096): (7.83e-4, 7.87e-4),
    (16, 8192): (3.94e-4, 3.95e-4),
    (16, 16384): (1.97e-4, 1.98e-4),
    (32, 8192): (7.83e-4, 7.87e-4),
}


@cache
def sign_kernel(length, n, x):
    grid = make_grid(-length / 2, length / 2, n)
    return grid.dx, wigner_kernel(builtin("sign"), x, grid)


def kernel_continuum_error(length, n, x):
    _, dist = sign_kernel(length, n, x)
    ps = dist.ps
    exact = np.full(ps.shape, 2 * x / np.pi)  # the removable p = 0 value
    nonzero = ps != 0.0
    exact[nonzero] = np.sin(2 * x * ps[nonzero]) / (np.pi * ps[nonzero])
    return float(np.max(np.abs(dist.density - exact)))


@pytest.mark.parametrize("length, n", sorted(KERNEL_MEASURED))
@pytest.mark.parametrize("x", SLICES)
def test_sign_kernel_is_the_lattice_dirichlet_sum(length, n, x):
    """(dx/pi) [1 + 2 sum_{m=1}^{M-1} cos(2 m dx p) + cos(2 M dx p)], M = x/dx,
    which sums to (dx/pi) sin(2xp) cot(dx p)."""
    dx, dist = sign_kernel(length, n, x)
    assert (x / dx).is_integer()
    assert dist.atoms == []  # the contraction's tails are 0
    ps = dist.ps
    lattice = np.full(ps.shape, 2 * x / np.pi)
    nonzero = ps != 0.0
    lattice[nonzero] = (dx / np.pi) * np.sin(2 * x * ps[nonzero]) / np.tan(dx * ps[nonzero])
    # rounding of the kernel's peak 2x/pi: measured 5.6e-17 (x = s/4) and 1.1e-16 (s/2)
    assert np.max(np.abs(dist.density - lattice)) < 16 * np.finfo(float).eps * (2 * x / np.pi)


@pytest.mark.parametrize("length, n", sorted(KERNEL_MEASURED))
@pytest.mark.parametrize("k, x", enumerate(SLICES))
def test_sign_kernel_meets_continuum_at_measured_error(length, n, k, x):
    assert kernel_continuum_error(length, n, x) < ERROR_FACTOR * KERNEL_MEASURED[length, n][k]


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("x", SLICES)
def test_sign_kernel_converges_at_first_order(n, x):
    order = np.log2(kernel_continuum_error(16, n, x) / kernel_continuum_error(16, 2 * n, x))
    assert order >= 0.95  # measured 0.99 to 1.00


# config -> (slit width a, scheme, exact <p^n> at n = 1..4, then |error|
# measured on the shipped box and n with one 16n point FFT correlation per
# channel, with one 8n point inverse FFT over the summed spectra, and with
# the 2n point polyphase sum, which the bound does not read: sign's <p^4>
# there is back at the Richardson rounding floor near 5e-7)
MOMENT_CASES = {
    "sign": (
        A,
        builtin("sign"),
        np.zeros(4),
        (2.94e-15, 9.54e-12, 1.22e-10, 4.95e-7),
        (5.64e-16, 1.01e-14, 4.94e-11, 3.34e-9),
        (2.28e-15, 9.55e-12, 1.06e-10, 4.99e-7),
    ),
    "phase_ramp": (
        0.05,
        parse_scheme([PHASE_RAMP]),
        0.5 * 0.8 ** np.arange(1, 5),
        (1.28e-14, 6.83e-12, 5.17e-10, 4.64e-7),
        (2.55e-15, 6.82e-12, 2.13e-10, 4.62e-7),
        (4.94e-15, 3.11e-12, 1.36e-10, 1.23e-7),
    ),
}


@pytest.mark.parametrize("name", sorted(MOMENT_CASES))
def test_moments_match_exact_values(name):
    a, scheme, exact, wide_fft, half_fft, _ = MOMENT_CASES[name]
    state = gaussian_twin_slits(S, a, make_grid(-8, 8, 4096))
    rep = moments(char_fn(scheme, state, qs=moment_qs(state)))
    assert np.all(np.abs(rep.values - exact) < 2 * np.maximum(wide_fft, half_fft))


# max |chi - exact| of `wwm phi` on the shipped sign config (box 16, n = 4096)
CHI_MEASURED = 4.76e-5
SIGN_CFG = """
[grid]
xmin = {lo}
xmax = {hi}
n = 4096

[state]
kind = gaussian
s = {s}
a = {a}

[scheme]
builtin = sign
"""


@pytest.mark.parametrize(
    "lo, hi, s, qmax",
    [(-8, 8, 1.0, None), (-10, 10, 1.0, None), (-8, 8, 1.0001, None), (-8, 8, 1.0, 40.0),
     (-9, 8, 1.0, None)],
    ids=["shipped", "box_20", "s_1.0001", "shipped_qmax_40", "off_centre"],
)
def test_phi_matches_exact_chi_on_any_lattice(tmp_path, lo, hi, s, qmax):
    """`wwm phi` steps q by s/64 rounded to the x lattice, so a box or s that
    puts s/64 off the lattice (box 20: 3.2 dx; s = 1.0001: 4.0004 dx) keeps
    the lattice route's O(dx^2) error: the shipped bound, scaled by
    (dx / dx_shipped)^2.  With q at exactly s/64, off the lattice, these
    read 1.1e-2 and 2.7e-2 against 4.76e-5 shipped.  q beyond the box
    (--qmax 40 on the +-8 box) stays on the lattice route: 4.76e-5.  On
    [-9, 8] x_min is 0.47 dx off the lags q = m dx, read at that sub-step
    lag: 2.0e-5 against a scaled bound of 5.9e-5."""
    cfg = tmp_path / "sign.cfg"
    cfg.write_text(SIGN_CFG.format(lo=lo, hi=hi, s=s, a=A))
    out = tmp_path / "phi.csv"
    extra = [] if qmax is None else ["--qmax", str(qmax)]
    assert main(["phi", "--config", str(cfg), "--out", str(out), *extra]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    qs, re_chi, im_chi = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    dx = (hi - lo) / 4096
    steps = qs / dx
    assert np.all(np.abs(steps - np.rint(steps)) <= 1e-9)  # every q a lag m dx
    assert qs[-1] >= (qmax or 4 * s) - dx  # qmax, by default 4 s, to the lattice
    exact = 0.75 + 0.25 * np.vectorize(math.erf)((s / 2 - np.abs(qs)) / A)
    bound = ERROR_FACTOR * CHI_MEASURED * (dx / (16 / 4096)) ** 2
    assert np.max(np.abs(re_chi + 1j * im_chi - exact)) < bound


def test_moments_on_a_box_not_centred_on_0(tmp_path):
    """`wwm moments` on [-9, 8], where x_min is 0.47 dx off the lags q = m dx
    it samples, meets the sign bounds above (measured <p^4> 5.3e-7)."""
    cfg = tmp_path / "sign.cfg"
    cfg.write_text(SIGN_CFG.format(lo=-9, hi=8, s=S, a=A))
    out = tmp_path / "moments.csv"
    assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 0
    values = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:5]])
    _, _, exact, wide_fft, half_fft, _ = MOMENT_CASES["sign"]
    assert np.all(np.abs(values - exact) < 2 * np.maximum(wide_fft, half_fft))


# max |density - exact| of `wwm pwv` on the sign config's [-9, 8] box
OFF_CENTRE_MEASURED = 2.30e-7


def test_pwv_support_and_audit_on_a_box_not_centred_on_0(tmp_path):
    """chi is sampled on the lags q = (m - n/2) dx wherever the box sits, so
    `pwv`, `support` and `audit` run on [-9, 8], and pwv's density meets the
    closed form there as on the shipped box (5.42e-7 at dx = 16/4096)."""
    cfg = tmp_path / "sign.cfg"
    cfg.write_text(SIGN_CFG.format(lo=-9, hi=8, s=S, a=A))
    for command in ("pwv", "support", "audit"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}.csv")]) == 0
    rows = [line for line in (tmp_path / "pwv.csv").read_text().splitlines() if line[0] != "#"]
    ps, _, density, _ = np.array([[float(v) for v in row.split(",")] for row in rows[1:]]).T
    assert np.max(np.abs(density - exact_density(ps))) < ERROR_FACTOR * OFF_CENTRE_MEASURED
