"""correlation_g's per-q dispatch: the lattice route, the kick closed form,
and the direct quadrature that remains for off-lattice q."""

import tracemalloc
import warnings

import numpy as np
import pytest

from wwm.cli import main
from wwm.grid import make_grid
from wwm.scheme import builtin, haar_unitary, parse_scheme, rebase
from wwm.state import SlitState, gaussian_twin_slits
from wwm.transfer import char_fn, correlation_g, moments
from conftest import S, random_complete_scheme, spectral_refine

PHASE_RAMP = "exp(i*0.8*(theta(x)*theta(1.0-x)*x + theta(x-1.0)))"
PHI_QS = (S / 64.0) * np.arange(-256, 257)  # the q grid of `wwm phi`


def dense_direct_g(scheme, state, qs):
    """Reference: the q x x Riemann sum at every q, the route every q grid
    other than the state's own x grid used to take.  Samples where
    |psi|^2 underflows to 0 are dropped: they add exact zeros."""
    grid = state.grid
    weights = np.abs(state.values) ** 2 * grid.dx
    xs, weights = grid.xs[weights > 0], weights[weights > 0]
    g = np.zeros(qs.shape, dtype=complex)
    chunk = max(1, 2 ** 22 // grid.n)
    for lo in range(0, qs.size, chunk):
        diffs = xs[None, :] - qs[lo : lo + chunk, None]
        for ch in scheme.channels:
            a = weights * ch.evaluate(xs)
            g[lo : lo + chunk] += np.conj(ch.evaluate(diffs)) @ a
    return g


def twin(a, n):
    return gaussian_twin_slits(S, a, make_grid(-8, 8, n))


# --- convergence --------------------------------------------------------


@pytest.mark.parametrize(
    "scheme, a",
    [(builtin("sign"), 0.02), (parse_scheme([PHASE_RAMP]), 0.05)],
    ids=["sign", "phase_ramp"],
)
def test_lattice_route_converges_faster_than_direct(scheme, a):
    lattice = {n: correlation_g(scheme, twin(a, n), PHI_QS) for n in (4096, 16384, 65536)}
    ref = lattice[65536]
    err = {n: np.max(np.abs(lattice[n] - ref)) for n in (4096, 16384)}
    for n in (4096, 16384):
        direct_err = np.max(np.abs(dense_direct_g(scheme, twin(a, n), PHI_QS) - ref))
        assert err[n] <= direct_err / 8.0
    # O(dx^2): a 4x finer grid cuts the error 16x, against the reference...
    assert err[4096] / err[16384] >= 12.0
    # ...and between successive grids, which does not trust the reference
    step_ratio = np.max(np.abs(lattice[4096] - lattice[16384])) / err[16384]
    assert step_ratio >= 12.0


def test_lattice_route_matches_direct_on_smooth_scheme():
    sew = builtin("sew_flat", w=0.25, s=S)
    st = twin(0.05, 4096)
    gap = np.max(np.abs(correlation_g(sew, st, PHI_QS) - dense_direct_g(sew, st, PHI_QS)))
    assert gap < 1e-8


# --- the FFT correlation against an explicit one ---------------------------


def wide_slits(n, length=4.0):
    """Twin slits of width a = L/8 on a box of length L: |psi|^2 is ~1e-4 of
    its peak at the box edges, so a wrapped lag would pair edge samples.
    (gaussian_twin_slits needs a < s/4 and a box of 8s, so its |psi|^2
    there is below e^-196 and hides a wrap.)"""
    grid = make_grid(-length / 2, length / 2, n)
    a = length / 8
    values = np.exp(-((grid.xs - S / 2) ** 2) / (2 * a * a))
    values = values + np.exp(-((grid.xs + S / 2) ** 2) / (2 * a * a))
    values = values / np.sqrt(np.sum(values**2) * grid.dx)
    return SlitState("gaussian", S, (2**-0.5, 2**-0.5), grid, values.astype(complex))


def explicit_lattice_g(scheme, state, refine=4):
    """Reference: g at x_min + i dx as the O(m^2) linear correlation over
    the same 4x band-limited refinement, at lags (j - refine i) dx_fine.
    A 2m - 2 point circular correlation (the 2m - 1 kernel folded, not
    cropped) moves phase_ramp and random by 1e-7 here, sign not at all."""
    fine, psi_fine = spectral_refine(state.grid, state.values, refine)
    weights = np.abs(psi_fine) ** 2 * fine.dx
    lags = np.arange(fine.n)[None, :] - refine * np.arange(state.grid.n)[:, None]
    g = np.zeros(state.grid.n, dtype=complex)
    for ch in scheme.channels:
        g += np.conj(ch.evaluate(fine.dx * lags)) @ (weights * ch.evaluate(fine.xs))
    return g


def white_noise(n, x_min=-2.5, x_max=1.5):
    """Normalized complex normal samples on an off-centre box: every Fourier
    bin is populated, the Nyquist bin too, so the spectral shifts' phase
    convention shows, and |psi|^2 is O(1) at the box edges, so a wrap would."""
    grid = make_grid(x_min, x_max, n)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values = values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    return SlitState("gaussian", S, (2**-0.5, 2**-0.5), grid, values)


# max |g - explicit| measured, over the three schemes at n = 64 and 256
EXPLICIT_GAP = {"wide_slits": 1.12e-15, "white_noise": 8.9e-16}


@pytest.mark.parametrize(
    "make_state, name, n",
    [
        pytest.param(make, name, n, id=f"{prefix}{name}-{n}")
        for make, prefix in ((wide_slits, ""), (white_noise, "white_noise-"))
        for name in ("sign", "phase_ramp", "random")
        for n in (64, 256)
    ],
)
def test_lattice_route_is_the_explicit_linear_correlation(make_state, name, n):
    scheme = {
        "sign": builtin("sign"),
        "phase_ramp": parse_scheme([PHASE_RAMP]),
        "random": random_complete_scheme(np.random.default_rng(n)),
    }[name]
    state = make_state(n)
    ref = explicit_lattice_g(scheme, state)
    density = np.abs(state.values) ** 2
    assert density[[0, -1]].min() > 1e-5 * density.max()  # a wrap would show
    gap = np.max(np.abs(correlation_g(scheme, state, state.grid.xs) - ref))
    assert gap < 8 * EXPLICIT_GAP[make_state.__name__]


def test_lattice_route_memory_is_bounded():
    """At n = 16384 the lattice g holds a few 2n point spectra and builds no
    4x grid: it read 21.4 MiB with one 16n point transform per channel,
    11.4 MiB with 8n point spectra on the refined psi, 3.6 MiB now."""
    state = twin(0.02, 16384)
    tracemalloc.start()
    try:
        correlation_g(builtin("sign"), state, state.grid.xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# --- dispatch -----------------------------------------------------------


def test_on_lattice_entries_do_not_depend_on_the_rest(sign, state_a50):
    grid = state_a50.grid
    whole = correlation_g(sign, state_a50, grid.xs)
    picks = np.array([0, 5, 1000, 2048, 4095])
    off = np.array([grid.xs[10] + 0.3 * grid.dx, grid.x_max, 12.0, -12.0])
    qs = np.concatenate([grid.xs[picks[:2]], off, grid.xs[picks[2:]]])
    g = correlation_g(sign, state_a50, qs)
    assert np.array_equal(g[[0, 1, 6, 7, 8]], whole[picks])
    # a lattice q built another way (phi's s/64 steps) reads the same bits
    assert np.array_equal(correlation_g(sign, state_a50, PHI_QS[::-1]), whole[1024:3073:4][::-1])


def test_box_edges_and_out_of_box_match_direct(sign, state_a50):
    grid = state_a50.grid
    qs = np.array([grid.x_max, -grid.x_max, 9.5, -9.5, 40.0, -40.0])
    ref = dense_direct_g(sign, state_a50, qs)
    assert np.max(np.abs(correlation_g(sign, state_a50, qs) - ref)) < 1e-12


def test_non_finite_q_do_not_raise_in_the_dispatch(sign, state_a50):
    grid = state_a50.grid
    qs = np.array([np.nan, grid.xs[3], np.inf, -np.inf, grid.xs[7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = correlation_g(sign, state_a50, qs)
    whole = correlation_g(sign, state_a50, grid.xs)
    assert g[1] == whole[3] and g[4] == whole[7]
    assert np.all(np.isfinite(g[[2, 3]]))  # each slit is wholly on one side


# --- kick closed form ----------------------------------------------------


def test_kick_closed_form_matches_direct(identity, kick_pair, state_a50):
    rng = np.random.default_rng(3)
    schemes = {
        "identity": identity,
        "kick_pair": kick_pair,
        "single": builtin("kicks", kicks=[(1.0, 2.0)]),
        "rebased": rebase(kick_pair, haar_unitary(2, rng)),
    }
    qs = np.concatenate([PHI_QS[::8], [0.3 * state_a50.grid.dx, 8.0, 11.0, -11.0]])
    for name, sch in schemes.items():
        gap = np.max(np.abs(correlation_g(sch, state_a50, qs) - dense_direct_g(sch, state_a50, qs)))
        assert gap < 1e-14, name


def test_identity_moments_exactly_zero(identity, state_a50):
    qs = (S / 128.0) * np.arange(-16, 17)
    rep = moments(char_fn(identity, state_a50, qs=qs))
    assert np.all(rep.values == 0.0)


# --- CLI ----------------------------------------------------------------

SMALL_SIGN_CFG = """
[grid]
xmin = -8
xmax = 8
n = 2048

[state]
kind = gaussian
s = 1.0
a = 0.05

[scheme]
builtin = sign
"""


def phi_rows(tmp_path, qmax):
    cfg = tmp_path / "sign.cfg"
    cfg.write_text(SMALL_SIGN_CFG)
    out = tmp_path / f"phi_{qmax}.csv"
    assert main(["phi", "--config", str(cfg), "--qmax", qmax, "--out", str(out)]) == 0
    return [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]


def test_phi_rows_do_not_depend_on_qmax(tmp_path):
    wide = phi_rows(tmp_path, "12")  # beyond the +-8 box
    data = np.array([[float(v) for v in row.split(",")] for row in wide])
    assert np.all(np.isfinite(data)) and data[-1, 0] == 12.0
    inner = [row for row, q in zip(wide, data[:, 0]) if abs(q) <= 4.0]
    assert inner == phi_rows(tmp_path, "4")
