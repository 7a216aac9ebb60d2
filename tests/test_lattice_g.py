"""correlation_g's per-q dispatch: the lattice route in blocks of n + 1
lags for any lag q = m dx, in the box or beyond it, on a box centred on 0
or not, the kick closed form and the narrow sum for any finite q, and the
refusal of every other q.  The
q x x Riemann sum the package once ran off the lattice, dense_direct_g,
stays here as the reference beyond the box."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from wwm.cli import main
from wwm.errors import WWMError
from wwm.grid import make_grid
from wwm.scheme import builtin, haar_unitary, parse_scheme, rebase
from wwm.state import SlitState, gaussian_twin_slits, narrow_twin_slits
from wwm.transfer import char_fn, correlation_g, moments, phi_dq
from conftest import PHASE_RAMP, S, random_complete_scheme, spectral_refine
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


def explicit_g(scheme, state, qs, refine=4):
    """Reference: g at qs as the O(m^2) linear correlation over the same 4x
    band-limited refinement, each channel's O(x - q) taken at the fine x.
    (On the dyadic boxes below x - q is exact, the lag (j - 4 i) dx_fine.)
    A 2m - 2 point circular correlation (the 2m - 1 kernel folded, not
    cropped) moves phase_ramp and random by 1e-7 here, sign not at all."""
    fine, psi_fine = spectral_refine(state.grid, state.values, refine)
    weights = np.abs(psi_fine) ** 2 * fine.dx
    g = np.zeros(qs.size, dtype=complex)
    for ch in scheme.channels:
        g += np.conj(ch.evaluate(fine.xs[None, :] - qs[:, None])) @ (weights * ch.evaluate(fine.xs))
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


def off_step_noise(n):
    """White noise on [-2.3, 1.7]: x_min is 0.2 dx off the lags q = m dx."""
    return white_noise(n, -2.3, 1.7)


# max |g - explicit| measured, over the three schemes at n = 64 and 256
EXPLICIT_GAP = {"wide_slits": 1.12e-15, "white_noise": 8.9e-16, "off_step_noise": 1.12e-15}


@pytest.mark.parametrize(
    "make_state, name, n",
    [
        pytest.param(make, name, n, id=f"{prefix}{name}-{n}")
        for make, prefix in (
            (wide_slits, ""), (white_noise, "white_noise-"), (off_step_noise, "off_step-")
        )
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
    grid = state.grid
    # the box, then each side of the block edges at multiples of n: lag
    # b n + n is the circular slot 2n - 1 plus its j = 0 term
    edges = np.array([-n - 1, -n, -1, 0, n - 1, n, n + 1, 2 * n, 2 * n + 1])
    base = np.rint(grid.x_min / grid.dx)  # the box's own lags are base ... base + n
    qs = grid.dx * (base + np.concatenate([np.arange(n), edges]))
    density = np.abs(state.values) ** 2
    assert density[[0, -1]].min() > 1e-5 * density.max()  # a wrap would show
    gap = np.max(np.abs(correlation_g(scheme, state, qs) - explicit_g(scheme, state, qs)))
    assert gap < 8 * EXPLICIT_GAP[make_state.__name__]


def test_lattice_route_memory_is_bounded():
    """At n = 16384 the lattice g holds a few 2n point spectra and builds no
    4x grid: it read 21.4 MiB with one 16n point transform per channel,
    11.4 MiB with 8n point spectra on the refined psi, 3.8 MiB now.  The
    q and -q of `phi --qmax 40`, five blocks reaching past the +-8 box,
    read 3.5 MiB (161 MiB when a q x x quadrature served q beyond the box)."""
    state = twin(0.02, 16384)
    half = phi_dq(state) * np.arange(-2560, 2561)
    for qs in (state.grid.xs, np.concatenate([half, -half])):
        tracemalloc.start()
        try:
            correlation_g(builtin("sign"), state, qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


# --- dispatch -----------------------------------------------------------


def test_on_lattice_entries_do_not_depend_on_the_rest(sign, state_a50):
    grid = state_a50.grid
    whole = correlation_g(sign, state_a50, grid.xs)
    picks = np.array([0, 5, 1000, 2048, 4095])
    other_blocks = np.array([grid.x_max, 12.0, -12.0])  # blocks 0, 1 and -1
    qs = np.concatenate([grid.xs[picks[:2]], other_blocks, grid.xs[picks[2:]]])
    g = correlation_g(sign, state_a50, qs)
    assert np.array_equal(g[[0, 1, 5, 6, 7]], whole[picks])
    # a lattice q built another way (phi's s/64 steps) reads the same bits
    assert np.array_equal(correlation_g(sign, state_a50, PHI_QS[::-1]), whole[1024:3073:4][::-1])


def test_box_edges_and_out_of_box_match_direct(sign, state_a50):
    grid = state_a50.grid
    qs = np.array([grid.x_max, -grid.x_max, 9.5, -9.5, 40.0, -40.0])
    ref = dense_direct_g(sign, state_a50, qs)
    assert np.max(np.abs(correlation_g(sign, state_a50, qs) - ref)) < 1e-12


def test_non_finite_q_are_refused_on_every_state(sign, kick_pair, state_a50):
    states = ((sign, state_a50), (kick_pair, state_a50), (sign, narrow_twin_slits(S)))
    for bad in (np.nan, np.inf, -np.inf):
        for scheme, state in states:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # refused with no RuntimeWarning
                with pytest.raises(WWMError, match="finite"):
                    correlation_g(scheme, state, np.array([state_a50.grid.xs[3], bad]))


def test_off_lattice_q_is_refused_naming_the_nearest(sign, state_a50):
    grid = state_a50.grid
    near = float(grid.xs[10])
    with pytest.raises(WWMError, match=re.escape(f"nearest lattice q is {near!r}")):
        correlation_g(sign, state_a50, np.array([grid.xs[3], near + 0.3 * grid.dx]))
    # beyond the box too, at lattice index 3n + 7
    far = grid.x_min + grid.dx * (3 * grid.n + 7)
    with pytest.raises(WWMError, match=re.escape(f"nearest lattice q is {far!r}")):
        correlation_g(sign, state_a50, np.array([far - 0.2 * grid.dx]))
    # a half step far out: 1e12 steps round by ~1e-4 steps, well inside the tolerance
    with pytest.raises(WWMError, match=re.escape(f"nearest lattice q is {grid.dx * 1e12!r}")):
        correlation_g(sign, state_a50, np.array([grid.dx * (1e12 + 0.5)]))
    # past 2^40 steps every q is refused, naming the last lattice q
    last = re.escape(f"nearest lattice q is {grid.dx * 2.0**40!r}")
    for q in (grid.dx * (2.0**40 + 1), np.finfo(float).max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # q / dx would overflow unclipped
            with pytest.raises(WWMError, match=last):
                correlation_g(sign, state_a50, np.array([q]))


def test_far_lattice_q_pass_at_their_rounding():
    """q = 4 dx i, as `phi` steps, rounds its index by ~|k| 1.5e-16: 6e-8 at
    |k| = 4e8, past a fixed 1e-9 tolerance.  Each reads its lattice bits."""
    state = white_noise(64, -0.15, 0.15)  # dx = 0.3/64 is not a binary fraction
    grid = state.grid
    qs = (4 * grid.dx) * np.arange(10**8 - 200, 10**8 + 200)
    lattice_qs = grid.x_min + grid.dx * np.rint((qs - grid.x_min) / grid.dx)
    scheme = random_complete_scheme(np.random.default_rng(5))
    g = correlation_g(scheme, state, qs)
    assert np.array_equal(g, correlation_g(scheme, state, lattice_qs))
    # out to the 2^40 step bound, where the rounding is ~1e-4 steps
    far = np.array([grid.dx * 1e12, (4 * grid.dx) * 2.5e11, grid.dx * 2.0**40])
    far = correlation_g(scheme, state, far)
    assert far[0] == far[1] and np.all(np.isfinite(far))


def test_kick_and_narrow_take_any_finite_q(sign, kick_pair, state_a50):
    qs = np.array([0.3 * state_a50.grid.dx, 1e-7, 11.0, -1e3, np.pi])
    narrow = narrow_twin_slits(S)
    assert np.all(np.isfinite(correlation_g(kick_pair, state_a50, qs)))
    assert np.all(np.isfinite(correlation_g(sign, narrow, qs)))
    assert correlation_g(sign, narrow, qs)[1] == pytest.approx(1.0)


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
