"""The slice check `wwm wigner` runs: W_f = K (*)_p W_i at the printed x,
on the kernel K it prints, atoms and lattice PV term included."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from wwm import cli, transfer
from wwm.cli import FMT, main
from wwm.config import build_scheme, build_state, parse_config
from wwm.grid import make_grid
from wwm.scheme import builtin, parse_scheme
from wwm.state import gaussian_twin_slits
from wwm.transfer import wigner_kernel, wigner_slice_residual
from conftest import S, random_complete_scheme

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PHASE_RAMP = "exp(i*0.8*(theta(x)*theta(1.0-x)*x + theta(x-1.0)))"
# Stated bound on the grid configs up to n = 16384, where the residual is
# rounding only: 2.4e-17 (kick_pair) to 7.5e-14 (sign at n = 16384).
SLICE_TOL = 1e-12


def slice_residual(scheme, state, x, kernel=None):
    if kernel is None:
        kernel = wigner_kernel(scheme, x, state.grid)
    return wigner_slice_residual(scheme, state, x, kernel)


@pytest.mark.parametrize("name, n", [
    ("sign", 4096), ("kick_pair", 4096), ("phase_ramp", 4096), ("sew_flat", 4096), ("sign", 16384),
])
def test_slice_residual_is_rounding_on_the_grid_configs(name, n):
    text = (CONFIGS / f"{name}.cfg").read_text().replace("n = 4096", f"n = {n}")
    cfg = parse_config(text)
    state = build_state(cfg)
    assert state.grid.n == n
    assert slice_residual(build_scheme(cfg), state, cfg.s / 2) < SLICE_TOL


def test_lattice_pv_term_closes_the_first_order_gap_in_the_box():
    """phase_ramp's kernel has a tail step (pv_coefficient sin 0.8): applied
    without its lattice PV term it misses W_f by 3.06e-4 at L = 16, halving
    with each doubling of L at fixed dx; with it, by rounding."""
    ramp = parse_scheme([PHASE_RAMP])
    without = []
    for half in (8, 16, 32):
        state = gaussian_twin_slits(S, S / 20, make_grid(-half, half, 512 * half))
        kernel = wigner_kernel(ramp, S / 2, state.grid)
        assert kernel.pv_coefficient == pytest.approx(np.sin(0.8), abs=1e-12)
        assert slice_residual(ramp, state, S / 2, kernel) < SLICE_TOL
        bare = dataclasses.replace(kernel, pv_coefficient=0.0)
        without.append(slice_residual(ramp, state, S / 2, bare))
    assert without[0] == pytest.approx(3.06e-4, rel=0.01)
    for coarse, fine in zip(without, without[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.01)


@pytest.mark.filterwarnings("ignore:wigner kernel tail")  # random channels never settle
@pytest.mark.parametrize("seed", range(4))
def test_slice_off_the_lattice_reads_the_states_shifted(monkeypatch, seed):
    """At x off the lattice, psi and the conditioned states are read by one
    Fourier shift; read at the lattice point below x instead, W_f is the row
    of another slice than the kernel's and misses by 1e-6 to 1e-5."""
    grid = make_grid(-4, 4, 1024)
    state = gaussian_twin_slits(S, S / 20, grid)
    scheme = random_complete_scheme(np.random.default_rng(seed), 2 + seed % 2)
    x = S / 2 + 0.3 * grid.dx
    kernel = wigner_kernel(scheme, x, grid)
    assert slice_residual(scheme, state, x, kernel) < 1e-13
    monkeypatch.setattr(transfer, "_fourier_shifted", lambda values, f: values)
    assert slice_residual(scheme, state, x, kernel) > 5e-7


def test_kicks_off_the_dual_grid_enter_as_phases():
    """A kick between dual-grid momenta is applied exactly as exp(i k q);
    snapped to its nearest dual momentum (an index roll) it misses."""
    grid = make_grid(-4, 4, 1024)
    state = gaussian_twin_slits(S, S / 20, grid)
    kicks = builtin("kicks", kicks=[(0.3, 1.379298660228528), (0.7, -2.71)])
    kernel = wigner_kernel(kicks, S / 2, grid)
    assert not set(loc for loc, _ in kernel.atoms) & set(kernel.ps)
    assert slice_residual(kicks, state, S / 2, kernel) < 1e-15
    snapped = [(kernel.ps[np.argmin(np.abs(kernel.ps - loc))], w) for loc, w in kernel.atoms]
    bad = dataclasses.replace(kernel, atoms=snapped)
    assert slice_residual(kicks, state, S / 2, bad) > 1e-4


def rolled(scheme, x, grid):
    kernel = wigner_kernel(scheme, x, grid)
    return dataclasses.replace(kernel, density=np.roll(kernel.density, 1))


def doubled_lags(scheme, x, grid):
    return wigner_kernel(scheme, x, make_grid(2 * grid.x_min, 2 * grid.x_max, grid.n))


@pytest.mark.parametrize("corrupt, message", [
    (rolled, "wigner identity residual 5.361e-04 is not below 1e-06"),
    (doubled_lags, "wigner kernel momenta are not the dual grid of the slice's lags"),
])
def test_cmd_wigner_exits_1_on_a_corrupted_kernel(tmp_path, monkeypatch, capsys, corrupt, message):
    """The check reads the kernel the command prints: its density moved by
    one bin, or sampled at lags 4 dx apart, ends the run before any output."""
    monkeypatch.setattr(cli, "wigner_kernel", corrupt)
    out = tmp_path / "wig.csv"
    assert main(["wigner", "--config", str(CONFIGS / "sign.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"wwm: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("x", ["1e300", "-1.7e308"])
def test_slice_far_outside_the_box_reads_zeros(tmp_path, x):
    """Any finite x is a slice: one a box width or more outside reads only
    zero samples, so its rows vanish, with no index overflow on the way."""
    out = tmp_path / "wig.csv"
    cfg = str(CONFIGS / "sign.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wigner", "--config", cfg, f"--x={x}", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == [f"# x,{FMT % float(x)}", f"# identity_residual,{FMT % 0.0}"]
