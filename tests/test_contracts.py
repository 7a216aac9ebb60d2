"""Contracts that tie a shipped config to a transformed copy of itself.

Scale covariance: with hbar = 1, scaling every length (the box, s and a)
by 2 scales every momentum by 1/2, so P_wv in units of hbar/s is
unchanged.  Mirror: the scheme O(-x) on a symmetric state transfers -p
wherever O(x) transfers p, so odd moments flip sign.  Basis invariance:
a Haar rebase of the channels, O'_eta = sum_xi U[eta, xi] O_xi, leaves
every channel sum, and so the joint table and the MC cell means, unchanged.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from wwm.cli import _build
from wwm.config import parse_config
from wwm.scheme import haar_unitary, rebase
from wwm.simulate import MCConfig, default_bins, deterministic_cells
from wwm.transfer import char_fn, moment_qs, moments
from wwm.weakvalue import pwv_joint, pwv_marginal
from conftest import PHASE_RAMP

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PHASE_RAMP_O = "O = " + PHASE_RAMP
MIRRORED_O = "O = exp(i*0.8*(theta(-x)*theta(1.0+x)*(-x) + theta(-x-1.0)))"


def doubled(text):
    """Every length of the config times 2; `w = s/4` and `pi/(2*s)` follow s."""
    text, count = re.subn(r"^(xmin|xmax|s|a) = (.+)$", r"\1 = 2*(\2)", text, flags=re.M)
    assert count == 4
    return text


def transfer(text):
    cfg = parse_config(text)
    scheme, state = _build(cfg)
    return cfg.s, pwv_marginal(scheme, state), moments(char_fn(scheme, state, qs=moment_qs(state)))


# phase_ramp is left out: its ramp ends at a fixed x = 1.0, which does not scale with s
@pytest.mark.parametrize("name", ["sign", "sew_flat", "kick_pair"])
def test_scale_covariance(name):
    text = (CONFIGS / f"{name}.cfg").read_text()
    s1, base = transfer(text)[:2]
    s2, big = transfer(doubled(text))[:2]
    assert s2 == 2 * s1
    assert np.array_equal(base.ps * s1, big.ps * s2)
    assert np.max(np.abs(base.density / s1 - big.density / s2)) < 1e-14
    assert len(base.atoms) == len(big.atoms)
    for (loc1, w1), (loc2, w2) in zip(base.atoms, big.atoms):
        assert loc1 * s1 == loc2 * s2
        assert abs(w1 - w2) < 1e-15


def test_mirror_flips_phase_ramp():
    text = (CONFIGS / "phase_ramp.cfg").read_text()
    assert PHASE_RAMP_O in text
    _, base, base_moments = transfer(text)
    _, mirrored, mirrored_moments = transfer(text.replace(PHASE_RAMP_O, MIRRORED_O))
    # sample 0 is -pi/dx, whose mirror +pi/dx is not on the grid
    assert np.max(np.abs(base.density[1:] - mirrored.density[1:][::-1])) < 1e-15
    assert len(base.atoms) == len(mirrored.atoms)
    for (loc1, w1), (loc2, w2) in zip(base.atoms, reversed(mirrored.atoms)):
        assert loc1 == -loc2
        assert abs(w1 - w2) < 1e-15
    signs = np.array([-1.0, 1.0, -1.0, 1.0])  # <p^n>, n = 1..4
    assert np.max(np.abs(base_moments.values - signs * mirrored_moments.values)) < 1e-6
    assert np.max(np.abs(base_moments.values[[0, 2]])) > 0.1  # odd moments are not zero


# Rebase bounds: the largest residual measured over the four grid configs at
# rebase seed 0, times REBASE_FACTOR.
REBASE_FACTOR = 4
GRID_CONFIGS = ["sign", "kick_pair", "phase_ramp", "sew_flat"]


def rebased(name):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    scheme, state = _build(cfg)
    mixed = rebase(scheme, haar_unitary(len(scheme), np.random.default_rng(0)))
    return cfg, scheme, mixed, state


@pytest.mark.parametrize("name", GRID_CONFIGS)
def test_joint_table_is_basis_invariant(name):
    _, scheme, mixed, state = rebased(name)
    base, other = pwv_joint(scheme, state), pwv_joint(mixed, state)
    assert np.array_equal(base.p_i, other.p_i)
    # measured 6.9e-18 (phase_ramp), against entries up to 2.0e-2
    assert np.max(np.abs(base.matrix - other.matrix)) < REBASE_FACTOR * 6.9e-18


# (sigma, measured): None is the weak limit, 10 the CLI's default probe width
@pytest.mark.parametrize("sigma, measured", [(None, 4.4e-16), (10.0, 1.9e-15)])
@pytest.mark.parametrize("name", GRID_CONFIGS)
def test_deterministic_cells_are_basis_invariant(name, sigma, measured):
    cfg, scheme, mixed, state = rebased(name)
    edges = default_bins(cfg.s, cfg.n_bins, cfg.bin_span)
    mc = MCConfig(sigma=10.0, shots_per_bin=1, p_i_edges=edges, p_f_edges=edges)
    base = deterministic_cells(scheme, state, mc, sigma=sigma)
    other = deterministic_cells(mixed, state, mc, sigma=sigma)
    assert np.array_equal(np.isnan(base), np.isnan(other))
    assert np.nanmax(np.abs(base - other)) < REBASE_FACTOR * measured
