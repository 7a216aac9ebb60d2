"""Contracts that tie a shipped config to a transformed copy of itself.

Scale covariance: with hbar = 1, scaling every length (the box, s and a)
by 2 scales every momentum by 1/2, so P_wv in units of hbar/s is
unchanged.  Mirror: the scheme O(-x) on a symmetric state transfers -p
wherever O(x) transfers p, so odd moments flip sign.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from wwm.cli import _build
from wwm.config import parse_config
from wwm.transfer import char_fn, moment_qs, moments
from wwm.weakvalue import pwv_marginal

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PHASE_RAMP_O = "O = exp(i*0.8*(theta(x)*theta(1.0-x)*x + theta(x-1.0)))"
MIRRORED_O = "O = exp(i*0.8*(theta(-x)*theta(1.0+x)*(-x) + theta(-x-1.0)))"


def doubled(text):
    """Every length of the config times 2; `w = s/4` and `pi/(2*s)` follow s."""
    text, count = re.subn(r"^(xmin|xmax|s|a) = (.+)$", r"\1 = 2*(\2)", text, flags=re.M)
    assert count == 4
    return text


def transfer(text):
    cfg = parse_config(text)
    scheme, state = _build(cfg)
    return cfg.s, pwv_marginal(scheme, state), moments(char_fn(scheme, state, qs=moment_qs(cfg.s)))


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
