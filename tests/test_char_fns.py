"""char_fns answers several q sets from one correlation_g request, and each
chi it returns carries the bits of its own char_fn call.  `run_audit` reads
all its chi rows from one such request per scheme: its rows are those of
the five separate calls it once made, from two lattice blocks in place of
five, on any box."""

from pathlib import Path

import numpy as np
import pytest

from wwm import transfer
from wwm.audit import mixing_unitary, run_audit
from wwm.config import build_scheme, build_state, parse_config
from wwm.scheme import rebase
from wwm.transfer import (
    char_fn, char_fns, correlation_g, moment_qs, moments, phi_dq, support_metric, support_widths,
)
from wwm.weakvalue import pwv_marginal
from conftest import haar_unitary
from test_families import CASES as FAMILIES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GRID_CONFIGS = ("sign", "kick_pair", "phase_ramp", "sew_flat")


def shipped(name):
    return (CONFIGS / f"{name}.cfg").read_text()


CASES = {name: shipped(name) for name in GRID_CONFIGS}
CASES["sign_off_centre"] = shipped("sign").replace("xmin = -8\n", "xmin = -9\n")
CASES["sign_narrow_own_grid"] = "[grid]\nxmin = -6\nxmax = 7\nn = 2048\n\n" + shipped("sign_narrow")
CASES.update({f"family_{name}": text for name, text in FAMILIES.items()})
CASES["sign_16384"] = shipped("sign").replace("n = 4096\n", "n = 16384\n")


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    cfg = parse_config(CASES[request.param])
    return build_scheme(cfg), build_state(cfg)


def audit_q_sets(state):
    """The q sets `run_audit` reads chi on: phi's, the moments', the n lags."""
    return [phi_dq(state) * np.arange(-512, 513), moment_qs(state), None]


def test_the_case_configs_are_what_they_name():
    assert "xmin = -9\n" in CASES["sign_off_centre"] and "n = 16384\n" in CASES["sign_16384"]


def test_each_joined_chi_is_its_own_call_bit_for_bit(case):
    scheme, state = case
    q_sets = audit_q_sets(state)
    joined = char_fns(scheme, state, *q_sets)
    assert len(joined) == len(q_sets)
    for qs, chi in zip(q_sets, joined):
        alone = char_fn(scheme, state, qs)
        assert np.array_equal(chi.qs, alone.qs)
        assert np.array_equal(chi.values, alone.values)
        assert np.array_equal(chi.g, correlation_g(scheme, state, chi.qs))
        # chi as the one-set request took it before char_fns
        g = correlation_g(scheme, state, np.concatenate([chi.qs, -chi.qs]))
        assert np.array_equal(chi.values, 0.5 * (g[: chi.qs.size] + np.conj(g[chi.qs.size :])))


def five_call_rows(scheme, state):
    """The chi-reading audit rows as five separate g requests compute them."""
    s = state.s
    qs = phi_dq(state) * np.arange(-512, 513)
    chi = char_fn(scheme, state, qs)
    re_g = correlation_g(scheme, state, qs).real
    rep = moments(char_fn(scheme, state, moment_qs(state)))
    dist = pwv_marginal(scheme, state)
    mixed = rebase(scheme, mixing_unitary(len(scheme)))
    dist_mixed = pwv_marginal(mixed, state)
    third, inv = (float(support_metric(dist, w)) for w in support_widths(s))
    return {
        "chi_at_0": float(np.abs(chi.at0())),
        "max_abs_chi": float(np.max(np.abs(chi.values))),
        "abs_chi_at_s": float(np.abs(chi.values[int(np.argmin(np.abs(qs - s)))])),
        "moment": rep.values,
        "moment_imag_residual": rep.imag_residual,
        "support_outside_pi_3s": third,
        "support_outside_inv_s": inv,
        "total_abs_mass": float(support_metric(dist, 0.0)),
        "basis_residual": float(np.max(np.abs(dist.bin_masses() - dist_mixed.bin_masses()))),
        "re_form_gap": float(np.max(np.abs(chi.values - re_g))),
    }


@pytest.mark.parametrize("seed", [0, 3])
def test_audit_rows_are_the_five_call_rows(case, seed):
    """On the scheme as configured and in a Haar basis drawn from seed."""
    scheme, state = case
    for basis in (scheme, rebase(scheme, haar_unitary(len(scheme), np.random.default_rng(seed)))):
        rows = {row.field: row.value for row in run_audit(basis, state)[1]}
        for field, value in five_call_rows(basis, state).items():
            assert np.array_equal(rows[field], value), field


def lattice_builds(monkeypatch, text, run):
    """How many lattice blocks run(scheme, state) builds on config text."""
    calls = []
    lattice_g = transfer._lattice_g

    def counted(*args):
        calls.append(args)
        return lattice_g(*args)

    monkeypatch.setattr(transfer, "_lattice_g", counted)
    cfg = parse_config(text)
    run(build_scheme(cfg), build_state(cfg))
    return len(calls)


@pytest.mark.parametrize(
    "name, builds",
    [("sign", 2), ("phase_ramp", 2), ("sew_flat", 2), ("kick_pair", 0), ("sign_narrow", 0),
     ("sign_off_centre", 2)],
)
def test_audit_builds_one_lattice_block_per_scheme(monkeypatch, name, builds):
    """One block for the scheme and one for its rebase, on a box centred on
    0 or not; kick schemes and narrow states take closed forms and build none."""
    text = CASES.get(name) or shipped(name)
    assert lattice_builds(monkeypatch, text, run_audit) == builds


def test_pwv_builds_one_lattice_block_off_centre(monkeypatch):
    """The n lags sit in one block keyed on q = 0, not on the box."""
    assert lattice_builds(monkeypatch, CASES["sign_off_centre"], pwv_marginal) == 1
