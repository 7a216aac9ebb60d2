"""Contracts over a family of schemes and boxes, not only the shipped configs.

Each case is configs/sign.cfg's state (s = 1, a = 0.02) at n = 2048:

* logistic -- the partition O = sqrt(1/(1 + exp(-+x/0.05))) on [-4, 4]
  (dx = a/5.12): smooth channels whose P_wv is not positive;
* projectors -- theta(-x-0.3), theta(x+0.3)*theta(0.3-x), theta(x-0.3) on
  [-4, 4]: three channels, each slit seen by one;
* sign_off_centre -- builtin sign on [-4.5, 4], a box not centred on 0.

Every non-MC command exits 0 with nothing on stderr and no warning, and
`audit` meets its own invariants: chi(0) = 1, a basis residual below 1e-9
and a moment-change mismatch below 1e-4 (measured: 2.2e-16 and 4.3e-10 on
logistic, mismatch 8.3e-14 on projectors).
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wwm.cli import main

STATE = """
[grid]
xmin = {lo}
xmax = {hi}
n = 2048

[state]
kind = gaussian
s = 1.0
a = 0.02

[scheme]
"""
CASES = {
    "logistic": STATE.format(lo=-4, hi=4)
    + "O = sqrt(1/(1+exp(-x/0.05)))\nO = sqrt(1/(1+exp(x/0.05)))\n",
    "projectors": STATE.format(lo=-4, hi=4)
    + "O = theta(-x-0.3)\nO = theta(x+0.3)*theta(0.3-x)\nO = theta(x-0.3)\n",
    "sign_off_centre": STATE.format(lo=-4.5, hi=4) + "builtin = sign\n",
}
COMMANDS = ("check", "pwv", "phi", "moments", "support", "audit", "wigner", "momentum-dist")

# logistic <p^2>, <p^4> as this code computes them.  An independent direct
# quadrature of chi on 800,001 points, fitted by polynomials, agrees to
# QUADRATURE_AGREEMENT relative; the bound is AGREEMENT_FACTOR times that.
LOGISTIC_MOMENTS = {2: 4.724790316616e-3, 4: -3.306266883657}
QUADRATURE_AGREEMENT = 6e-7
AGREEMENT_FACTOR = 2.0


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(case, command) -> (exit code, stdout, stderr, --out file text), once each.

    Every warning is an error here, so numpy warning text cannot pass unseen.
    """
    root = tmp_path_factory.mktemp("families")
    done = {}

    def run(case, command):
        if (case, command) not in done:
            cfg = root / f"{case}.cfg"
            cfg.write_text(CASES[case])
            out = root / f"{case}.{command}.csv"
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([command, "--config", str(cfg), "--out", str(out)])
            text = out.read_text() if out.exists() else ""
            done[case, command] = code, stdout.getvalue(), stderr.getvalue(), text
        return done[case, command]

    return run


def audit_fields(run, case):
    rows = run(case, "audit")[3].splitlines()[1:]
    return dict(row.split(",") for row in rows)


def moment(run, case, order):
    return float(run(case, "moments")[3].splitlines()[order].split(",")[1])


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_command_exits_0_with_empty_stderr(run, case, command):
    code, _, err, _ = run(case, command)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_invariants(run, case):
    fields = audit_fields(run, case)
    assert abs(float(fields["chi_at_0"]) - 1.0) <= 1e-12
    assert float(fields["basis_residual"]) < 1e-9
    assert float(fields["moment_change_mismatch"]) < 1e-4


def test_projectors_keep_half_the_mass_at_zero_transfer(run):
    atoms = [line for line in run("projectors", "pwv")[3].splitlines() if line.startswith("# atom,")]
    assert len(atoms) == 1
    _, loc, weight = atoms[0][2:].split(",")
    assert float(loc) == 0.0 and abs(float(weight) - 0.5) < 1e-12
    assert abs(float(audit_fields(run, "projectors")["abs_chi_at_s"]) - 0.5) < 1e-12


@pytest.mark.parametrize("order", sorted(LOGISTIC_MOMENTS))
def test_logistic_moments_match_the_independent_quadrature(run, order):
    expected = LOGISTIC_MOMENTS[order]
    bound = AGREEMENT_FACTOR * QUADRATURE_AGREEMENT * abs(expected)
    assert abs(moment(run, "logistic", order) - expected) < bound
