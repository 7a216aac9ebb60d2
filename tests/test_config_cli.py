import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wwm import cli, simulate, weakvalue
from wwm.cli import COMMANDS, FMT, main
from wwm.config import build_scheme, build_state, load_config, parse_config
from wwm.errors import ConfigError
from wwm.grid import make_grid
from wwm.scheme import Scheme, builtin
from wwm.simulate import (
    MCConfig, default_bins, deterministic_cells, run_reference, run_weak_experiment
)
from wwm.transfer import verify_wigner_identity, wigner_kernel, wigner_slice_residual
from wwm.weakvalue import conditional_cells, pwv_joint, pwv_narrow_sign

SIGN_CFG = """
# sign measurement, desk-scale defaults
[grid]
xmin = -8
xmax = 8
n = 4096

[state]
kind = gaussian
s = 1.0
a = 0.02

[scheme]
builtin = sign
"""

KICKS_CFG = """
[grid]
xmin = -8
xmax = 8
n = 2048

[state]
kind = gaussian
s = 1.0
a = 0.05

[scheme]
builtin = kicks
kick = 0.5, pi/(2*s)
kick = 0.5, -pi/(2*s)
"""

CUSTOM_CFG = """
[state]
kind = narrow
s = 2.0

[scheme]
O = theta(x)
O = theta(-x)
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
GRID_CONFIGS = ("sign", "kick_pair", "phase_ramp", "sew_flat")
MIB = 2 ** 20


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_fields():
    cfg = parse_config(KICKS_CFG)
    assert cfg.grid_spec == (-8.0, 8.0, 2048)
    assert cfg.s == 1.0 and cfg.a == 0.05
    kicks = cfg.scheme_params["kicks"]
    assert kicks[0] == pytest.approx((0.5, np.pi / 2))
    assert kicks[1] == pytest.approx((0.5, -np.pi / 2))
    scheme = build_scheme(cfg)
    assert scheme.kick_terms is not None


def test_parse_config_narrow_custom():
    cfg = parse_config(CUSTOM_CFG)
    assert cfg.kind == "narrow"
    state = build_state(cfg)
    assert state.kind == "narrow" and state.s == 2.0
    assert len(build_scheme(cfg)) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[grid]\nxmin = -8\n",  # missing keys
        "[scheme]\nbuiltin = sign\nO = theta(x)\n",  # mixed scheme definition
        "[state]\nkind = foo\n[scheme]\nbuiltin = sign\n",
        "stray = 1\n",
        "[run]\nmode = sideways\n[scheme]\nbuiltin = sign\n",
        "[scheme]\nkick = 1\n",
        # a scheme parameter the scheme does not read
        "[scheme]\nbuiltin = sign\nkick = 1, 0\n",
        "[scheme]\nbuiltin = identity\nw = 0.25\n",
        "[scheme]\nO = theta(x)\nO = theta(-x)\nkick = 1, 0\n",
        "[scheme]\nO = 1\nw = 0.25\n",
        "[scheme]\nbuiltin = kicks\nkick = 1, 0\nw = 0.25\n",
        "[scheme]\nbuiltin = sew_flat\nw = 0.25\nkick = 1, 0\n",
        # a single-valued key given twice
        "[state]\ns = 1\ns = 2\n[scheme]\nbuiltin = sign\n",
        "[scheme]\nbuiltin = sign\nbuiltin = identity\n",
        "[run]\nx = 0\n[scheme]\nbuiltin = sign\n[run]\nx = 1\n",
        # a section, a state parameter or a builtin the run would not read
        "[rnu]\nn_bins = 0\nfoo = bar\n[scheme]\nbuiltin = sign\n",
        "[state]\nkind = narrow\na = 0.05\n[scheme]\nbuiltin = sign\n",
        "[state]\na = 0.05\nkind = narrow\n[scheme]\nbuiltin = sign\n",
        "[scheme]\nbuiltin = foo\n",
        # a number that reads the position x, which a config value has not
        "[grid]\nxmin = -8\nxmax = 8 + x\nn = 64\n[scheme]\nbuiltin = sign\n",
        "[state]\na = 0.02 + x\n[scheme]\nbuiltin = sign\n",
        # a channel that does not parse (an empty `O =` was skipped, `O = O = ...` read)
        "[scheme]\nO = theta(x)\nO = exp(\n",
        "[scheme]\nO = theta(x)\nO =\nO = theta(-x)\n",
        "[scheme]\nO = O = theta(x)\nO = theta(-x)\n",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("builtin = sign", "builtin = sign\n[run]\nmode = narrow", "'mode'"),
        ("builtin = sign", "builtin = sign\nkick = 1, 0", "'kick'"),
        ("s = 1.0", "s = 1.0\ns = 2.0", "'s'"),
        ("builtin = sign", "builtin = sign\n[rnu]\nn_bins = 0\nfoo = bar", "[rnu]"),
        ("kind = gaussian", "kind = narrow", "'a'"),
        ("builtin = sign", "builtin = foo", "'foo'"),
        ("xmax = 8", "xmax = 8 + x", "[grid] line 5: bad number '8 + x'"),
        ("a = 0.02", "a = 0.02 + x", "[state] line 11: bad number '0.02 + x'"),
    ],
)
def test_dropped_config_input_exits_2_naming_the_key(tmp_path, capsys, old, new, key):
    cfg = write(tmp_path, "sign.cfg", SIGN_CFG.replace(old, new))
    assert main(["check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wwm: parse error: ") and key in err


def test_fractional_integer_fields_exit_2(tmp_path):
    for text in (SIGN_CFG.replace("n = 4096", "n = 4096.7"), SIGN_CFG + "[run]\nn_bins = 7.9\n"):
        cfg = write(tmp_path, "frac.cfg", text)
        with pytest.raises(ConfigError):
            parse_config(text)
        assert main(["check", "--config", cfg]) == 2


def test_nonpositive_n_bins_exit_2(tmp_path):
    for n_bins in ("-3", "0"):
        text = SIGN_CFG + f"[run]\nn_bins = {n_bins}\n"
        with pytest.raises(ConfigError):
            parse_config(text)
        cfg = write(tmp_path, "bins.cfg", text)
        assert main(["simulate", "--config", cfg, "--shots", "10"]) == 2


def test_cmd_check_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "sign.cfg", SIGN_CFG)
    assert main(["check", "--config", good]) == 0
    out = capsys.readouterr().out
    assert "visibility = 0.000000000000e+00" in out

    bad = write(tmp_path, "bad.cfg", "[scheme]\nO = theta(x)\n")
    assert main(["check", "--config", bad]) == 1  # incomplete scheme

    broken = write(tmp_path, "broken.cfg", "[scheme]\nO = exp(\n")
    assert main(["check", "--config", broken]) == 2


def test_channel_syntax_error_names_the_file_line(tmp_path, capsys):
    """The offset counts in the value of the `O =` line the error names."""
    text = SIGN_CFG.replace("builtin = sign", "O = theta(x)\n  O =  exp(  # comment")
    cfg = write(tmp_path, "broken.cfg", text)
    assert main(["check", "--config", cfg]) == 2
    lineno = text.splitlines().index("  O =  exp(  # comment") + 1
    assert capsys.readouterr().err == (
        f"wwm: parse error: [scheme] line {lineno}: bad channel 'exp(': "
        "expected a number, symbol, function call or parenthesis at offset 4\n"
    )


# A complete scheme at its own s = 2, whose first channel has a pole at s = 1
POLE_AT_S1_CFG = """
[state]
kind = gaussian
s = 2

[scheme]
O = theta(x)*exp(i*x/(s-1))
O = theta(-x)
"""


def test_scheme_is_probed_at_the_config_s(tmp_path, capsys):
    at_s2 = write(tmp_path, "s2.cfg", POLE_AT_S1_CFG)
    assert main(["check", "--config", at_s2]) == 0
    assert capsys.readouterr().err == ""
    at_s1 = write(tmp_path, "s1.cfg", POLE_AT_S1_CFG.replace("s = 2", "s = 1"))
    assert main(["check", "--config", at_s1]) == 1
    assert capsys.readouterr().err == "wwm: channel evaluation produced a non-finite value\n"


UNSETTLED = " did not settle at the box edges (spread {}); enlarge the box\n"
CHI_UNSETTLED = (POLE_AT_S1_CFG, "chi" + UNSETTLED.format("1.95e-01"))
UNSETTLED_RUNS = {
    "phi": (POLE_AT_S1_CFG, "chi" + UNSETTLED.format("1.10e-01")),
    "pwv": CHI_UNSETTLED,
    "support": CHI_UNSETTLED,
    "audit": CHI_UNSETTLED,
    "wigner": (
        SIGN_CFG.replace("builtin = sign", "O = exp(i*x^2)"),
        "wigner kernel tail at x=0.5" + UNSETTLED.format("7.80e-01"),
    ),
}


@pytest.mark.parametrize("command", sorted(UNSETTLED_RUNS))
def test_unsettled_tails_exit_1(tmp_path, capsys, command):
    """A scheme whose tails do not settle ends the run with one `wwm: ` line,
    not Python's warning text beside an exit-0 output."""
    text, message = UNSETTLED_RUNS[command]
    cfg = write(tmp_path, "unsettled.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "wwm: " + message
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "wigner", "momentum-dist"])
def test_grid_only_commands_reject_narrow(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    cfg = str(CONFIGS / "sign_narrow.cfg")
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"wwm: {command} needs a gaussian (grid) state, not narrow\n"
    assert not out.exists()


def reference_csv(header, columns, comments=()):
    """The writer's first form: FMT % v on each numpy scalar of each row."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in np.column_stack(columns):
        lines.append(",".join(cli.FMT % v for v in row))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_per_value_reference():
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, tiny, -tiny, 3 * tiny, 1e-310])
    rng = np.random.default_rng(7)
    columns = (
        np.concatenate([special, rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)]),
        np.concatenate([special[::-1], rng.normal(size=50)]),
        np.arange(59, dtype=float) - 29,
    )
    for cols in (columns, columns[:1], tuple(c[:0] for c in columns)):
        header = ("a", "b", "c")[: len(cols)]
        assert cli._csv(header, cols, ["x,1"]) == reference_csv(header, cols, ["x,1"])
    text = cli._csv(("a", "b", "c"), columns)
    assert "\nnan,1.000000000000e-310,-2.900000000000e+01\n" in text
    assert "\n-0.000000000000e+00,4.940656458412e-324,-2.600000000000e+01\n" in text


def test_cmd_pwv_csv_format(tmp_path):
    cfg = write(tmp_path, "sign.cfg", SIGN_CFG)
    out = tmp_path / "pwv.csv"
    assert main(["pwv", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# atom,0.000000000000e+00,5.000000000000e-01"
    assert lines[1] == "p,p_hbar_over_s,density,density_hbar_over_s"
    row = lines[2].split(",")
    assert len(row) == 4
    # momentum column in units of hbar/s equals raw momentum times s
    assert float(row[1]) == pytest.approx(float(row[0]) * 1.0)


def test_cli_reruns_byte_identical(tmp_path, capsys):
    """Every command on a small grid config, and every command that takes
    one on a narrow config: a rerun writes the same bytes, --out gets what
    stdout gets without it, and audit's stdout is its report, never CSV."""
    grid_text = WIGNER_CFG + "[run]\nn_bins = 4\n"
    grid_cfg = write(tmp_path, "grid.cfg", grid_text)
    narrow_cfg = write(tmp_path, "narrow.cfg", NARROW_SIGN_CFG)
    narrow_commands = ("check", "pwv", "phi", "moments", "support", "audit")
    runs = [(grid_cfg, command) for command in sorted(COMMANDS)]
    runs += [(narrow_cfg, command) for command in narrow_commands]
    for cfg, command in runs:
        argv = [command, "--config", cfg] + (["--shots", "300"] if command == "simulate" else [])
        assert main(argv) == 0, (cfg, command)
        stdout = capsys.readouterr().out
        written, printed = [], []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            assert main(argv + ["--out", str(target)]) == 0, (cfg, command)
            written.append(target.read_bytes())
            printed.append(capsys.readouterr().out)
        assert written[0] == written[1], (cfg, command)
        if command == "audit":
            assert "which-way momentum transfer audit" in stdout
            assert "field,value" not in stdout
            assert written[0].startswith(b"field,value\n")
            assert printed == [stdout, stdout]
        else:
            assert written[0] == stdout.encode("utf-8"), (cfg, command)
            assert printed == ["", ""]


NARROW_SIGN_CFG = """
[state]
kind = narrow
s = 2.0

[scheme]
builtin = sign
"""


def test_cmd_pwv_narrow_equals_closed_form(tmp_path):
    cfg = write(tmp_path, "narrow.cfg", NARROW_SIGN_CFG)
    out = tmp_path / "pwv.csv"
    assert main(["pwv", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# atom,0.0")
    data = np.loadtxt(lines[2:], delimiter=",")
    ref = pwv_narrow_sign(2.0, data[:, 0])
    assert np.max(np.abs(data[:, 2] - ref.density)) < 1e-12


def test_cmd_pwv_narrow_samples_the_config_grid(tmp_path):
    text = WIGNER_CFG.replace("kind = gaussian", "kind = narrow").replace("a = 0.05\n", "")
    cfg = write(tmp_path, "sign.cfg", text)
    out = tmp_path / "pwv.csv"
    assert main(["pwv", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [r.split(",")[0] for r in rows] == [FMT % p for p in make_grid(-4, 4, 1024).ps]


NARROW_SEW_OFF_CENTRE_CFG = """
[grid]
xmin = -7
xmax = 9
n = 4096

[state]
kind = narrow
s = 1.0

[scheme]
builtin = sew_flat
w = s/4
"""


@pytest.mark.parametrize("command", ["pwv", "support", "audit"])
def test_narrow_state_grid_need_not_be_centred(tmp_path, capsys, command):
    cfg = write(tmp_path, "sew_narrow.cfg", NARROW_SEW_OFF_CENTRE_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_narrow_sign_closed_form_holds_for_unequal_amplitudes(tmp_path, capsys):
    """chi, and so the marginal, does not depend on the slit amplitudes:
    `pwv` and `support` write the symmetric config's bytes, `audit` runs."""
    text = (CONFIGS / "sign_narrow.cfg").read_text()
    asym = write(tmp_path, "asym.cfg", text.replace("[state]\n", "[state]\namplitudes = 1, 2\n"))
    for cmd in ("pwv", "support"):
        written = []
        for k, cfg in enumerate((str(CONFIGS / "sign_narrow.cfg"), asym)):
            out = tmp_path / f"{cmd}{k}.csv"
            assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
    assert main(["audit", "--config", asym]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "name, amplitudes, note",
    [
        ("phase_ramp", None, "(asymmetric scheme: symmetric Re form loses odd moments)"),
        ("sign_narrow", "1, 2", "(g is not even: the symmetric Re form is not chi)"),
    ],
)
def test_audit_gap_note_names_its_cause(tmp_path, capsys, name, amplitudes, note):
    """The |chi - Re g| note blames the scheme only when the odd moments
    are nonzero; on unequal slit amplitudes every moment is 0 and the gap
    is g's odd part.  The CSV carries the gap with no note."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    if amplitudes is not None:
        text = text.replace("[state]\n", f"[state]\namplitudes = {amplitudes}\n")
    cfg = write(tmp_path, "audit.cfg", text)
    out = tmp_path / "audit.csv"
    assert main(["audit", "--config", cfg]) == 0
    gap = [l for l in capsys.readouterr().out.splitlines() if l.startswith("|chi - Re g| gap")]
    assert len(gap) == 1 and gap[0].endswith("  " + note)
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    rows = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
    assert float(rows["re_form_gap"]) > 0.1
    assert "(" not in out.read_text()


def test_cmd_phi_and_moments(tmp_path):
    cfg = write(tmp_path, "kicks.cfg", KICKS_CFG)
    out = tmp_path / "phi.csv"
    assert main(["phi", "--config", cfg, "--qmax", "2", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    data = np.loadtxt(rows[1:], delimiter=",")
    qs = data[:, 0]
    assert np.max(np.abs(data[:, 1] - np.cos(np.pi * qs / 2))) < 1e-9
    assert np.isclose(data[np.searchsorted(qs, 0.0), 1], 1.0)

    mout = tmp_path / "m.csv"
    assert main(["moments", "--config", cfg, "--out", str(mout)]) == 0
    lines = mout.read_text().splitlines()
    m2 = float(lines[2].split(",")[1])
    assert m2 == pytest.approx((np.pi / 2) ** 2, abs=1e-7)


def test_cmd_phi_writes_asymptotes_only_where_chi_settles(tmp_path):
    # sign's chi settles at 1/2 whatever --qmax is; a kick scheme's chi is
    # an atom sum with no box-edge limit, so phi writes no asymptote for it
    kicks = write(tmp_path, "kicks.cfg", KICKS_CFG)
    sign = write(tmp_path, "sign.cfg", SIGN_CFG)
    out = tmp_path / "phi.csv"
    for qmax in ("3", "4", "5"):
        assert main(["phi", "--config", kicks, "--qmax", qmax, "--out", str(out)]) == 0
        assert out.read_text().startswith("q,re_chi,im_chi\n")
        assert main(["phi", "--config", sign, "--qmax", qmax, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# asymptote_even,5.000000000000e-01"
        assert lines[1].startswith("# asymptote_odd_imag,")
        assert lines[2] == "q,re_chi,im_chi"


def test_cmd_phi_rejects_nonpositive_qmax(tmp_path):
    cfg = write(tmp_path, "kicks.cfg", KICKS_CFG)
    out = tmp_path / "phi.csv"
    for qmax in ("-3", "0", "1e300"):
        assert main(["phi", "--config", cfg, "--qmax", qmax, "--out", str(out)]) == 1
    assert not out.exists()


def test_cmd_support_and_momentum_dist(tmp_path):
    cfg = write(tmp_path, "sign.cfg", SIGN_CFG)
    out = tmp_path / "sup.csv"
    assert main(["support", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert float(rows[1].split(",")[2]) > 0.1

    mout = tmp_path / "md.csv"
    assert main(["momentum-dist", "--config", cfg, "--out", str(mout)]) == 0
    data = np.loadtxt(mout.read_text().splitlines()[1:], delimiter=",")
    dp = data[1, 0] - data[0, 0]
    assert np.sum(data[:, 2]) * dp == pytest.approx(1.0, abs=1e-6)
    assert np.sum(data[:, 3]) * dp == pytest.approx(1.0, abs=1e-6)


def test_cmd_simulate_csv(tmp_path):
    cfg_text = KICKS_CFG + "\n[run]\nn_bins = 4\n"
    cfg = write(tmp_path, "kicks.cfg", cfg_text)
    out = tmp_path / "mc.csv"
    code = main(
        ["simulate", "--config", cfg, "--shots", "200", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[3 + 4].startswith("pi_lo")  # after 4 overflow lines, one per p_i bin
    assert len(lines) == 4 + 4 + 16  # 4x4 cells


def simulate_output(path, out, shots):
    """Run `wwm simulate` on a config file: its comment lines, split on
    commas, and its cell rows as {column: [fields]}."""
    assert main(["simulate", "--config", str(path), "--shots", str(shots), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    comments = [line[2:].split(",") for line in lines if line.startswith("#")]
    header, *rows = (line.split(",") for line in lines if not line.startswith("#"))
    return comments, dict(zip(header, zip(*rows)))


def simulate_inputs(path):
    """The scheme, state and MC bins `wwm simulate` builds from a config."""
    cfg = load_config(str(path))
    edges = default_bins(cfg.s, cfg.n_bins, cfg.bin_span)
    mc_cfg = MCConfig(sigma=10.0, shots_per_bin=1, p_i_edges=edges, p_f_edges=edges)
    return build_scheme(cfg), build_state(cfg), mc_cfg


def refuse_joint_table(*args):
    raise AssertionError("the joint table was built")


@pytest.mark.parametrize("name", GRID_CONFIGS)
def test_simulate_oracle_is_the_weak_limit_without_a_joint_table(tmp_path, monkeypatch, name):
    """`oracle` is deterministic_cells in the weak limit, printed as is.
    The joint route raises if reached, and the traced peak stays far below
    the O(rows n) table (28.8-56.6 MiB when the table was built)."""
    joint_route = [(cli, "pwv_joint"), (weakvalue, "pwv_joint"), (weakvalue, "conditional_cells")]
    for module, fn in joint_route:
        monkeypatch.setattr(module, fn, refuse_joint_table)
    path = CONFIGS / f"{name}.cfg"
    tracemalloc.start()
    try:
        _, columns = simulate_output(path, tmp_path / "mc.csv", 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * MIB
    oracle = deterministic_cells(*simulate_inputs(path))
    assert list(columns["oracle"]) == [FMT % v for v in oracle.ravel()]


def test_simulate_builds_the_shot_tables_once(tmp_path, monkeypatch):
    """The MC and its `oracle` read one set of per-(channel, bin) tables."""
    built = []

    class Counted(simulate._ShotTables):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simulate, "_ShotTables", Counted)
    simulate_output(CONFIGS / "sign.cfg", tmp_path / "mc.csv", 50)
    assert len(built) == 1


@pytest.mark.parametrize("name", GRID_CONFIGS)
def test_mc_oracle_is_deterministic_cells(name):
    """Both MC paths carry the weak limit of their means, bit for bit."""
    scheme, state, mc_cfg = simulate_inputs(CONFIGS / f"{name}.cfg")
    expected = deterministic_cells(scheme, state, mc_cfg)
    for run in (run_weak_experiment, run_reference):
        assert np.array_equal(run(scheme, state, mc_cfg).oracle, expected, equal_nan=True)


@pytest.mark.parametrize("name", GRID_CONFIGS)
def test_simulate_oracle_is_nan_where_the_joint_route_is(tmp_path, name):
    """Bins over nearly the whole p grid leave far p_f bins empty: `oracle`
    reads nan in exactly the cells conditional_cells leaves nan, not a
    ratio of rounding noise (up to 5e11 without the empty-bin floor)."""
    text = (CONFIGS / f"{name}.cfg").read_text() + "\n[run]\nbin_span = 780\n"
    path = write(tmp_path, "wide.cfg", text)
    _, columns = simulate_output(path, tmp_path / "mc.csv", 50)
    printed = np.array([float(v) for v in columns["oracle"]])
    scheme, state, mc_cfg = simulate_inputs(path)
    joint = conditional_cells(pwv_joint(scheme, state), mc_cfg.p_i_edges, mc_cfg.p_f_edges)
    joint = joint.ravel()
    assert np.isnan(joint).any()
    assert np.array_equal(np.isnan(printed), np.isnan(joint))


def test_simulate_overflow_lines_complete_each_row(tmp_path):
    """Per p_i bin, the shots outside every p_f bin (`# diag,overflow`) and
    the row's cell counts add up to --shots."""
    comments, columns = simulate_output(CONFIGS / "sign.cfg", tmp_path / "mc.csv", 300)
    overflow = {c[2]: int(c[3]) for c in comments if c[:2] == ["diag", "overflow"]}
    assert len(overflow) == 16
    landed = dict.fromkeys(overflow, 0)
    for pi_lo, count in zip(columns["pi_lo"], columns["count"]):
        landed[pi_lo] += int(count)
    assert max(overflow.values()) > 0
    assert all(overflow[k] + landed[k] == 300 for k in overflow)


def test_cmd_simulate_rejects_nonfinite_sigma(tmp_path):
    cfg = write(tmp_path, "kicks.cfg", KICKS_CFG + "\n[run]\nn_bins = 4\n")
    out = tmp_path / "mc.csv"
    for sigma in ("nan", "inf"):
        args = ["simulate", "--config", cfg, "--sigma", sigma, "--shots", "10"]
        assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()


def test_cmd_simulate_rejects_overflowing_statistics(tmp_path, capsys):
    """sigma = 1e160 is finite, but r**2 overflows: std_error would print nan."""
    out = tmp_path / "mc.csv"
    args = ["simulate", "--config", str(CONFIGS / "sign.cfg"), "--sigma", "1e160"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(args + ["--shots", "50", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("wwm: simulate statistics are not finite")
    assert not list(tmp_path.iterdir())


def test_cmd_simulate_rejected_in_narrow_mode(tmp_path):
    cfg = write(tmp_path, "narrow.cfg", CUSTOM_CFG)
    assert main(["simulate", "--config", cfg, "--shots", "10"]) == 1


WIGNER_CFG = SIGN_CFG.replace("n = 4096", "n = 1024").replace("xmin = -8", "xmin = -4").replace(
    "xmax = 8", "xmax = 4"
).replace("a = 0.02", "a = 0.05")


def test_cmd_wigner(tmp_path):
    cfg = write(tmp_path, "sign.cfg", WIGNER_CFG)
    out = tmp_path / "wig.csv"
    assert main(["wigner", "--config", cfg, "--x", "0.25", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    residual = float(next(l for l in lines if l.startswith("# identity_residual")).split(",")[1])
    assert residual < 1e-14
    # the default slice is x = s/2, where psi lives; the PV coefficient follows the residual
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# x,{FMT % 0.5}"
    assert lines[1].startswith("# identity_residual,") and float(lines[1].split(",")[1]) < 1e-12
    assert lines[2] == f"# pv_coefficient,{FMT % 0.0}"


def test_cmd_wigner_exits_1_when_the_identity_fails(tmp_path, monkeypatch, capsys):
    """A finite residual above criterion 10's bound fails like a NaN one:
    one `wwm:` line, exit 1, no output file."""
    monkeypatch.setattr(cli, "wigner_slice_residual", lambda scheme, state, x, kernel: 1e-3)
    cfg = write(tmp_path, "sign.cfg", WIGNER_CFG)
    out = tmp_path / "wig.csv"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "wwm: wigner identity residual 1.000e-03 is not below 1e-06\n"


def test_cmd_wigner_rejects_nonfinite_x(tmp_path):
    cfg = write(tmp_path, "sign.cfg", WIGNER_CFG)
    out = tmp_path / "wig.csv"
    for x in ("nan", "inf"):
        assert main(["wigner", "--config", cfg, "--x", x, "--out", str(out)]) == 1
    assert not out.exists()


# The last lattice sample of WIGNER_CFG's identity check, x_hi + (n/2) dx:
# x_hi = 2.4296875 is the last row where psi != 0, so the kernel of that one
# row, and of no other computed row, reaches this point beyond the box.
X_NAN = 6.4296875
X_NAN_ROW = X_NAN - 512 / 128


def nan_contraction(original):
    """Scheme.contraction whose 1-D calls (the kernel slice) come out NaN."""

    def contraction(self, a, b):
        out = original(self, a, b)
        if out.ndim == 1:
            out[:] = np.nan
        return out

    return contraction


def nan_lattice_sample(original, at):
    """Scheme.evaluate that writes NaN into every channel's sample at `at`.

    At X_NAN only the identity check's lattice call reaches it, so one row
    of one block goes NaN and the others stay finite: a fold that drops a
    NaN block result, or a block maximum that skips NaN entries, returns a
    finite residual.
    """

    def evaluate(self, x):
        out = original(self, x)
        out[..., np.asarray(x) == at] = np.nan
        return out

    return evaluate


def test_wigner_nan_row_is_not_swallowed(tmp_path, monkeypatch):
    evaluate = Scheme.evaluate
    sign = builtin("sign")
    cfg = write(tmp_path, "sign.cfg", WIGNER_CFG)
    state = build_state(parse_config(WIGNER_CFG))
    (at_nan_row,) = state.values[state.grid.xs == X_NAN_ROW]
    assert at_nan_row != 0 and not np.any(state.values[state.grid.xs > X_NAN_ROW])
    monkeypatch.setattr(Scheme, "evaluate", nan_lattice_sample(evaluate, X_NAN))
    assert np.isnan(verify_wigner_identity(sign, state))
    # the slice at the default x = s/2 reads the grid samples within n/2 = 512
    # of its own, psi's last nonzero one at X_NAN_ROW among them
    monkeypatch.setattr(Scheme, "evaluate", nan_lattice_sample(evaluate, X_NAN_ROW))
    assert np.isnan(wigner_slice_residual(sign, state, 0.5, wigner_kernel(sign, 0.5, state.grid)))
    out = tmp_path / "wig.csv"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_cmd_wigner_rejects_nonfinite_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(Scheme, "contraction", nan_contraction(Scheme.contraction))
    cfg = write(tmp_path, "sign.cfg", WIGNER_CFG)
    out = tmp_path / "wig.csv"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("pole, code", [(11.0, 0), (8.50390625, 0), (8.49609375, 1)])
def test_wigner_evaluates_channels_only_where_rows_reach(tmp_path, capsys, pole, code):
    """O = exp(i*theta(x - 8.501953125)/(x - pole)) is singular at one lattice
    point of SIGN_CFG's grid, and equals 1 wherever the printed kernel
    reaches, so that kernel settles at the box edges.

    The kernel and the slice check at the default x = 0.5 reach the points
    x +- m dx, |m| <= n/2, that is [-7.5, 8.5]; the check reads the channels
    only on the grid.  x = 11 lies outside that reach (and outside the
    scheme probe's [-10, 10]), and so does x = 8.50390625, one step past
    it: nothing may evaluate or warn there.  x = 8.49609375, one step inside
    the reach's end and off the probe's samples, must end the run with a
    message.
    """
    scheme = f"O = exp(i*theta(x-8.501953125)/(x-{pole!r}))"
    cfg = write(tmp_path, "pole.cfg", SIGN_CFG.replace("builtin = sign", scheme))
    out = tmp_path / "wig.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["wigner", "--config", cfg, "--out", str(out)]) == code
    if code == 0:
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert out.exists()
    else:
        assert capsys.readouterr().err.startswith("wwm: ")
        assert not out.exists()


def test_cmd_audit_text_and_csv(tmp_path, capsys):
    cfg = write(tmp_path, "sign.cfg", SIGN_CFG)
    out = tmp_path / "audit.csv"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "distribution positive:                no" in text
    assert "independent of the channel basis:     yes" in text
    assert "bohmian trajectory comparison:        not computed" in text
    rows = dict(
        line.split(",", 1) for line in out.read_text().splitlines()[1:]
    )
    assert float(rows["visibility"]) == pytest.approx(0.0, abs=1e-12)
    assert rows["flag_positive"] == "no"
    assert rows["bohmian_row"] == "not computed"


def test_cmd_audit_kicks_flags(tmp_path, capsys):
    cfg = write(tmp_path, "kicks.cfg", KICKS_CFG)
    assert main(["audit", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "distribution positive:                yes" in text
    assert "reflects moment change:               yes" in text


@pytest.mark.parametrize("s", ["1e300", "1e-300"])
def test_moments_out_of_float_range_exit_1(tmp_path, capsys, s):
    # the moment stencil divides by (k s/128)^n: inf at s = 1e300, 0 at 1e-300
    cfg = write(tmp_path, "narrow.cfg", NARROW_SIGN_CFG.replace("s = 2.0", f"s = {s}"))
    out = tmp_path / "out.csv"
    for command in ("moments", "audit"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "out of range" in captured.err


def test_cmd_audit_rejects_out_of_range_seed(tmp_path, capsys):
    cfg = write(tmp_path, "narrow.cfg", NARROW_SIGN_CFG)
    out = tmp_path / "audit.csv"
    for seed in (-1, 2 ** 64):
        assert main(["audit", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must fit in 64 bits" in captured.err


@pytest.mark.parametrize(
    "text, code",
    [
        ("[grid]\nxmin = 1/0\nxmax = 8\nn = 64\n[scheme]\nbuiltin = sign\n", 2),
        ("[state]\ns = 1/0\n[scheme]\nbuiltin = sign\n", 2),
        ("[scheme]\nbuiltin = kicks\nkick = 1, 1/(s-1)\n", 2),
        ("[scheme]\nbuiltin = sign\n[run]\nx = 1/0\n", 2),
        ("[grid]\nxmin = -exp(1000)\nxmax = 8\nn = 64\n[scheme]\nbuiltin = sign\n", 2),
        ("[scheme]\nO = 1/0\n", 1),
    ],
    ids=["grid-xmin", "state-s", "scheme-kick", "run-x", "non-finite", "channel"],
)
def test_bad_number_exits_with_a_message(tmp_path, capsys, text, code):
    cfg = write(tmp_path, "bad.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exp(1000) overflows
        assert main(["check", "--config", cfg]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("wwm: ")


@pytest.mark.parametrize(
    "text, code",
    [
        ("[grid]\nxmin = -exp(1000)\nxmax = 8\nn = 64\n[scheme]\nbuiltin = sign\n", 2),
        ("[scheme]\nO = exp(1000*x)\n", 1),
    ],
    ids=["config-number", "channel"],
)
def test_overflow_ends_with_a_message_and_no_warning(tmp_path, capsys, text, code):
    """The non-finite value is refused with a message; numpy warns of nothing."""
    cfg = write(tmp_path, "overflow.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", cfg]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("wwm: ")


# a*a underflows at a = s/50 = 2e-302, so the slit samples come out NaN
TINY_SLITS_CFG = "[state]\nkind = gaussian\ns = 1e-300\n\n[scheme]\nbuiltin = sign\n"


@pytest.mark.parametrize("command", ["pwv", "phi", "support", "momentum-dist", "simulate"])
def test_nan_state_exits_1_without_output(tmp_path, capsys, command):
    cfg = write(tmp_path, "tiny.cfg", TINY_SLITS_CFG)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([command, "--config", cfg, "--shots", "10", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("wwm: slit samples are not finite")


def test_out_file_mode_follows_umask(tmp_path):
    out = tmp_path / "check.txt"
    old = os.umask(0o022)
    try:
        assert main(["check", "--config", str(CONFIGS / "sign.cfg"), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["check.txt"]


def run_console(*args):
    """`wwm <args>` in a fresh interpreter: (exit code, stdout, stderr), with
    numpy's warning text on stderr as a console would show it."""
    done = subprocess.run(
        [sys.executable, "-m", "wwm.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("scaled, plain", [("1e200, 2e200", "1, 2"), ("1e-200, 1e-200", "1, 1")])
def test_amplitudes_are_scale_free(tmp_path, scaled, plain):
    """Amplitudes whose squares leave the float range normalize like their
    plain multiples (they printed an overflow warning and exited 1, or read
    as vanishing)."""
    runs = []
    for amplitudes in (scaled, plain):
        text = WIGNER_CFG.replace("[state]\n", f"[state]\namplitudes = {amplitudes}\n")
        assert f"amplitudes = {amplitudes}" in text
        runs.append(run_console("pwv", "--config", write(tmp_path, "amp.cfg", text)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2] == ""


def test_simulate_overflow_writes_one_stderr_line():
    """numpy's overflow warnings in the shot tasks and the statistics stay off
    stderr: only the refusal reaches it."""
    args = ("simulate", "--config", str(CONFIGS / "sign.cfg"), "--sigma", "1e155", "--shots", "50")
    assert run_console(*args) == (1, "", "wwm: simulate statistics are not finite at sigma = 1e+155\n")
