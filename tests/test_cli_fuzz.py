"""Derandomised fuzz of the CLI over generated config text.

Whatever a config says, every command ends with exit code 0, 1 or 2 and
never with a traceback, and an exit-0 output holds no inf, and no NaN
except in `simulate`, whose empty cells are `nan`.  Run with `--out`, a
command leaves its file only when it exits 0, and never a temporary
file.  Every generated config has a [grid] section whose valid sizes
stay at or below n = 256, so each example runs in milliseconds.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from wwm.cli import main

COMMANDS = (
    "check", "pwv", "phi", "moments", "support", "simulate", "audit", "wigner", "momentum-dist"
)


def values(good, bad):
    """One value: from `bad` one time in ten, else from `good`, which
    makes a runnable desk-scale config."""
    return st.sampled_from(good * (9 * len(bad) // len(good) + 1) + bad)


BAD = [
    "0", "-1", "1e300", "1e-300", "1e999", "1/0", "0/0", "1/(s-1)", "sqrt(-1)",
    "exp(1000)", "2^1024", "(1", "nan", "x",
]
BAD_SIZE = ["16", "17", "0", "-16", "1/0", "64.5"]
SIZE = values(["128", "256"], BAD_SIZE)
STATE = {
    "kind": values(["gaussian", "narrow"], ["foo"]),
    "s": values(["1", "2", "2^0", "pi/3"], BAD),
    "a": values(["0.2", "3/10", "0.15"], BAD),
    "amplitudes": values(["1, 1", "1, i", "0.6, 0.8", "1, -1", "1, 0"], ["0, 0", "1/0, 1", "1"]),
}
RUN = {
    "n_bins": SIZE,
    "bin_span": values(["4", "pi/s"], BAD),
    "x": values(["0.25", "s/4", "-1"], BAD),
}
BUILTINS = {
    "sign": st.just([]),
    "identity": st.just([]),
    "sew_flat": st.lists(values(["0.25", "s/4"], BAD).map("w = {}".format), max_size=1),
    "kicks": st.lists(
        st.tuples(values(["0.5", "1"], BAD), values(["pi/(2*s)", "-pi/(2*s)", "1"], BAD))
        .map("kick = {0[0]}, {0[1]}".format),
        max_size=3,
    ),
    "foo": st.just([]),
}
CHANNELS = values(
    [
        ["theta(x)", "theta(-x)"],
        ["sqrt(theta(x))", "sqrt(theta(-x))"],
        ["cos(x)", "sin(x)"],
        ["exp(i*x)"],
        ["exp(i*x^2)"],
        ["cos(x)*exp(i*x)", "sin(x)"],
    ],
    [["theta(x)"], ["1/0"], ["1/x"], ["0/0"], ["x^2"], ["exp(1000*x)"], ["exp(i*s/(x-x))"]],
)
SCHEME = st.one_of(
    st.sampled_from(sorted(BUILTINS)).flatmap(
        lambda b: BUILTINS[b].map(lambda params: [f"builtin = {b}"] + params)
    ),
    CHANNELS.map(lambda chans: [f"O = {c}" for c in chans]),
)


def keyed(keys):
    """Each key's line, present three times in four, in a drawn order."""
    lines = [
        st.sampled_from([True, True, True, False]).flatmap(
            lambda on, k=k: keys[k].map(lambda v: [f"{k} = {v}"] if on else [])
        )
        for k in sorted(keys)
    ]
    return st.tuples(*lines).map(lambda parts: sum(parts, [])).flatmap(st.permutations)


# A narrow state reads no `a` (giving one is a parse error), so its lines
# leave `a` out, and narrow runs can still get past the config.
FREE_STATE = keyed(STATE).map(
    lambda lines: [l for l in lines if "kind = narrow" not in lines or not l.startswith("a = ")]
)
GRID = st.tuples(values(["4", "8"], BAD), values(["4", "8"], BAD), SIZE).map(
    lambda t: ["xmin = -" + t[0], "xmax = " + t[1], "n = " + t[2]]
)
# A grid and a gaussian state that always build (the box spans [-4s, 4s] and
# dx < a/4), so that the grid-only commands (simulate, wigner, momentum-dist)
# reach their outputs; the amplitudes, the scheme and [run] still draw bad
# values.  Its few MC bins keep each `simulate` run short.
RUNNABLE_GRID = st.just(["xmin = -4", "xmax = 4", "n = 256"])
RUNNABLE_STATE = st.tuples(
    st.sampled_from(["0.15", "0.2"]), keyed({"amplitudes": STATE["amplitudes"]})
).map(lambda t: ["kind = gaussian", "s = 1", f"a = {t[0]}"] + t[1])
RUNNABLE_RUN = keyed({**RUN, "n_bins": values(["4", "16"], BAD_SIZE)})
CONFIGS = st.one_of(
    st.tuples(GRID, FREE_STATE, SCHEME, keyed(RUN)),
    st.tuples(RUNNABLE_GRID, RUNNABLE_STATE, SCHEME, RUNNABLE_RUN),
).map(
    lambda parts: "".join(
        f"[{name}]\n" + "".join(line + "\n" for line in lines)
        for name, lines in zip(("grid", "state", "scheme", "run"), parts)
    )
)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("ignore")
        code = main(argv + ["--shots", "50"])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


@settings(max_examples=150)
@given(text=CONFIGS)
def test_cli_ends_with_an_exit_code_and_no_nan(cfg_path, text):
    cfg_path.write_text(text)
    out_path = cfg_path.with_name("out.csv")
    for command in COMMANDS:
        bad = ("inf",) if command == "simulate" else ("inf", "nan")
        argv = [command, "--config", str(cfg_path)]
        code, stdout = run(argv)
        if code == 0:
            assert not any(b in stdout for b in bad), (command, text)
        out_path.unlink(missing_ok=True)
        code, stdout = run(argv + ["--out", str(out_path)])
        assert out_path.exists() == (code == 0), (command, text)
        assert not list(cfg_path.parent.glob(".wwm-*.tmp")), (command, text)
        if code == 0:
            output = stdout + out_path.read_text()
            assert not any(b in output for b in bad), (command, text)
