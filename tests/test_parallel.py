"""wwm starts no thread: every command, the MC, the joint table and the
Wigner check run in the calling thread, and the row-blocked references
give the same bits at any block size."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wwm import simulate, transfer, weakvalue
from wwm.cli import COMMANDS, main
from wwm.errors import WWMError
from wwm.grid import BLOCK_SAMPLES
from wwm.state import gaussian_twin_slits
from wwm.weakvalue import pwv_joint
from conftest import S, refuse_threads
from test_joint_blocks import dense_pwv_joint

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"


@pytest.fixture(scope="module")
def state(grid_small):
    return gaussian_twin_slits(S, S / 20, grid_small)


@pytest.mark.parametrize("run", [*sorted(COMMANDS), "pwv_joint", "verify_wigner_identity"])
def test_wwm_starts_no_thread(monkeypatch, capsys, sign, state, run):
    """Every command on configs/sign.cfg, and the two row-blocked
    references that no command runs, called directly."""
    refuse_threads(monkeypatch)
    if run == "pwv_joint":
        pwv_joint(sign, state)
    elif run == "verify_wigner_identity":
        transfer.verify_wigner_identity(sign, state)
    else:
        argv = [run, "--config", str(CONFIGS / "sign.cfg"), "--shots", "200"]
        assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:channel tail")  # the random scheme's phases
def test_joint_table_same_bits_at_any_block_size(monkeypatch, schemes, state):
    n = state.grid.n
    for scheme in schemes:
        ref = dense_pwv_joint(scheme, state)
        assert ref.p_i.size % 5 != 0  # a short last block
        for row_block in (BLOCK_SAMPLES, 5 * n + 1, 7 * n, 1):  # 64, 5, 7 and 1 rows
            monkeypatch.setattr("wwm.grid.BLOCK_SAMPLES", row_block)
            table = pwv_joint(scheme, state)
            assert np.array_equal(table.matrix, ref.matrix)
            assert np.array_equal(table.marginal_pf, ref.marginal_pf)
            assert table.row_offset == ref.row_offset


def fail_at_call(fn, at, fault, calls):
    """fn, recording each call in the list `calls`; call number `at` raises
    `fault` instead."""

    def faulty(*args):
        calls.append(args)
        if len(calls) == at:
            raise fault
        return fn(*args)

    return faulty


def fail_one_bin(landing_bins, searched):
    def faulty(self, b, *args):
        searched.append(b)
        if b == 5:
            raise WWMError("fault in MC bin 5")
        return landing_bins(self, b, *args)

    return faulty


def test_worker_fault_ends_the_cli_with_a_message(tmp_path, monkeypatch, capsys):
    """The MC runs its bins one after another in the calling thread: a
    fault in bin 5's landing search ends the run there, and the CLI exits
    1 with the fault's one line and writes nothing."""
    searched = []
    landing_bins = simulate._ShotTables.landing_bins
    monkeypatch.setattr(
        simulate._ShotTables, "landing_bins", fail_one_bin(landing_bins, searched)
    )
    refuse_threads(monkeypatch)
    out = tmp_path / "out.csv"
    argv = ["simulate", "--config", str(CONFIGS / "sign.cfg"), "--out", str(out), "--shots", "200"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "wwm: fault in MC bin 5\n"
    assert searched == [0, 1, 2, 3, 4, 5]  # one 200-shot chunk per bin, none after the fault
    assert not list(tmp_path.iterdir())  # no output file, no temp file


def test_joint_block_fault_reaches_the_caller_unchanged(monkeypatch, sign, state):
    """No command builds the joint table, so its block fault is checked on
    a direct call: a fault in the third of the 5-row blocks reaches the
    caller as the same object, and no later block runs."""
    monkeypatch.setattr("wwm.grid.BLOCK_SAMPLES", 5 * state.grid.n)
    assert pwv_joint(sign, state).p_i.size > 3 * 5
    fault = WWMError("fault in one joint block")
    calls = []
    # each block reads each of sign's two channels' R~ windows once, so
    # read 5 is the third block's first
    take = fail_at_call(lambda windows, index: windows[index], 5, fault, calls)

    class Windows:
        def __init__(self, windows):
            self.windows = windows

        def __getitem__(self, index):
            return take(self.windows, index)

    view = weakvalue.sliding_window_view
    monkeypatch.setattr(weakvalue, "sliding_window_view", lambda *args: Windows(view(*args)))
    with pytest.raises(WWMError) as caught:
        pwv_joint(sign, state)
    assert caught.value is fault
    assert len(calls) == 5


def test_wigner_block_fault_reaches_the_caller_unchanged(monkeypatch, sign, state):
    """`wwm wigner` checks its slice; the full-grid check's block fault is
    checked on a direct call, as the joint table's."""
    monkeypatch.setattr("wwm.grid.BLOCK_SAMPLES", 5 * state.grid.n)
    assert np.ptp(np.flatnonzero(state.values)) + 1 > 3 * 5
    fault = WWMError("fault in one wigner block")
    calls = []
    # each block takes five pair products (sign's two conditioned states,
    # its two channels, then psi), so call 11 is the third block's first
    pairs = fail_at_call(transfer._pair_products, 11, fault, calls)
    monkeypatch.setattr(transfer, "_pair_products", pairs)
    with pytest.raises(WWMError) as caught:
        transfer.verify_wigner_identity(sign, state)
    assert caught.value is fault
    assert len(calls) == 11


def test_cli_import_loads_no_concurrent_futures():
    """`import wwm.cli` loads no concurrent.futures: no command starts a
    thread, so no job pays for importing it (~8 ms a job)."""
    code = "import sys, wwm.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
