"""The thread pool behind the joint table and the Wigner check, and the
MC, which starts no thread."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from wwm import parallel, simulate, transfer, weakvalue
from wwm.cli import main
from wwm.errors import WWMError
from wwm.scheme import parse_scheme
from wwm.simulate import MCConfig, default_bins, run_weak_experiment
from wwm.state import gaussian_twin_slits
from wwm.weakvalue import pwv_joint
from conftest import S, random_complete_scheme
from test_joint_blocks import dense_pwv_joint

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"
MC_FIELDS = (
    "means", "std_errors", "counts", "overflow", "channel_sums", "channel_counts", "oracle"
)
PHASE_RAMP = "exp(i*0.8*(theta(x)*theta(1.0-x)*x + theta(x-1.0)))"


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)


def refuse_threads(monkeypatch):
    """Make starting any thread, a pool worker included, fail the test."""

    def start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)


@pytest.fixture(scope="module")
def schemes(sign, kick_pair, sew):
    rnd = random_complete_scheme(np.random.default_rng(11))
    return [sign, kick_pair, sew, parse_scheme([PHASE_RAMP]), rnd]


@pytest.fixture(scope="module")
def state(grid_small):
    return gaussian_twin_slits(S, S / 20, grid_small)


def test_one_thread_per_usable_core(monkeypatch):
    for cores in ({0}, {0, 1, 2}):
        use_cores(monkeypatch, cores)
        assert parallel.usable_cores() == len(cores)

        def task(k):
            time.sleep(0.01)
            return k, threading.get_ident()

        results = parallel.map_threads(task, range(12))
        assert [k for k, _ in results] == list(range(12))
        assert len({ident for _, ident in results}) == len(cores)


def test_mc_same_bits_on_any_worker_count(monkeypatch, schemes, state):
    """The MC runs its bins in the calling thread on any number of usable
    cores, and any chunk size gives the same bits."""
    edges = default_bins(S, 8)
    cfg = MCConfig(sigma=10.0, shots_per_bin=1500, p_i_edges=edges, p_f_edges=edges, seed=9)
    for scheme in schemes:
        runs = []
        for cores, chunk in [
            ({0}, simulate._SHOT_CHUNK),  # one chunk per bin
            ({0, 1}, 333),  # odd chunks
            ({0, 1, 2}, 1001),  # a short last chunk
        ]:
            with monkeypatch.context() as patch:
                use_cores(patch, cores)
                patch.setattr(simulate, "_SHOT_CHUNK", chunk)
                refuse_threads(patch)
                runs.append(run_weak_experiment(scheme, state, cfg))
        for run in runs[1:]:
            for name in MC_FIELDS:
                assert np.array_equal(
                    getattr(run, name), getattr(runs[0], name), equal_nan=True
                ), name


@pytest.mark.filterwarnings("ignore:channel tail")  # the random scheme's phases
def test_joint_table_same_bits_on_any_worker_count(monkeypatch, schemes, state):
    n = state.grid.n
    for scheme in schemes:
        ref = dense_pwv_joint(scheme, state)
        for cores, joint_block in [
            ({0}, parallel.ROW_BLOCK),  # one worker, 128-row blocks
            ({0, 1}, 2 * 5 * n + 1),  # two workers, 5-row blocks
            ({0, 1, 2}, 3 * 7 * n),  # three workers, 7-row blocks
        ]:
            use_cores(monkeypatch, cores)
            monkeypatch.setattr(parallel, "ROW_BLOCK", joint_block)
            table = pwv_joint(scheme, state)
            assert np.array_equal(table.matrix, ref.matrix)
            assert np.array_equal(table.marginal_pf, ref.marginal_pf)
            assert table.row_offset == ref.row_offset


@pytest.mark.filterwarnings("ignore:channel tail")
def test_many_threads_switching_fast_lose_no_update(monkeypatch, schemes, state):
    """Eight threads on the joint table's shared output, switching every
    microsecond: a lost or doubled row update would change the bits.  The
    MC, on the same eight cores and 37-shot chunks, starts no thread and
    keeps its bits."""
    edges = default_bins(S, 8)
    cfg = MCConfig(sigma=10.0, shots_per_bin=400, p_i_edges=edges, p_f_edges=edges, seed=4)
    scheme = schemes[-1]
    use_cores(monkeypatch, {0})
    mc, table = run_weak_experiment(scheme, state, cfg), pwv_joint(scheme, state)
    monkeypatch.setattr(simulate, "_SHOT_CHUNK", 37)
    use_cores(monkeypatch, set(range(8)))
    monkeypatch.setattr(parallel, "ROW_BLOCK", 8 * state.grid.n)  # one row per task
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with monkeypatch.context() as patch:
            refuse_threads(patch)
            mc8 = run_weak_experiment(scheme, state, cfg)
        table8 = pwv_joint(scheme, state)
    finally:
        sys.setswitchinterval(interval)
    for name in MC_FIELDS:
        assert np.array_equal(getattr(mc8, name), getattr(mc, name), equal_nan=True), name
    assert np.array_equal(table8.matrix, table.matrix)


def test_task_exception_reaches_the_caller_unchanged(monkeypatch):
    """The failing task's own exception object, and the queued tasks are
    cancelled instead of run."""
    use_cores(monkeypatch, {0})
    fault = WWMError("fault in task 0")
    ran = []

    def task(k):
        if k == 0:
            raise fault
        ran.append(k)
        time.sleep(0.01)

    with pytest.raises(WWMError) as caught:
        parallel.map_threads(task, range(100))
    assert caught.value is fault
    assert len(ran) < 50


def fail_one_task(module, fault):
    """Wrap module.map_threads so that one task, mid-list, raises `fault`
    inside its worker thread."""
    real = module.map_threads

    def faulty(fn, items):
        items = list(items)
        bad = items[len(items) // 2]

        def task(item):
            if item == bad:
                raise fault
            return fn(item)

        return real(task, items)

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
    """No command builds the joint table, so its worker fault is checked on
    a direct call: the task's own exception object reaches the caller."""
    fault = WWMError("fault in one joint block")
    monkeypatch.setattr(weakvalue, "map_threads", fail_one_task(weakvalue, fault))
    with pytest.raises(WWMError) as caught:
        pwv_joint(sign, state)
    assert caught.value is fault


def test_wigner_block_fault_reaches_the_caller_unchanged(monkeypatch, sign, state):
    """`wwm wigner` checks its slice in the calling thread; the full-grid
    check's worker fault is checked on a direct call, as the joint table's."""
    fault = WWMError("fault in one wigner block")
    monkeypatch.setattr(transfer, "map_threads", fail_one_task(transfer, fault))
    with pytest.raises(WWMError) as caught:
        transfer.verify_wigner_identity(sign, state)
    assert caught.value is fault


def test_cli_import_leaves_the_pool_unloaded():
    """`import wwm.cli` must not pay for concurrent.futures (~8 ms a job)."""
    code = "import sys, wwm.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
