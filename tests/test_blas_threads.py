"""`import wwm` pins OpenBLAS to one thread unless the user has set it.

Each check runs in a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy first loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"
CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

needs_two_cores = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(CORES) < 2,
    reason="needs Linux and at least 2 usable cores",
)


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(SRC), **extra)
    return env


def run_python(code, **extra):
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(**extra),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@needs_two_cores
def test_import_starts_no_blas_threads():
    code = (
        "import wwm.cli\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('Threads:')))"
    )
    assert run_python(code).split() == ["Threads:", "1"]


def test_user_blas_thread_count_is_kept():
    code = "import os, wwm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


@needs_two_cores
def test_pwv_bytes_do_not_depend_on_core_count(tmp_path):
    text = (CONFIGS / "phase_ramp.cfg").read_text()
    assert "\nn = 4096\n" in text
    cfg = tmp_path / "phase_ramp_16384.cfg"
    cfg.write_text(text.replace("\nn = 4096\n", "\nn = 16384\n"))

    def pwv(name, preexec_fn=None):
        out = tmp_path / name
        argv = [sys.executable, "-m", "wwm.cli", "pwv", "--config", str(cfg), "--out", str(out)]
        done = subprocess.run(
            argv, env=child_env(), preexec_fn=preexec_fn, capture_output=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        return out.read_bytes()

    pinned = pwv("one_core.csv", preexec_fn=lambda: os.sched_setaffinity(0, {CORES[0]}))
    assert pwv("all_cores.csv") == pinned
