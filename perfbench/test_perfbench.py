"""Tests of the benchmark's own machinery.

    python -m pytest perfbench

They cover the span arithmetic, the output checks that feed the failed-job
count, and the consistency of the metric names with BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import run
from checks import CheckFailed, check_output
from layers import METRICS
from spans import MIB, Tracer, covered, self_times, traced
from workloads import Job, resize_config


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_and_back_to_back_children():
    clock = Clock()
    tracer = Tracer("job", clock=clock)
    with tracer.span("root"):  # 0 .. 10
        clock.now = 1.0
        with tracer.span("a"):  # 1 .. 3
            clock.now = 2.0
            with tracer.span("a.inner"):  # 2 .. 2.5, inside a only
                clock.now = 2.5
            clock.now = 3.0
        with tracer.span("b"):  # 3 .. 6, starts where a ends
            clock.now = 6.0
        clock.now = 10.0
    names = [s.name for s in tracer.spans]
    own = dict(zip(names, self_times(tracer.records())))
    assert own == pytest.approx({"root": 5.0, "a": 1.5, "a.inner": 0.5, "b": 3.0})
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_covered_merges_overlapping_and_touching_intervals():
    assert covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (3.0, 4.0)]) == pytest.approx(5.0)
    assert covered([]) == 0.0


def test_raising_function_still_closes_its_spans():
    tracer = Tracer("job")

    def broken(x):
        raise ValueError(f"bad input {x}")

    layer = traced(tracer, "layer.broken", broken)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            with tracer.span("cli.main"):
                layer(1)
    finally:
        tracemalloc.stop()
    assert [s.name for s in tracer.spans] == ["cli.main", "layer.broken"]
    assert all(s.end is not None and s.end >= s.start for s in tracer.spans)
    with tracer.span("next"):
        pass
    assert tracer.spans[-1].parent is None


def test_child_peak_memory_reaches_the_parent():
    tracer = Tracer("job")
    tracemalloc.start()
    try:
        with tracer.span("parent"):
            with tracer.span("child"):
                block = bytearray(8 * MIB)
                del block
            with tracer.span("sibling"):
                pass
    finally:
        tracemalloc.stop()
    parent, child, sibling = tracer.spans
    assert child.peak_bytes >= 8 * MIB
    assert parent.peak_bytes >= child.peak_bytes
    assert sibling.peak_bytes < MIB


def test_memory_spans_turn_tracemalloc_on_only_for_themselves():
    tracer = Tracer("job", memory=("heavy",))
    with tracer.span("cli.main"):
        with tracer.span("light"):
            assert not tracemalloc.is_tracing()
        with tracer.span("heavy"):
            assert tracemalloc.is_tracing()
            with tracer.span("inner"):
                block = bytearray(8 * MIB)
                del block
        assert not tracemalloc.is_tracing()
    main, light, heavy, inner = tracer.spans
    assert heavy.peak_bytes >= inner.peak_bytes >= 8 * MIB
    assert main.peak_bytes == light.peak_bytes == 0


def test_traced_job_loads_no_numpy_before_its_import_span():
    # Importing numpy is most of a short job's cost; it must fall inside
    # the `cli.import` span that run() opens first.
    probe = "import sys, traced_job; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=run.HERE, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _corrupt_first_density(text):
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("p,")) + 1
    fields = lines[k].split(",")
    fields[2] = "nan"
    lines[k] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_nan_in_a_job_output_counts_the_job_as_failed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    runner = run.Runner(env, str(tmp_path), time.monotonic() + 120)
    config = os.path.join(run.ROOT, "configs", "sign.cfg")
    out = tmp_path / "pwv.csv"
    jobs = [Job("pwv", "sign", config, str(out))]
    _, results = run.run_pass(runner, jobs, "t")
    run.check_pass(runner, jobs, results)
    assert [r["error"] for r in results] == [None]

    out.write_text(_corrupt_first_density(out.read_text()))
    run.check_pass(runner, jobs, results)
    assert sum(r["error"] is not None for r in results) == 1
    assert "non-finite" in results[0]["error"]


SIMULATE_HEADER = "pi_lo,pi_hi,pf_lo,pf_hi,mean,std_error,count,oracle"


def test_simulate_allows_nan_only_in_cells_without_shots():
    job = Job("simulate", "sign", "unused", "unused")
    empty = "-1.0,0.0,0.0,1.0,nan,nan,0,nan"
    single = "-1.0,0.0,1.0,2.0,2.5e-01,nan,1,2.0e-01"
    check_output("\n".join([SIMULATE_HEADER, empty, single]) + "\n", job)
    with pytest.raises(CheckFailed):
        check_output("\n".join([SIMULATE_HEADER, "-1.0,0.0,0.0,1.0,nan,nan,5,1.0e-01"]) + "\n", job)
    over = f"-1.0,0.0,0.0,1.0,2.5e-01,1.0e-02,{job.shots + 1},2.0e-01"
    with pytest.raises(CheckFailed):
        check_output("\n".join([SIMULATE_HEADER, over]) + "\n", job)


def test_resize_config_changes_only_the_grid_size():
    text = "[grid]\nxmin = -8\nn = 4096\n\n[other]\nn = 3\n"
    assert resize_config(text, 16384) == "[grid]\nxmin = -8\nn = 16384\n\n[other]\nn = 3\n"


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [*METRICS, "trace.overhead_s"]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
