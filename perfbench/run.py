"""The repository benchmark: drive the `wwm` CLI the way its users do.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it needs `src/` and `configs/`).
A single closed-loop client runs the workload's jobs one after another,
each as a fresh `python -m wwm.cli ...` process, and takes each job's own
rusage from os.wait4.  It repeats the whole job list while another pass
still fits in --seconds (at least one pass), and checks every job's
output against the package's stated invariants (checks.py).

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
interpreters that import wwm.cli and build every config of the workload),
and the median over passes of wall_s, cpu_s and peak_rss_mb.
--trace 1 adds a traced pass (traced_job.py) after one untraced pass and
reports the per-layer metrics (layers.py), plus trace.overhead_s, the
traced pass's wall time minus the untraced one's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (machine context, every
job's timing, check result and output SHA-256, and the spans) is written
to .perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from checks import CheckFailed, check_output
from layers import OFF_PATH, layer_metrics
from workloads import NOTES, config_paths, make_jobs, setup_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIB = 2 ** 20
SETUP_REPEATS = 7
RUN_BUDGET_S = 170.0  # every run must end well inside 180 s


def machine_context():
    """Where the numbers were measured; numpy is imported only here."""
    import numpy

    context = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        context["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    context["blas_threads"] = _openblas_threads()
    return context


def _openblas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


class Runner:
    """Runs one process at a time and reaps it with os.wait4."""

    def __init__(self, env, log_dir, deadline):
        self.env = env
        self.log_dir = log_dir
        self.deadline = deadline

    def run(self, argv, log_name):
        """Return (exit code, wall seconds, rusage); None exit code if killed."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None, 0.0, None
        with open(os.path.join(self.log_dir, log_name), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if proc.returncode < 0 else proc.returncode), wall, usage


def _log_tail(runner, name):
    try:
        with open(os.path.join(runner.log_dir, name), "rb") as fh:
            return fh.read()[-400:].decode("utf-8", "replace").strip()
    except OSError:
        return ""


def run_pass(runner, jobs, tag, traced_dir=None):
    """Run every job once, closed loop; returns (pass wall, job results)."""
    results = []
    start = time.perf_counter()
    for k, job in enumerate(jobs):
        log = f"{tag}-{k:02d}.log"
        if traced_dir is None:
            argv = [sys.executable, "-m", "wwm.cli", *job.cli_args()]
        else:
            spans = os.path.join(traced_dir, f"{k:02d}.json")
            argv = [sys.executable, os.path.join(HERE, "traced_job.py"), spans, job.id, *job.cli_args()]
        code, wall, usage = runner.run(argv, log)
        results.append(
            {
                "job": job.id,
                "args": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a for a in job.cli_args()],
                "exit_code": code,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime if usage else 0.0,
                "max_rss_mib": usage.ru_maxrss / 1024 if usage else 0.0,
                "log": log,
            }
        )
    return time.perf_counter() - start, results


def check_pass(runner, jobs, results, reference=None):
    """Check outputs, record hashes; a hash differing from `reference` fails."""
    for job, res in zip(jobs, results):
        res["sha256"], res["error"] = None, None
        if res["exit_code"] != 0:
            code = res["exit_code"]
            reason = "killed or timed out" if code is None else f"exit code {code}"
            res["error"] = f"{reason}: {_log_tail(runner, res['log'])}"
            continue
        try:
            with open(job.out, "rb") as fh:
                data = fh.read()
        except OSError as err:
            res["error"] = f"no output: {err}"
            continue
        res["sha256"] = hashlib.sha256(data).hexdigest()
        try:
            check_output(data.decode("utf-8"), job)
        except (CheckFailed, UnicodeDecodeError) as err:
            res["error"] = f"check failed: {err}"
            continue
        if reference is not None and reference.get(job.id) not in (None, res["sha256"]):
            res["error"] = "output differs from the first untraced pass"


def _load_spans(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return []


def run_workload(name, seed, seconds, trace, scratch):
    runner_env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    runner_env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    logs = os.path.join(scratch, "logs")
    os.makedirs(logs)
    runner = Runner(runner_env, logs, time.monotonic() + RUN_BUDGET_S)
    paths = config_paths(ROOT, scratch)

    def jobs_for(tag):
        out_dir = os.path.join(scratch, tag)
        os.makedirs(out_dir)
        return make_jobs(name, paths, seed, out_dir)

    # Compile bytecode once, so no timed process pays for it.
    runner.run([sys.executable, "-c", "import wwm.cli"], "warmup.log")

    metrics, record = {}, {"passes": []}
    if not trace:
        configs = setup_configs(jobs_for("setup"))
        setup = [
            runner.run([sys.executable, os.path.join(HERE, "setup_job.py"), *configs], f"setup-{k}.log")
            for k in range(SETUP_REPEATS)
        ]
        record["setup"] = [{"exit_code": c, "wall_s": w} for c, w, _ in setup]
        if any(c != 0 for c, _, _ in setup):
            raise SystemExit(f"perfbench: set-up failed: {_log_tail(runner, 'setup-0.log')}")
        metrics["setup_s"] = statistics.median(w for _, w, _ in setup)

    reference, walls = {}, []
    started = time.perf_counter()
    while True:
        tag = f"pass{len(walls)}"
        jobs = jobs_for(tag)
        wall, results = run_pass(runner, jobs, tag)
        check_pass(runner, jobs, results, reference)
        reference = reference or {r["job"]: r["sha256"] for r in results}
        walls.append(wall)
        record["passes"].append({"wall_s": wall, "jobs": results})
        elapsed = time.perf_counter() - started
        if trace or elapsed + wall > seconds or time.monotonic() + wall > runner.deadline:
            break

    passes = record["passes"]
    if not trace:
        metrics["wall_s"] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(sum(r["cpu_s"] for r in p["jobs"]) for p in passes)
        metrics["peak_rss_mb"] = statistics.median(max(r["max_rss_mib"] for r in p["jobs"]) for p in passes)
    else:
        traced_dir = os.path.join(scratch, "spans")
        os.makedirs(traced_dir)
        jobs = jobs_for("traced")
        wall, results = run_pass(runner, jobs, "traced", traced_dir)
        check_pass(runner, jobs, results, reference)
        spans = [_load_spans(os.path.join(traced_dir, f"{k:02d}.json")) for k in range(len(jobs))]
        # The off-path layers run only in the traced pass; their time is not overhead.
        off_path = sum(s["end"] - s["start"] for job in spans for s in job if s["name"] in OFF_PATH)
        metrics.update(layer_metrics(spans))
        metrics["trace.overhead_s"] = (wall - off_path) - walls[0]
        record["traced_pass"] = {"wall_s": wall, "jobs": results}
        record["spans"] = spans
    every = [r for p in passes for r in p["jobs"]] + record.get("traced_pass", {}).get("jobs", [])
    record["hashes"] = reference
    return metrics, every, record


def check_checkout():
    missing = [p for p in ("src/wwm/cli.py", "configs/sign.cfg", "BENCHMARK.json") if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise SystemExit(f"perfbench: not a wwm source checkout, missing {', '.join(missing)} under {ROOT}")


def main(argv=None):
    check_checkout()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*whys, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    names = list(whys) if args.workload == "all" else [args.workload]
    context = machine_context()
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".perfbench"))
        try:
            metrics, jobs, record = run_workload(name, args.seed, args.seconds, args.trace, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        failed = sum(r["error"] is not None for r in jobs)
        missing = set(units) - set(metrics)
        if missing:
            raise SystemExit(f"perfbench: no value for {sorted(missing)}")
        record.update(
            workload=name, why=whys[name], note=NOTES.get(name), seed=args.seed, seconds=args.seconds,
            trace=args.trace, context=context, jobs_total=len(jobs), jobs_failed=failed, metrics=metrics,
        )
        path = os.path.join(results_dir, f"{name}.seed{args.seed}.trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(f"== {name}: {len(jobs)} jobs, seed {args.seed}, trace {args.trace}; record {os.path.relpath(path, ROOT)}")
        for metric in units:
            print(f"  {metric} = {metrics[metric]:.6g} {units[metric]}")
        print(f"  jobs_failed = {failed} of jobs_total = {len(jobs)}")
        for r in jobs:
            if r["error"]:
                print(f"  FAILED {r['job']}: {r['error']}")
        prefix = "" if len(names) == 1 else f"{name}."
        summary["attempted"] += len(jobs)
        summary["failed"] += failed
        summary["metrics"].update({prefix + m: {"value": metrics[m], "unit": units[m]} for m in units})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
