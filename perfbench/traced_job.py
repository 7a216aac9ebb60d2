"""Run one `wwm` CLI job in-process, with spans around its layer functions.

    python perfbench/traced_job.py <spans.json> <job id> <cli arguments...>

Needs `wwm` importable (PYTHONPATH=src).  Imports `wwm.cli` inside a
`cli.import` span (nothing before it loads numpy), wraps the functions in
layers.WRAPPED wherever the package resolves them and calls
`wwm.cli.main(argv)` inside a `cli.main` span.  tracemalloc runs only
inside the spans in layers.PEAK_SPANS.  For `simulate`, it then times the
off-path layers on the inputs the command built.  The spans are written
to <spans.json> when the job ends, also when it raises; the exit code is
the CLI's.
"""

import json
import sys

from layers import PEAK_SPANS, WRAPPED
from spans import Tracer, install


def _count_output(tracer, write):
    def counted(path, text):
        tracer.count("cli.out_bytes", len(text.encode("utf-8")))
        return write(path, text)

    return counted


def _keep(store, key, fn, pick):
    def kept(*args):
        result = fn(*args)
        store[key] = pick(args, result)
        return result

    return kept


def run(spans_path, job_id, cli_args):
    tracer = Tracer(job_id, memory=PEAK_SPANS)
    try:
        with tracer.span("cli.import"):
            from wwm import cli
        from wwm import simulate, weakvalue

        install(tracer, WRAPPED)
        cli._write_out = _count_output(tracer, cli._write_out)
        kept = {}
        cli.pwv_joint = _keep(kept, "table", cli.pwv_joint, lambda a, r: r)
        cli.run_weak_experiment = _keep(kept, "mc", cli.run_weak_experiment, lambda a, r: a)
        with tracer.span("cli.main"):
            code = cli.main(cli_args)
        # The off-path layers (layers.OFF_PATH), now traced wrappers.
        if "table" in kept:
            weakvalue.marginal_from_joint(kept.pop("table"))
        if "mc" in kept:
            simulate.deterministic_cells(*kept.pop("mc"))
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
