"""Which layer functions the traced pass wraps, and how spans become metrics.

Span names are "<module>.<function>" inside the `wwm` package, plus two
spans the traced job opens itself: `cli.import` (importing `wwm.cli`) and
`cli.main`.  Units, and which way is better, live in BENCHMARK.json; the
README maps each metric to the end-to-end metric and workload it should
move.
"""

from spans import MIB, self_times

# Run only by the traced pass, after `cli.main` returns, on the inputs the
# `simulate` command built: the CLI does not call them today.
OFF_PATH = ("weakvalue.marginal_from_joint", "simulate.deterministic_cells")


def _correlation_evals(args, result):
    # q x x products of the direct quadrature; the lattice path (qs equal
    # to the state's own grid) is one FFT correlation per channel instead.
    # numpy is imported here, not at module top, so that importing the
    # traced job loads none of it before its `cli.import` span opens.
    import numpy as np

    state, qs = args["state"], np.asarray(args["qs"], dtype=float)
    if not state.is_grid:
        return {}
    grid = state.grid
    if qs.shape == grid.xs.shape and np.allclose(qs, grid.xs, atol=1e-12 * grid.dx):
        return {}
    return {"transfer.correlation_g.evals": qs.size * grid.n * len(args["scheme"].channels)}


def _joint_cells(args, result):
    return {"weakvalue.pwv_joint.cells": result.matrix.size}


def _shots(args, result):
    cfg = args["cfg"]
    return {
        "simulate.shots": cfg.shots_per_bin * cfg.n_i,
        "simulate.overflow": int(result.overflow.sum()),
    }


# Functions wrapped in spans, with the counts taken from each call.
WRAPPED = {
    "config.load_config": None,
    "config.build_grid": None,
    "config.build_scheme": None,
    "config.build_state": None,
    "scheme.check_completeness": None,
    "state.apply_wwm": None,
    "state.momentum_density": None,
    "transfer.correlation_g": _correlation_evals,
    "transfer.char_fn": None,
    "transfer.wigner_kernel": None,
    "transfer.verify_wigner_identity": None,
    "weakvalue.distribution_from_chi": None,
    "weakvalue.pwv_marginal": None,
    "weakvalue.pwv_joint": _joint_cells,
    "weakvalue.conditional_cells": None,
    "weakvalue.marginal_from_joint": None,
    "simulate.run_weak_experiment": _shots,
    "simulate.deterministic_cells": None,
    "audit.run_audit": None,
}


def _self(*names):
    return ("self", names)


def _peak(name):
    return ("peak", (name,))


def _count(name):
    return ("count", (name,))


# Per-layer metric -> (aggregation, span or counter names).  Self times and
# counts are summed over every job of the workload; peaks are the largest.
METRICS = {
    "cli.import_s": _self("cli.import"),
    "config.load_config.s": _self("config.load_config"),
    "config.build.s": _self("config.build_grid", "config.build_scheme", "config.build_state"),
    "cli.main.self_s": _self("cli.main"),
    "cli.out_bytes": _count("cli.out_bytes"),
    "transfer.correlation_g.s": _self("transfer.correlation_g"),
    "transfer.correlation_g.evals": _count("transfer.correlation_g.evals"),
    "transfer.char_fn.s": _self("transfer.char_fn"),
    "weakvalue.distribution_from_chi.s": _self("weakvalue.distribution_from_chi"),
    "weakvalue.pwv_marginal.s": _self("weakvalue.pwv_marginal"),
    "audit.run_audit.self_s": _self("audit.run_audit"),
    "audit.run_audit.peak_mb": _peak("audit.run_audit"),
    "weakvalue.pwv_joint.s": _self("weakvalue.pwv_joint"),
    "weakvalue.pwv_joint.peak_mb": _peak("weakvalue.pwv_joint"),
    "weakvalue.pwv_joint.cells": _count("weakvalue.pwv_joint.cells"),
    "weakvalue.conditional_cells.s": _self("weakvalue.conditional_cells"),
    "simulate.run_weak_experiment.s": _self("simulate.run_weak_experiment"),
    "simulate.run_weak_experiment.peak_mb": _peak("simulate.run_weak_experiment"),
    "simulate.shots": _count("simulate.shots"),
    "simulate.overflow_share": ("share", ("simulate.overflow", "simulate.shots")),
    "weakvalue.marginal_from_joint.s": _self("weakvalue.marginal_from_joint"),
    "simulate.deterministic_cells.s": _self("simulate.deterministic_cells"),
    "transfer.verify_wigner_identity.s": _self("transfer.verify_wigner_identity"),
    "transfer.verify_wigner_identity.peak_mb": _peak("transfer.verify_wigner_identity"),
    "transfer.wigner_kernel.s": _self("transfer.wigner_kernel"),
    "state.apply_wwm.s": _self("state.apply_wwm"),
    "state.momentum_density.s": _self("state.momentum_density"),
    "scheme.check_completeness.s": _self("scheme.check_completeness"),
}

# Spans that run under tracemalloc: only those whose peak_mb is reported.
PEAK_SPANS = tuple(names[0] for kind, names in METRICS.values() if kind == "peak")


def layer_metrics(jobs_spans):
    """Per-layer metrics from the spans of each traced job (a list of lists).

    A layer that no job of the workload reaches reads 0.
    """
    self_s, peak, counts = {}, {}, {}
    for spans in jobs_spans:
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            self_s[name] = self_s.get(name, 0.0) + own
            peak[name] = max(peak.get(name, 0), span["peak_bytes"])
            for key, value in span["counts"].items():
                counts[key] = counts.get(key, 0) + value
    out = {}
    for metric, (kind, names) in METRICS.items():
        if kind == "self":
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        elif kind == "peak":
            out[metric] = peak.get(names[0], 0) / MIB
        elif kind == "count":
            out[metric] = counts.get(names[0], 0)
        else:
            part, whole = (counts.get(n, 0) for n in names)
            out[metric] = part / whole if whole else 0.0
    return out

