"""Command line front end.

    wwm <command> --config <path> [--out <path>]
        [--sigma f] [--shots n] [--seed u64] [--qmax f] [--x f]

Commands: check, pwv, phi, moments, support, simulate, audit, wigner,
momentum-dist.  `main` builds the scheme and a state of the config's
`[state] kind` and checks `--seed`, which only `simulate` reads, for every
command; each command returns (text, exit code[, report]); `main` writes
the text to the output path, or stdout when none is set, then prints the
report, if any, to stdout.  CSV output uses %.12e formatting with point
masses as leading `# atom,<location>,<weight>` comment lines, and is
written atomically (temp file + rename).  `wigner` leads with its
slice x (default s/2), the residual of W_f = K (*)_p W_i at that slice for
the kernel K it prints, and K's PV coefficient.  Exit codes: 0 success, 1
validation failure or library warning (chi not settling at the box
edges), 2 parse error.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from . import audit as audit_mod
from .config import build_grid, build_scheme, build_state, load_config
from .errors import ConfigError, WWMError
from .scheme import COMPLETENESS_TOL, completeness_residual, visibility
from .simulate import MCConfig, default_bins, require_seed, run_weak_experiment
from .state import apply_wwm, momentum_density
from .transfer import (
    WIGNER_IDENTITY_TOL, asymptote_split, char_fn, moment_qs, moments, phi_dq, support_metric,
    support_widths, wigner_kernel, wigner_slice_residual,
)
# pwv_joint is called by no command: perfbench/traced_job.py reads cli.pwv_joint (ROADMAP 1)
from .weakvalue import pwv_joint, pwv_marginal  # noqa: F401

FMT = "%.12e"
PHI_MAX_HALF = 2 ** 15  # `phi` q samples per side: |q| <= 512 s at dq = s/64


def _write_out(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".wwm-{os.getpid()}-{os.urandom(4).hex()}.tmp")
    # mode 0o666 leaves the file's mode to the umask, as open() would
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(lines):
    return "\n".join(lines) + "\n"


def _csv(header, columns, comments=(), formats=None):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    row_fmt = ",".join(formats or [FMT] * len(columns))
    table = np.column_stack(columns)
    for k in range(0, len(table), 1024):  # a whole table's Python floats would set the peak
        lines.extend(row_fmt % tuple(row) for row in table[k : k + 1024].tolist())
    return _lines(lines)


def _dist_csv(dist, s, lead=()):
    comments = list(lead) + [f"atom,{FMT % loc},{FMT % w}" for loc, w in dist.atoms]
    return _csv(
        ("p", "p_hbar_over_s", "density", "density_hbar_over_s"),
        (dist.ps, dist.ps * s, dist.density, dist.density / s),
        comments,
    )


def _build(cfg):
    """(scheme, state); the state carries the grid, built first."""
    grid = build_grid(cfg)
    scheme = build_scheme(cfg)
    return scheme, build_state(cfg, grid)


def cmd_check(cfg, args, scheme, state):
    residual = completeness_residual(scheme, state)
    vis = visibility(scheme, cfg.s)
    text = (
        f"completeness_residual = {residual:.12e}\n"
        f"visibility = {vis:.12e}\n"
    )
    return text, 0 if residual < COMPLETENESS_TOL else 1


def cmd_pwv(cfg, args, scheme, state):
    return _dist_csv(pwv_marginal(scheme, state), cfg.s), 0


def cmd_phi(cfg, args, scheme, state):
    qmax = args.qmax if args.qmax is not None else 4.0 * cfg.s
    if not (np.isfinite(qmax) and qmax > 0):
        raise WWMError(f"--qmax must be a positive number, got {qmax}")
    dq = phi_dq(state)
    if qmax / dq > PHI_MAX_HALF:
        raise WWMError(f"--qmax {qmax} needs more than {2 * PHI_MAX_HALF + 1} q samples")
    half = max(8, int(round(qmax / dq)))
    qs = dq * np.arange(-half, half + 1)
    chi = char_fn(scheme, state, qs=qs)
    comments = []
    if scheme.kick_terms is None:  # a kick scheme's chi, an atom sum, has no box-edge limit
        even, odd, _ = asymptote_split(chi.values, "chi")
        comments = [f"asymptote_even,{FMT % even.real}", f"asymptote_odd_imag,{FMT % odd.imag}"]
    return _csv(("q", "re_chi", "im_chi"), (qs, chi.values.real, chi.values.imag), comments), 0


def cmd_moments(cfg, args, scheme, state):
    rep = moments(char_fn(scheme, state, qs=moment_qs(state)))
    lines = ["n,moment"]
    for k, value in enumerate(rep.values, start=1):
        lines.append(f"{k},{FMT % value}")
    lines.append(f"# imag_residual,{FMT % rep.imag_residual}")
    return _lines(lines), 0


def cmd_support(cfg, args, scheme, state):
    dist = pwv_marginal(scheme, state)
    widths = support_widths(cfg.s)
    return _csv(
        ("half_width", "half_width_hbar_over_s", "outside_abs_mass"),
        (widths, (np.pi / 3, 1.0), [support_metric(dist, w) for w in widths]),
    ), 0


def cmd_simulate(cfg, args, scheme, state):
    edges = default_bins(cfg.s, cfg.n_bins, cfg.bin_span)
    mc_cfg = MCConfig(
        sigma=args.sigma,
        shots_per_bin=args.shots,
        p_i_edges=edges,
        p_f_edges=edges,
        seed=args.seed,
    )
    est = run_weak_experiment(scheme, state, mc_cfg)
    bad = ~np.isfinite(est.means) & (est.counts > 0)
    bad |= ~np.isfinite(est.std_errors) & (est.counts > 1)
    if bad.any():  # r**2 overflows for a huge sigma
        raise WWMError(f"simulate statistics are not finite at sigma = {mc_cfg.sigma}")
    nb, nc = mc_cfg.n_i, mc_cfg.n_f
    lo, hi = edges[:-1], edges[1:]
    # nan marks a mean without shots, a std_error without two, an empty p_f bin
    cells = [est.means, est.std_errors, est.counts, est.oracle]
    return _csv(
        ("pi_lo", "pi_hi", "pf_lo", "pf_hi", "mean", "std_error", "count", "oracle"),
        [np.repeat(lo, nc), np.repeat(hi, nc), np.tile(lo, nb), np.tile(hi, nb)]
        + [c.ravel() for c in cells],
        [f"sigma,{FMT % args.sigma}", f"shots_per_bin,{args.shots}", f"seed,{args.seed}"]
        + [f"diag,overflow,{FMT % p},{k}" for p, k in zip(lo, est.overflow)],
        [FMT] * 6 + ["%d", FMT],
    ), 0


def cmd_audit(cfg, args, scheme, state):
    label, rows = audit_mod.run_audit(scheme, state)
    csv = _lines(",".join(r) for r in audit_mod.csv_rows(rows)) if cfg.out else None
    return csv, 0, audit_mod.render_text(label, rows) + "\n"


def cmd_wigner(cfg, args, scheme, state):
    x = cfg.wigner_x if cfg.wigner_x is not None else cfg.s / 2.0
    if not np.isfinite(x):
        raise WWMError(f"wigner slice x must be a finite number, got {x}")
    dist = wigner_kernel(scheme, x, state.grid)
    if not np.all(np.isfinite(dist.density)):
        raise WWMError(f"wigner kernel density at x = {x} is not finite")
    residual = wigner_slice_residual(scheme, state, x, dist)
    if not residual < WIGNER_IDENTITY_TOL:  # NaN too
        raise WWMError(
            f"wigner identity residual {residual:.3e} is not below {WIGNER_IDENTITY_TOL:.0e}"
        )
    lead = [
        f"x,{FMT % x}",
        f"identity_residual,{FMT % residual}",
        f"pv_coefficient,{FMT % dist.pv_coefficient}",
    ]
    return _dist_csv(dist, cfg.s, lead), 0


def cmd_momentum_dist(cfg, args, scheme, state):
    initial = momentum_density(state)
    final = momentum_density(apply_wwm(scheme, state))
    ps = state.grid.ps
    return _csv(
        ("p", "p_hbar_over_s", "initial", "final"),
        (ps, ps * cfg.s, initial, final),
    ), 0


COMMANDS = {
    "check": cmd_check,
    "pwv": cmd_pwv,
    "phi": cmd_phi,
    "moments": cmd_moments,
    "support": cmd_support,
    "simulate": cmd_simulate,
    "audit": cmd_audit,
    "wigner": cmd_wigner,
    "momentum-dist": cmd_momentum_dist,
}
GRID_ONLY = ("simulate", "wigner", "momentum-dist")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="wwm",
        description="Weak-valued momentum transfer for which-way measurements",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--sigma", type=float, default=10.0)
    parser.add_argument("--shots", type=int, default=10 ** 4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--qmax", type=float)
    parser.add_argument("--x", type=float, help="position for the wigner kernel slice")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg.out = args.out or cfg.out
        cfg.wigner_x = args.x if args.x is not None else cfg.wigner_x
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            scheme, state = _build(cfg)
            if args.command in GRID_ONLY:
                state.require_grid(args.command)
            require_seed(args.seed)
            text, code, *report = COMMANDS[args.command](cfg, args, scheme, state)
        if text is not None:
            _write_out(cfg.out, text)
        sys.stdout.writelines(report)
        return code
    except ConfigError as err:
        print(f"wwm: parse error: {err}", file=sys.stderr)
        return 2
    except (WWMError, OSError, UserWarning) as err:
        print(f"wwm: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
