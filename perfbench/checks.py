"""Per-job output checks, built from the package's own stated invariants.

Nothing here compares against stored bytes, so a change that moves a
number while keeping every invariant (a bias fix, say) still passes.
Each check raises CheckFailed with a one-line reason.
"""

import math

COMPLETENESS_TOL = 1e-8  # `wwm check` exits 1 above this
MASS_TOL = 1e-6  # atoms + density * dp against 1
CHI0_TOL = 1e-7  # char_fn's own chi(0) = 1 check
SCHWARTZ_TOL = 1e-9  # char_fn's own |chi| <= 1 check
RAMP_MEAN = 0.4  # phase_ramp.cfg: <p> = alpha / 2 with alpha = 0.8
RAMP_MEAN_TOL = 1e-4
WIGNER_TOL = 1e-6  # acceptance criterion 10


class CheckFailed(Exception):
    pass


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def parse_csv(text):
    """Split CLI CSV output into ({comment name: values}, header, rows).

    Comment lines read `# name,v1,...`; repeated names (atoms) accumulate.
    """
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            name, *values = line[1:].strip().split(",")
            comments.setdefault(name, []).append(values)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _require_finite(fields, where):
    for field in fields:
        value = _number(field)
        if value is not None and not math.isfinite(value):
            raise CheckFailed(f"{where}: non-finite value {field!r}")


def _column(header, rows, name):
    k = header.index(name)
    return [float(r[k]) for r in rows]


def _all_finite(comments, rows=()):
    for name, entries in comments.items():
        for values in entries:
            _require_finite(values, f"comment {name}")
    for row in rows:
        _require_finite(row, "row")


def check_check(text, job):
    values = dict(line.split(" = ") for line in text.splitlines())
    _require_finite(values.values(), "check")
    residual = float(values["completeness_residual"])
    if not residual < COMPLETENESS_TOL:
        raise CheckFailed(f"completeness residual {residual:g} >= {COMPLETENESS_TOL:g}")


def check_pwv(text, job):
    comments, header, rows = parse_csv(text)
    _all_finite(comments, rows)
    ps = _column(header, rows, "p")
    density = _column(header, rows, "density")
    dp = ps[1] - ps[0]
    total = sum(float(w) for _, w in comments.get("atom", [])) + math.fsum(density) * dp
    tol = MASS_TOL
    if job.narrow:
        # The narrow sign closed form, density sin(p s/2) / (2 pi p), has
        # tails beyond the sampled box; integrating by parts bounds their
        # mass by 4 / (pi s p_max).
        s = _column(header, rows, "p_hbar_over_s")[0] / ps[0]
        tol += 4.0 / (math.pi * s * max(abs(ps[0]), abs(ps[-1])))
    if abs(total - 1.0) > tol:
        raise CheckFailed(f"total mass {total!r} misses 1 by more than {tol:g}")


def check_phi(text, job):
    comments, header, rows = parse_csv(text)
    _all_finite(comments, rows)
    qs = _column(header, rows, "q")
    chi = [complex(re, im) for re, im in zip(_column(header, rows, "re_chi"), _column(header, rows, "im_chi"))]
    at0 = chi[min(range(len(qs)), key=lambda k: abs(qs[k]))]
    if abs(at0 - 1.0) > CHI0_TOL:
        raise CheckFailed(f"chi(0) = {at0!r}, not 1 within {CHI0_TOL:g}")
    peak = max(abs(c) for c in chi)
    if peak > 1.0 + SCHWARTZ_TOL:
        raise CheckFailed(f"max |chi| = {peak!r} exceeds 1 + {SCHWARTZ_TOL:g}")


def check_moments(text, job):
    comments, header, rows = parse_csv(text)
    _all_finite(comments, rows)
    if job.config.split("@")[0] == "phase_ramp":
        mean = float(rows[0][1])
        if abs(mean - RAMP_MEAN) > RAMP_MEAN_TOL:
            raise CheckFailed(f"phase_ramp <p> = {mean!r}, not {RAMP_MEAN} within {RAMP_MEAN_TOL:g}")


def check_audit(text, job):
    _, header, rows = parse_csv(text)
    fields = dict(rows)
    # Pattern comparisons need a grid state; on narrow slits the audit
    # writes nan for them and reports the matching flag as n/a.
    optional = {
        "pattern_l1_change": "flag_reflects_pattern_change",
        "moment_change_mismatch": "flag_reflects_moment_change",
    }
    for name, value in fields.items():
        if name in optional and value == "nan" and fields.get(optional[name]) == "n/a":
            continue
        _require_finite([value], name)


def check_wigner(text, job):
    comments, header, rows = parse_csv(text)
    _all_finite(comments, rows)
    residual = float(comments["identity_residual"][0][0])
    if not residual < WIGNER_TOL:
        raise CheckFailed(f"identity residual {residual:g} >= {WIGNER_TOL:g}")


def check_simulate(text, job):
    comments, header, rows = parse_csv(text)
    _all_finite(comments)
    col = {name: k for k, name in enumerate(header)}
    per_row = {}
    for row in rows:
        count = int(row[col["count"]])
        # nan marks a cell without shots; a single shot has no std error.
        allowed_nan = {"mean", "oracle"} if count == 0 else set()
        if count <= 1:
            allowed_nan.add("std_error")
        for name, k in col.items():
            if name not in allowed_nan:
                _require_finite([row[k]], f"cell {row[:4]} {name}")
                if _number(row[k]) is None:
                    raise CheckFailed(f"cell {row[:4]} {name}: not a number {row[k]!r}")
        per_row[row[col["pi_lo"]]] = per_row.get(row[col["pi_lo"]], 0) + count
    worst = max(per_row.values())
    if worst > job.shots:
        raise CheckFailed(f"a p_i row holds {worst} counts, more than --shots {job.shots}")


def check_finite(text, job):
    comments, _, rows = parse_csv(text)
    _all_finite(comments, rows)


CHECKS = {
    "check": check_check,
    "pwv": check_pwv,
    "phi": check_phi,
    "moments": check_moments,
    "support": check_finite,
    "audit": check_audit,
    "momentum-dist": check_finite,
    "wigner": check_wigner,
    "simulate": check_simulate,
}


def check_output(text, job):
    """Raise CheckFailed unless `text` is a valid output of `job`."""
    if not text:
        raise CheckFailed("empty output")
    try:
        CHECKS[job.command](text, job)
    except (KeyError, IndexError, ValueError, ZeroDivisionError) as err:
        raise CheckFailed(f"malformed output: {type(err).__name__}: {err}") from err
