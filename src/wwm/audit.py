"""Property audit of a which-way scheme's transfer characterization.

Summarizes the numbers every comparison table wants: completeness,
visibility, characteristic-function checks, moments, support masses,
total absolute mass, a fixed-unitary basis-invariance residual, and
yes/no flags derived from them at fixed thresholds.  `run_audit` returns
them as one ordered list of rows, each declared once with its CSV name,
text label and text format; `render_text` and `csv_rows` print that
list, so a new row is one more entry in it.
"""

from typing import NamedTuple

import numpy as np

from .scheme import completeness_residual, rebase, visibility
from .state import apply_wwm, momentum_density
from .transfer import char_fns, moment_qs, moments, phi_dq, support_metric, support_widths
from .weakvalue import pwv_marginal

POSITIVE_TOL = 1e-6
CHANGE_TOL = 1e-3
MOMENT_MATCH_TOL = 1e-4
BASIS_TOL = 1e-9
YES_NO = {True: "yes", False: "no", None: "n/a"}


class Row(NamedTuple):
    field: str  # CSV name
    label: str  # text label
    value: object  # number, moments array, flag text, or None: not computed
    spec: str = None  # text format of a number; None for a flag
    note: str = ""  # text-only suffix


def mixing_unitary(k):
    """F_k[j, l] = e^{2 pi i j l / k} / sqrt(k): each entry has modulus 1/sqrt(k),
    so every channel mixes into every other."""
    j = np.arange(k)
    return np.exp(2j * np.pi * np.outer(j, j) / k) / np.sqrt(k)


def run_audit(scheme, state):
    """(scheme label, rows): the audit's rows in report order, numbers
    first, then the flags derived from them."""
    s = state.s
    residual = float(completeness_residual(scheme, state))
    vis = float(visibility(scheme, s))

    qs = phi_dq(state) * np.arange(-512, 513)
    chi, chi_moments, chi_lags = char_fns(scheme, state, qs, moment_qs(state), None)
    idx_s = int(np.argmin(np.abs(qs - s)))
    re_gap = float(np.max(np.abs(chi.values - chi.g.real)))
    rep = moments(chi_moments)
    # Odd moments make chi differ from Re g: the scheme is asymmetric.
    # Without them the gap is the odd part of g, which the state can carry.
    gap_note = ""
    if re_gap > 1e-9:
        if np.max(np.abs(rep.values[[0, 2]])) > MOMENT_MATCH_TOL:
            gap_note = "  (asymmetric scheme: symmetric Re form loses odd moments)"
        else:
            gap_note = "  (g is not even: the symmetric Re form is not chi)"

    dist = pwv_marginal(scheme, state, chi_lags)
    del chi_lags  # held through the rebase's own g request, it would raise max RSS
    sup_third, sup_inv = (float(support_metric(dist, w)) for w in support_widths(s))
    abs_mass = float(support_metric(dist, 0.0))

    mixed = rebase(scheme, mixing_unitary(len(scheme)))
    dist_mixed = pwv_marginal(mixed, state)
    basis_residual = float(np.max(np.abs(dist.bin_masses() - dist_mixed.bin_masses())))

    # None on a narrow state, which has no momentum pattern to compare
    l1 = mismatch = reflects_pattern = reflects_moments = None
    if state.is_grid:
        g = state.grid
        initial = momentum_density(state)
        final = momentum_density(apply_wwm(scheme, state))
        l1 = float(np.sum(np.abs(final - initial)) * g.dp)
        mismatch = 0.0
        for order in (1, 2):
            pattern_change = float(np.sum((final - initial) * g.ps ** order) * g.dp)
            mismatch = max(mismatch, abs(rep.values[order - 1] - pattern_change))
        non_delta = abs_mass - 1.0 > CHANGE_TOL or sup_third > CHANGE_TOL
        reflects_pattern = (l1 > CHANGE_TOL) == non_delta
        reflects_moments = mismatch < MOMENT_MATCH_TOL

    return scheme.base, [
        Row("completeness_residual", "completeness residual", residual, ".3e"),
        Row("visibility", "visibility V", vis, ".12f"),
        Row("chi_at_0", "chi(0)", float(np.abs(chi.at0())), ".12f"),
        Row("max_abs_chi", "max |chi|", float(np.max(np.abs(chi.values))), ".12f"),
        Row("abs_chi_at_s", "|chi(s)|", float(np.abs(chi.values[idx_s])), ".12f"),
        Row("moment", "moments <p^n>, n=1..4", rep.values, "+.6e"),
        Row("moment_imag_residual", "moment imaginary residual", rep.imag_residual, ".3e"),
        Row("support_outside_pi_3s", "|mass| outside pi/(3s)", sup_third, ".6f"),
        Row("support_outside_inv_s", "|mass| outside 1/s", sup_inv, ".6f"),
        Row("total_abs_mass", "total |mass|", abs_mass, ".9f"),
        Row("basis_residual", "basis-invariance residual", basis_residual, ".3e"),
        Row("re_form_gap", "|chi - Re g| gap", re_gap, ".3e", gap_note),
        Row("pattern_l1_change", "pattern L1 change", l1, ".6f"),
        Row("moment_change_mismatch", "moment-change mismatch", mismatch, ".3e"),
        Row("flag_positive", "distribution positive:", YES_NO[abs_mass <= 1.0 + POSITIVE_TOL]),
        Row("flag_reflects_pattern_change", "reflects pattern change:", YES_NO[reflects_pattern]),
        Row("flag_reflects_moment_change", "reflects moment change:", YES_NO[reflects_moments]),
        Row("flag_basis_independent", "independent of the channel basis:",
            YES_NO[basis_residual < BASIS_TOL]),
    ]


def _shown(value, spec):
    if value is None:
        return "not computed"
    return " ".join(format(v, spec) for v in np.atleast_1d(value))


def render_text(label, rows):
    lines = [
        "which-way momentum transfer audit",
        f"scheme: {label}",
        f"thresholds: positive if total |mass| <= 1 + {POSITIVE_TOL:g}; "
        f"change detected above {CHANGE_TOL:g}; moment match below "
        f"{MOMENT_MATCH_TOL:g}; basis residual below {BASIS_TOL:g}",
        "",
    ]
    lines += [f"{r.label:<23} = {_shown(r.value, r.spec)}{r.note}" for r in rows if r.spec]
    lines += ["", "properties:"]
    lines += [f"  {r.label:<38}{r.value}" for r in rows if not r.spec]
    return "\n".join(lines)


def csv_rows(rows):
    """(field, value) rows in report order, the moments as moment_1 ..
    moment_4.  A number that needs a grid state reads `not computed` on
    a narrow one, and its flag `n/a`."""
    out = [("field", "value")]
    for r in rows:
        if r.spec is None:
            out.append((r.field, r.value))
        elif np.ndim(r.value):
            out.extend((f"{r.field}_{k}", f"{v:.12e}") for k, v in enumerate(r.value, start=1))
        else:
            out.append((r.field, _shown(r.value, ".12e")))
    return out
