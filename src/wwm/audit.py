"""Property audit of a which-way scheme's transfer characterization.

Summarizes the numbers every comparison table wants: completeness,
visibility, characteristic-function checks, moments, support masses,
total absolute mass, a random-unitary basis-invariance residual, and
yes/no flags derived from them at fixed thresholds.
"""

from dataclasses import dataclass, fields

import numpy as np

from .scheme import completeness_residual, haar_unitary, rebase, visibility
from .simulate import require_seed
from .state import apply_wwm, momentum_density
from .transfer import (
    char_fn, moment_qs, moments, phi_dq, phi_symmetric, support_metric, support_widths,
)
from .weakvalue import pwv_marginal

POSITIVE_TOL = 1e-6
CHANGE_TOL = 1e-3
MOMENT_MATCH_TOL = 1e-4
BASIS_TOL = 1e-9


@dataclass
class AuditReport:
    scheme_label: str
    completeness_residual: float
    visibility: float
    chi_at_0: float
    max_abs_chi: float
    abs_chi_at_s: float
    moment_values: np.ndarray  # <p^n>, n = 1..4
    moment_imag_residual: float
    support_outside_pi_3s: float
    support_outside_inv_s: float
    total_abs_mass: float
    basis_residual: float
    re_form_gap: float  # max |chi - Re g|; nonzero: asymmetric scheme or odd g
    # None on a narrow state, which has no momentum pattern to compare
    pattern_l1_change: float  # L1 distance initial vs final momentum density
    moment_change_mismatch: float  # | <p^n>_wv - pattern moment change |, n<=2

    @property
    def flag_positive(self):
        return self.total_abs_mass <= 1.0 + POSITIVE_TOL

    @property
    def flag_reflects_pattern_change(self):
        if self.pattern_l1_change is None:
            return None
        moved = self.pattern_l1_change > CHANGE_TOL
        non_delta = (self.total_abs_mass - 1.0 > CHANGE_TOL) or (
            self.support_outside_pi_3s > CHANGE_TOL
        )
        return moved == non_delta

    @property
    def flag_reflects_moment_change(self):
        if self.moment_change_mismatch is None:
            return None
        return self.moment_change_mismatch < MOMENT_MATCH_TOL

    @property
    def flag_basis_independent(self):
        return self.basis_residual < BASIS_TOL


def run_audit(scheme, state, seed=0):
    require_seed(seed)
    s = state.s
    residual = completeness_residual(scheme, state)
    vis = visibility(scheme, s)

    qs = phi_dq(state) * np.arange(-512, 513)
    chi = char_fn(scheme, state, qs=qs)
    idx_s = int(np.argmin(np.abs(qs - s)))
    chi_at_s = float(np.abs(chi.values[idx_s]))
    re_gap = float(np.max(np.abs(chi.values - phi_symmetric(scheme, state, qs))))

    rep = moments(char_fn(scheme, state, qs=moment_qs(state)))

    dist = pwv_marginal(scheme, state)
    sup_third, sup_inv = (support_metric(dist, w) for w in support_widths(s))
    abs_mass = support_metric(dist, 0.0)

    rng = np.random.default_rng(seed)
    mixed = rebase(scheme, haar_unitary(len(scheme), rng))
    dist_mixed = pwv_marginal(mixed, state)
    basis_residual = float(np.max(np.abs(dist.bin_masses() - dist_mixed.bin_masses())))

    l1 = mismatch = None
    if state.is_grid:
        g = state.grid
        initial = momentum_density(state)
        final = momentum_density(apply_wwm(scheme, state))
        l1 = float(np.sum(np.abs(final - initial)) * g.dp)
        mismatch = 0.0
        for order in (1, 2):
            pattern_change = float(np.sum((final - initial) * g.ps ** order) * g.dp)
            mismatch = max(mismatch, abs(rep.values[order - 1] - pattern_change))

    return AuditReport(
        scheme_label=scheme.base,
        completeness_residual=float(residual),
        visibility=float(vis),
        chi_at_0=float(np.abs(chi.at0())),
        max_abs_chi=float(np.max(np.abs(chi.values))),
        abs_chi_at_s=chi_at_s,
        moment_values=rep.values,
        moment_imag_residual=rep.imag_residual,
        support_outside_pi_3s=float(sup_third),
        support_outside_inv_s=float(sup_inv),
        total_abs_mass=float(abs_mass),
        basis_residual=basis_residual,
        re_form_gap=re_gap,
        pattern_l1_change=l1,
        moment_change_mismatch=mismatch,
    )


def _shown(value, spec):
    return "not computed" if value is None else format(value, spec)


def _yesno(flag):
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


def _gap_note(report):
    """Odd moments make chi differ from Re g: the scheme is asymmetric.
    Without them the gap is the odd part of g, which the state can carry."""
    if report.re_form_gap <= 1e-9:
        return ""
    if np.max(np.abs(report.moment_values[[0, 2]])) > MOMENT_MATCH_TOL:
        return "  (asymmetric scheme: symmetric Re form loses odd moments)"
    return "  (g is not even: the symmetric Re form is not chi)"


def render_text(report):
    lines = [
        "which-way momentum transfer audit",
        f"scheme: {report.scheme_label}",
        f"thresholds: positive if total |mass| <= 1 + {POSITIVE_TOL:g}; "
        f"change detected above {CHANGE_TOL:g}; moment match below "
        f"{MOMENT_MATCH_TOL:g}; basis residual below {BASIS_TOL:g}",
        "",
        f"completeness residual   = {report.completeness_residual:.3e}",
        f"visibility V            = {report.visibility:.12f}",
        f"chi(0)                  = {report.chi_at_0:.12f}",
        f"max |chi|               = {report.max_abs_chi:.12f}",
        f"|chi(s)|                = {report.abs_chi_at_s:.12f}",
        "moments <p^n>, n=1..4   = "
        + " ".join(f"{v:+.6e}" for v in report.moment_values),
        f"moment imaginary residual = {report.moment_imag_residual:.3e}",
        f"|mass| outside pi/(3s)  = {report.support_outside_pi_3s:.6f}",
        f"|mass| outside 1/s      = {report.support_outside_inv_s:.6f}",
        f"total |mass|            = {report.total_abs_mass:.9f}",
        f"basis-invariance residual = {report.basis_residual:.3e}",
        f"|chi - Re g| gap        = {report.re_form_gap:.3e}" + _gap_note(report),
        f"pattern L1 change       = {_shown(report.pattern_l1_change, '.6f')}",
        f"moment-change mismatch  = {_shown(report.moment_change_mismatch, '.3e')}",
        "",
        "properties:",
        "  described by a transfer distribution: yes",
        f"  distribution positive:                {_yesno(report.flag_positive)}",
        f"  reflects pattern change:              {_yesno(report.flag_reflects_pattern_change)}",
        f"  reflects moment change:               {_yesno(report.flag_reflects_moment_change)}",
        "  directly observable:                  yes (weak-probe protocol)",
        f"  independent of the channel basis:     {_yesno(report.flag_basis_independent)}",
        "  bohmian trajectory comparison:        not computed",
    ]
    return "\n".join(lines)


def csv_rows(report):
    """(field, value) rows: every numeric report field in declaration
    order, moment_values as moment_1..moment_4, then the flags.  A field
    that needs a grid state reads `not computed` on a narrow one."""
    rows = [("field", "value")]
    for f in fields(report)[1:]:  # all but scheme_label
        value = getattr(report, f.name)
        if f.name == "moment_values":
            rows.extend((f"moment_{k}", f"{v:.12e}") for k, v in enumerate(value, start=1))
        else:
            rows.append((f.name, _shown(value, ".12e")))
    flags = [name for name in vars(AuditReport) if name.startswith("flag_")]  # declared order
    rows.extend((name, _yesno(getattr(report, name))) for name in flags)
    rows.append(("bohmian_row", "not computed"))
    return rows
