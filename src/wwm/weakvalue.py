"""Weak-valued momentum-transfer distributions.

Two independent computation routes are kept deliberately separate:

* the chi route (production): inverse-transform the characteristic
  function.  Box-edge asymptotes of chi are split off analytically, the
  even constant becoming the point mass at zero transfer and the odd one
  an explicit 1/p term, so no distributional transform is ever attempted
  on the grid.
* the joint-table route (oracle): build the post-selected table over
  (initial, final) momentum pairs from channel matrix elements, then
  marginalize over the initial momentum at fixed transfer.

For the matrix elements the channel function is decomposed per channel as
O(x) = A + B*sgn(x) + R(x) with decaying R; A gives the diagonal, B an
analytic principal-value kernel, and R a short transform on a doubly
refined grid so that all momentum differences are reachable.  Classical
kick schemes bypass both pipelines: their transfer distribution is the
exact atom list, which both routes reproduce anyway.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import StateError, WWMError
from .grid import GridSpec, SQRT_2PI, bin_indices, fourier_values
from .parallel import map_threads, usable_cores
from .scheme import require_complete
from .transfer import (
    MixedDistribution,
    _kick_distribution,
    asymptote_split,
    char_fn,
    natural_grid,
    tail_split,
)

_PROMOTE_SHARE = 0.99
_PROMOTE_FLOOR = 1e-8
# Samples per row block of the joint table's kernel temporaries over all
# threads (16 rows at n = 16384 on one core), bounding them for any table.
_JOINT_BLOCK = 2 ** 18


def pwv_narrow_sign(s, ps):
    """Closed form for the sign measurement on narrow slits.

    Point mass 1/2 at zero transfer plus the density sin(p s/2)/(2 pi p),
    with the removable p = 0 value s/(4 pi).
    """
    if s <= 0:
        raise WWMError(f"slit separation must be positive, got {s}")
    ps = np.asarray(ps, dtype=float)
    density = np.empty_like(ps)
    nonzero = ps != 0.0
    density[nonzero] = np.sin(0.5 * s * ps[nonzero]) / (2.0 * np.pi * ps[nonzero])
    density[~nonzero] = s / (4.0 * np.pi)
    return MixedDistribution([(0.0, 0.5)], ps, density, s)


def _promote_single_bins(atoms, ps, density):
    """Move bins holding almost all of their local mass into the atom list."""
    if ps.size < 2:
        return atoms, density
    dp = ps[1] - ps[0]
    masses = density * dp
    window = np.convolve(np.abs(masses), np.ones(7), mode="same")
    concentrated = (np.abs(masses) > _PROMOTE_SHARE * window) & (
        np.abs(masses) > _PROMOTE_FLOOR
    )
    for k in np.nonzero(concentrated)[0]:
        atoms.append((float(ps[k]), float(masses[k])))
        density[k] = 0.0
    return atoms, density


def distribution_from_chi(chi):
    """Inverse-transform a characteristic function into atoms plus density."""
    qs = chi.qs
    n = qs.size
    qgrid = GridSpec(float(qs[0]), float(qs[0] + n * chi.dq), n)
    ps = qgrid.ps
    atoms, remainder, tail_density = tail_split(qs, chi.values, "chi", ps)
    density = (fourier_values(qgrid, remainder) / SQRT_2PI).real + tail_density
    atoms, density = _promote_single_bins(atoms, ps, density)
    return MixedDistribution(atoms, ps, density, chi.s)


def pwv_marginal(scheme, state, grid=None):
    """Weak-valued distribution of the momentum transfer p_f - p_i.

    Dispatch:  kick-form schemes return their exact classical atoms; the
    sign measurement on narrow slits (in any channel basis) returns the
    closed form; everything else goes through the characteristic function.
    """
    out = natural_grid(state, grid)
    if scheme.kick_terms is not None:
        return _kick_distribution(scheme, out.ps, state.s)
    if not state.is_grid and scheme.base == "sign":
        w_minus, w_plus = (abs(c) ** 2 for c in state.amplitudes)
        if abs(w_minus - w_plus) > 1e-12:
            raise StateError("narrow sign closed form needs symmetric amplitudes")
        return pwv_narrow_sign(state.s, out.ps)
    chi = char_fn(scheme, state, qs=None, grid=grid)
    return distribution_from_chi(chi)


# --- joint table ---------------------------------------------------------


@dataclass
class JointWeakTable:
    """Bin-integrated weak-valued joint distribution over (p_i, p_f)."""

    p_i: np.ndarray  # scanned initial momenta (subset of the grid)
    p_f: np.ndarray  # all grid momenta
    matrix: np.ndarray  # real bin masses, shape (len(p_i), len(p_f))
    marginal_pf: np.ndarray  # column sums, the post-selection denominator
    row_offset: int  # index of p_i[0] within p_f
    s: float = None

    def total_mass(self):
        return float(self.matrix.sum())


def _scan_range(grid, weights, s):
    """Symmetric index window covering the envelope plus |p| <= 6 pi / s."""
    n = grid.n
    cum = np.cumsum(weights)
    lo = int(np.searchsorted(cum, 1e-12))
    hi = n - int(np.searchsorted(np.cumsum(weights[::-1]), 1e-12))
    span = np.nonzero(np.abs(grid.ps) <= 6.0 * np.pi / s)[0]
    lo = min(lo, int(span[0]))
    hi = max(hi, int(span[-1]) + 1)
    return max(lo, 0), min(hi, n)


def _channel_decomposition(channel, grid, s):
    """(A, B, R_tilde): constant, sgn coefficient, transform of the rest.

    R_tilde is sampled at all momentum differences d*dp, d = -n..n-1, by
    transforming the remainder on the doubly refined grid.
    """
    fine = grid.refined(2)
    a_const, b_const, remainder, _ = asymptote_split(
        fine.xs, channel.evaluate(fine.xs, s), "channel tail (joint table)"
    )
    r_tilde = fourier_values(fine, remainder)
    return a_const, b_const, r_tilde


def pwv_joint(scheme, state):
    """Weak-valued joint table over (p_i, p_f) for a gaussian state."""
    state.require_grid("pwv_joint")
    require_complete(scheme, state)
    grid = state.grid
    n = grid.n
    dp = grid.dp
    ps = grid.ps
    psit = fourier_values(grid, state.values)
    weights = np.abs(psit) ** 2 * dp
    lo, hi = _scan_range(grid, weights, state.s)
    rows = np.arange(lo, hi)
    psit_rows = psit[rows]

    matrix = np.zeros((rows.size, n))
    fields = [ch.evaluate(grid.xs, state.s) * state.values for ch in scheme.channels]
    transforms = [fourier_values(grid, field) for field in fields]
    if scheme.kick_terms is not None:
        for (nw, k), g in zip(scheme.kick_terms, transforms):
            shift = int(np.rint(k / dp))
            if abs(shift * dp - k) > 1e-9 * dp:
                warnings.warn(
                    f"kick {k} is not a multiple of dp; snapping to {shift * dp}",
                    stacklevel=2,
                )
            cols = rows + shift
            ok = (cols >= 0) & (cols < n)
            matrix[np.nonzero(ok)[0], cols[ok]] += (
                np.sqrt(nw) * np.real(psit_rows[ok] * np.conj(g[cols[ok]])) * dp
            )
    else:
        terms = []
        for ch, field, g in zip(scheme.channels, fields, transforms):
            a_const, b_const, r_tilde = _channel_decomposition(ch, grid, state.s)
            pv_coef = -1j * b_const / np.pi
            # Diagonal of the principal-value piece: the kernel 1/(p_f - p_i)
            # times the smooth correlation has a removable zero-transfer
            # limit, (-i B / pi) psi~(p) conj(dg/dp); dropping it loses
            # exactly the central density bin.
            g_deriv = fourier_values(grid, -1j * grid.xs * field)
            diagonals = (
                np.real(a_const * psit_rows * np.conj(g[rows])) * dp,
                np.real(pv_coef * psit_rows * np.conj(g_deriv[rows])) * dp * dp,
            )
            windows = sliding_window_view(r_tilde / SQRT_2PI, n)  # [n - i, f] = R~(p_f - p_i)
            terms.append((np.conj(g), pv_coef, windows, diagonals))
        # The (rows, n) temporaries are built one row block per thread task,
        # the block shrinking with the thread count so the samples in flight
        # do not grow.  Each channel adds its full block, then its diagonal
        # terms, in the order of a whole-table build: no bit depends on the
        # block size or the thread count.
        step = max(1, _JOINT_BLOCK // usable_cores() // n)

        def add_block(lo_row):  # writes only rows blk of matrix
            blk = slice(lo_row, lo_row + step)
            diff = ps[None, :] - ps[rows[blk]][:, None]  # p_f - p_i
            pv_kernel = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0.0)
            block = matrix[blk]
            diag = (np.arange(block.shape[0]), rows[blk])
            for conj_g, pv_coef, windows, diagonals in terms:
                kernel = pv_coef * pv_kernel
                kernel += windows[n - rows[blk]]
                kernel *= psit_rows[blk, None] * conj_g[None, :]
                re = kernel.real * dp
                re *= dp
                block += re
                for values in diagonals:
                    block[diag] += values[blk]

        map_threads(add_block, range(0, rows.size, step))

    marginal = matrix.sum(axis=0)
    return JointWeakTable(ps[rows].copy(), ps, matrix, marginal, lo, state.s)


def marginal_from_joint(table):
    """Sum the joint table over p_i at fixed transfer; bins match p_f grid."""
    n = table.p_f.size
    out = np.zeros(n)
    for k in range(n):
        offset = table.row_offset + (k - n // 2)
        out[k] = np.trace(table.matrix, offset=offset)
    return out


def pwv_conditional(table, f_index):
    """Signed conditional profile over p_i given the post-selected bin."""
    denom = table.marginal_pf[f_index]
    if denom <= 1e-12:
        raise WWMError(
            f"post-selection bin {f_index} has negligible probability {denom:.2e}"
        )
    return table.matrix[:, f_index] / denom


def rebin_joint(table, pi_edges, pf_edges):
    """Aggregate the joint table onto coarse bins; returns (cells, col_mass)."""
    pi_edges = np.asarray(pi_edges, dtype=float)
    pf_edges = np.asarray(pf_edges, dtype=float)
    nb = pi_edges.size - 1
    nc = pf_edges.size - 1
    bi = bin_indices(pi_edges, table.p_i)
    bf = bin_indices(pf_edges, table.p_f)
    ok_f = bf >= 0
    cells = np.zeros((nb, nc))
    for b in range(nb):
        block = table.matrix[bi == b].sum(axis=0)
        cells[b] = np.bincount(bf[ok_f], weights=block[ok_f], minlength=nc)
    return cells, cells.sum(axis=0)


def conditional_cells(table, pi_edges, pf_edges):
    """Coarse-binned conditional P(p_i bin | p_f bin); the MC oracle."""
    cells, col_mass = rebin_joint(table, pi_edges, pf_edges)
    out = np.full_like(cells, np.nan)
    good = col_mass > 1e-12
    out[:, good] = cells[:, good] / col_mass[good]
    return out
