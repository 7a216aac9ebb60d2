"""Weak-valued momentum-transfer distributions.

Two independent computation routes are kept deliberately separate:

* the chi route (production): inverse-transform the characteristic
  function.  Box-edge asymptotes of chi are split off analytically, the
  even constant becoming the point mass at zero transfer and the odd one
  an explicit 1/p term, so no distributional transform is ever attempted
  on the grid.
* the joint-table route (cross-check): build the post-selected table over
  (initial, final) momentum pairs from channel matrix elements, then
  marginalize over the initial momentum at fixed transfer.  Binned by
  conditional_cells, it checks simulate.deterministic_cells, the oracle
  `wwm simulate` prints without building any table.

For the matrix elements the channel function is decomposed per channel as
O(x) = A + B*sgn(x) + R(x) with decaying R; A gives the diagonal, B an
analytic principal-value kernel, and R a short transform on a doubly
refined grid so that all momentum differences are reachable.  Classical
kick schemes read their kick_terms on both routes: the chi route's
inversion gives the exact atoms on chi's dual grid, and the table moves
each row's initial mass |psi~(p_i)|^2 dp by each kick, in any channel basis.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import WWMError
from .grid import BIN_SPAN, EMPTY_BIN_MASS, SQRT_2PI, bin_indices, fourier_values, rows_per_block
from .scheme import require_complete
from .transfer import (
    MixedDistribution,
    asymptote_split,
    char_fn,
    distribution_from_chi,
)


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
    return MixedDistribution([(0.0, 0.5)], ps, density)


def pwv_marginal(scheme, state):
    """Weak-valued distribution of the transfer p_f - p_i on the state's momentum grid.

    The sign measurement on narrow slits returns the closed form, which
    holds for any slit amplitudes and any channel basis; everything else,
    kick schemes too, is the distribution of the characteristic function.
    """
    if not state.is_grid and scheme.base == "sign":
        return pwv_narrow_sign(state.s, state.grid.ps)
    return distribution_from_chi(char_fn(scheme, state))


# --- joint table ---------------------------------------------------------


@dataclass
class JointWeakTable:
    """Bin-integrated weak-valued joint distribution over (p_i, p_f)."""

    p_i: np.ndarray  # scanned initial momenta (subset of the grid)
    p_f: np.ndarray  # all grid momenta
    matrix: np.ndarray  # real bin masses, shape (len(p_i), len(p_f))
    marginal_pf: np.ndarray  # column sums, the post-selection denominator
    row_offset: int  # index of p_i[0] within p_f


def _scan_range(grid, weights, s):
    """Symmetric index window covering the envelope plus |p| <= BIN_SPAN / s."""
    n = grid.n
    cum = np.cumsum(weights)
    lo = int(np.searchsorted(cum, 1e-12))
    hi = n - int(np.searchsorted(np.cumsum(weights[::-1]), 1e-12))
    span = np.nonzero(np.abs(grid.ps) <= BIN_SPAN / s)[0]
    lo = min(lo, int(span[0]))
    hi = max(hi, int(span[-1]) + 1)
    return max(lo, 0), min(hi, n)


def _channel_decomposition(channel, grid):
    """(A, B, R_tilde): constant, sgn coefficient, transform of the rest.

    R_tilde is sampled at all momentum differences d*dp, d = -n..n-1, by
    transforming the remainder on the doubly refined grid.
    """
    fine = grid.refined(2)
    values = channel.evaluate(fine.xs)
    a_const, b_const, _ = asymptote_split(values, "channel tail (joint table)")
    r_tilde = fourier_values(fine, values - a_const - b_const * np.sign(fine.xs))
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
    if scheme.kick_terms is not None:
        for nw, k in scheme.kick_terms:
            shift = int(np.rint(k / dp))
            if abs(shift * dp - k) > 1e-9 * dp:
                warnings.warn(
                    f"kick {k} is not a multiple of dp; snapping to {shift * dp}",
                    stacklevel=2,
                )
            cols = rows + shift
            ok = (cols >= 0) & (cols < n)
            matrix[np.nonzero(ok)[0], cols[ok]] += nw * weights[rows[ok]]
    else:
        terms = []
        for ch in scheme.channels:
            field = ch.evaluate(grid.xs) * state.values
            g = fourier_values(grid, field)
            a_const, b_const, r_tilde = _channel_decomposition(ch, grid)
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
        # The (rows, n) temporaries are built one row block at a time.  Each
        # channel adds its full block, then its diagonal terms, in the order
        # of a whole-table build: no bit depends on the block size.
        step = rows_per_block(n)
        for lo_row in range(0, rows.size, step):
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

    marginal = matrix.sum(axis=0)
    return JointWeakTable(ps[rows].copy(), ps, matrix, marginal, lo)


def marginal_from_joint(table):
    """Sum the joint table over p_i at fixed transfer; bins match p_f grid."""
    n = table.p_f.size
    out = np.zeros(n)
    for k in range(n):
        offset = table.row_offset + (k - n // 2)
        out[k] = np.trace(table.matrix, offset=offset)
    return out


def conditional_cells(table, pi_edges, pf_edges):
    """Coarse-binned conditional P(p_i bin | p_f bin), the joint route's check
    of simulate.deterministic_cells.  Each cell divides by its p_f bin's whole
    mass (marginal_pf, all p_i rows), the landing probability the MC mean
    divides by; NaN where that mass is at most EMPTY_BIN_MASS."""
    pi_edges = np.asarray(pi_edges, dtype=float)
    pf_edges = np.asarray(pf_edges, dtype=float)
    nc = pf_edges.size - 1
    bi = bin_indices(pi_edges, table.p_i)
    bf = bin_indices(pf_edges, table.p_f)
    ok_f = bf >= 0

    def binned(masses):  # p_f masses -> (nc,) per p_f bin
        return np.bincount(bf[ok_f], weights=masses[ok_f], minlength=nc)

    col_mass = binned(table.marginal_pf)
    good = col_mass > EMPTY_BIN_MASS
    out = np.full((pi_edges.size - 1, nc), np.nan)
    for b in range(pi_edges.size - 1):
        out[b, good] = binned(table.matrix[bi == b].sum(axis=0))[good] / col_mass[good]
    return out
