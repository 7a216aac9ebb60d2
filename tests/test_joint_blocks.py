"""The row-blocked joint table against its dense reference."""

import tracemalloc
import warnings

import numpy as np
import pytest

from wwm.grid import SQRT_2PI, fourier_values, make_grid
from wwm.scheme import parse_scheme, require_complete
from wwm.state import gaussian_twin_slits
from wwm.weakvalue import JointWeakTable, _channel_decomposition, _scan_range, pwv_joint
from conftest import PHASE_RAMP, S

MIB = 2 ** 20


def dense_pwv_joint(scheme, state):
    """Reference: every (rows, n) kernel temporary built at once."""
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
        fields = [ch.evaluate(grid.xs) * state.values for ch in scheme.channels]
        transforms = [fourier_values(grid, field) for field in fields]
        diff = ps[None, :] - ps[rows][:, None]  # p_f - p_i
        diff_index = np.rint(diff / dp).astype(int) + n
        pv_kernel = np.zeros_like(diff)
        off_diag = diff != 0.0
        pv_kernel[off_diag] = 1.0 / diff[off_diag]
        for ch, field, g in zip(scheme.channels, fields, transforms):
            outer = psit_rows[:, None] * np.conj(g)[None, :]
            a_const, b_const, r_tilde = _channel_decomposition(ch, grid)
            kernel = (-1j * b_const / np.pi) * pv_kernel + r_tilde[diff_index] / SQRT_2PI
            matrix += np.real(kernel * outer) * dp * dp
            matrix[np.arange(rows.size), rows] += np.real(
                a_const * psit_rows * np.conj(g[rows])
            ) * dp
            g_deriv = fourier_values(grid, -1j * grid.xs * field)
            matrix[np.arange(rows.size), rows] += np.real(
                (-1j * b_const / np.pi) * psit_rows * np.conj(g_deriv[rows])
            ) * dp * dp

    marginal = matrix.sum(axis=0)
    return JointWeakTable(ps[rows].copy(), ps, matrix, marginal, lo)


@pytest.fixture(scope="module")
def cases(grid_small, sign, sew, kick_pair):
    """The shipped grid configs' schemes at n = 2048, all on a = s/20 slits
    (the n = 2048 grid does not resolve a = s/50)."""
    state = gaussian_twin_slits(S, S / 20, grid_small)
    ramp = parse_scheme([PHASE_RAMP])
    return {"sign": sign, "phase_ramp": ramp, "sew_flat": sew, "kick_pair": kick_pair}, state


@pytest.mark.parametrize("name", ["sign", "phase_ramp", "sew_flat", "kick_pair"])
@pytest.mark.parametrize("block_rows", [10, None])
def test_blocked_joint_equals_dense(monkeypatch, cases, name, block_rows):
    schemes, state = cases
    scheme = schemes[name]
    if block_rows is not None:
        monkeypatch.setattr("wwm.grid.BLOCK_SAMPLES", block_rows * state.grid.n)
    ref = dense_pwv_joint(scheme, state)
    if block_rows is not None:
        assert ref.p_i.size % block_rows != 0  # a short last block
    table = pwv_joint(scheme, state)
    for field in ("p_i", "p_f", "matrix", "marginal_pf"):
        assert np.array_equal(getattr(table, field), getattr(ref, field)), field
    assert table.row_offset == ref.row_offset


def test_joint_memory_is_the_table_plus_one_block(sign):
    """Sign at n = 16384: the dense build peaked at 1,929 MiB for a 159 MiB
    table."""
    state = gaussian_twin_slits(S, 0.02, make_grid(-8, 8, 16384))
    tracemalloc.start()
    try:
        table = pwv_joint(sign, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.matrix.nbytes + 64 * MIB
