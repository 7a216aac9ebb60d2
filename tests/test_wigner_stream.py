"""The row-streamed Wigner identity check against its dense reference."""

import tracemalloc

import numpy as np
import pytest

import wwm
from wwm.state import apply_wwm
from wwm.transfer import _pair_products, _wigner_rows
from conftest import S, random_complete_scheme

MIB = 2 ** 20


def dense_verify_wigner_identity(scheme, state):
    """Reference: both routes on full n x n arrays, every row computed."""
    state.require_grid("verify_wigner_identity")
    grid = state.grid
    n = grid.n
    dx = grid.dx
    ensemble = apply_wwm(scheme, state)

    w_f_direct = np.zeros((n, n))
    for prob, st in zip(ensemble.probabilities, ensemble.states):
        conditioned = np.sqrt(prob) * st.values  # undo the normalization
        w_f_direct += _wigner_rows(_pair_products(conditioned), dx).real

    w_i = _wigner_rows(_pair_products(state.values), dx).real

    u_fft = dx * (((np.arange(n) + n // 2) % n) - n // 2)
    xs = grid.xs
    kernel_rows = np.empty((n, n), dtype=complex)
    block = max(1, 2 ** 21 // n)
    for lo in range(0, n, block):
        xb = xs[lo : lo + block, None]
        kernel_rows[lo : lo + block] = scheme.contraction(xb + u_fft, xb - u_fft, state.s)
    kernel_density = (dx / np.pi) * np.fft.fft(kernel_rows, axis=1)
    kernel_density = np.fft.fftshift(kernel_density, axes=1).real

    d_fine = 0.5 * grid.dp
    conv = np.fft.ifft(
        np.fft.fft(w_i, axis=1) * np.fft.fft(kernel_density, axis=1), axis=1
    ).real
    w_f_conv = np.roll(conv, -(n // 2), axis=1) * d_fine
    return float(np.max(np.abs(w_f_direct - w_f_conv)))


def twin_a20():
    """Twin slits at a = s/20: the state's support covers part of the rows."""
    st = wwm.gaussian_twin_slits(S, S / 20, wwm.make_grid(-4, 4, 1024))
    assert st.values[0] == 0 and st.values[-1] == 0
    return st


def single_slit():
    return wwm.gaussian_twin_slits(S, S / 20, wwm.make_grid(-4, 4, 1024), amplitudes=(1, 0))


def twin_a5():
    """a = s/5: no sample underflows, so every row is computed.

    The box is offset so that x = 0 is not a sample: there theta(0) = 1/2
    would leave the sign scheme incomplete on a state that reaches x = 0.
    """
    st = wwm.gaussian_twin_slits(S, S / 5, wwm.make_grid(-4.5, 4, 1024))
    assert st.values[0] != 0 and st.values[-1] != 0
    return st


@pytest.mark.parametrize("make_state", [twin_a20, single_slit, twin_a5])
def test_streamed_identity_equals_dense(make_state, identity, kick_pair, sign, sew):
    state = make_state()
    rnd = random_complete_scheme(np.random.default_rng(5))
    for sch in (identity, kick_pair, sign, sew, rnd):
        assert wwm.verify_wigner_identity(sch, state) == dense_verify_wigner_identity(
            sch, state
        )


def test_identity_check_memory_is_bounded(sign, state_a50):
    """The n = 4096 check holds no n x n array (the dense one peaked at 1.6 GiB)."""
    tracemalloc.start()
    try:
        wwm.verify_wigner_identity(sign, state_a50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * MIB
