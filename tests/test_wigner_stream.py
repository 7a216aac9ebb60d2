"""The row-streamed Wigner identity check against its dense reference."""

import tracemalloc

import numpy as np
import pytest

from wwm.grid import make_grid
from wwm.scheme import parse_scheme
from wwm.state import gaussian_twin_slits
from wwm.transfer import _pair_products, verify_wigner_identity
from conftest import PHASE_RAMP, S, half_row_wigner, random_complete_scheme

MIB = 2 ** 20


def index_pair_products(values, rows=None):
    """Reference gather: B[j, m] = psi(x_j + u_m) conj(psi(x_j - u_m)),
    u_m = m dx for m = 0..n/2, psi zero outside its box, by int64 index
    arrays."""
    n = values.size
    pad = np.zeros(3 * n, dtype=complex)
    pad[n : 2 * n] = values
    j = np.arange(n)[slice(None) if rows is None else rows, None]
    m = np.arange(n // 2 + 1)[None, :]
    # a ufunc call keeps _pair_products' operand order, so Im rounds alike
    return np.multiply(pad[n + j + m], np.conj(pad[n + j - m]))


def dense_verify_wigner_identity(scheme, state):
    """Reference: both sides of the u-space identity on full n x (n/2 + 1)
    arrays, every row computed: index-gathered pair products of the
    conditioned states summed over channels, against psi's pair products
    times kernel rows from scheme.contraction (the same ufunc operand
    order), reduced to the same l1 row bound."""
    state.require_grid("verify_wigner_identity")
    grid = state.grid
    n = grid.n
    h = n // 2
    dx = grid.dx
    delta = np.zeros((n, h + 1), dtype=complex)
    for ch in scheme.channels:
        conditioned = ch.evaluate(grid.xs) * state.values  # unnormalized
        delta += index_pair_products(conditioned)

    u_half = dx * np.arange(h + 1)
    xs = grid.xs[:, None]
    kernel = scheme.contraction(xs + u_half, xs - u_half)
    delta -= np.multiply(index_pair_products(state.values), kernel)

    mag = np.abs(delta)
    rows = mag[:, 0] + 2 * mag[:, 1:h].sum(axis=1) + mag[:, h]
    return (dx / np.pi) * float(np.max(rows))


def twin_a20():
    """Twin slits at a = s/20: the state's support covers part of the rows."""
    st = gaussian_twin_slits(S, S / 20, make_grid(-4, 4, 1024))
    assert st.values[0] == 0 and st.values[-1] == 0
    return st


def single_slit():
    return gaussian_twin_slits(S, S / 20, make_grid(-4, 4, 1024), amplitudes=(1, 0))


def twin_a5():
    """a = s/5: no sample underflows, so every row is computed.

    The box is offset so that x = 0 is not a sample: there theta(0) = 1/2
    would leave the sign scheme incomplete on a state that reaches x = 0.
    """
    st = gaussian_twin_slits(S, S / 5, make_grid(-4.5, 4, 1024))
    assert st.values[0] != 0 and st.values[-1] != 0
    return st


@pytest.mark.parametrize("make_state", [twin_a20, single_slit, twin_a5])
def test_streamed_identity_equals_dense(make_state, identity, kick_pair, sign, sew):
    state = make_state()
    rnd = random_complete_scheme(np.random.default_rng(5))
    for sch in (identity, kick_pair, sign, sew, rnd):
        assert verify_wigner_identity(sch, state) == dense_verify_wigner_identity(
            sch, state
        )


def test_identity_check_memory_is_bounded(sign, state_a50):
    """The n = 4096 check holds no n x n array (the dense one peaked at 1.6 GiB)."""
    tracemalloc.start()
    try:
        verify_wigner_identity(sign, state_a50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * MIB


@pytest.mark.parametrize("n", [16, 1024])
def test_strided_gather_equals_index_gather(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ext = np.pad(values, n // 2)
    for start, stop in [(0, n), (n // 4, n // 2 + 3), (n - 5, n), (n // 3, n // 3 + 1)]:
        strided = _pair_products(ext[start : stop + n], n)
        assert np.array_equal(strided, index_pair_products(values, slice(start, stop)))


def full_row(half):
    """The n-sample Hermitian row in FFT order whose half is m = 0..n/2:
    index n/2 holds m = -n/2, the conjugate of the half's last column."""
    return np.concatenate([half[:, :-1], np.conj(half[:, :0:-1])], axis=1)


@pytest.mark.parametrize("n", [16, 1024])
def test_half_spectrum_transform_equals_full_transform(n):
    """hfft of the half row is the real part of the full row's FFT, the
    Nyquist column's imaginary part included, on random Hermitian rows and
    on pair products of random samples."""
    rng = np.random.default_rng(n)
    half = rng.standard_normal((5, n // 2 + 1)) + 1j * rng.standard_normal((5, n // 2 + 1))
    half[:, 0] = half[:, 0].real  # a Hermitian row's m = 0 sample is real
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pairs = index_pair_products(samples, slice(n // 4, n // 4 + 5))
    dx = 0.25
    for rows in (half, pairs):
        full = full_row(rows)
        scale = np.max(np.abs(full), axis=1, keepdims=True)
        reference = np.fft.fftshift(np.fft.fft(full, axis=1), axes=1).real
        transformed = np.fft.fftshift(np.fft.hfft(rows, n, axis=1), axes=1)
        assert np.all(np.abs(transformed - reference) <= 1e-13 * scale)
        wigner = (np.pi / dx) * half_row_wigner(rows, dx)
        assert np.all(np.abs(wigner - reference) <= 1e-13 * scale)


def phase_ramp():
    return parse_scheme([PHASE_RAMP])


@pytest.mark.parametrize("box", [(-8, 8, 256), (-4.5, 4, 512)])
def test_lattice_kernel_rows_equal_contraction(box, identity, sign, kick_pair, sew):
    """On a dyadic grid x_j +- u_m is a lattice point, so pair products of
    lattice channel samples are the kernel rows bit for bit."""
    grid = make_grid(*box)
    n, h, dx = grid.n, grid.n // 2, grid.dx
    u_half = dx * np.arange(h + 1)  # column h is +n/2 dx
    rnd = random_complete_scheme(np.random.default_rng(11))
    for sch in (identity, sign, kick_pair, sew, phase_ramp(), rnd):
        for lo, hi in [(0, n - 1), (n // 3, n // 2), (n - 1, n - 1)]:
            lattice = grid.x_min + dx * np.arange(lo - h, hi + h + 1)
            rows = np.zeros((hi + 1 - lo, h + 1), dtype=complex)
            for samples in sch.evaluate(lattice):
                rows += _pair_products(samples, n)
            xb = grid.xs[lo : hi + 1, None]
            assert np.array_equal(rows, sch.contraction(xb + u_half, xb - u_half))


def test_identity_check_same_bits_at_any_block_size(monkeypatch, sign, sew):
    """Against the dense reference and the default 128-row blocks' residual."""
    state = twin_a20()
    rows = np.ptp(np.flatnonzero(state.values)) + 1
    assert rows % 37 != 0  # a short last block
    rnd = random_complete_scheme(np.random.default_rng(3))
    for sch in (sign, sew, phase_ramp(), rnd):
        default = verify_wigner_identity(sch, state)
        assert default == dense_verify_wigner_identity(sch, state)
        for row_block in (37 * 1024, 1024 + 1, rows * 1024):  # 37 rows, 1 row, one block
            monkeypatch.setattr("wwm.grid.BLOCK_SAMPLES", row_block)
            assert verify_wigner_identity(sch, state) == default


def test_identity_check_on_a_non_dyadic_box(sign, sew):
    """dx = 8.3/1024 is not dyadic: x_j + u_m and the lattice point may
    differ by rounding, so only the residual's size is checked."""
    state = gaussian_twin_slits(S, S / 20, make_grid(-4.3, 4, 1024))
    rnd = random_complete_scheme(np.random.default_rng(7))
    for sch in (sign, sew, phase_ramp(), rnd):
        assert verify_wigner_identity(sch, state) < 1e-14
