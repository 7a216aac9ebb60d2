import numpy as np
import pytest

from wwm.errors import GridError
from wwm.grid import (
    bin_indices,
    fourier_values,
    inverse_fourier_values,
    make_grid,
)
from wwm.state import gaussian_twin_slits
from conftest import S, spectral_refine


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)


def test_make_grid_values():
    g = make_grid(-8, 8, 4096)
    assert g.dx == pytest.approx(1 / 256)
    assert g.dp == pytest.approx(2 * np.pi / 16)
    assert g.dp * g.dx * g.n == pytest.approx(2 * np.pi, rel=1e-15)
    assert g.xs[0] == -8 and g.xs[-1] == pytest.approx(8 - g.dx)
    assert g.ps[0] == pytest.approx(-np.pi / g.dx)


def test_make_grid_rejects_bad_input():
    with pytest.raises(GridError):
        make_grid(-8, 8, 10)  # not a power of two
    with pytest.raises(GridError):
        make_grid(-8, 8, 8)  # too small
    with pytest.raises(GridError):
        make_grid(0, 0, 64)  # degenerate


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_round_trip(n):
    g = make_grid(-5, 5, n)
    f = random_field(g, n)
    back = inverse_fourier_values(g, fourier_values(g, f))
    assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


def test_inverse_transform_multiplies_in_one_order_at_n_16384():
    """At n = 16384 the phase is a 256 KiB temporary, which numpy may reuse
    for `values * phase` by swapping the operands.  On a twin-slit spectrum,
    nearly real where the phase is nearly +-1, hundreds of imaginary parts
    then round differently.  The transform is values times the phase at any n."""
    g = make_grid(-8, 8, 16384)
    f = fourier_values(g, gaussian_twin_slits(S, S / 20, g).values)
    phase = np.exp(1j * g.x_min * g.ps)  # a named array: never elided
    expected = np.sqrt(2 * np.pi) / g.dx * np.fft.ifft(np.fft.ifftshift(f * phase))
    assert np.array_equal(inverse_fourier_values(g, f), expected)


def test_gaussian_self_dual():
    g = make_grid(-8, 8, 4096)
    psi = np.pi ** -0.25 * np.exp(-g.xs ** 2 / 2)
    out = fourier_values(g, psi)
    ref = np.pi ** -0.25 * np.exp(-g.ps ** 2 / 2)
    assert np.max(np.abs(out - ref)) < 1e-10


@pytest.mark.parametrize("seed", [1, 2])
def test_parseval(seed):
    g = make_grid(-8, 8, 512)
    f = random_field(g, seed)
    norm_x = np.sum(np.abs(f) ** 2) * g.dx
    norm_p = np.sum(np.abs(fourier_values(g, f)) ** 2) * g.dp
    assert norm_x == pytest.approx(norm_p, rel=1e-12)


def test_shift_theorem():
    g = make_grid(-8, 8, 512)
    f = random_field(g, 5)
    k0 = 4 * g.dp  # on-grid momentum shift
    shifted = fourier_values(g, f * np.exp(1j * k0 * g.xs))
    base = fourier_values(g, f)
    assert np.max(np.abs(shifted - np.roll(base, 4))) < 1e-10 * np.max(np.abs(base))


def test_momentum_shift_theorem():
    # multiplying the spectrum by exp(-i x0 p) translates position by +x0
    g = make_grid(-8, 8, 512)
    f = random_field(g, 6) * np.exp(-g.xs ** 2)  # decaying, wrap-safe
    x0 = 8 * g.dx
    tilde = fourier_values(g, f)
    moved = inverse_fourier_values(g, tilde * np.exp(-1j * x0 * g.ps))
    assert np.max(np.abs(moved - np.roll(f, 8))) < 1e-10 * np.max(np.abs(f))


def test_spectral_refine_exact_for_bandlimited():
    g = make_grid(-8, 8, 256)
    psi = np.exp(-g.xs ** 2) * np.exp(2j * g.xs)
    fine, values = spectral_refine(g, psi, 4)
    ref = np.exp(-fine.xs ** 2) * np.exp(2j * fine.xs)
    assert fine.n == 1024 and fine.dx == pytest.approx(g.dx / 4)
    assert np.max(np.abs(values - ref)) < 1e-10


def test_bin_indices_half_open():
    edges = np.array([-1.0, 0.0, 2.0])
    values = np.array([-1.5, -1.0, -0.5, 0.0, 1.999, 2.0, 3.0, np.nan])
    assert bin_indices(edges, values).tolist() == [-1, 0, 0, 1, 1, -1, -1, -1]


@pytest.mark.parametrize("n", [4096, 16384])
def test_cached_phase_gives_the_bits_of_the_inline_phase(n):
    """fourier_values reads its phase factor from the grid; the product is
    formed as it was when the factor was computed per call, also at sizes
    where numpy reuses the exp temporary in place."""
    g = make_grid(-8, 8, n)
    f = random_field(g, n)
    spectrum = np.fft.fftshift(np.fft.fft(f))
    inline = g.dx / np.sqrt(2.0 * np.pi) * np.exp(-1j * g.x_min * g.ps) * spectrum
    assert fourier_values(g, f).tobytes() == inline.tobytes()
    assert g.forward_phase is g.forward_phase  # built once per grid
