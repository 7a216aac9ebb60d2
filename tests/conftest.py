import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wwm.grid import fourier_values, inverse_fourier_values, make_grid
from wwm.scheme import builtin, parse_scheme
from wwm.simulate import deterministic_cells
from wwm.state import (
    apply_wwm,
    gaussian_twin_slits,
    momentum_density,
    narrow_twin_slits,
)

settings.register_profile(
    "det", derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("det")

S = 1.0

# One complex channel with an asymmetric transfer: configs/phase_ramp.cfg's O.
PHASE_RAMP = "exp(i*0.8*(theta(x)*theta(1.0-x)*x + theta(x-1.0)))"

# A cell whose expected z is at or below this clears the 3 SE threshold in
# at least 99% of runs: 3 plus the standard normal's 99th percentile.
POWERED_Z = -(3.0 + 2.326)


@pytest.fixture(scope="session")
def grid():
    return make_grid(-8, 8, 4096)


@pytest.fixture(scope="session")
def grid_small():
    return make_grid(-8, 8, 2048)


@pytest.fixture(scope="session")
def state_a50(grid):
    return gaussian_twin_slits(S, S / 50, grid)


@pytest.fixture(scope="session")
def state_a20(grid):
    return gaussian_twin_slits(S, S / 20, grid)


@pytest.fixture(scope="session")
def narrow():
    return narrow_twin_slits(S)


@pytest.fixture(scope="session")
def sign():
    return builtin("sign")


@pytest.fixture(scope="session")
def identity():
    return builtin("identity")


@pytest.fixture(scope="session")
def kick_pair():
    return builtin("kicks", kicks=[(0.5, np.pi / 2), (0.5, -np.pi / 2)])


@pytest.fixture(scope="session")
def sew():
    return builtin("sew_flat", w=0.25, s=S)


@pytest.fixture(scope="session")
def phase_ramp():
    return parse_scheme([PHASE_RAMP])


@pytest.fixture(scope="session")
def three_channel():
    return random_complete_scheme(np.random.default_rng(17), n_channels=3)


@pytest.fixture(scope="session")
def schemes(sign, kick_pair, sew, phase_ramp):
    return [sign, kick_pair, sew, phase_ramp, random_complete_scheme(np.random.default_rng(11))]


def refuse_threads(monkeypatch):
    """Make starting any thread, a pool worker included, fail the test."""

    def start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)


def most_negative_cell(scheme, state, cfg):
    """Pre-register a negativity check before any shot is drawn.

    A cell's MC mean is expected at deterministic_cells(..., sigma) and has
    standard error ~ sigma / sqrt(shots * P_c), where P_c is the mass of
    the final pattern momentum_density(apply_wwm(...)) that lands in p_f
    cell c.  Returns the (p_i, p_f) index of the cell with the most
    negative expected z, its expected mean and that expected z.
    """
    expected = deterministic_cells(scheme, state, cfg, sigma=cfg.sigma)
    grid = state.grid
    density = momentum_density(apply_wwm(scheme, state))
    c_bin = np.searchsorted(cfg.p_f_edges, grid.ps, side="right") - 1
    inside = (c_bin >= 0) & (c_bin < cfg.n_f)
    landing = np.bincount(
        c_bin[inside], weights=density[inside] * grid.dp, minlength=cfg.n_f
    )
    z = expected * np.sqrt(cfg.shots_per_bin * landing) / cfg.sigma
    cell = tuple(int(k) for k in np.unravel_index(np.nanargmin(z), z.shape))
    return cell, float(expected[cell]), float(z[cell])


def total_mass(dist):
    """Signed total mass of a MixedDistribution: atoms plus density * dp."""
    return float(sum(w for _, w in dist.atoms) + np.sum(dist.density) * dist.dp)


def half_row_wigner(half_rows, dx):
    """(dx / pi) x the real FFT along u of each Hermitian row, p ascending.

    half_rows holds m = 0..n/2 of rows of n samples; hfft reads the
    Nyquist column's real part, as the full row's FFT does.
    """
    return (dx / np.pi) * np.fft.fftshift(np.fft.hfft(half_rows, axis=-1), axes=-1)


def haar_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_complete_scheme(rng, n_channels=2):
    """Random expression scheme that is complete by construction.

    Two channels cos(f), sin(f) (three: spherical split) with random
    smooth real f and independent random phase factors; completeness is
    the pointwise identity cos^2 + sin^2 = 1.
    """
    def fn():
        a0 = rng.uniform(-1, 1)
        a1 = rng.uniform(0.2, 1.5)
        w1 = rng.uniform(0.3, 2.0)
        ph = rng.uniform(0, 3)
        return f"({a0:.6f} + {a1:.6f}*sin({w1:.6f}*x + {ph:.6f}))"

    def phase():
        k = rng.uniform(-2, 2)
        c = rng.uniform(0, 3)
        return f"exp(i*({k:.6f}*x + {c:.6f}))"

    f = fn()
    if n_channels == 2:
        lines = [f"cos({f})*{phase()}", f"sin({f})*{phase()}"]
    else:
        h = fn()
        lines = [
            f"cos({f})*{phase()}",
            f"sin({f})*cos({h})*{phase()}",
            f"sin({f})*sin({h})*{phase()}",
        ]
    return parse_scheme(lines)


def spectral_refine(grid, values, factor):
    """Band-limited resampling of position samples onto a refined grid.

    Zero-pads the spectrum, so it is exact for fields whose momentum
    content fits the original box (anything the package produces).  The
    independent reference for the lattice g, which reads the same samples
    as n-point spectral shifts.
    """
    fine = grid.refined(factor)
    spectrum = fourier_values(grid, values)
    padded = np.zeros(fine.n, dtype=complex)
    lo = (fine.n - grid.n) // 2
    padded[lo : lo + grid.n] = spectrum
    return fine, inverse_fourier_values(fine, padded)
