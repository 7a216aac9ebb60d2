"""Uniform periodic grids and the Fourier convention.

All transforms in this package use the symmetric continuum convention

    g(p) = (2*pi)**-0.5 * integral dx f(x) exp(-i*x*p)

with hbar = 1, discretized as a Riemann sum over the grid.  The factor
dx/sqrt(2*pi) and the phase exp(-i*x_min*p) make the discrete transform
converge to the continuum integral as the grid is refined, so values
computed here are directly comparable to closed-form transforms.  The
momentum grid spans [-pi/dx, pi/dx) in steps of dp = 2*pi/(n*dx).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

SQRT_2PI = np.sqrt(2.0 * np.pi)
EMPTY_BIN_MASS = 1e-12  # a bin holding no more probability than this is empty
BIN_SPAN = 6.0 * np.pi  # default MC bins cover |p| <= BIN_SPAN / s
# Samples per row block of the joint table and the Wigner check (8 rows at
# n = 16384); no bit of either depends on it.
BLOCK_SAMPLES = 2 ** 17


def rows_per_block(n):
    return max(1, BLOCK_SAMPLES // n)  # BLOCK_SAMPLES read at call time


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n points x_j = x_min + j*dx on [x_min, x_max)."""

    x_min: float
    x_max: float
    n: int

    @property
    def length(self):
        return self.x_max - self.x_min

    @property
    def dx(self):
        return self.length / self.n

    @property
    def dp(self):
        return 2.0 * np.pi / (self.n * self.dx)

    @cached_property
    def xs(self):
        return self.x_min + self.dx * np.arange(self.n)

    @cached_property
    def ps(self):
        """Momentum samples in ascending order, [-pi/dx, pi/dx)."""
        return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(self.n, d=self.dx))

    @cached_property
    def forward_phase(self):
        """fourier_values' factor dx / sqrt(2 pi) * exp(-i x_min p) on ps."""
        return self.dx / SQRT_2PI * np.exp(-1j * self.x_min * self.ps)

    def refined(self, factor):
        """Same interval sampled `factor` times more densely.

        The refined grid keeps dp unchanged while extending the covered
        momentum range by `factor`, which is how channel transforms are
        evaluated at momentum differences beyond the base grid.
        """
        return GridSpec(self.x_min, self.x_max, self.n * factor)


def make_grid(x_min, x_max, n):
    """Validate and build a GridSpec.  n must be a power of two, >= 16."""
    n = int(n)
    if n < 16 or (n & (n - 1)) != 0:
        raise GridError(f"grid size must be a power of two >= 16, got {n}")
    if not (x_max > x_min):
        raise GridError(f"degenerate interval [{x_min}, {x_max}]")
    return GridSpec(float(x_min), float(x_max), n)


def default_grid(s):
    """The grid used where none is given: +-8 s at n = 4096."""
    return make_grid(-8.0 * s, 8.0 * s, 4096)


def bin_indices(edges, values):
    """Index b of the half-open bin edges[b] <= value < edges[b + 1]; -1 outside."""
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[~(values < edges[-1])] = -1
    return idx


def fourier_values(grid, values):
    """Forward transform of position samples; returns momentum samples.

    Matches grid.ps ordering.
    """
    spectrum = np.fft.fftshift(np.fft.fft(values))
    return grid.forward_phase * spectrum


def inverse_fourier_values(grid, values):
    """Inverse of fourier_values."""
    # a ufunc call, not `*`: numpy may elide the exp temporary by swapping
    # the operands, and a fused multiply-add rounds Im(a b) and Im(b a) apart
    phase = np.exp(1j * grid.x_min * grid.ps)
    spectrum = np.fft.ifftshift(np.multiply(values, phase, out=phase))
    return SQRT_2PI / grid.dx * np.fft.ifft(spectrum)

