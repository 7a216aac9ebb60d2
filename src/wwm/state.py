"""Twin-slit initial states and the action of a which-way measurement.

Two state flavours:

* narrow  -- |psi(x)|^2 is a symbolic pair of point masses at x = -s/2 and
  x = +s/2.  Operations on narrow states only ever evaluate channels
  pointwise, which is what makes the closed forms exact.
* gaussian -- slits of width a sampled on a grid, normalized so that
  |psi(x)|^2 ~ exp(-x^2/a^2) per slit, i.e. the momentum-space envelope
  of a single slit is exp(-a^2 p^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .grid import default_grid, fourier_values
from .scheme import require_complete


@dataclass
class SlitState:
    """Twin slits at separation s, with the grid their distributions are sampled on."""

    kind: str  # "narrow" or "gaussian"
    s: float
    amplitudes: tuple  # (c_minus, c_plus) for the slits at -s/2, +s/2
    grid: object = None
    values: np.ndarray = None  # position samples, gaussian mode only

    @property
    def is_grid(self):
        return self.kind == "gaussian"

    def require_grid(self, what):
        if not self.is_grid:
            raise StateError(f"{what} needs a gaussian (grid) state, not narrow")


def _normalized_amplitudes(amplitudes):
    c = np.asarray(amplitudes, dtype=complex)
    if c.shape != (2,):
        raise StateError("amplitudes must be a pair (c_minus, c_plus)")
    norm = math.hypot(*np.abs(c))  # scale-free: no modulus is squared out of range
    if norm == 0:
        raise StateError("amplitudes must not both vanish")
    return tuple(complex(v) for v in c / norm)


def narrow_twin_slits(s, amplitudes=(2 ** -0.5, 2 ** -0.5), grid=None):
    """Point slits at +-s/2, their distributions sampled on grid (default_grid(s))."""
    if s <= 0:
        raise StateError(f"slit separation must be positive, got {s}")
    grid = grid or default_grid(s)
    return SlitState("narrow", float(s), _normalized_amplitudes(amplitudes), grid=grid)


def gaussian_twin_slits(s, a, grid, amplitudes=(2 ** -0.5, 2 ** -0.5)):
    """Superposition of two Gaussian slits centred at +-s/2 on a grid."""
    if s <= 0:
        raise StateError(f"slit separation must be positive, got {s}")
    if not (0 < a < s / 4):
        raise StateError(f"slit width must satisfy 0 < a < s/4, got a={a}, s={s}")
    if grid.dx >= a / 4:
        raise StateError(
            f"grid too coarse: dx={grid.dx:.4g} must be below a/4={a / 4:.4g}"
        )
    if grid.x_min > -4 * s or grid.x_max < 4 * s:
        raise StateError("grid must span at least [-4s, 4s]")
    c_minus, c_plus = _normalized_amplitudes(amplitudes)
    xs = grid.xs

    def hump(center):
        return (a * np.sqrt(np.pi)) ** -0.5 * np.exp(-((xs - center) ** 2) / (2 * a * a))

    with np.errstate(all="ignore"):  # a tiny a underflows a*a; checked below
        values = c_minus * hump(-s / 2) + c_plus * hump(s / 2)
        values = values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    if not np.all(np.isfinite(values)):
        raise StateError(f"slit samples are not finite at s={s}, a={a}")
    return SlitState("gaussian", float(s), (c_minus, c_plus), grid, values)


@dataclass
class PostMeasurementEnsemble:
    """Per-channel outcome probabilities and normalized conditioned states."""

    probabilities: np.ndarray
    states: list  # position samples on grid, normalized
    grid: object

    def __post_init__(self):
        total = float(np.sum(self.probabilities))
        if abs(total - 1.0) > 1e-10:
            raise StateError(f"ensemble probabilities sum to {total}, not 1")


def apply_wwm(scheme, state):
    """Apply a complete scheme to a gaussian state, channel by channel."""
    state.require_grid("apply_wwm")
    require_complete(scheme, state)
    grid = state.grid
    probs = []
    states = []
    for ch in scheme.channels:
        conditioned = ch.evaluate(grid.xs) * state.values
        p = float(np.sum(np.abs(conditioned) ** 2) * grid.dx)
        probs.append(p)
        norm = np.sqrt(p) if p > 0 else 1.0
        states.append(conditioned / norm)
    return PostMeasurementEnsemble(np.asarray(probs), states, grid)


def momentum_density(obj):
    """Momentum probability density on the grid's momentum samples.

    Accepts either a gaussian SlitState (initial pattern |psi~(p)|^2) or a
    PostMeasurementEnsemble (final pattern <p|rho_f|p>).
    """
    if isinstance(obj, SlitState):
        obj.require_grid("momentum_density")
        tilde = fourier_values(obj.grid, obj.values)
        return np.abs(tilde) ** 2
    ensemble = obj
    grid = ensemble.grid
    density = np.zeros(grid.n)
    for p, st in zip(ensemble.probabilities, ensemble.states):
        density += p * np.abs(fourier_values(grid, st)) ** 2
    return density
