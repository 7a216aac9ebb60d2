"""Momentum-transfer characterizations that do not involve post-selection.

The central object is the characteristic function

    chi(q) = (1/2) * [g(q) + conj(g(-q))],
    g(q)   = sum_xi integral dx |psi(x)|^2 O_xi(x) conj(O_xi(x - q)),

the exact Fourier dual of the weak-valued transfer distribution:
chi(q) = integral dP_wv(p) exp(i p q).  The widely quoted form Re g(q)
(exposed here as phi_symmetric) coincides with chi whenever g is even, which
covers every symmetric scheme; for asymmetric kick schemes only chi keeps
the odd moments.

Moments are extracted by differentiating chi at q = 0 with central
differences plus Richardson extrapolation, never by integrating p^n
against the transfer density: schemes with step-like channels produce
1/p density tails whose moments exist only distributionally, while the
q-side derivatives are perfectly well posed.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CompletenessError, SchemeError, StateError, WWMError
from .grid import GridSpec, fourier_values, spectral_refine
from .parallel import map_threads, usable_cores
from .scheme import require_complete
from .state import apply_wwm

# --- signed distributions ----------------------------------------------


def merge_atoms(atoms, tol):
    """Sort atoms and merge those closer than tol; drop negligible ones."""
    merged = []
    for loc, weight in sorted(atoms):
        if merged and abs(loc - merged[-1][0]) <= tol:
            prev_loc, prev_w = merged[-1]
            total = prev_w + weight
            pos = prev_loc if abs(prev_w) >= abs(weight) else loc
            merged[-1] = (pos, total)
        else:
            merged.append((float(loc), float(weight)))
    return [(loc, w) for loc, w in merged if abs(w) > 1e-12]


@dataclass
class MixedDistribution:
    """Signed transfer distribution: point atoms plus a sampled density."""

    atoms: list  # [(location, signed weight)], sorted, distinct
    ps: np.ndarray  # uniform momentum samples (may be empty)
    density: np.ndarray  # signed density at ps
    s: float = None

    def __post_init__(self):
        self.ps = np.asarray(self.ps, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        tol = 0.5 * self.dp if self.ps.size > 1 else 0.0
        self.atoms = merge_atoms(self.atoms, tol)

    @property
    def dp(self):
        return float(self.ps[1] - self.ps[0]) if self.ps.size > 1 else 0.0

    def total_mass(self):
        return float(sum(w for _, w in self.atoms) + np.sum(self.density) * self.dp)

    def abs_mass(self):
        return float(
            sum(abs(w) for _, w in self.atoms) + np.sum(np.abs(self.density)) * self.dp
        )

    def bin_masses(self):
        """Density folded to per-bin masses with atoms added to their bins."""
        masses = self.density * self.dp
        for loc, w in self.atoms:
            k = int(np.argmin(np.abs(self.ps - loc)))
            masses[k] += w
        return masses


def support_metric(dist, half_width):
    """Absolute mass at momentum transfers |p| >= half_width."""
    if half_width < 0:
        raise WWMError(f"half_width must be nonnegative, got {half_width}")
    atom_part = sum(abs(w) for loc, w in dist.atoms if abs(loc) >= half_width - 1e-15)
    outside = np.abs(dist.ps) >= half_width - 1e-15
    return float(atom_part + np.sum(np.abs(dist.density[outside])) * dist.dp)


def _kick_distribution(scheme, ps, s=None):
    """Kick atoms of a kick-form scheme, with a zero density sampled at ps."""
    atoms = [(k, nw) for nw, k in scheme.kick_terms]
    return MixedDistribution(atoms, ps, np.zeros(ps.size), s)


def classical_transfer(scheme):
    """Kick distribution sum_xi N_xi delta(p - k_xi) of a kick-form scheme."""
    if scheme.kick_terms is None:
        raise SchemeError("scheme is not of classical kick form")
    return _kick_distribution(scheme, np.array([]))


# --- characteristic function -------------------------------------------


@dataclass
class CharacteristicFunction:
    qs: np.ndarray
    values: np.ndarray  # complex chi samples
    even_const: complex  # box-edge asymptote, even part
    odd_const: complex  # box-edge asymptote, coefficient of sgn(q)
    band_spread: float  # max std over the outer bands; settled if small
    s: float = None

    @property
    def dq(self):
        return float(self.qs[1] - self.qs[0])

    @property
    def index0(self):
        k = int(np.argmin(np.abs(self.qs)))
        if abs(self.qs[k]) > 1e-9 * self.dq + 1e-300:
            raise WWMError("q grid does not contain q = 0")
        return k

    def at0(self):
        return complex(self.values[self.index0])


_BAND_FRAC = 0.1  # share of the samples in each outer band
_SETTLE_TOL = 1e-3


def asymptote_split(xs, values, what=None, taper=None):
    """Split samples into (even_const, odd_const, remainder, band_spread).

    The asymptote model is values -> even_const +- odd_const at the box
    edges, with the constants estimated as means over the outer bands.  The
    odd part is subtracted along `taper` (default sgn(x)); pass a smooth
    odd template with known transform to keep the remainder jump-free.
    A large band_spread means the samples never settle (oscillating tails);
    the constants then mostly cancel against the remainder.  When `what`
    names the samples, a spread above the settle tolerance warns.
    """
    nb = max(2, int(len(xs) * _BAND_FRAC))
    left = values[:nb]
    right = values[-nb:]
    m_minus = np.mean(left)
    m_plus = np.mean(right)
    spread = float(max(np.std(left), np.std(right)))
    if what is not None and spread > _SETTLE_TOL:
        # level 4 is the caller of distribution_from_chi, wigner_kernel or
        # pwv_joint: each reaches this split through one helper
        warnings.warn(
            f"{what} did not settle at the box edges (spread {spread:.2e}); "
            "enlarge the box",
            stacklevel=4,
        )
    even_c = 0.5 * (m_plus + m_minus)
    odd_c = 0.5 * (m_plus - m_minus)
    if taper is None:
        taper = np.sign(xs)
    remainder = values - even_c - odd_c * taper
    return even_c, odd_c, remainder, spread


def damped_pv_kernel(ps, lam, frequency_factor=1.0):
    """Fourier dual of the tanh taper: the damped principal-value tail.

    Returns D with  FT[(i c) tanh(q/lam)](p) = c * D(p)  under the
    (1/2pi) integral tanh(q/lam) exp(-i f q) dq convention at f =
    frequency_factor * p.  D ~ 1/(pi p) for small p and decays
    exponentially at the dual-grid edge, matching how a smoothly
    attained asymptote actually transforms.
    """
    arg = 0.5 * np.pi * lam * frequency_factor * ps
    out = np.zeros_like(ps)
    small = np.abs(arg) < 350.0
    nonzero = small & (arg != 0.0)
    out[nonzero] = 0.5 * lam / np.sinh(arg[nonzero])
    return out * frequency_factor


def tail_split(xs, values, what, ps, frequency_factor=1.0):
    """Split the constant-plus-step tails off samples before a transform.

    The constant becomes the point mass at zero transfer; the step is
    subtracted along tanh(x/lambda), whose transform is added back at ps
    as the damped 1/p term.  Returns (atoms, remainder, tail_density): the
    caller transforms the remainder and adds tail_density to the result.
    """
    # lambda is small enough that tanh is fully settled at the box edges
    # (tanh(10) differs from 1 by 4e-9), wide enough that its transform,
    # (lambda/2) csch(pi lambda p / 2), is resolved on the dual grid
    lam = float(xs[-1] - xs[0]) / 20.0
    even_c, odd_c, remainder, _ = asymptote_split(xs, values, what, np.tanh(xs / lam))
    tail_density = np.real(-1j * odd_c) * damped_pv_kernel(ps, lam, frequency_factor)
    atoms = [(0.0, float(np.real(even_c)))] if abs(even_c) > 1e-12 else []
    return atoms, remainder, tail_density


_REFINE = 4  # oversampling of the x quadrature on the lattice route


def _lattice_g(scheme, state):
    """g at every x lattice point: one FFT linear correlation per channel
    on a band-limited 4x refinement of psi, since step-like channels
    otherwise leave an O(dx^2) Riemann residue in the density tails."""
    fine, psi_fine = spectral_refine(state.grid, state.values, _REFINE)
    weights = np.abs(psi_fine) ** 2 * fine.dx
    m = fine.n
    offsets = fine.dx * np.arange(-(m - 1), m)
    # g[k] = sum_j a[j] conj(O((j - k) dx)), zero-padded so nothing wraps
    size = 1 << (3 * m - 3).bit_length()
    g = np.zeros(m, dtype=complex)
    for ch in scheme.channels:
        a = np.fft.fft(weights * ch.evaluate(fine.xs, state.s), size)
        b = np.fft.fft(np.conj(ch.evaluate(offsets, state.s))[::-1], size)
        g += np.fft.ifft(a * b)[m - 1 : 2 * m - 1]
    return g[::_REFINE]


def correlation_g(scheme, state, qs):
    """g(q) = sum_xi integral |psi|^2 O_xi(x) conj(O_xi(x-q)) dx at given qs.

    Narrow states take the two-slit sum.  On a grid, kick schemes, rebased
    or not, take g(q) = sum_xi N_xi exp(i k_xi q): the transform of the
    kick atoms, exact for the normalized psi every builder returns.
    Otherwise a q on the x lattice ((q - x_min)/dx an integer to 1e-9, the
    index in [0, n)) reads from one _lattice_g per call, so it gets the
    same value whatever else qs holds; only the rest (off-lattice, x_max,
    beyond the box, non-finite) take the direct q x x quadrature.  Channels
    are evaluated analytically at shifted points: no periodic wrap-around.
    """
    qs = np.asarray(qs, dtype=float)
    s = state.s
    if not state.is_grid:
        c_minus, c_plus = state.amplitudes
        return abs(c_minus) ** 2 * scheme.contraction(-s / 2, -s / 2 - qs, s) + (
            abs(c_plus) ** 2 * scheme.contraction(s / 2, s / 2 - qs, s)
        )
    if scheme.kick_terms is not None:
        return sum(nw * np.exp(1j * k * qs) for nw, k in scheme.kick_terms)
    grid = state.grid
    weights = np.abs(state.values) ** 2 * grid.dx
    # clipping keeps +-inf out of the index arithmetic; NaN fails every test
    pos = (np.clip(qs, grid.x_min - grid.dx, grid.x_max) - grid.x_min) / grid.dx
    idx = np.rint(pos)
    on = (np.abs(pos - idx) <= 1e-9) & (idx >= 0) & (idx < grid.n)
    g = np.zeros(qs.shape, dtype=complex)
    if on.any():
        g[on] = _lattice_g(scheme, state)[idx[on].astype(int)]
    off = qs[~on]
    direct = np.zeros(off.shape, dtype=complex)
    chunk = max(1, 2 ** 22 // grid.n)
    for lo in range(0, off.size, chunk):
        diffs = grid.xs[None, :] - off[lo : lo + chunk, None]
        for ch in scheme.channels:
            a = weights * ch.evaluate(grid.xs, s)
            direct[lo : lo + chunk] += np.conj(ch.evaluate(diffs, s)) @ a
    g[~on] = direct
    return g


def natural_grid(state, grid=None):
    """grid if given, else the state's own grid, else +-8 s at n = 4096."""
    if grid is not None:
        return grid
    if state.is_grid:
        return state.grid
    return GridSpec(-8.0 * state.s, 8.0 * state.s, 4096)


def char_fn(scheme, state, qs=None, grid=None):
    """Characteristic function chi(q) = [g(q) + conj(g(-q))] / 2.

    qs=None picks the natural grid: the state's position grid (gaussian) or
    the supplied GridSpec's (narrow).  The grid must be symmetric about 0.
    g(q) and g(-q) come from one correlation_g call, so all lattice q
    share one FFT correlation (qs=None: all but g(x_max) = g(-x_min)).
    Raises if the scheme is incomplete; validates chi(0) = 1 and |chi| <= 1.
    """
    require_complete(scheme, state)
    if qs is None:
        qgrid = natural_grid(state, None if state.is_grid else grid)
        if abs(qgrid.x_min + qgrid.x_max) > 1e-9 * qgrid.length:
            raise WWMError("char_fn needs a grid symmetric about q = 0")
        qs = qgrid.xs
        minus_qs = np.concatenate([[qgrid.x_max], qs[:0:-1]])  # -qs, on the grid
    else:
        qs = np.asarray(qs, dtype=float)
        minus_qs = -qs
    g = correlation_g(scheme, state, np.concatenate([qs, minus_qs]))
    chi = 0.5 * (g[: qs.size] + np.conj(g[qs.size :]))
    even_c, odd_c, _, spread = asymptote_split(qs, chi)
    cf = CharacteristicFunction(qs, chi, even_c, odd_c, spread, state.s)
    at0 = cf.at0()
    if abs(at0 - 1.0) > 1e-7:
        raise CompletenessError(f"chi(0) = {at0}, expected 1")
    peak = float(np.max(np.abs(chi)))
    if peak > 1.0 + 1e-9:
        raise WWMError(f"|chi| reached {peak}, above the Schwartz bound 1")
    return cf


def phi_symmetric(scheme, state, qs):
    """Re g(q): the symmetric real-form moment generator, for audits."""
    return np.real(correlation_g(scheme, state, np.asarray(qs, dtype=float)))


# --- moments ------------------------------------------------------------


@dataclass
class MomentsReport:
    values: np.ndarray  # <p^n> for n = 1..n_max
    imag_residual: float  # should be ~0; diagnostic for asymmetric rounding


# order -> (coefficients of the offsets +-k for k = 1, 2, ..., denominator,
# power of h).  Even orders weight the pair (chi[+k] - chi[0]) +
# (chi[-k] - chi[0]), odd ones chi[+k] - chi[-k]: summed by mirrored pairs,
# an exactly flat chi gives exactly 0, and so does an exactly even one at
# odd orders.
_STENCILS = {
    1: ([1.0], 2.0, 1),
    2: ([1.0], 1.0, 2),
    3: ([-2.0, 1.0], 2.0, 3),
    4: ([-4.0, 1.0], 1.0, 4),
}


def _central_diff(chi, order, step_bins):
    coeffs, denom, power = _STENCILS[order]
    i0 = chi.index0
    h = step_bins * chi.dq
    if not 0 <= i0 - len(coeffs) * step_bins <= i0 + len(coeffs) * step_bins < chi.values.size:
        raise WWMError("finite-difference stencil exceeds the q grid")
    centre = chi.values[i0]
    total = 0.0 + 0.0j
    for k, coef in enumerate(coeffs, start=1):
        plus = chi.values[i0 + k * step_bins]
        minus = chi.values[i0 - k * step_bins]
        if order % 2:
            total += coef * (plus - minus)
        else:
            total += coef * ((plus - centre) + (minus - centre))
    if not abs(np.log2(abs(h))) * power < 1020:  # h ** power would leave the normal range
        raise WWMError(f"finite-difference step {h:.3e} to the power {power} is out of range")
    return total / (denom * h ** power)


def moments(chi, n_max=4):
    """Transfer moments <p^n> = (-i d/dq)^n chi at q=0, n = 1..n_max.

    Uses central differences at steps 4*dq, 2*dq, dq combined by two
    Richardson extrapolation rounds (leading error O(dq^6)).
    """
    if not 1 <= n_max <= 4:
        raise WWMError("n_max must be between 1 and 4")
    values = []
    residual = 0.0
    for order in range(1, n_max + 1):
        d4 = _central_diff(chi, order, 4)
        d2 = _central_diff(chi, order, 2)
        d1 = _central_diff(chi, order, 1)
        r1a = (4.0 * d2 - d4) / 3.0
        r1b = (4.0 * d1 - d2) / 3.0
        extrapolated = (16.0 * r1b - r1a) / 15.0
        moment = (-1j) ** order * extrapolated
        if not np.isfinite(moment):
            raise WWMError(f"transfer moment <p^{order}> is not finite: {moment.real}")
        values.append(moment.real)
        residual = max(residual, abs(moment.imag))
    return MomentsReport(np.asarray(values), residual)


# --- Wigner functions ----------------------------------------------------


@dataclass
class WignerFunction:
    xs: np.ndarray
    ps: np.ndarray  # fine momentum grid, spacing dp/2
    values: np.ndarray  # real, shape (n_x, n_p)

    @property
    def dp(self):
        return float(self.ps[1] - self.ps[0])


def _pair_products(ext, n):
    """B[j, m] = e[j + n/2 + m] conj(e[j + n/2 - m]), m in FFT order.

    ext holds consecutive lattice samples e, read as len(ext) - n strided
    windows of n + 1.  A state's rows [a, b) read
    np.pad(psi, n // 2)[a : b + n]: zero extension, not periodic wrap,
    which would pair each slit with the other slit's periodic image and
    plant a spurious interference ridge at the box edge.
    """
    win = sliding_window_view(ext, n + 1)
    h = n // 2
    out = np.empty((win.shape[0], n), dtype=complex)
    np.multiply(win[:, h:n], np.conj(win[:, h:0:-1]), out=out[:, :h])
    np.multiply(win[:, :h], np.conj(win[:, n:h:-1]), out=out[:, h:])
    return out


def _wigner_rows(pair_rows, dx):
    """(dx / pi) x the FFT along u (FFT order) of each row, p ascending."""
    return (dx / np.pi) * np.fft.fftshift(np.fft.fft(pair_rows, axis=-1), axes=-1)


def fine_momentum_grid(grid):
    return 0.5 * grid.dp * np.arange(-grid.n // 2, grid.n // 2)


def fine_momentum_amplitudes(grid, values):
    """psi~ evaluated on the half-spaced momentum grid (exact, via two DFTs)."""
    fine = np.empty(2 * grid.n, dtype=complex)
    base = fourier_values(grid, values)
    shift = 0.5 * grid.dp
    modulated = values * np.exp(-1j * shift * grid.xs)
    odd = fourier_values(grid, modulated)  # samples at ps + dp/2
    fine[0::2] = base
    fine[1::2] = odd
    ps_fine = np.empty(2 * grid.n)
    ps_fine[0::2] = grid.ps
    ps_fine[1::2] = grid.ps + shift
    return ps_fine, fine


def wigner_state(state):
    """Wigner function of a gaussian slit state on (grid xs) x (fine ps)."""
    state.require_grid("wigner_state")
    grid = state.grid
    ps_half = np.pi / (2 * grid.dx)
    tilde = fourier_values(grid, state.values)
    outside = float(np.sum(np.abs(tilde[np.abs(grid.ps) > ps_half]) ** 2) * grid.dp)
    if outside > 1e-8:
        raise StateError(
            f"momentum support exceeds half the box Nyquist (mass {outside:.2e}); "
            "refine the grid"
        )
    w = _wigner_rows(_pair_products(np.pad(state.values, grid.n // 2), grid.n), grid.dx).real
    return WignerFunction(grid.xs, fine_momentum_grid(grid), w)


def wigner_kernel(scheme, x, grid, s=None):
    """x-conditioned momentum transfer kernel of a scheme.

    Defined so that the final Wigner function is the initial one convolved
    with this kernel in p at every fixed x.  Returns a MixedDistribution on
    the fine momentum grid; constant/sgn tails of the channel contraction
    are split off as an atom at 0 and an analytic 1/p term, exactly like
    the weak-value marginal pipeline.
    """
    ps_fine = fine_momentum_grid(grid)
    if scheme.kick_terms is not None:
        return _kick_distribution(scheme, ps_fine, s)
    n = grid.n
    u_sym = grid.dx * np.arange(-n // 2, n // 2)
    pair = scheme.contraction(x + u_sym, x - u_sym, s)
    # the integral here runs over u = y/2, doubling the dual frequency
    atoms, remainder, tail_density = tail_split(
        u_sym, pair, f"wigner kernel tail at x={x}", ps_fine, 2.0
    )
    density = _wigner_rows(np.fft.ifftshift(remainder), grid.dx)
    return MixedDistribution(atoms, ps_fine, density.real + tail_density, s)


_ROW_BLOCK = 2 ** 19  # samples per block of x rows in flight, over all workers


def verify_wigner_identity(scheme, state):
    """Max abs difference between the two routes to the final Wigner function.

    Route one transforms the conditioned channel states directly; route two
    convolves the initial Wigner function with the scheme kernel row by row.
    Both run on blocks of x rows, so no n x n array is ever held, one
    thread per usable core; no result depends on the block or thread count.

    Only the rows inside the index hull [lo, hi] of the nonzero samples of
    psi and of the conditioned states are computed.  Skipping the others is
    exact when the state vanishes outside [lo, hi] and the channels are
    finite: for a row j outside, one of j + m and j - m lies outside too for
    every m, so its pair products, and its rows in both routes, are 0.

    The kernel rows are pair products of each channel sampled once at the
    lattice points x_min + k dx, k in [lo - n/2, hi + n/2], that the rows
    reach; with a dyadic dx these equal x_j +- u_m exactly.
    """
    state.require_grid("verify_wigner_identity")
    grid = state.grid
    n = grid.n
    h = n // 2
    dx = grid.dx
    ensemble = apply_wwm(scheme, state)
    psi = np.pad(state.values, h)
    conditioned = [  # undo the normalization
        np.pad(np.sqrt(prob) * st.values, h)
        for prob, st in zip(ensemble.probabilities, ensemble.states)
    ]
    support = np.flatnonzero(np.any([psi] + conditioned, axis=0)) - h
    lo, hi = int(support[0]), int(support[-1])
    channels = scheme.evaluate(grid.x_min + dx * np.arange(lo - h, hi + h + 1), state.s)

    d_fine = 0.5 * grid.dp
    block = max(1, _ROW_BLOCK // usable_cores() // n)

    def block_residual(start):
        stop = min(start + block, hi + 1)
        w_f_direct = np.zeros((stop - start, n))
        for ext in conditioned:
            w_f_direct += _wigner_rows(_pair_products(ext[start : stop + n], n), dx).real

        w_i = _wigner_rows(_pair_products(psi[start : stop + n], n), dx).real

        kernel_rows = np.zeros((stop - start, n), dtype=complex)
        for samples in channels:
            kernel_rows += _pair_products(samples[start - lo : stop - lo + n], n)
        kernel_density = _wigner_rows(kernel_rows, dx).real

        conv = np.fft.ifft(
            np.fft.fft(w_i, axis=1) * np.fft.fft(kernel_density, axis=1), axis=1
        ).real
        w_f_conv = np.roll(conv, -h, axis=1) * d_fine
        return np.max(np.abs(w_f_direct - w_f_conv))

    residuals = map_threads(block_residual, range(lo, hi + 1, block))
    return float(np.max(residuals))  # unlike max(), keeps a NaN from any block
