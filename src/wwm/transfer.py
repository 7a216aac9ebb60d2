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
q-side derivatives are well posed wherever |psi|^2 vanishes at every
channel step.  Where it does not, as on a scheme that steps inside a
slit, the exact chi has a slope jump at q = 0 and <p^2> diverges.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CompletenessError, SchemeError, WWMError
from .grid import rows_per_block
from .scheme import require_complete

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
    pv_coefficient: float = 0.0  # c of the damped PV tail c D(p) in density (tail_split)

    def __post_init__(self):
        self.ps = np.asarray(self.ps, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        tol = 0.5 * self.dp if self.ps.size > 1 else 0.0
        self.atoms = merge_atoms(self.atoms, tol)

    @property
    def dp(self):
        return float(self.ps[1] - self.ps[0]) if self.ps.size > 1 else 0.0

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


def classical_transfer(scheme, ps=()):
    """Kick distribution sum_xi N_xi delta(p - k_xi) of a kick-form scheme (or
    its chi, which carries the scheme's kick_terms), with a zero density sampled at ps."""
    if scheme.kick_terms is None:
        raise SchemeError("scheme is not of classical kick form")
    atoms = [(k, nw) for nw, k in scheme.kick_terms]
    return MixedDistribution(atoms, ps, np.zeros(np.size(ps)))


# --- characteristic function -------------------------------------------


@dataclass
class CharacteristicFunction:
    """chi at uniform qs whose middle sample, n // 2, is q = 0: checked here, once."""

    qs: np.ndarray
    values: np.ndarray  # complex chi samples; asymptote_split reads their box edges
    kick_terms: list = None  # a kick scheme's (weight, kick) pairs: its exact atoms

    def __post_init__(self):
        q0 = self.qs[self.index0]
        if not abs(q0) <= 1e-9 * self.dq + 1e-300:  # written so that NaN fails
            raise WWMError(f"q = 0 is not the middle sample {self.index0} of the q grid ({float(q0)!r})")

    @property
    def dq(self):  # from the end samples: qs[1] - qs[0] carries the rounding of the largest |q|
        return float(self.qs[-1] - self.qs[0]) / (self.qs.size - 1)

    @property
    def index0(self):
        return self.qs.size // 2

    def at0(self):
        return complex(self.values[self.index0])

    @property
    def ps(self):  # the dual momentum grid, p = 0 at index n/2
        n = self.qs.size
        return 2 * np.pi / (n * self.dq) * (np.arange(n) - n // 2)


_BAND_FRAC = 0.1  # share of the samples in each outer band
_SETTLE_TOL = 1e-3


def asymptote_split(values, what):
    """Box-edge asymptotes of samples: (even_const, odd_const, band_spread).

    The asymptote model is values -> even_const +- odd_const at the box
    edges, with the constants estimated as means over the outer bands; the
    caller subtracts the odd part along its own odd template.  A large
    band_spread means the samples never settle (oscillating tails); the
    constants then mostly cancel against the remainder, and a spread above
    the settle tolerance warns, naming the samples as `what`.
    """
    nb = max(2, int(len(values) * _BAND_FRAC))
    left = values[:nb]
    right = values[-nb:]
    m_minus = np.mean(left)
    m_plus = np.mean(right)
    spread = float(max(np.std(left), np.std(right)))
    if spread > _SETTLE_TOL:
        # level 4 is the caller of distribution_from_chi (pwv_marginal or
        # wigner_kernel) or of pwv_joint: each reaches this split through one helper
        warnings.warn(
            f"{what} did not settle at the box edges (spread {spread:.2e}); "
            "enlarge the box",
            stacklevel=4,
        )
    return 0.5 * (m_plus + m_minus), 0.5 * (m_plus - m_minus), spread


def damped_pv_kernel(ps, lam):
    """Fourier dual of tanh(q/lam): the damped principal-value tail.

    Returns D with  FT[(i c) tanh(q/lam)](p) = c * D(p)  under the
    (1/2pi) integral tanh(q/lam) exp(-i p q) dq convention.  D ~ 1/(pi p)
    for small p and decays exponentially at the dual-grid edge, matching
    how a smoothly attained asymptote actually transforms.
    """
    arg = 0.5 * np.pi * lam * ps
    out = np.zeros_like(ps)
    small = np.abs(arg) < 350.0
    nonzero = small & (arg != 0.0)
    out[nonzero] = 0.5 * lam / np.sinh(arg[nonzero])
    return out


def _tail_width(qs):
    # lambda is small enough that tanh is fully settled at the box edges
    # (tanh(10) differs from 1 by 4e-9), wide enough that its transform,
    # (lambda/2) csch(pi lambda p / 2), is resolved on the dual grid
    return float(qs[-1] - qs[0]) / 20.0


def tail_split(xs, values, what):
    """Split the constant-plus-step tails off samples before a transform.

    The constant becomes the point mass at zero transfer; the step is
    subtracted along tanh(x/lambda), whose transform the caller adds back
    as c times the damped 1/p term, c = Re(-i odd_const) the PV coefficient.
    Returns (atoms, remainder, c): the caller transforms the remainder.
    The atom is returned whatever its weight; MixedDistribution drops it
    when negligible.
    """
    even_c, odd_c, _ = asymptote_split(values, what)
    remainder = values - even_c - odd_c * np.tanh(xs / _tail_width(xs))
    return [(0.0, float(np.real(even_c)))], remainder, float(np.real(-1j * odd_c))


def _transform(values, dq):
    """(1/2pi) sum_m values[m] exp(-i p q_m) dq, real part, at the dual grid's ps:
    samples q ascending with q = 0 at n/2, momenta likewise."""
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values)).real) * (dq / (2 * np.pi))


def lattice_pv_term(chi):
    """Lattice transform of i tanh(q/lambda) on chi.qs minus its damped
    continuum transform at chi.ps, lambda as tail_split takes it.

    A distribution from chi carries its tail step as pv_coefficient times the
    continuum term; on the lattice that step transforms to pv_coefficient
    times (continuum term + this).  Applying the distribution on the dual
    grid without it misses by the first-order term -(c/pi)(dp/2) d/dp of
    what it is applied to, which falls only as 1/L with the box.
    """
    lam = _tail_width(chi.qs)
    return _transform(1j * np.tanh(chi.qs / lam), chi.dq) - damped_pv_kernel(chi.ps, lam)


def distribution_from_chi(chi, what="chi"):
    """(1/2pi) integral chi(q) exp(-i p q) dq at chi.ps.

    A kick scheme's chi, an atom sum with no box-edge limit, gives its exact
    atoms; any other has its tails split off first (tail_split, naming the
    samples `what`) and the remainder, not exactly Hermitian, transformed whole.
    """
    ps = chi.ps
    if chi.kick_terms is not None:
        return classical_transfer(chi, ps)
    atoms, remainder, pv = tail_split(chi.qs, chi.values, what)
    density = _transform(remainder, chi.dq)
    tail_density = pv * damped_pv_kernel(ps, _tail_width(chi.qs))
    return MixedDistribution(atoms, ps, density + tail_density, pv)


_REFINE = 4  # oversampling of the x quadrature on the lattice route


def _lattice_g(scheme, state, m0):
    """g at the n + 1 lags q = (m0 + i) dx, i = 0 ... n: an FFT linear correlation
    on a band-limited 4x refinement of psi, since step-like channels otherwise
    leave an O(dx^2) Riemann residue.  It reads every 4th lag, so it runs by
    polyphase: fine point 4j + r takes psi on the r-th shifted lattice, and
    each (channel, r) adds a 2n-point spectrum to one inverse transform.
    Lag m0 + n is slot 2n - 1 plus the j = 0 term, whose kernel factor is in the pad."""
    grid, n = state.grid, state.grid.n
    dx_f = grid.length / (_REFINE * n)  # the 4x grid's step, to the float
    k0, f = divmod(m0 - grid.x_min / grid.dx, 1.0)  # steps past x_min; f = 0 if centred on 0
    spectrum = np.fft.fft(state.values)
    # fftfreq order puts the Nyquist bin at -pi/dx, as zero-padding does
    phase = 2j * np.pi * np.fft.fftfreq(n) / _REFINE
    # G[i] = sum_r sum_j a_r[j] conj(O(dx_f (4 (j - k0 - f - i) + r))): of the 3n - 2
    # terms of each correlation, lag i >= n - 1 aliases only i + 2n >= 3n - 1
    total, w0 = np.zeros(2 * n, dtype=complex), np.zeros(_REFINE)
    for r in range(_REFINE):
        weights = np.abs(np.fft.ifft(spectrum * np.exp(phase * r))) ** 2 * dx_f
        w0[r] = weights[0]
        xs = grid.x_min + dx_f * (_REFINE * np.arange(n) + r)
        offsets = dx_f * (_REFINE * np.arange(1 - n - int(k0), n - int(k0)) + (r - _REFINE * f))
        for ch in scheme.channels:
            a = np.fft.fft(weights * ch.evaluate(xs), 2 * n)
            a *= np.fft.fft(np.conj(ch.evaluate(offsets))[::-1], 2 * n)
            total += a
    g = np.fft.ifft(total)[n - 1 :]
    rs = np.arange(_REFINE)  # the j = 0 terms at x_0 = x_min + r dx_f, lag m0 + n
    g[-1] += w0 @ scheme.contraction(grid.x_min + dx_f * rs, dx_f * (rs - _REFINE * (n + k0 + f)))
    return g


def correlation_g(scheme, state, qs):
    """g(q) = sum_xi integral |psi|^2 O_xi(x) conj(O_xi(x-q)) dx at finite qs.

    Narrow states take the two-slit sum.  On a grid, kick schemes, rebased
    or not, take g(q) = sum_xi N_xi exp(i k_xi q): the transform of the kick
    atoms, exact for the normalized psi every builder returns.  Both take
    any q.  Other schemes take lag lattice q = m dx only, m an integer to 1e-9 +
    64 eps |m| (64 times its rounding) and |m| <= 2^40, where that is still 1/64.
    """
    qs = np.asarray(qs, dtype=float)
    if not np.all(np.isfinite(qs)):
        raise WWMError("correlation_g needs finite q")
    if not state.is_grid:
        s = state.s
        c_minus, c_plus = state.amplitudes
        return abs(c_minus) ** 2 * scheme.contraction(-s / 2, -s / 2 - qs) + (
            abs(c_plus) ** 2 * scheme.contraction(s / 2, s / 2 - qs)
        )
    if scheme.kick_terms is not None:
        return sum(nw * np.exp(1j * k * qs) for nw, k in scheme.kick_terms)
    grid, n, reach = state.grid, state.grid.n, 2.0**40 * state.grid.dx
    pos = np.clip(qs, -reach, reach) / grid.dx  # clipped, so the division cannot overflow
    m = np.rint(pos)
    off = (np.abs(pos - m) > 1e-9 + 64 * 2.0**-52 * np.abs(m)) | (np.abs(qs) > reach)
    if off.any():
        q, near = float(qs[off][0]), float(grid.dx * m[off][0])
        raise WWMError(f"q = {q!r} is not m dx, |m| <= 2^40: the nearest lattice q is {near!r}")
    # block b, the lags base + b n + [0, n], is the box's own at b = 0; a lag two blocks
    # share reads the one nearer block 0, so no q's bits depend on the rest
    base = np.rint(grid.x_min / grid.dx)
    blocks = left = (m - base - (m > base)) // n
    g = np.zeros(qs.shape, dtype=complex)
    while left.size:
        b = left.min()
        m0, pick = base + b * n, blocks == b
        g[pick] = _lattice_g(scheme, state, m0)[(m[pick] - m0).astype(int)]
        left = left[left > b]
    return g


def char_fn(scheme, state, qs=None):
    """Characteristic function chi(q) = [g(q) + conj(g(-q))] / 2.

    qs=None picks the n lags q = (m - n/2) dx of state.grid (narrow: its
    output grid), q = 0 at sample n/2, wherever the box sits.  Given qs
    need q = 0 as their middle sample.  g(q) and g(-q) come from one
    correlation_g call; on a grid, qs=None reads them from one lattice block.
    Raises if the scheme is incomplete; validates chi(0) = 1 and |chi| <= 1.
    """
    require_complete(scheme, state)
    if qs is None:
        qs = state.grid.dx * (np.arange(state.grid.n) - state.grid.n // 2)
    qs = np.asarray(qs, dtype=float)
    g = correlation_g(scheme, state, np.concatenate([qs, -qs]))
    chi = 0.5 * (g[: qs.size] + np.conj(g[qs.size :]))
    cf = CharacteristicFunction(qs, chi, scheme.kick_terms)
    at0 = cf.at0()
    if not abs(at0 - 1.0) <= 1e-7:  # written so that NaN fails
        raise CompletenessError(f"chi(0) = {at0}, expected 1")
    peak = float(np.max(np.abs(chi)))
    if not peak <= 1.0 + 1e-9:
        raise WWMError(f"|chi| reached {peak}, above the Schwartz bound 1")
    return cf


def phi_symmetric(scheme, state, qs):
    """Re g(q): the symmetric real-form moment generator, for audits."""
    return np.real(correlation_g(scheme, state, np.asarray(qs, dtype=float)))


# --- moments ------------------------------------------------------------


def _lattice_multiple(state, step):
    """step as a whole number (>= 1) of x lattice steps on a grid state."""
    if not state.is_grid:
        return step
    dx = state.grid.dx
    return dx * max(1, round(step / dx))


def moment_qs(state):
    """The q samples moments() differentiates chi on: 33 at steps of s/128."""
    return _lattice_multiple(state, state.s / 128.0) * np.arange(-16, 17)


def phi_dq(state):
    """The q step of chi as `phi` and the audit sample it: s/64."""
    return _lattice_multiple(state, state.s / 64.0)


def support_widths(s):
    """The half-widths pi/(3s) and 1/s that `support` and the audit read."""
    return np.pi / (3 * s), 1.0 / s


@dataclass
class MomentsReport:
    values: np.ndarray  # <p^n> for n = 1..4
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


def moments(chi):
    """Transfer moments <p^n> = (-i d/dq)^n chi at q=0, n = 1..4.

    Uses central differences at steps 4*dq, 2*dq, dq combined by two
    Richardson extrapolation rounds (leading error O(dq^6)).
    """
    values = []
    residual = 0.0
    for order in _STENCILS:
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


def _pair_products(ext, n):
    """B[j, m] = e[j + n/2 + m] conj(e[j + n/2 - m]) for m = 0..n/2.

    ext holds consecutive lattice samples e, read as len(ext) - n strided
    windows of n + 1.  B[j, -m] = conj(B[j, m]) up to the rounding of the
    imaginary part, so these n/2 + 1 columns are the Hermitian half of each
    row.  A state's rows [a, b) read np.pad(psi, n // 2)[a : b + n]: zero extension, not
    periodic wrap, which would pair each slit with the other slit's
    periodic image and plant a spurious interference ridge at the box edge.
    """
    win = sliding_window_view(ext, n + 1)
    h = n // 2
    # a ufunc call, not `*`: numpy may elide the conj temporary by swapping
    # the operands, and a fused multiply-add rounds Im(a b) and Im(b a) apart
    half = np.conj(win[:, h::-1])
    return np.multiply(win[:, h:], half, out=half)


def wigner_kernel(scheme, x, grid):
    """x-conditioned momentum transfer kernel of a scheme.

    Defined so that the final Wigner function is the initial one convolved
    with this kernel in p at every fixed x.  It is the transfer distribution
    of the slice's pair contraction chi_x(q) = sum_xi O_xi(x + q/2)
    conj(O_xi(x - q/2)), sampled at q = 2 dx (-n/2 ... n/2 - 1): its
    distribution_from_chi, so kick schemes give their atoms on its dual grid.
    """
    qs = 2 * grid.dx * np.arange(-grid.n // 2, grid.n // 2)
    chi = CharacteristicFunction(qs, scheme.contraction(x + qs / 2, x - qs / 2), scheme.kick_terms)
    return distribution_from_chi(chi, f"wigner kernel tail at x={x}")


def _fourier_shifted(values, f):
    """Band-limited samples at x_k + f dx from samples at the lattice x_k (last axis)."""
    if f == 0:
        return values
    return np.fft.ifft(np.fft.fft(values) * np.exp(2j * np.pi * np.fft.fftfreq(values.shape[-1]) * f))


def wigner_slice_residual(scheme, state, x, kernel):
    """max |W_i (*)_p K - W_f| at the slice x, in Wigner units, for the kernel
    K = wigner_kernel(scheme, x, state.grid) that `wwm wigner` prints.

    On K's lags q = 2 dx m, m = -n/2 ... n/2 - 1, each Wigner row at x is the
    transform (distribution_from_chi's) of pair products
    B[e](q) = e(x + q/2) conj(e(x - q/2)): W_i of psi, W_f of the conditioned
    states O_xi psi summed over channels.  Both read the grid samples, zero
    outside the box; for an x off the lattice, one Fourier shift moves them
    to x_k + f dx.  Convolving W_i with K on the dual grid is, by the
    convolution theorem, transforming B[psi] times K's inverse transform:
    its density with pv_coefficient times lattice_pv_term added, plus
    w exp(i k q) per atom (k, w), on the dual grid or off it.  So one
    transform of the difference gives the residual.  The channels reach W_f
    through the grid and K through its own samples at x +- q/2, so this
    checks K's sampling, tail split and transform.  O(n log n) time,
    O(n) memory per channel, no threads.
    """
    state.require_grid("wigner_slice_residual")
    require_complete(scheme, state)
    grid, n = state.grid, state.grid.n
    m = np.arange(-n // 2, n // 2)
    lattice = CharacteristicFunction(2 * grid.dx * m, None)  # K's lags and their dual grid
    if kernel.ps.shape != m.shape or not np.allclose(kernel.ps, lattice.ps, rtol=0, atol=1e-9 * kernel.dp):
        raise WWMError("wigner kernel momenta are not the dual grid of the slice's lags")
    # a slice a box width or more outside reads only zeros, wherever it lies
    pos = (min(max(x, grid.x_min - grid.length), grid.x_max + grid.length) - grid.x_min) / grid.dx
    j = np.floor(pos)
    plus, minus = int(j) + m, int(j) - m
    inside = (plus >= 0) & (plus < n) & (minus >= 0) & (minus < n)

    def pairs(e):
        e = _fourier_shifted(e, pos - j)
        out = np.zeros(e.shape[:-1] + (n,), dtype=complex)
        out[..., inside] = e[..., plus[inside]] * np.conj(e[..., minus[inside]])
        return out

    density = kernel.density + kernel.pv_coefficient * lattice_pv_term(lattice)
    k_q = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(density))) * (n * kernel.dp)
    for loc, w in kernel.atoms:
        k_q += w * np.exp(1j * loc * lattice.qs)
    final = pairs(scheme.evaluate(grid.xs) * state.values).sum(axis=0)
    return float(np.max(np.abs(_transform(pairs(state.values) * k_q - final, lattice.dq))))


WIGNER_IDENTITY_TOL = 1e-6  # criterion 10: largest residual a sound check may leave


def verify_wigner_identity(scheme, state):
    """Upper bound on max |W_direct - W_conv| of the final Wigner function.

    A reference off the CLI path: `wwm wigner` runs wigner_slice_residual on
    the kernel it prints.  The tests and the benchmark's traced layers read
    this full-grid check.

    W_f = K (*)_p W_i, and each Wigner row is a transform in u of pair
    products B[e][j, m] = e(x_j + u_m) conj(e(x_j - u_m)), so by the
    convolution theorem the identity holds row by row in u, transform-free:
    sum_xi B[O_xi psi] (rho_f = sum_xi |O_xi psi><O_xi psi|, unnormalized)
    equals B[psi] times sum_xi B[O_xi], the kernel's channel contraction.
    A row's difference dB, with B[j, -m] = conj(B[j, m]), moves its Wigner
    row at every p by at most (dx/pi) (|dB_0| + 2 sum_{0<m<n/2} |dB_m| +
    |dB_n/2|); the residual is the largest such row bound.  The product is
    a ufunc call with B[psi] first and the row sums are numpy's pairwise
    sum(axis=1), so no bit depends on the block size.

    Both sides read the same psi and channel slices, and B[w e] = B[w] B[e]
    for any samples, so the identity holds term by term (the distributive
    law) and the residual measures rounding: the check guards only its own
    index arithmetic.  The channel sampling and the density wigner_kernel
    returns at one slice x are on neither side (wigner_slice_residual
    checks that density).

    Rows run in blocks in the calling thread; no n x n array is held.
    Only rows in the index hull [lo, hi] of psi's nonzero samples are
    computed: for a row outside, one of j +- m lies outside for every m, so
    both sides are 0 there (finite channels).  Each channel is sampled once
    at the lattice points x_min + k dx, k in [lo - n/2, hi + n/2], the rows
    reach; with a dyadic dx these equal x_j +- u_m exactly.
    """
    state.require_grid("verify_wigner_identity")
    require_complete(scheme, state)
    grid = state.grid
    n = grid.n
    h = n // 2
    dx = grid.dx
    psi = np.pad(state.values, h)
    support = np.flatnonzero(psi) - h
    lo, hi = int(support[0]), int(support[-1])
    channels = scheme.evaluate(grid.x_min + dx * np.arange(lo - h, hi + h + 1))
    step = rows_per_block(n)
    residuals = []
    for start in range(lo, hi + 1, step):
        stop = min(start + step, hi + 1)
        ext = psi[start : stop + n]
        windows = [samples[start - lo : stop - lo + n] for samples in channels]
        delta = sum(_pair_products(w * ext, n) for w in windows)
        kernel = sum(_pair_products(w, n) for w in windows)
        delta -= np.multiply(_pair_products(ext, n), kernel, out=kernel)
        mag = np.abs(delta, out=delta).real
        residuals.append(np.max(mag[:, 0] + 2 * mag[:, 1:h].sum(axis=1) + mag[:, h]))
    return (dx / np.pi) * float(np.max(residuals))  # unlike max(), keeps a NaN from any block
