"""Which-way measurement schemes: ordered sets of result channels O_xi(x).

A channel is anything that can be evaluated pointwise at (complex-ready)
positions.  Completeness, sum_xi |O_xi(x)|^2 = 1 for (almost) all x, is
what makes a set of channels a valid measurement.
"""

import numpy as np

from .errors import CompletenessError, EvaluationError, SchemeError
from . import expr as _expr

MAX_CHANNELS = 16
COMPLETENESS_TOL = 1e-8  # max | sum_xi |O_xi(x)|^2 - 1 | of a complete scheme


class Channel:
    """Channel backed by a python callable fn(x) -> complex values.

    A slit separation fn reads is bound in when its scheme is built.
    """

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.asarray(self.fn(x), dtype=complex)
        if vals.shape != x.shape:
            vals = np.full(x.shape, complex(vals))
        return vals


class Scheme:
    """Ordered measurement channels plus structural hints.

    kick_terms is set when the scheme realizes classical momentum kicks,
    a list of (weight, kick) pairs; several closed forms dispatch on it.
    base records which builtin the scheme descends from (rebasing keeps
    it, since every distribution computed here is basis invariant).
    """

    def __init__(self, channels, base="custom", kick_terms=None):
        if not channels:
            raise SchemeError("a scheme needs at least one channel")
        if len(channels) > MAX_CHANNELS:
            raise SchemeError(f"at most {MAX_CHANNELS} channels supported")
        self.channels = list(channels)
        self.base = base
        self.kick_terms = kick_terms

    def __len__(self):
        return len(self.channels)

    def evaluate(self, x):
        """Stack of channel values at x alone (s is bound), shape (n_channels, *x.shape)."""
        x = np.asarray(x, dtype=float)
        out = np.stack([ch.evaluate(x) for ch in self.channels])
        if not np.all(np.isfinite(out)):
            raise EvaluationError("channel evaluation produced a non-finite value")
        return out

    def contraction(self, a, b):
        """sum_xi O_xi(a) * conj(O_xi(b)) elementwise over broadcast a, b.

        Positions only: s is bound at build time.  This rebasing-invariant
        combination is how schemes enter every distribution in the package.
        The Wigner checks form it from samples of evaluate() instead: the
        slice check from the conditioned states on the grid, so that it meets
        wigner_kernel's contraction only through the identity it tests.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        shape = np.broadcast_shapes(a.shape, b.shape)
        out = np.zeros(shape, dtype=complex)
        for ch in self.channels:
            out += ch.evaluate(np.broadcast_to(a, shape)) * np.conj(
                ch.evaluate(np.broadcast_to(b, shape))
            )
        return out


def parse_scheme(exprs, s=None):
    """Parse a scheme from one expression per channel.  The slit separation
    `s` they read is bound into every channel here; the probe runs at it."""
    if isinstance(exprs, str):
        raise SchemeError("parse_scheme takes a list of expressions, one per channel, not a str")
    channels = []
    for text in exprs:
        ast = _expr.parse_expr(text)
        channels.append(Channel(lambda x, ast=ast: _expr.eval_expr(ast, x, s)))
    sch = Scheme(channels)
    _probe(sch)
    return sch


def _probe(scheme):
    """Reject channels that blow up at sample positions."""
    probe = np.concatenate([np.linspace(-10.0, 10.0, 81), [0.0, -0.5, 0.5]])
    scheme.evaluate(probe)  # raises EvaluationError on non-finite values


# --- builtins ----------------------------------------------------------


def _sew_angle(x, w):
    ramp = 0.25 * np.pi * (1.0 + np.sin(0.5 * np.pi * np.clip(x / w, -1.0, 1.0)))
    return np.where(x <= -w, 0.0, np.where(x >= w, 0.5 * np.pi, ramp))


# each builtin and the config keys it takes (`kick`: one pair of `kicks`)
BUILTINS = {"identity": (), "sign": (), "kicks": ("kick",), "sew_flat": ("w",)}


def builtin(name, kicks=None, w=None, s=None):
    """Construct a named builtin scheme.

    identity          single flat channel O(x) = 1
    sign              projective sign measurement {theta(x), theta(-x)}
    kicks             classical momentum kicks; `kicks` is a list of
                      (weight, kick) pairs with weights summing to 1
    sew_flat          two smooth channels {cos(angle), sin(angle)} whose
                      half-cosine ramp of half-width `w` is constant
                      outside (-w, w); pass `s` to validate w < s/2
    """
    if name == "identity":
        ch = Channel(lambda x: np.ones_like(x, dtype=complex))
        return Scheme([ch], base="identity", kick_terms=[(1.0, 0.0)])
    if name == "sign":
        plus = Channel(lambda x: _expr.theta(x))
        minus = Channel(lambda x: _expr.theta(-x))
        return Scheme([plus, minus], base="sign")
    if name == "kicks":
        if not kicks:
            raise SchemeError("kicks builtin needs a list of (weight, kick) pairs")
        terms = [(float(nw), float(k)) for nw, k in kicks]
        total = sum(nw for nw, _ in terms)
        if any(nw < 0 for nw, _ in terms) or abs(total - 1.0) > 1e-9:
            raise SchemeError(f"kick weights must be >= 0 and sum to 1, got {total}")
        channels = [
            Channel(lambda x, amp=np.sqrt(nw), k=k: amp * np.exp(1j * k * x)) for nw, k in terms
        ]
        return Scheme(channels, base="kicks", kick_terms=terms)
    if name == "sew_flat":
        if w is None or w <= 0:
            raise SchemeError("sew_flat needs a positive half-width w")
        if s is not None and not (w < s / 2):
            raise SchemeError(f"sew_flat half-width w={w} must satisfy w < s/2")
        cos_ch = Channel(lambda x, w=w: np.cos(_sew_angle(x, w)).astype(complex))
        sin_ch = Channel(lambda x, w=w: np.sin(_sew_angle(x, w)).astype(complex))
        return Scheme([cos_ch, sin_ch], base="sew_flat")
    raise SchemeError(f"unknown builtin scheme {name!r}")


# --- operations --------------------------------------------------------


def check_completeness(scheme, grid):
    """Max over grid points of | sum_xi |O_xi(x)|^2 - 1 |.

    Isolated violations (a spike at a single grid point whose neighbours
    are fine) are exempted: they come from step discontinuities where the
    theta(0) = 1/2 convention puts a measure-zero blip that cannot affect
    any integral quantity.
    """
    vals = scheme.evaluate(grid.xs)
    residual = np.abs(np.sum(np.abs(vals) ** 2, axis=0) - 1.0)
    bad = residual > COMPLETENESS_TOL
    if bad.any():
        left = np.concatenate([[False], bad[:-1]])
        right = np.concatenate([bad[1:], [False]])
        isolated = bad & ~left & ~right
        residual = residual[~isolated]
    return float(residual.max()) if residual.size else 0.0


def completeness_residual(scheme, state):
    """Completeness residual where the state lives: over its grid, or at
    the two slit points of a narrow state."""
    if state.is_grid:
        return check_completeness(scheme, state.grid)
    s = state.s
    return max(abs(abs(scheme.contraction(p, p)) - 1.0) for p in (-s / 2, s / 2))


def require_complete(scheme, state):
    residual = completeness_residual(scheme, state)
    if residual >= COMPLETENESS_TOL:
        raise CompletenessError(
            f"scheme is not complete: residual {residual:.3e} >= {COMPLETENESS_TOL:.0e}"
        )
    return residual


def visibility(scheme, s):
    """Far-field fringe visibility |sum_xi O_xi(-s/2) O_xi*(s/2)|."""
    return float(np.abs(scheme.contraction(-s / 2.0, s / 2.0)))


def _combination(terms):
    """fn(x) = sum of coeff * channel(x) over (coeff, channel) terms."""

    def fn(x):
        out = np.zeros(x.shape, dtype=complex)
        for coeff, ch in terms:
            out += coeff * ch.evaluate(x)
        return out

    return fn


def rebase(scheme, unitary):
    """Mix the channels by a unitary: O'_eta = sum_xi U[eta, xi] O_xi."""
    u = np.asarray(unitary, dtype=complex)
    m = len(scheme)
    if u.shape != (m, m):
        raise SchemeError(f"unitary shape {u.shape} does not match {m} channels")
    if np.max(np.abs(u.conj().T @ u - np.eye(m))) > 1e-10:
        raise SchemeError("matrix is not unitary to 1e-10")
    channels = [
        Channel(_combination([(complex(u[eta, xi]), ch) for xi, ch in enumerate(scheme.channels)]))
        for eta in range(m)
    ]
    return Scheme(channels, base=scheme.base, kick_terms=scheme.kick_terms)


def haar_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
