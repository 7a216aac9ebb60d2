"""Line-oriented run configuration.

Format: `[section]` headers with `key = value` lines, `#` comments,
whitespace-insensitive.  The sections: grid (xmin, xmax, n), state (kind,
s, amplitudes, a for a gaussian state), scheme (builtin plus parameters,
or repeated `O = <expr>` lines, one channel each) and run (output path, MC
binning, wigner slice position).  Numbers use the expression grammar with
no `x`; scheme and run numbers bind `s`, e.g. `kick = 0.5, pi/(2*s)`.
Input the run would not read is an error: an unknown section, key or
builtin, a key given twice (`kick` and `O` repeat), or a parameter the
scheme or state does not take.
"""

import cmath
from dataclasses import dataclass, field

from .errors import ConfigError, EvaluationError, ExpressionError
from .expr import eval_expr, parse_expr
from .grid import default_grid, make_grid
from .scheme import BUILTINS, Scheme, builtin, parse_scheme
from .state import gaussian_twin_slits, narrow_twin_slits


SECTIONS = ("grid", "state", "scheme", "run")
REPEATABLE = ("kick", "o")  # the keys a section may give more than once
MAX_BINS = 256  # simulate writes n_bins^2 CSV rows: 1024 bins peaked at ~540 MiB


@dataclass
class RunConfig:
    grid_spec: tuple = None  # (xmin, xmax, n)
    kind: str = "gaussian"
    s: float = 1.0
    a: float = None
    amplitudes: tuple = (2 ** -0.5, 2 ** -0.5)
    scheme_builtin: str = None
    scheme_params: dict = field(default_factory=dict)
    scheme_lines: list = field(default_factory=list)
    out: str = None
    n_bins: int = 16
    bin_span: float = None
    wigner_x: float = None


def _sections(text):
    current = None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            out.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in REPEATABLE and any(k == key for k, _, _ in out[current]):
            raise ConfigError(f"line {lineno}: [{current}] gives {key!r} more than once")
        out[current].append((key, value.strip(), lineno))
    return out


def _complex_number(value, s=None, where=""):
    """Parse a numeric value through the expression grammar (pi, i, s work)."""
    try:
        result = complex(eval_expr(parse_expr(value), None, s))
    except (ExpressionError, EvaluationError) as err:
        raise ConfigError(f"{where}: bad number {value!r}: {err}") from None
    if not cmath.isfinite(result):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return result


def _number(value, s=None, where=""):
    result = _complex_number(value, s, where)
    if abs(result.imag) > 1e-12 * max(1.0, abs(result.real)):
        raise ConfigError(f"{where}: expected a real number, got {result}")
    return float(result.real)


def _integer(value, where):
    result = _number(value, where=where)
    if not result.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(result)


def parse_config(text):
    sections = _sections(text)
    cfg = RunConfig()
    for key, value, lineno in sections.get("grid", []):
        where = f"[grid] line {lineno}"
        if key == "xmin":
            xmin = _number(value, where=where)
        elif key == "xmax":
            xmax = _number(value, where=where)
        elif key == "n":
            n = _integer(value, where)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    if sections.get("grid"):
        try:
            cfg.grid_spec = (xmin, xmax, n)
        except UnboundLocalError:
            raise ConfigError("[grid] needs xmin, xmax and n") from None

    for key, value, lineno in sections.get("state", []):
        where = f"[state] line {lineno}"
        if key == "kind":
            if value not in ("gaussian", "narrow"):
                raise ConfigError(f"{where}: kind must be gaussian or narrow")
            cfg.kind = value
        elif key == "s":
            cfg.s = _number(value, where=where)
        elif key == "a":
            cfg.a = _number(value, where=where)
        elif key == "amplitudes":
            parts = value.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{where}: amplitudes must be two numbers")
            cfg.amplitudes = tuple(_complex_number(p, where=where) for p in parts)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key, _, lineno in sections.get("state", []):
        if key == "a" and cfg.kind == "narrow":
            raise ConfigError(f"[state] line {lineno}: 'a' does not apply to kind = narrow")

    kicks = []
    for key, value, lineno in sections.get("scheme", []):
        where = f"[scheme] line {lineno}"
        if key == "builtin":
            if value not in BUILTINS:
                raise ConfigError(f"{where}: unknown builtin {value!r}")
            cfg.scheme_builtin = value
        elif key == "kick":
            parts = value.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{where}: kick needs 'weight, momentum'")
            kicks.append(tuple(_number(p, cfg.s, where) for p in parts))
        elif key == "w":
            cfg.scheme_params["w"] = _number(value, cfg.s, where)
        elif key == "o":
            try:
                parse_expr(value)
            except ExpressionError as err:
                raise ConfigError(f"{where}: bad channel {value!r}: {err}") from None
            cfg.scheme_lines.append(value)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    if kicks:
        cfg.scheme_params["kicks"] = kicks

    for key, value, lineno in sections.get("run", []):
        where = f"[run] line {lineno}"
        if key == "out":
            cfg.out = value
        elif key == "n_bins":
            cfg.n_bins = _integer(value, where)
            if not 1 <= cfg.n_bins <= MAX_BINS:
                raise ConfigError(f"{where}: n_bins must be 1 to {MAX_BINS}, got {value!r}")
        elif key == "bin_span":
            cfg.bin_span = _number(value, cfg.s, where)
        elif key == "x":
            cfg.wigner_x = _number(value, cfg.s, where)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")

    if cfg.scheme_builtin is None and not cfg.scheme_lines:
        raise ConfigError("[scheme] must give a builtin or O = ... channel lines")
    if cfg.scheme_builtin is not None and cfg.scheme_lines:
        raise ConfigError("[scheme] cannot mix builtin and custom channels")
    takes = BUILTINS.get(cfg.scheme_builtin, ())  # custom O = lines take none
    for key, _, lineno in sections.get("scheme", []):
        if key in ("kick", "w") and key not in takes:
            scheme = cfg.scheme_builtin or "custom O = channels"
            raise ConfigError(f"[scheme] line {lineno}: {key!r} does not apply to {scheme}")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_grid(cfg):
    if cfg.grid_spec is None:
        return default_grid(cfg.s)
    return make_grid(*cfg.grid_spec)


def build_scheme(cfg) -> Scheme:
    if cfg.scheme_lines:
        return parse_scheme(cfg.scheme_lines, cfg.s)
    return builtin(cfg.scheme_builtin, s=cfg.s, **cfg.scheme_params)


def build_state(cfg, grid=None):
    grid = grid or build_grid(cfg)
    if cfg.kind == "narrow":
        return narrow_twin_slits(cfg.s, cfg.amplitudes, grid)
    a = cfg.a if cfg.a is not None else cfg.s / 50.0
    return gaussian_twin_slits(cfg.s, a, grid, cfg.amplitudes)
