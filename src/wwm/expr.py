"""Parser and evaluator for the scheme expression grammar.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | "x" | "s" | "pi" | "i" | ident "(" expr ")" | "(" expr ")"

with ident one of exp, sin, cos, tan, sqrt, abs, theta, sgn.  Numbers are
decimals with an optional exponent.  Arithmetic is complex throughout;
theta and sgn act on the real part, with theta(0) = 1/2 and
sgn(z) = 2*theta(z) - 1.

Note the grammar makes "-x^2" parse as (-x)^2: the unary minus binds
before "^".  Power is right associative: a^b^c = a^(b^c).
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionError

FUNCTIONS = ("exp", "sin", "cos", "tan", "sqrt", "abs", "theta", "sgn")
SYMBOLS = ("x", "s", "pi", "i")


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Symbol:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


# --- tokenizer ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.start() != pos:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message):
        raise ExpressionError(message, self.peek()[2])

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind != "op" or val != op:
            self.fail(f"expected {op!r}")
        self.advance()

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return Number(val)
        if kind == "name":
            self.advance()
            if val in SYMBOLS:
                return Symbol(val)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise ExpressionError(f"unknown name {val!r}", pos)
        if (kind, val) == ("op", "("):
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected a number, symbol, function call or parenthesis")


def parse_expr(text):
    """Parse an expression; raise ExpressionError with position on failure."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail("trailing input")
    return node


# --- evaluation --------------------------------------------------------


def theta(z):
    """Heaviside step on the real part; theta(0) = 1/2."""
    re = np.real(z)
    return np.where(re > 0, 1.0, np.where(re < 0, 0.0, 0.5)).astype(complex)


def sgn(z):
    return 2.0 * theta(z) - 1.0


_FUNC_IMPL = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    # adding +0j flushes negative-zero imaginary parts so that sqrt(-1)
    # lands on the principal branch (+i), not the lower lip of the cut
    "sqrt": lambda z: np.sqrt(np.asarray(z) + 0j),
    "abs": lambda z: np.abs(z).astype(complex),
    "theta": theta,
    "sgn": sgn,
}


def eval_expr(node, x, s=None):
    """Evaluate an AST at position(s) x, slit separation s; reading x or s
    left None (a config number has no x) raises EvaluationError."""
    with np.errstate(all="ignore"):  # callers refuse a non-finite result
        return _eval(node, x, s)


def _eval(node, x, s):
    if isinstance(node, Number):
        return complex(node.value)
    if isinstance(node, Symbol):
        if node.name == "x":
            if x is None:
                raise EvaluationError("expression uses 'x' but no position was given")
            return np.asarray(x, dtype=complex)
        if node.name == "s":
            if s is None:
                raise EvaluationError("expression uses 's' but no separation was given")
            return complex(s)
        if node.name == "pi":
            return complex(np.pi)
        return 1j
    if isinstance(node, Neg):
        return -_eval(node.operand, x, s)
    if isinstance(node, Call):
        return _FUNC_IMPL[node.fn](_eval(node.arg, x, s))
    left = _eval(node.left, x, s)
    right = _eval(node.right, x, s)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        try:
            return left / right
        except ZeroDivisionError:  # Python complex scalars, not arrays
            raise EvaluationError("division by zero") from None
    return np.power(left, right)
