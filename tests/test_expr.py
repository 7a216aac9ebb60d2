import numpy as np
import pytest
from hypothesis import given, strategies as st

import wwm.expr as E
from wwm.errors import EvaluationError, ExpressionError


def ev(text, x=0.0, s=None):
    return complex(np.asarray(E.eval_expr(E.parse_expr(text), x, s)))


def test_basic_arithmetic():
    assert ev("1 + 2*3") == 7
    assert ev("(1+2)*3") == 9
    assert ev("2^3^2") == 512  # right associative
    assert ev("7/2/2") == pytest.approx(1.75)  # left associative
    assert ev("1.5e-3") == pytest.approx(0.0015)


def test_unary_minus_binds_before_power():
    # grammar: factor := unary ("^" factor)?, so -x^2 is (-x)^2
    assert ev("-2^2") == 4
    assert ev("-(2^2)") == -4


def test_symbols_and_functions():
    assert ev("pi") == pytest.approx(np.pi)
    assert ev("i*i") == -1
    assert ev("exp(i*pi)") == pytest.approx(-1)
    assert ev("sqrt(-1)") == pytest.approx(1j)
    assert ev("abs(-3)") == 3
    assert ev("x^2 + 1", x=2.0) == 5
    assert ev("s/2", s=3.0) == 1.5


def test_theta_and_sgn_conventions():
    assert ev("theta(x)", x=2.0) == 1
    assert ev("theta(x)", x=-2.0) == 0
    assert ev("theta(x)", x=0.0) == 0.5
    assert ev("sgn(x)", x=0.0) == 0
    assert ev("sgn(x)", x=-1.0) == -1
    # theta acts on the real part
    assert complex(np.asarray(E.eval_expr(E.parse_expr("theta(i - 1)"), 0.0))) == 0


def test_vectorized_evaluation():
    xs = np.array([-1.0, 0.0, 2.0])
    vals = E.eval_expr(E.parse_expr("theta(x)*x"), xs)
    assert np.allclose(vals, [0, 0, 2])


def test_missing_s_raises():
    with pytest.raises(EvaluationError):
        E.eval_expr(E.parse_expr("s*x"), 1.0, None)


def test_missing_x_raises():
    with pytest.raises(EvaluationError):
        E.eval_expr(E.parse_expr("s + x"), None, 1.0)


@pytest.mark.parametrize("text", ["1/0", "pi/(s-1)", "1/(0*i)"])
def test_scalar_division_by_zero_raises(text):
    with pytest.raises(EvaluationError):
        E.eval_expr(E.parse_expr(text), 1.0, 1.0)


def test_parse_error_positions():
    with pytest.raises(ExpressionError) as err:
        E.parse_expr("exp(")
    assert err.value.offset == 4
    with pytest.raises(ExpressionError) as err:
        E.parse_expr("1 + @")
    assert err.value.offset == 4
    with pytest.raises(ExpressionError):
        E.parse_expr("foo(x)")  # unknown function
    with pytest.raises(ExpressionError):
        E.parse_expr("1 2")  # trailing input


# -- parsing generated trees -----------------------------------------------

_numbers = st.floats(min_value=0.0, max_value=1e4, allow_nan=False).map(E.Number)
_symbols = st.sampled_from(["x", "s", "pi", "i"]).map(E.Symbol)


def _trees(leaf):
    def extend(children):
        return st.one_of(
            children.map(E.Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: E.BinOp(*t)
            ),
            st.tuples(st.sampled_from(E.FUNCTIONS), children).map(
                lambda t: E.Call(*t)
            ),
        )

    return st.recursive(leaf, extend, max_leaves=25)


def render(node):
    """Grammar text of a tree with every operation parenthesised."""
    if isinstance(node, E.Number):
        return repr(node.value)
    if isinstance(node, E.Symbol):
        return node.name
    if isinstance(node, E.Call):
        return f"{node.fn}({render(node.arg)})"
    if isinstance(node, E.Neg):
        return f"(-{render(node.operand)})"
    return f"({render(node.left)}{node.op}{render(node.right)})"


@given(_trees(st.one_of(_numbers, _symbols)))
def test_print_parse_round_trip(tree):
    assert E.parse_expr(render(tree)) == tree


def test_print_known_forms():
    assert E.parse_expr("-x^2") == E.BinOp("^", E.Neg(E.Symbol("x")), E.Number(2.0))
