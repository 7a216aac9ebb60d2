import numpy as np
import pytest

from wwm.errors import EvaluationError, ExpressionError, SchemeError
from wwm.scheme import (
    builtin,
    check_completeness,
    haar_unitary,
    parse_scheme,
    rebase,
    visibility,
)
from conftest import S, random_complete_scheme


def test_parse_scheme_sign_pair(grid):
    sch = parse_scheme(["theta(x)", "theta(-x)"])
    assert len(sch) == 2
    assert check_completeness(sch, grid) < 1e-12


def test_parse_scheme_single_phase_channel():
    sch = parse_scheme(["exp(i*pi*x/(2*s))/sqrt(2.0)"], S)
    assert len(sch) == 1
    vals = sch.evaluate(np.array([0.3]))
    assert abs(vals[0, 0]) == pytest.approx(2 ** -0.5)


def test_parse_scheme_errors():
    with pytest.raises(ExpressionError):
        parse_scheme(["exp("])
    with pytest.raises(SchemeError):
        parse_scheme([])
    with pytest.raises(EvaluationError):
        parse_scheme(["1/x"])  # blows up at the origin


@pytest.mark.parametrize("text", ["12", "theta(x)"])
def test_parse_scheme_refuses_one_string(text):
    """A str is not read one channel per character ("12": two constants)."""
    with pytest.raises(SchemeError, match="list of expressions"):
        parse_scheme(text)


def test_completeness_residuals(grid, sign, kick_pair):
    assert check_completeness(sign, grid) < 1e-12  # x=0 spike exempted
    assert check_completeness(kick_pair, grid) < 1e-12
    lonely = parse_scheme(["theta(x)"])
    assert check_completeness(lonely, grid) == pytest.approx(1.0)


def test_visibility_values(identity, sign, kick_pair, sew):
    assert visibility(identity, S) == pytest.approx(1.0)
    assert visibility(sign, S) == pytest.approx(0.0, abs=1e-14)
    assert visibility(kick_pair, S) == pytest.approx(0.0, abs=1e-12)
    assert visibility(sew, S) == pytest.approx(0.0, abs=1e-12)
    single = builtin("kicks", kicks=[(1.0, 1.7)])
    assert visibility(single, S) == pytest.approx(1.0)


def test_builtin_validation():
    with pytest.raises(SchemeError):
        builtin("nope")
    with pytest.raises(SchemeError):
        builtin("kicks", kicks=[(0.5, 1.0), (0.6, -1.0)])  # weights != 1
    with pytest.raises(SchemeError):
        builtin("sew_flat", w=0.6, s=S)  # w >= s/2
    with pytest.raises(SchemeError):
        builtin("sew_flat", w=-0.1)


def test_sew_flat_structure(sew):
    xs = np.array([-S / 2, -0.25, 0.0, 0.25, S / 2])
    vals = sew.evaluate(xs)
    # channel values at the slits: (1, 0) on the left, (0, 1) on the right
    assert vals[0, 0] == pytest.approx(1.0) and vals[1, 0] == pytest.approx(0.0)
    assert vals[0, -1] == pytest.approx(0.0, abs=1e-15) and vals[1, -1] == pytest.approx(1.0)
    # cos^2 + sin^2 = 1 exactly everywhere
    total = np.sum(np.abs(sew.evaluate(np.linspace(-2, 2, 401))) ** 2, axis=0)
    assert np.max(np.abs(total - 1)) < 1e-15


def test_rebase_identity_and_eraser(grid, sign):
    same = rebase(sign, np.eye(2))
    xs = np.linspace(-2, 2, 101)
    assert np.allclose(same.evaluate(xs), sign.evaluate(xs))

    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    eraser = rebase(sign, hadamard)
    vals = eraser.evaluate(xs)
    # eraser basis: {1/sqrt(2), sgn(x)/sqrt(2)}
    assert np.allclose(vals[0], np.full_like(xs, 2 ** -0.5), atol=1e-15)
    assert np.allclose(vals[1][xs > 0], 2 ** -0.5)
    assert np.allclose(vals[1][xs < 0], -(2 ** -0.5))


def test_rebase_validation(sign):
    with pytest.raises(SchemeError):
        rebase(sign, np.eye(3))
    with pytest.raises(SchemeError):
        rebase(sign, np.array([[1, 0], [0, 2.0]]))


@pytest.mark.parametrize("n_channels", [2, 3])
def test_rebase_preserves_completeness_and_visibility(grid, n_channels):
    rng = np.random.default_rng(10 + n_channels)
    for _ in range(4):
        sch = random_complete_scheme(rng, n_channels)
        u = haar_unitary(n_channels, rng)
        mixed = rebase(sch, u)
        r0 = check_completeness(sch, grid)
        r1 = check_completeness(mixed, grid)
        assert abs(r0 - r1) < 1e-10
        assert visibility(mixed, S) == pytest.approx(
            visibility(sch, S), abs=1e-10
        )


def test_builtin_rebase_preserves_metadata(sign, kick_pair):
    rng = np.random.default_rng(0)
    u = haar_unitary(2, rng)
    assert rebase(sign, u).base == "sign"
    assert rebase(kick_pair, u).kick_terms == kick_pair.kick_terms


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5):
        u = haar_unitary(dim, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
