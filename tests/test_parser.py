import pytest

from rootclose.closure import LocalElem, membership
from rootclose.parser import ParseError, parse_expr
from rootclose.tower import QUOTIENT, TowerCtx, TowerElem


CTX1 = TowerCtx(5, 1, 3, QUOTIENT)


def test_simple_pi_power():
    got = parse_expr("p^(3/5)", 5)
    assert got.level == 1
    assert got.num == TowerElem.monomial(CTX1, 3, 0, 0)
    assert got.denom_exp == 0


def test_cube_sum_over_root():
    got = parse_expr("(p^(3/5)+x^(3/5)+y^(3/5))/p^(1/5)", 5)
    expect = LocalElem(
        TowerElem(CTX1, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), 1
    )
    assert got == expect
    cert = membership(got, 2)
    assert cert.m == 1


def test_non_p_power_denominator_in_exponent():
    with pytest.raises(ParseError):
        parse_expr("x^(1/3)", 5)


@pytest.mark.parametrize("text", ["x^(1/0)", "x^(0/0)", "p^(3/5)/p^(1/0)"])
def test_zero_exponent_denominator_rejected(text):
    with pytest.raises(ParseError) as err:
        parse_expr(text, 5)
    assert "denominator is zero" in str(err.value)
    assert err.value.pos == text.index("/0") + 1


def test_level_inference_uses_max():
    got = parse_expr("x^(1/25) + y^(1/5)", 5)
    assert got.level == 2
    ctx2 = TowerCtx(5, 2, 3, QUOTIENT)
    assert got.num == TowerElem(ctx2, {(0, 1, 0): 1, (0, 0, 5): 1})


def test_bare_variables_and_integers():
    got = parse_expr("2*x + 3*x - x", 5)
    ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
    assert got.level == 0
    assert got.num == 4 * TowerElem.monomial(ctx0, 0, 1, 0)


def test_unary_minus():
    got = parse_expr("-x + x", 5)
    assert got.is_zero


def test_division_by_integer_power_of_p():
    got = parse_expr("x/p", 5)
    assert got.level == 0 and got.denom_exp == 1


def test_division_only_by_p_powers():
    with pytest.raises(ParseError) as err:
        parse_expr("(x+y)/x", 5)
    assert "p-power" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_expr("p + * x", 5)
    assert err.value.pos == 4


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expr("x y", 5)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_expr("z + 1", 5)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expr("(x + y", 5)


def test_exponent_on_parenthesized_expr_rejected():
    with pytest.raises(ParseError):
        parse_expr("(x+y)^(1/5)", 5)


def test_nested_expression():
    got = parse_expr("((x + y) * (x - y))", 5)
    ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
    x = TowerElem.monomial(ctx0, 0, 1, 0)
    y = TowerElem.monomial(ctx0, 0, 0, 1)
    assert got.num == x * x - y * y


def test_division_normalizes_sign():
    got = parse_expr("x / p^(1/5) / p^(1/5)", 5)
    assert got.denom_exp == 2 and got.level == 1
