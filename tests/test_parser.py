import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootclose import parser
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
    for text in ("x^(1/3)", "x + y^(1/3)"):
        with pytest.raises(ParseError) as err:
            parse_expr(text, 5)
        assert "not a power of 5" in str(err.value)
        assert err.value.pos == text.index("3")  # the denominator


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
    assert err.value.pos == 6  # the divisor


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
    # an outer exponent must never be merged with an inner one: (x^(1/5))^2 is not x^2
    for text in ("(x+y)^(1/5)", "(x)^2", "(x^(1/5))^2", "(p^(1/5))^5", "((y^(3/25)))^(1/5)", "2^3"):
        with pytest.raises(ParseError) as err:
            parse_expr(text, 5)
        assert "exponents apply to the variables" in str(err.value)
        assert err.value.pos == text.rindex("^")


def test_nesting_is_capped():
    depth = parser.MAX_NESTING
    assert parse_expr("(" * depth + "x" + ")" * depth, 5) == parse_expr("x", 5)
    with pytest.raises(ParseError) as err:
        parse_expr("(" * (depth + 1) + "x" + ")" * (depth + 1), 5)
    assert err.value.pos == depth


def test_nested_expression():
    got = parse_expr("((x + y) * (x - y))", 5)
    ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
    x = TowerElem.monomial(ctx0, 0, 1, 0)
    y = TowerElem.monomial(ctx0, 0, 0, 1)
    assert got.num == x * x - y * y


def test_division_normalizes_sign():
    got = parse_expr("x / p^(1/5) / p^(1/5)", 5)
    assert got.denom_exp == 2 and got.level == 1


# ----------------------------------------------------------------------
# Agreement with an element built directly at the deepest level


@st.composite
def _queries(draw):
    """(p, terms, divisor): terms ``c*v^(e/p^L)`` with a level L of
    their own, and an optional divisor ``p^(j/p^M)`` as (j, M)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        L = draw(st.integers(0, 3))
        c = draw(st.integers(-4, 4).filter(bool))
        terms.append((c, draw(st.sampled_from("pxy")), draw(st.integers(0, 2 * p**L)), L))
    divisor = draw(st.none() | st.tuples(st.integers(0, 2 * p), st.integers(0, 3)))
    return p, terms, divisor


def _degree(p: int) -> int:
    return 2 if p == 3 else 3


def _text(p, terms, divisor) -> str:
    body = "+".join(f"{c}*{v}^({e}/{p**L})" for c, v, e, L in terms)
    if divisor is None:
        return body
    j, M = divisor
    return f"({body})/p^({j}/{p**M})"


def _direct(p, terms, divisor) -> LocalElem:
    """The element written at the deepest level of all its literals,
    as a term map (the bench's ``cq_element`` builds its queries so)."""
    top = max([L for *_, L in terms] + ([divisor[1]] if divisor else []))
    ctx = TowerCtx(p, top, _degree(p), QUOTIENT)
    raw: dict = {}
    for c, v, e, L in terms:
        k = e * p ** (top - L)
        mono = {"p": (k, 0, 0), "x": (0, k, 0), "y": (0, 0, k)}[v]
        raw[mono] = raw.get(mono, 0) + c
    denom = divisor[0] * p ** (top - divisor[1]) if divisor else 0
    return LocalElem(TowerElem(ctx, raw), denom)


@given(query=_queries())
@settings(max_examples=150, deadline=None)
def test_parse_agrees_with_a_direct_build(query):
    p, terms, divisor = query
    got = parse_expr(_text(p, terms, divisor), p, _degree(p))
    want = _direct(p, terms, divisor)
    assert (got.level, got.denom_exp, got.num) == (want.level, want.denom_exp, want.num)


def test_agreement_needs_the_embedding(monkeypatch):
    """Negative control: an alignment that relabels the shallower
    operand at the deeper level without scaling its exponents breaks
    the agreement on operands of different levels."""

    def relabel(a, b):
        level = max(a.level, b.level)
        return tuple(
            LocalElem(TowerElem(c.ctx.at_level(level), c.num.terms), c.denom_exp) for c in (a, b)
        )

    query = (5, [(1, "x", 1, 1), (1, "x", 1, 2)], (1, 1))
    assert parse_expr(_text(*query), 5) == _direct(*query)
    monkeypatch.setattr(parser, "aligned", relabel)
    assert parse_expr(_text(*query), 5) != _direct(*query)
