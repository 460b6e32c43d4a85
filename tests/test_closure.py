import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootclose import closure
from rootclose.closure import (
    ClosureCert,
    HypothesisNotMetError,
    LocalElem,
    NotMember,
    certified_pi_factor,
    closure_add,
    definite_nonmember,
    membership,
    validate_cert,
)
from rootclose.tower import (
    FREE,
    QUOTIENT,
    NotDivisibleError,
    TowerCtx,
    TowerElem,
)

CTX = TowerCtx(5, 1, 3, QUOTIENT)
CTX2 = TowerCtx(5, 2, 3, QUOTIENT)


def pi(ctx):
    return TowerElem.monomial(ctx, 1, 0, 0)


def x_var(ctx):
    return TowerElem.monomial(ctx, 0, 1, 0)


def y_var(ctx):
    return TowerElem.monomial(ctx, 0, 0, 1)


def cubes(ctx):
    return pi(ctx) ** 3 + x_var(ctx) ** 3 + y_var(ctx) ** 3


class TestLocalElem:
    def test_canonicalizes_denominator(self):
        e = LocalElem(pi(CTX) * x_var(CTX), 1)
        assert e.denom_exp == 0 and e.num == x_var(CTX)

    def test_zero_clears_denominator(self):
        assert LocalElem(TowerElem.zero(CTX), 3).denom_exp == 0

    def test_arithmetic_common_denominator(self):
        a = LocalElem(x_var(CTX), 1)
        b = LocalElem(y_var(CTX), 2)
        s = a + b
        assert s.denom_exp == 2
        assert s.num == pi(CTX) * x_var(CTX) + y_var(CTX)

    def test_pow_scales_denominator(self):
        c = LocalElem(x_var(CTX), 1)
        assert (c**5).denom_exp == 5

    def test_pow_cancels_when_integral(self):
        # the fifth power of the certified cube sum clears its denominator
        c = LocalElem(cubes(CTX), 1)
        powered = c**5
        assert powered.denom_exp == 0
        assert powered.num == (cubes(CTX) ** 5).pi_divide(CTX.pi_order)

    def test_embed_scales_denominator(self):
        c = LocalElem(cubes(CTX), 1)
        assert c.embed(2).denom_exp == 5


class TestMembership:
    def test_cube_sum_over_pi(self, witness_reconstructs):
        c1 = LocalElem(cubes(CTX), 1)
        got = membership(c1, 2)
        assert isinstance(got, ClosureCert)
        assert got.m == 1
        # the truncated witness against the exact fifth power
        assert witness_reconstructs(got)
        assert validate_cert(got)
        assert validate_cert(ClosureCert(c1, 1))
        assert not validate_cert(ClosureCert(c1, 0))

    def test_integral_elements_certify_at_zero(self):
        e = LocalElem(x_var(CTX) + 3, 0)
        got = membership(e, 0)
        assert got.m == 0 and got.witness == e.num

    def test_x_over_pi_never_certifies(self):
        c = LocalElem(x_var(CTX), 1)
        got = membership(c, 3)
        assert got == NotMember(3, True)
        assert definite_nonmember(c)

    def test_structural_nonmember_is_refuted_before_the_search(self, monkeypatch):
        # x^(1/5) / p^(1/25): no exponent can work, so no power is tried
        c = LocalElem(x_var(CTX2) ** 5, 1)

        def refuse(*args):
            raise AssertionError("membership searched a structural non-member")

        monkeypatch.setattr(TowerElem, "pi_divide", refuse)
        assert membership(c, 50) == NotMember(50, True)

    def test_definite_nonmember_is_narrow(self):
        # multi-term numerators are not covered by the structural argument
        assert not definite_nonmember(LocalElem(cubes(CTX), 1))
        assert not definite_nonmember(LocalElem(x_var(CTX), 0))

    def test_power_stability(self):
        c1 = LocalElem(cubes(CTX), 1)
        cert = membership(c1, 2)
        for k in (1, 2, 3):
            power = c1.num ** (k * 5**cert.m)
            power.pi_divide(c1.denom_exp * k * 5**cert.m)  # must not raise

    def test_closure_of_closure(self):
        # x^(p^a) certified with exponent b gives x a certificate <= a + b
        samples = [
            LocalElem(cubes(CTX2), 1),
            LocalElem(cubes(CTX2) * pi(CTX2) + cubes(CTX2), 1),
        ]
        for c, a in [(s, a) for s in samples for a in (1, 2)]:
            powered = c ** (5**a)
            inner = membership(powered, 3)
            assert isinstance(inner, ClosureCert)
            outer = membership(c, a + inner.m)
            assert isinstance(outer, ClosureCert)
            assert outer.m <= a + inner.m


class TestClosureAdd:
    def test_integral_pair(self):
        s = membership(LocalElem(x_var(CTX), 0), 0)
        t = membership(LocalElem(y_var(CTX), 0), 0)
        assert closure_add(s, t).m == 0

    def test_cube_sum_plus_x(self):
        s = membership(LocalElem(cubes(CTX), 1), 2)
        t = membership(LocalElem(x_var(CTX), 0), 0)
        got = closure_add(s, t)
        assert got.m == 1
        assert validate_cert(got)

    def test_doubling(self):
        s = membership(LocalElem(cubes(CTX), 1), 2)
        got = closure_add(s, s)
        assert got.m == 1  # (2c)^5 = 32 c^5 is integral
        assert validate_cert(got)

    def test_level_mismatch_rejected(self):
        s = membership(LocalElem(cubes(CTX), 1), 2)
        t = membership(LocalElem(cubes(CTX2), 1), 3)
        with pytest.raises(ValueError):
            closure_add(s, t)


class TestCertifiedPiFactor:
    def test_pi_itself(self):
        got = certified_pi_factor(pi(CTX))
        assert got.m == 0
        assert got.elem.num == TowerElem.integer(CTX, 1)

    def test_cube_sum(self):
        got = certified_pi_factor(cubes(CTX))
        assert got.m == 1
        assert validate_cert(got)

    def test_level_two(self):
        got = certified_pi_factor(cubes(CTX2))
        assert got.m == 2
        assert validate_cert(got)

    def test_hypothesis_failure(self):
        with pytest.raises(HypothesisNotMetError):
            certified_pi_factor(x_var(CTX))

    def test_zero(self):
        got = certified_pi_factor(TowerElem.zero(CTX))
        assert got.m == 0 and got.elem.is_zero


@st.composite
def pi_factor_cases(draw):
    """An element at p in {2, 3, 5}, level 0-2 (p = 5: 0-1), free or
    quotient mode; half the draws are a * PI + (PI^d + X^d + Y^d), which
    meets the hypothesis in quotient mode."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = 2 if p == 3 else 3
    level = draw(st.integers(0, 1 if p == 5 else 2))
    ctx = TowerCtx(p, level, d, draw(st.sampled_from([FREE, QUOTIENT])))
    monomial = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    a = TowerElem(ctx, draw(st.dictionaries(monomial, st.integers(-9, 9), max_size=3)))
    if draw(st.booleans()):
        a = a * pi(ctx) + pi(ctx) ** d + x_var(ctx) ** d + y_var(ctx) ** d
    return a


class TestPiFactorAgreesWithExact:
    """The search decides the hypothesis p | a^(p^level) exactly as the
    exact power does."""

    @given(a=pi_factor_cases())
    @settings(max_examples=80, deadline=None)
    def test_search_decides_the_hypothesis(self, a):
        try:
            (a ** a.ctx.p**a.level).pi_divide(a.ctx.pi_order)
        except NotDivisibleError:
            with pytest.raises(HypothesisNotMetError):
                certified_pi_factor(a)
            return
        got = certified_pi_factor(a)
        assert got.m <= a.level
        assert validate_cert(got)


@st.composite
def truncation_cases(draw):
    """num / PI^k at p in {2, 3, 5}, level 1-2, free or quotient mode,
    with k up to 2 * p^level, so Q >= 2 at some m <= 2.  The numerator
    has 1-3 terms, or is one term times PI plus PI^d + X^d + Y^d, which
    gives members; few terms keep the exact 25th powers small."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = 2 if p == 3 else 3
    level = draw(st.integers(1, 2))
    ctx = TowerCtx(p, level, d, draw(st.sampled_from([FREE, QUOTIENT])))
    monomial = st.tuples(st.integers(0, p**level - 1), st.integers(0, 3), st.integers(0, 3))
    coeff = st.integers(-4, 4).filter(bool)
    if draw(st.booleans()):
        num = TowerElem(ctx, draw(st.dictionaries(monomial, coeff, min_size=1, max_size=3)))
    else:
        one = TowerElem(ctx, {draw(monomial): draw(coeff)})
        num = one * pi(ctx) + pi(ctx) ** d + x_var(ctx) ** d + y_var(ctx) ** d
    return LocalElem(num, draw(st.integers(1, 2 * p**level)))


#: (3*PI + X^3 + Y^3) / PI^2 at p = 2, level 1: at m = 1, j = 4 and Q = 2,
#: and num^2 = 10 + 6*PI*(X^3 + Y^3) + 2*X^3*Y^3 is not divisible by
#: PI^4 = 4, but is 0 modulo p^(Q - 1) = 2.
Q_MINUS_ONE_FOOLED = LocalElem(
    TowerElem(TowerCtx(2, 1, 3, QUOTIENT), {(1, 0, 0): 3, (0, 3, 0): 1, (0, 0, 3): 1}), 2
)


#: (PI*X + X^15 + Y^15) / PI at p = 5, level 2, which the CLI reads from
#: (p^(1/25)*x^(1/25)+x^(3/5)+y^(3/5))/p^(1/25): at m = 1, j = 5 and
#: num^5 mod p is exactly PI^5 * X^5 (Y^75 = -X^75 mod p), so a mod-p
#: pre-test that refutes a term PI^a with a <= j, not a < j, misses m = 1.
PI_POWER_AT_J = LocalElem(TowerElem(CTX2, {(1, 1, 0): 1, (0, 15, 0): 1, (0, 0, 15): 1}), 1)


@given(c=truncation_cases())
@example(c=Q_MINUS_ONE_FOOLED)
@example(c=PI_POWER_AT_J)
@example(c=LocalElem(cubes(CTX), 1))
@settings(max_examples=60, deadline=None)
def test_truncated_decision_agrees_with_the_exact_power(c, witness_reconstructs):
    """For every m <= 2 the decision in Z/p^Q (``validate_cert``) answers
    as the exact power (num ** p^m).pi_divide(j) does, and a found
    witness times PI^j is num^(p^m) modulo p^Q."""
    p = c.ctx.p
    for m in range(3):
        try:
            (c.num ** p**m).pi_divide(c.denom_exp * p**m)
            exact = True
        except NotDivisibleError:
            exact = False
        assert validate_cert(ClosureCert(c, m)) == exact, f"decision at m = {m}"
    got = membership(c, 2)
    if isinstance(got, ClosureCert):
        assert witness_reconstructs(got)


def test_agreement_test_catches_a_modulus_one_power_of_p_short(monkeypatch, witness_reconstructs):
    """Negative control: deciding modulo p^(Q - 1) when Q >= 2 fails the
    agreement test above."""
    pow_mod = TowerElem.pow_mod

    def one_short(self, e, coeff_mod):
        p = self.ctx.p
        return pow_mod(self, e, coeff_mod // p if coeff_mod > p else coeff_mod)

    monkeypatch.setattr(TowerElem, "pow_mod", one_short)
    with pytest.raises(AssertionError, match="decision at m = 1"):
        test_truncated_decision_agrees_with_the_exact_power(
            witness_reconstructs=witness_reconstructs
        )


def test_agreement_test_catches_a_pre_test_without_the_frobenius(
    monkeypatch, witness_reconstructs
):
    """Negative control: a mod-p pre-test that reads num mod p, not
    num^(p^m) mod p, refutes the member (PI^3 + X^3 + Y^3) / PI at m = 1
    and fails the agreement test above."""
    pow_mod = TowerElem.pow_mod

    def no_frobenius(self, e, coeff_mod):
        return pow_mod(self, 1 if coeff_mod == self.ctx.p else e, coeff_mod)

    monkeypatch.setattr(TowerElem, "pow_mod", no_frobenius)
    with pytest.raises(AssertionError, match="decision at m = 1"):
        test_truncated_decision_agrees_with_the_exact_power(
            witness_reconstructs=witness_reconstructs
        )


def test_the_pre_test_member_certifies_at_m_one():
    got = membership(PI_POWER_AT_J, 2)
    assert isinstance(got, ClosureCert) and got.m == 1
    assert validate_cert(ClosureCert(PI_POWER_AT_J, 1))


def test_a_refuted_exponent_builds_its_power_mod_p_only(monkeypatch):
    """(3*X^7 + 2*Y^11 + PI^4 + 4*X^13) / PI^17 at p = 5, level 2 (the CLI's
    (3*x^(7/25)+2*y^(11/25)+p^(4/25)+4*x^(13/25))/p^(17/25)): the
    Frobenius of 3*X^7 refutes every m, so no power is built mod p^Q,
    Q >= 2, not even for m = 30 and its 5^30-th power."""
    num = TowerElem(CTX2, {(0, 7, 0): 3, (0, 0, 11): 2, (4, 0, 0): 1, (0, 13, 0): 4})
    exponents = []
    pow_mod = TowerElem.pow_mod

    def mod_p_only(self, e, coeff_mod):
        # fail before building the power: modulo p^Q it would not finish
        assert coeff_mod == 5, f"a power modulo {coeff_mod}"
        exponents.append(e)
        return pow_mod(self, e, coeff_mod)

    monkeypatch.setattr(TowerElem, "pow_mod", mod_p_only)
    assert membership(LocalElem(num, 17), 30) == NotMember(30, False)
    assert exponents == [5**m for m in range(31)]


#: A structural miss and an exhausted miss at p = 5, level 1, bound 1:
#: x^(1/5) / p^(1/5) is refuted before any power is built, while
#: (x^(1/5) + y^(1/5)) / p^(1/5) fails m = 0 and m = 1 and is not refuted.
STRUCTURAL_MISS = (LocalElem(x_var(CTX), 1), 1)
EXHAUSTED_MISS = (LocalElem(x_var(CTX) + y_var(CTX), 1), 1)


@st.composite
def membership_queries(draw):
    """A quotient at p in {2, 3, 5}, level 0-1, free or quotient mode,
    with a numerator of 1-3 terms, and a bound with p^m_max <= 9."""
    p = draw(st.sampled_from([2, 3, 5]))
    level = draw(st.integers(0, 1))
    ctx = TowerCtx(p, level, 2 if p == 3 else 3, draw(st.sampled_from([FREE, QUOTIENT])))
    monomial = st.tuples(st.integers(0, p**level - 1), st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(monomial, st.integers(-4, 4).filter(bool), min_size=1, max_size=3))
    c = LocalElem(TowerElem(ctx, terms), draw(st.integers(0, 2 * p**level)))
    return c, draw(st.integers(0, 1 if p == 5 else 2))


@given(query=membership_queries())
@example(query=STRUCTURAL_MISS)
@example(query=EXHAUSTED_MISS)
@settings(max_examples=150, deadline=None)
def test_a_miss_is_refuted_exactly_when_it_is_structural(query):
    c, m_max = query
    got = closure.membership(c, m_max)
    if isinstance(got, NotMember):
        assert got.refuted == definite_nonmember(c)


def test_both_kinds_of_miss_are_covered():
    assert membership(*STRUCTURAL_MISS) == NotMember(1, True)
    assert membership(*EXHAUSTED_MISS) == NotMember(1, False)


def test_refutation_test_catches_a_search_that_never_refutes(monkeypatch):
    """Negative control: a search that reports every miss as bound-relative
    fails the test above on the structural miss."""

    def never_refutes(c, m_max):
        got = membership(c, m_max)
        return NotMember(m_max, False) if isinstance(got, NotMember) else got

    monkeypatch.setattr(closure, "membership", never_refutes)
    with pytest.raises(AssertionError):
        test_a_miss_is_refuted_exactly_when_it_is_structural()
