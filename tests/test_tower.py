import operator
from functools import reduce

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from rootclose.closure import LocalElem
from rootclose.tower import (
    FREE,
    QUOTIENT,
    NotDivisibleError,
    ResidueElem,
    TowerCtx,
    TowerElem,
    poly_divides,
)

CTX51 = TowerCtx(5, 1, 3, QUOTIENT)
CTX52 = TowerCtx(5, 2, 3, QUOTIENT)


def pi(ctx):
    return TowerElem.monomial(ctx, 1, 0, 0)


def x_var(ctx):
    return TowerElem.monomial(ctx, 0, 1, 0)


def y_var(ctx):
    return TowerElem.monomial(ctx, 0, 0, 1)


def elems(ctx, span=6, coeff=9, max_terms=4):
    """Random small elements for property tests."""
    term = st.tuples(
        st.integers(0, span), st.integers(0, span), st.integers(0, span),
        st.integers(-coeff, coeff),
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: TowerElem(ctx, {(a, b, c): v for a, b, c, v in ts})
    )


class TestContext:
    def test_rejects_degree_sharing_prime(self):
        with pytest.raises(ValueError):
            TowerCtx(3, 1, 3, QUOTIENT)

    def test_free_mode_allows_any_degree(self):
        TowerCtx(3, 1, 3, FREE)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            TowerCtx(6, 1, 5, QUOTIENT)


class TestNormalize:
    def test_pi_carry(self):
        assert TowerElem.monomial(CTX51, 5, 0, 0) == TowerElem.integer(CTX51, 5)

    def test_y_relation(self):
        got = TowerElem.monomial(CTX51, 0, 0, 15)
        assert sorted(got.terms.items()) == [((0, 0, 0), -125), ((0, 15, 0), -1)]

    def test_partial_carry(self):
        got = TowerElem.monomial(CTX51, 6, 0, 0)
        assert got == TowerElem.monomial(CTX51, 1, 0, 0) * 5

    def test_idempotent(self):
        e = TowerElem(CTX51, {(7, 2, 31): 4, (0, 0, 0): -2})
        again = TowerElem(CTX51, dict(e.terms))
        assert again == e

    def test_level_zero_collapses_pi(self):
        ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
        assert TowerElem.monomial(ctx0, 3, 0, 0) == TowerElem.integer(ctx0, 125)

    def test_free_mode_keeps_y(self):
        free = TowerCtx(5, 1, 3, FREE)
        got = TowerElem.monomial(free, 0, 0, 15)
        assert sorted(got.terms.items()) == [((0, 0, 15), 1)]


class TestRingOps:
    def test_pi_times_pi4(self):
        assert pi(CTX51) * TowerElem.monomial(CTX51, 4, 0, 0) == TowerElem.integer(CTX51, 5)

    def test_binomial_coefficient_in_power(self):
        e = (x_var(CTX51) + y_var(CTX51)) ** 5
        assert e.terms[(0, 3, 2)] == 10

    def test_mul_by_zero(self):
        e = TowerElem(CTX51, {(1, 2, 3): 7})
        assert (e * TowerElem.zero(CTX51)).is_zero
        assert (e * 0).is_zero

    def test_int_coercion(self):
        e = x_var(CTX51)
        assert 2 * e + e == 3 * e
        assert e - e == 0

    def test_ctx_mismatch(self):
        with pytest.raises(ValueError):
            x_var(CTX51) + x_var(CTX52)

    def test_pow_mod_matches_exact(self):
        e = pi(CTX51) ** 3 + x_var(CTX51) ** 3 + y_var(CTX51) ** 3
        exact = (e**25).reduce_coeffs(125)
        assert e.pow_mod(25, 125) == exact


class TestEmbed:
    def test_pi_up_one_level(self):
        assert pi(CTX51).embed(2) == TowerElem.monomial(CTX52, 5, 0, 0)

    def test_identity(self):
        e = TowerElem(CTX51, {(2, 1, 0): 3})
        assert e.embed(1) == e

    def test_y_cubed(self):
        got = TowerElem.monomial(CTX51, 0, 0, 3).embed(2)
        assert got == TowerElem.monomial(CTX52, 0, 0, 15)

    def test_downward_rejected(self):
        with pytest.raises(ValueError):
            TowerElem.monomial(CTX52, 0, 0, 1).embed(1)

    @given(a=elems(CTX51), b=elems(CTX51))
    @settings(max_examples=40, deadline=None)
    def test_embed_is_a_ring_hom(self, a, b):
        assert (a * b).embed(2) == a.embed(2) * b.embed(2)
        assert (a + b).embed(2) == a.embed(2) + b.embed(2)


class TestPiDivide:
    def test_integer_five(self):
        assert TowerElem.integer(CTX51, 5).pi_divide(1) == TowerElem.monomial(CTX51, 4, 0, 0)

    def test_exact_monomial(self):
        assert (pi(CTX51) * x_var(CTX51)).pi_divide(1) == x_var(CTX51)

    def test_not_divisible_reports_monomial(self):
        with pytest.raises(NotDivisibleError) as err:
            x_var(CTX51).pi_divide(1)
        assert err.value.monomial == (0, 1, 0)

    def test_divide_by_full_order_is_p_division(self):
        e = TowerElem(CTX51, {(0, 2, 0): 10, (3, 0, 1): 45})
        assert e.pi_divide(5) == TowerElem(CTX51, {(0, 2, 0): 2, (3, 0, 1): 9})

    @given(e=elems(CTX51))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, e):
        assert (pi(CTX51) * e).pi_divide(1) == e

    @given(e=elems(CTX52, span=12))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_higher_power(self, e):
        j = 7
        shifted = e * TowerElem.monomial(CTX52, j, 0, 0)
        assert shifted.pi_divide(j) == e


class TestPDivide:
    def test_examples(self):
        assert (10 * x_var(CTX51)).pi_divide(5) == 2 * x_var(CTX51)
        with pytest.raises(NotDivisibleError):
            pi(CTX51).pi_divide(5)
        assert TowerElem.zero(CTX51).pi_divide(5).is_zero


class TestResidue:
    def test_reduce_examples(self):
        assert (TowerElem.integer(CTX51, 5) + x_var(CTX51)).reduce_mod_p() == ResidueElem(
            CTX51, {(0, 1, 0): 1}
        )
        u = pi(CTX51) ** 3 + x_var(CTX51) ** 3 + y_var(CTX51) ** 3
        assert sorted(u.reduce_mod_p().terms.items()) == [
            ((0, 0, 3), 1),
            ((0, 3, 0), 1),
            ((3, 0, 0), 1),
        ]
        assert (7 * y_var(CTX51)).reduce_mod_p() == ResidueElem(CTX51, {(0, 0, 1): 2})

    def test_frobenius_examples(self):
        x = TowerElem.monomial(CTX51, 0, 1, 0, coeff_mod=5)
        y = TowerElem.monomial(CTX51, 0, 0, 1, coeff_mod=5)
        assert x.frobenius() == TowerElem.monomial(CTX51, 0, 5, 0, coeff_mod=5)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert TowerElem.zero(CTX51, coeff_mod=5).frobenius().is_zero

    def test_defining_relation_dies_mod_p(self):
        for level in (0, 1, 2):
            ctx = TowerCtx(5, level, 3, QUOTIENT)
            pn = ctx.pi_order
            e = TowerElem(
                ctx, {(3 * pn, 0, 0): 1, (0, 3 * pn, 0): 1, (0, 0, 3 * pn): 1}
            )
            assert e.reduce_mod_p().is_zero

    def test_frobenius_kernel_contains_pi(self):
        # at level 1 the p-th power of PI is the integer p, which dies mod p
        e = TowerElem.monomial(CTX51, 1, 0, 0, coeff_mod=5)
        assert e.frobenius().is_zero

    @given(a=elems(CTX51), b=elems(CTX51))
    @settings(max_examples=40, deadline=None)
    def test_frobenius_additive(self, a, b):
        ra, rb = a.reduce_mod_p(), b.reduce_mod_p()
        assert (ra + rb).frobenius() == ra.frobenius() + rb.frobenius()
        assert ra.frobenius() == reduce(operator.mul, [ra] * 5)


class TestRepr:
    def test_repr_prints_the_sorted_terms(self):
        e = TowerElem(CTX51, {(1, 0, 0): -1, (0, 1, 0): 2})
        assert repr(e) == "TowerElem(level=1, [((0, 1, 0), 2), ((1, 0, 0), -1)])"
        assert repr(e.reduce_mod_p()) == (
            "TowerElem(level=1, mod=5, [((0, 1, 0), 2), ((1, 0, 0), 4)])"
        )


class TestCoefficientRing:
    def test_z_and_fp_elements_differ(self):
        terms = {(0, 1, 0): 1}
        z, r = TowerElem(CTX51, terms), ResidueElem(CTX51, terms)
        assert z != r
        assert r != z

    def test_residue_keeps_canonical_representatives(self):
        assert ResidueElem(CTX51, {(0, 1, 0): -1}).terms == {(0, 1, 0): 4}

    def test_mixed_moduli_rejected(self):
        z = x_var(CTX51)
        fp, z25 = z.reduce_mod_p(), z.reduce_coeffs(25)
        pairs = [(z, fp), (fp, z), (z25, fp)]
        for op in (operator.add, operator.sub, operator.mul):
            for a, b in pairs:
                with pytest.raises(ValueError):
                    op(a, b)

    def test_reduction_only_to_a_divisor(self):
        assert x_var(CTX51).reduce_coeffs(25).reduce_mod_p() == x_var(CTX51).reduce_mod_p()
        with pytest.raises(ValueError):
            TowerElem.monomial(CTX51, 0, 1, 0, coeff_mod=5).reduce_coeffs(25)


@st.composite
def modular_cases(draw):
    """A context with p in {2, 3, 5}, level 0-2, free or quotient mode,
    a modulus p, p^2 or p^3 and two elements over Z."""
    p = draw(st.sampled_from([2, 3, 5]))
    mode = draw(st.sampled_from([FREE, QUOTIENT]))
    ctx = TowerCtx(p, draw(st.integers(0, 2)), 2 if p == 3 else 3, mode)
    m = p ** draw(st.integers(1, 3))
    span = ctx.y_order + 1  # reaches both rewrite rules
    a = draw(elems(ctx, span=span, coeff=60, max_terms=3))
    b = draw(elems(ctx, span=span, coeff=60, max_terms=3))
    return ctx, m, a, b


class TestReducedAgreesWithExact:
    """The coefficient-reduced kernel against the exact Z path."""

    @given(case=modular_cases())
    @settings(max_examples=60, deadline=None)
    def test_ring_ops(self, case):
        _, m, a, b = case
        ra, rb = a.reduce_coeffs(m), b.reduce_coeffs(m)
        assert ra * rb == (a * b).reduce_coeffs(m)
        assert ra - rb == (a - b).reduce_coeffs(m)

    @given(case=modular_cases(), e=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_pow_mod(self, case, e):
        _, m, a, _ = case
        assert a.pow_mod(e, m) == (a**e).reduce_coeffs(m)

    @given(case=modular_cases())
    @settings(max_examples=40, deadline=None)
    def test_embed_commutes_with_reduction(self, case):
        ctx, m, a, _ = case
        assert a.reduce_coeffs(m).embed(ctx.level + 1) == a.embed(ctx.level + 1).reduce_coeffs(m)

    def test_negative_control_modulus_matters(self):
        for p in (2, 3, 5):
            one_plus_pi = 1 + pi(TowerCtx(p, 2, 2 if p == 3 else 3, QUOTIENT))
            low, high = one_plus_pi.pow_mod(p, p), one_plus_pi.pow_mod(p, p * p)
            assert high.reduce_coeffs(p) == low
            assert low.lift().reduce_coeffs(p * p) != high


def some_context(draw):
    """p in {2, 3, 5, 7}, level 0-2, free or quotient mode."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    mode = draw(st.sampled_from([FREE, QUOTIENT]))
    return TowerCtx(p, draw(st.integers(0, 2)), 2 if p == 3 else 3, mode)


def power_by_products(x, e):
    """x^e by square-and-multiply through the product kernel alone."""
    result, base = x.one_like(), x
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


@st.composite
def frobenius_cases(draw):
    """An F_p element with PI exponents below p^level, often 0 so
    that a term survives the p-power, and X, Y exponents up to the Y
    bound, so that the wrap occurs; and an exponent f * p^k with k >= 1,
    p^k <= 25 and f in {1, 2}."""
    ctx = some_context(draw)
    p = ctx.p
    term = st.tuples(
        st.one_of(st.just(0), st.integers(0, ctx.pi_order - 1)),
        st.integers(0, ctx.y_order),
        st.integers(0, ctx.y_order),
        st.integers(1, p - 1),
    )
    terms = draw(st.lists(term, min_size=1, max_size=3))
    x = TowerElem(ctx, {(a, b, c): v for a, b, c, v in terms}, p)
    k = draw(st.integers(1, max(k for k in range(1, 5) if p**k <= 25)))
    return x, draw(st.sampled_from([1, 2])) * p**k


def frobenius_unsigned_wrap(self, k):
    """A broken termwise p^k-th power: the sign of the Y-wrap is dropped."""
    ctx = self.ctx
    f = ctx.p**k
    out = {}
    for (a, b, c), v in self.terms.items():
        if a * f >= ctx.pi_order:
            continue
        b, c = b * f, c * f
        if ctx.mode == QUOTIENT and c >= ctx.y_order:
            t, c = divmod(c, ctx.y_order)
            b += t * ctx.y_order
        out[(a * f, b, c)] = out.get((a * f, b, c), 0) + v
    return TowerElem(ctx, out, ctx.p)


#: The kernel under test, kept for the broken variants to delegate to.
FROBENIUS_POWER = TowerElem._frobenius_power


def frobenius_source_bounds(self, k, level=None):
    """A broken termwise p^k-th power written at ``level``: exponents
    scaled for that level, but the PI-drop and Y-wrap at this
    element's own level's bounds.  Below self.level - k it is the
    kernel itself."""
    if level is not None and level < self.level - k:
        return FROBENIUS_POWER(self, k, level)
    ctx = self.ctx if level is None else self.ctx.at_level(level)
    f = ctx.p ** (k + ctx.level - self.level)
    pn, yo = self.ctx.pi_order, self.ctx.y_order
    out = {}
    for (a, b, c), v in self.terms.items():
        if a * f >= pn:
            continue
        b, c = b * f, c * f
        if ctx.mode == QUOTIENT and c >= yo:
            t, c = divmod(c, yo)
            b += t * yo
            v = -v if t % 2 else v
        out[(a * f, b, c)] = out.get((a * f, b, c), 0) + v
    return TowerElem(ctx, out, ctx.p)


def frobenius_divided_first(self, k, level=None):
    """A broken termwise p^k-th power: below self.level - k every
    exponent is divided by p^(self.level - k - level) before the
    p-power, so a term the PI-drop removes must divide too."""
    drop = 0 if level is None else self.level - k - level
    if drop <= 0:
        return FROBENIUS_POWER(self, k, level)
    g = self.ctx.p**drop
    if any(e % g for mono in self.terms for e in mono):
        raise ArithmeticError(f"a Frobenius image does not lie at level {level}")
    terms = {tuple(e // g for e in mono): v for mono, v in self.terms.items()}
    return FROBENIUS_POWER(TowerElem(self.ctx.at_level(level + k), terms, self.ctx.p), k, level)


@st.composite
def frobenius_targets(draw):
    """An F_p element as in ``frobenius_cases``, written at the level it
    was drawn at or j >= 2 levels deeper, and sometimes plus a term
    PI^a * X^b with a * p >= p^level, which its p-th power drops; and a
    level from one shallower than the level it was drawn at to two
    deeper than the one it is written at, where its p-th power lies."""
    x, _ = draw(frobenius_cases())
    drawn_at = x.level
    x = x.embed(drawn_at + draw(st.sampled_from([0, 2, 3])))
    ctx = x.ctx
    if ctx.level and draw(st.booleans()):
        a = draw(st.integers(ctx.pi_order // ctx.p, ctx.pi_order - 1))
        x = x + TowerElem.monomial(ctx, a, draw(st.integers(0, 3)), 0, coeff_mod=ctx.p)
    return x, draw(st.integers(max(0, drawn_at - 1), x.level + 2))


@st.composite
def frobenius_below(draw):
    """An F_p element as in ``frobenius_cases`` at level 2 and a level
    more than one below it, where its p-th power may or may not lie."""
    x, _ = draw(frobenius_cases().filter(lambda case: case[0].level == 2))
    return x, 0


def frobenius_written_at(x, level):
    """x^p by products at x's level, then embedded deeper or every
    exponent divided by p^(x.level - level): the reference for one pass;
    None when some exponent does not divide, so x^p does not lie there."""
    power, p = power_by_products(x, x.ctx.p), x.ctx.p
    if level >= x.level:
        return power.embed(level)
    g = p ** (x.level - level)
    if any(e % g for mono in power.terms for e in mono):
        return None
    terms = {tuple(e // g for e in mono): v for mono, v in power.terms.items()}
    return TowerElem(x.ctx.at_level(level), terms, p)


def frobenius_agrees(x, level) -> bool:
    """x.frobenius(level) is the reference, refused exactly where x^p
    does not lie at ``level``."""
    want = frobenius_written_at(x, level)
    try:
        return x.frobenius(level) == want
    except ArithmeticError:
        return want is None


class TestTermwiseFrobenius:
    """The one-pass p-power over F_p against the product kernel."""

    @given(case=frobenius_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_repeated_multiplication(self, case):
        x, e = case
        assert x**e == power_by_products(x, e)

    def test_negative_control_unsigned_wrap(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TowerElem, "_frobenius_power", frobenius_unsigned_wrap)
            x, e = find(
                frobenius_cases(),
                lambda case: case[0].ctx.p % 2 == 1 and case[0] ** case[1] != power_by_products(*case),
                settings=settings(database=None, derandomize=True, max_examples=500),
            )
        assert x.ctx.mode == QUOTIENT

    @given(case=frobenius_targets())
    @settings(max_examples=100, deadline=None)
    def test_written_at_a_level_agrees_with_the_moved_power(self, case):
        x, level = case
        assert x.frobenius(level) == frobenius_written_at(x, level)

    def test_negative_control_bounds_of_the_own_level(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TowerElem, "_frobenius_power", frobenius_source_bounds)
            x, level = find(
                frobenius_targets(),
                lambda case: case[0].frobenius(case[1]) != frobenius_written_at(*case),
                settings=settings(database=None, derandomize=True, max_examples=500),
            )
        assert level > x.level

    @given(case=frobenius_below())
    # PI^7 * X^5: 7 * 5 >= 25, so the p-th power drops PI^7 undivided
    @example(case=(TowerElem(CTX52, {(7, 0, 0): 1, (0, 5, 0): 1}, 5), 0))
    # Y * (X^15 + Y^15): its p-th power is -p^3 * Y^5 = 0 mod p, so the
    # two terms cancel and neither exponent has to divide
    @example(case=(TowerElem(CTX52, {(0, 0, 16): 1, (0, 15, 1): 1}, 5), 0))
    @settings(max_examples=100, deadline=None)
    def test_below_its_level_an_image_is_written_or_refused(self, case):
        x, level = case
        want = frobenius_written_at(x, level)
        if want is None:
            with pytest.raises(ArithmeticError, match=f"does not lie at level {level}"):
                x.frobenius(level)
        else:
            assert x.frobenius(level) == want

    def test_negative_control_dividing_before_the_drop(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TowerElem, "_frobenius_power", frobenius_divided_first)
            x, level = find(
                frobenius_targets(),
                lambda case: not frobenius_agrees(*case),
                settings=settings(database=None, derandomize=True, max_examples=500),
            )
        assert level < x.level - 1

    def test_more_than_one_level_up_is_an_exact_division(self):
        # X^5 at level 2 is x^(1/5), whose p-th power x is X at level 0;
        # X at level 2 is x^(1/25), whose p-th power lies at level 1 only
        x = TowerElem.monomial(CTX52, 0, 5, 0, coeff_mod=5)
        level0 = TowerCtx(5, 0, 3, QUOTIENT)
        assert x.frobenius(0) == TowerElem.monomial(level0, 0, 1, 0, coeff_mod=5)
        with pytest.raises(ArithmeticError, match="does not lie at level 0"):
            TowerElem.monomial(CTX52, 0, 1, 0, coeff_mod=5).frobenius(0)


def pi_divide_stepwise(x, j):
    """Division by PI^j as p^q and then one PI at a time: the reference
    for the one-pass ``pi_divide``."""
    p, pn = x.ctx.p, x.ctx.pi_order
    q, r = divmod(j, pn)
    terms = x.terms
    if q:
        bad = [m for m, v in terms.items() if v % p**q]
        if bad:
            raise NotDivisibleError(min(bad))
        terms = {m: v // p**q for m, v in terms.items()}
    for _ in range(r):
        nxt, bad = {}, []
        for (a, b, c), v in terms.items():
            if a:
                key = (a - 1, b, c)
            elif v % p:
                bad.append((a, b, c))
                continue
            else:
                v, key = v // p, (pn - 1, b, c)
            nxt[key] = nxt.get(key, 0) + v
        if bad:
            raise NotDivisibleError(min(bad))
        terms = nxt
    return TowerElem(x.ctx, terms, x.coeff_mod)


def pi_divide_off_by_one(x, j):
    """A broken one-pass division: wrapped terms land one PI slot low."""
    p, pn = x.ctx.p, x.ctx.pi_order
    q, r = divmod(j, pn)
    out = {}
    for (a, b, c), v in x.terms.items():
        d, key = (p**q, (a - r, b, c)) if a >= r else (p ** (q + 1), (a - r + pn - 1, b, c))
        if v % d:
            return x.pi_divide(j)  # refusals are not what this mutant breaks
        out[key] = v // d
    return TowerElem(x.ctx, out, x.coeff_mod)


def refusing_terms(x, j):
    """Terms of x whose coefficient fails division by PI^j, with
    j = q * p^level + r: p^q must divide it when the term's PI exponent
    is at least r, and p^(q + 1) when the term wraps."""
    p, pn = x.ctx.p, x.ctx.pi_order
    q, r = divmod(j, pn)
    return [m for m, v in x.terms.items() if v % p ** (q if m[0] >= r else q + 1)]


def division_outcome(divide, x, j):
    try:
        return divide(x, j)
    except NotDivisibleError as exc:
        return exc.monomial


@st.composite
def pi_division_cases(draw):
    """x = y * PI^s + z over Z or Z/p^3 and j near s: a mix of exact
    quotients and refusals, with wraps and integer carries."""
    ctx = some_context(draw)
    p, pn = ctx.p, ctx.pi_order
    y = draw(elems(ctx, span=pn + 2, coeff=p * p, max_terms=3))
    z = draw(elems(ctx, span=pn + 2, coeff=p, max_terms=1))
    s = draw(st.integers(0, 2 * pn + 1))
    x = y * TowerElem.monomial(ctx, s, 0, 0) + z
    if draw(st.booleans()):
        x = x.reduce_coeffs(p**3)
    return x, draw(st.integers(0, 2 * pn + 1))


class TestOnePassPiDivision:
    """``pi_divide`` and LocalElem canonicalization against the stepwise
    reference, refused monomial included."""

    @given(case=pi_division_cases())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_stepwise_and_names_least_refusing_term(self, case):
        # the same quotient, or a refusal by both; one-pass names the
        # least term of x that fails its coefficient test
        x, j = case
        got = division_outcome(TowerElem.pi_divide, x, j)
        want = division_outcome(pi_divide_stepwise, x, j)
        if isinstance(want, TowerElem):
            assert got == want
        else:
            assert got == min(refusing_terms(x, j))

    @given(case=pi_division_cases())
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_agrees_with_stepwise(self, case):
        num, denom_exp = case
        got = LocalElem(num, denom_exp)
        while denom_exp and not num.is_zero:
            try:
                num = pi_divide_stepwise(num, 1)
            except NotDivisibleError:
                break
            denom_exp -= 1
        assert (got.num, got.denom_exp) == (num, 0 if num.is_zero else denom_exp)

    def test_negative_control_wrap_offset(self):
        find(
            pi_division_cases(),
            lambda case: division_outcome(pi_divide_off_by_one, *case)
            != division_outcome(pi_divide_stepwise, *case),
            settings=settings(database=None, derandomize=True, max_examples=500),
        )


class TestPolyDivides:
    FREE1 = TowerCtx(5, 1, 3, FREE)

    def x(self):
        return TowerElem.monomial(self.FREE1, 0, 1, 0, coeff_mod=5)

    def y(self):
        return TowerElem.monomial(self.FREE1, 0, 0, 1, coeff_mod=5)

    def test_char5_fifth_power(self):
        h = self.x() ** 3 + self.y() ** 3
        g = h**5
        ok, q = poly_divides(h, g)
        assert ok
        assert q == h**4
        # char-5 identity: the fifth power is X^15 + Y^15
        assert g == self.x() ** 15 + self.y() ** 15

    def test_low_degree_not_divisible(self):
        h = self.x() ** 15 + self.y() ** 15
        g = self.x() ** 3 + self.y() ** 3
        ok, q = poly_divides(h, g)
        assert not ok and q is None

    def test_zero_dividend(self):
        ok, q = poly_divides(self.x() + self.y(), TowerElem.zero(self.FREE1, coeff_mod=5))
        assert ok and q.is_zero

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(TowerElem.zero(self.FREE1, coeff_mod=5), self.x())

    def test_pi_contamination_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(TowerElem.monomial(self.FREE1, 1, 0, 0, coeff_mod=5), self.x())

    def test_quotient_mode_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(
                TowerElem.monomial(CTX51, 0, 1, 0, coeff_mod=5),
                TowerElem.monomial(CTX51, 0, 2, 0, coeff_mod=5),
            )

    def test_division_verifies(self):
        h = 2 * self.x() ** 2 + self.y()
        g = h * (self.x() ** 4 + 3 * self.y() ** 2 + 1)
        ok, q = poly_divides(h, g)
        assert ok and q * h == g


@given(a=elems(CTX51), b=elems(CTX51), c=elems(CTX51))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=elems(TowerCtx(2, 1, 3, QUOTIENT), span=4))
@settings(max_examples=30, deadline=None)
def test_ring_axioms_p2(a):
    ctx = TowerCtx(2, 1, 3, QUOTIENT)
    two = TowerElem.integer(ctx, 2)
    assert a + (-a) == 0
    assert a * two == a + a
