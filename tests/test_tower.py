import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootclose.tower import (
    FREE,
    QUOTIENT,
    NotDivisibleError,
    PthRootError,
    ResidueElem,
    TowerCtx,
    TowerElem,
    pi,
    poly_divides,
    x_var,
    y_var,
)

CTX51 = TowerCtx(5, 1, 3, QUOTIENT)
CTX52 = TowerCtx(5, 2, 3, QUOTIENT)


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
        assert got.sorted_terms() == [((0, 0, 0), -125), ((0, 15, 0), -1)]

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
        assert got.sorted_terms() == [((0, 0, 15), 1)]


class TestRingOps:
    def test_pi_times_pi4(self):
        assert pi(CTX51) * TowerElem.monomial(CTX51, 4, 0, 0) == TowerElem.integer(CTX51, 5)

    def test_binomial_coefficient_in_power(self):
        e = (x_var(CTX51) + y_var(CTX51)) ** 5
        assert e.coefficient(0, 3, 2) == 10

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
        assert e.pi_divide(5) == e.p_divide()

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
        assert (10 * x_var(CTX51)).p_divide() == 2 * x_var(CTX51)
        with pytest.raises(NotDivisibleError):
            pi(CTX51).p_divide()
        assert TowerElem.zero(CTX51).p_divide().is_zero


class TestResidue:
    def test_reduce_examples(self):
        assert (TowerElem.integer(CTX51, 5) + x_var(CTX51)).reduce_mod_p() == ResidueElem(
            CTX51, {(0, 1, 0): 1}
        )
        u = pi(CTX51) ** 3 + x_var(CTX51) ** 3 + y_var(CTX51) ** 3
        assert u.reduce_mod_p().sorted_terms() == [
            ((0, 0, 3), 1),
            ((0, 3, 0), 1),
            ((3, 0, 0), 1),
        ]
        assert (7 * y_var(CTX51)).reduce_mod_p() == ResidueElem(CTX51, {(0, 0, 1): 2})

    def test_frobenius_examples(self):
        x = ResidueElem.monomial(CTX51, 0, 1, 0)
        y = ResidueElem.monomial(CTX51, 0, 0, 1)
        assert x.frobenius() == ResidueElem.monomial(CTX51, 0, 5, 0)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert ResidueElem.zero(CTX51).frobenius().is_zero

    def test_defining_relation_dies_mod_p(self):
        for level in (0, 1, 2):
            ctx = TowerCtx(5, level, 3, QUOTIENT)
            pn = ctx.pi_order
            e = TowerElem(
                ctx, {(3 * pn, 0, 0): 1, (0, 3 * pn, 0): 1, (0, 0, 3 * pn): 1}
            )
            assert e.reduce_mod_p().is_zero

    def test_proot_inverts_frobenius(self):
        e = ResidueElem(CTX52, {(1, 2, 0): 3, (0, 0, 1): 4})
        assert e.frobenius().proot() == e

    def test_frobenius_kernel_contains_pi(self):
        # at level 1 the p-th power of PI is the integer p, which dies mod p
        e = ResidueElem.monomial(CTX51, 1, 0, 0)
        assert e.frobenius().is_zero

    def test_proot_rejects_non_power(self):
        with pytest.raises(PthRootError):
            ResidueElem.monomial(CTX51, 0, 1, 0).proot()

    @given(a=elems(CTX51), b=elems(CTX51))
    @settings(max_examples=40, deadline=None)
    def test_frobenius_additive(self, a, b):
        ra, rb = a.reduce_mod_p(), b.reduce_mod_p()
        assert (ra + rb).frobenius() == ra.frobenius() + rb.frobenius()


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
            ResidueElem.monomial(CTX51, 0, 1, 0).reduce_coeffs(25)

    def test_proot_needs_fp(self):
        with pytest.raises(ValueError):
            TowerElem.monomial(CTX51, 0, 5, 0).proot()


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


class TestPolyDivides:
    FREE1 = TowerCtx(5, 1, 3, FREE)

    def x(self):
        return ResidueElem.monomial(self.FREE1, 0, 1, 0)

    def y(self):
        return ResidueElem.monomial(self.FREE1, 0, 0, 1)

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
        ok, q = poly_divides(self.x() + self.y(), ResidueElem.zero(self.FREE1))
        assert ok and q.is_zero

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(ResidueElem.zero(self.FREE1), self.x())

    def test_pi_contamination_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(ResidueElem.monomial(self.FREE1, 1, 0, 0), self.x())

    def test_quotient_mode_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(
                ResidueElem.monomial(CTX51, 0, 1, 0), ResidueElem.monomial(CTX51, 0, 2, 0)
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
