import hashlib
import json
import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from rootclose import witt
from rootclose.closure import HypothesisNotMetError
from rootclose.fontaine import CERTIFIED, PLAIN, SequenceDivisionError, generators
from rootclose.invariants import random_seq, random_tower
from rootclose.report import elem_to_json
from rootclose.tower import FREE, QUOTIENT, ResidueElem, TowerCtx
from rootclose.witt import (
    NotDivisibleWittError,
    WittCtx,
    WittVec,
    divide_by_p_seq_minus_p,
    ghost,
    mul_by_p,
    p_divide_witt,
    p_seq_minus_p,
    verschiebung,
    witt_frobenius,
    witt_polynomials,
    witt_polynomials_mod_p,
    witt_theta,
)

F5 = TowerCtx(5, 0, 1, FREE)
F2 = TowerCtx(2, 0, 1, FREE)


def fp_const(ctx, k):
    return ResidueElem.integer(ctx, k)


class TestUniversalPolynomials:
    def test_degree_zero(self):
        for p in (2, 3, 5):
            S, M = witt_polynomials(p, 2)
            assert S[0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
            assert M[0] == {(1, 0, 1, 0): 1}

    def test_p2_sum(self):
        S, _ = witt_polynomials(2, 2)
        assert S[1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}

    def test_p2_product(self):
        _, M = witt_polynomials(2, 2)
        assert M[1] == {(2, 0, 0, 1): 1, (0, 1, 2, 0): 1, (0, 1, 0, 1): 2}

    def test_general_first_product(self):
        # M_1 = X_0^p Y_1 + X_1 Y_0^p + p X_1 Y_1 for every p
        for p in (3, 5):
            _, M = witt_polynomials(p, 2)
            assert M[1] == {
                (p, 0, 0, 1): 1,
                (0, 1, p, 0): 1,
                (0, 1, 0, 1): p,
            }

    def test_mod_p_tables_are_smaller(self):
        # total terms, sum/product: exact, then reduced mod p
        def count(table):
            return sum(len(poly) for poly in table)

        for (p, n), want in {(2, 4): (53, 64, 41, 19), (3, 3): (30, 17, 28, 8)}.items():
            S, M = witt_polynomials(p, n)
            s, m = witt_polynomials_mod_p(p, n)
            assert (count(S), count(M), count(s), count(m)) == want

    def test_mod_p_tables_keep_every_variable(self):
        def variables(poly):
            return {i for mono in poly for i, e in enumerate(mono) if e}

        shapes = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)] + [(2, 4), (3, 4)]
        for p, n in shapes:
            exact = witt_polynomials(p, n)
            reduced = witt_polynomials_mod_p(p, n)
            for a, b in zip(exact[0] + exact[1], reduced[0] + reduced[1]):
                assert variables(a) == variables(b)

    def test_table_follows_the_component_ring(self):
        ctx = WittCtx(3, 2)
        P, X, _ = generators(3, 2, 2, QUOTIENT)
        Pc, _, _ = generators(3, 2, 2, QUOTIENT, CERTIFIED)
        fp = ResidueElem.monomial(TowerCtx(3, 1, 2, QUOTIENT), 0, 1, 0)
        reduced, exact = witt_polynomials_mod_p(3, 2), witt_polynomials(3, 2)
        assert ctx.polynomials((P, X)) is reduced
        assert ctx.polynomials((fp, fp)) is reduced
        assert ctx.polynomials((1, 2)) is exact
        assert ctx.polynomials((Pc, X)) is exact
        assert ctx.polynomials((fp.lift(), fp.lift())) is exact

    def test_cache_returns_same_object(self):
        assert witt_polynomials(2, 3) is witt_polynomials(2, 3)


class TestGhostOracle:
    def test_teichmuller_ghost(self):
        ctx = WittCtx(3, 3)
        assert ghost(WittVec(ctx, (7, 0, 0))) == [7, 7**3, 7**9]

    @given(
        data=st.tuples(
            st.sampled_from([(2, 3), (3, 3), (5, 2)]),
            st.lists(st.integers(-9, 9), min_size=6, max_size=6),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ghost_is_a_ring_hom(self, data):
        (p, n), vals = data
        ctx = WittCtx(p, n)
        x = WittVec(ctx, vals[:n])
        y = WittVec(ctx, vals[n : 2 * n])
        gx, gy = ghost(x), ghost(y)
        assert ghost(x + y) == [a + b for a, b in zip(gx, gy)]
        assert ghost(x * y) == [a * b for a, b in zip(gx, gy)]
        assert ghost(-x) == [-a for a in gx]

    def test_ghost_rejects_non_integers(self):
        ctx = WittCtx(2, 2)
        one = fp_const(F2, 1)
        with pytest.raises(ValueError):
            ghost(WittVec.teichmuller(ctx, one))


class TestRingStructure:
    def test_one_plus_one_in_w2_f2(self):
        ctx = WittCtx(2, 2)
        one = WittVec.teichmuller(ctx, fp_const(F2, 1))
        two = one + one
        assert two.comps[0].is_zero
        assert two.comps[1] == fp_const(F2, 1)

    def test_additive_identity_and_inverse(self):
        ctx = WittCtx(3, 3)
        base = TowerCtx(3, 1, 2, QUOTIENT)
        rng = random.Random(4)
        for _ in range(6):
            comps = [
                ResidueElem(
                    base, {(rng.randrange(3), rng.randrange(3), 0): rng.randint(1, 2)}
                )
                for _ in range(3)
            ]
            v = WittVec(ctx, comps)
            zero = WittVec.zero(ctx, comps[0])
            assert v + zero == v
            assert (v + (-v)).is_zero


class TestStandardMaps:
    def test_verschiebung_shifts(self):
        ctx = WittCtx(5, 3)
        base = TowerCtx(5, 1, 3, QUOTIENT)
        a = ResidueElem.monomial(base, 0, 1, 0)
        v = verschiebung(WittVec.teichmuller(ctx, a))
        assert v.comps[0].is_zero and v.comps[1] == a

    def test_verschiebung_of_zero(self):
        ctx = WittCtx(5, 2)
        z = WittVec.zero(ctx, fp_const(F5, 0))
        assert verschiebung(z).is_zero

    def test_p_times_teichmuller(self):
        ctx = WittCtx(5, 3)
        base = TowerCtx(5, 1, 3, QUOTIENT)
        a = ResidueElem.monomial(base, 1, 1, 0, 2)
        tau = WittVec.teichmuller(ctx, a)
        fast = mul_by_p(tau)
        slow = WittVec.zero(ctx, a)
        for _ in range(5):
            slow = slow + tau
        assert fast == slow
        assert fast.comps[0].is_zero
        assert fast.comps[1] == a**5
        assert fast.comps[2].is_zero

    def test_vf_identity_on_random_vectors(self):
        ctx = WittCtx(3, 3)
        base = TowerCtx(3, 1, 2, QUOTIENT)
        rng = random.Random(8)
        for _ in range(6):
            comps = [
                ResidueElem(
                    base, {(rng.randrange(3), rng.randrange(2), 0): rng.randint(1, 2)}
                )
                for _ in range(3)
            ]
            v = WittVec(ctx, comps)
            slow = WittVec.zero(ctx, comps[0])
            for _ in range(3):
                slow = slow + v
            assert mul_by_p(v) == slow

    def test_p_divide_inverts(self):
        ctx = WittCtx(5, 3)
        base = TowerCtx(5, 2, 3, QUOTIENT)
        a0 = ResidueElem.monomial(base, 0, 1, 0, 3)
        a1 = ResidueElem.monomial(base, 1, 0, 1, 2)
        vec = WittVec(ctx, (ResidueElem.zero(base), a0**5, a1**5))
        got = p_divide_witt(vec)
        assert got.comps[0] == a0 and got.comps[1] == a1 and got.comps[2].is_zero

    def test_p_divide_requires_zero_head(self):
        ctx = WittCtx(5, 2)
        base = TowerCtx(5, 1, 3, QUOTIENT)
        vec = WittVec.teichmuller(ctx, ResidueElem.monomial(base, 0, 1, 0))
        with pytest.raises(NotDivisibleWittError):
            p_divide_witt(vec)

    def test_frobenius_needs_char_p(self):
        ctx = WittCtx(3, 2)
        with pytest.raises(ValueError):
            witt_frobenius(WittVec(ctx, (1, 2)))


class TestThetaMap:
    def test_teichmuller_of_p_sequence(self):
        P, _, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        got = witt_theta(WittVec.teichmuller(ctx, P), 2)
        assert got == got.ctx.p * (got ** 0)  # equals the integer p

    def test_p_root_minus_p_is_in_kernel(self):
        P, _, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        pmp = p_seq_minus_p(ctx, P)
        assert witt_theta(pmp, 2).is_zero

    def test_zero_vector(self):
        P, _, _ = generators(5, 3, 2, QUOTIENT)
        ctx = WittCtx(5, 2)
        assert witt_theta(WittVec.zero(ctx, P), 2).is_zero

    def test_additive_at_matched_precision(self):
        rng = random.Random(12)
        ctx = WittCtx(5, 2)
        for _ in range(4):
            x = WittVec(ctx, [random_seq(rng, 5, 3, 3) for _ in range(2)])
            y = WittVec(ctx, [random_seq(rng, 5, 3, 3) for _ in range(2)])
            k = 2
            assert witt_theta(x + y, k) == witt_theta(x, k) + witt_theta(y, k)
            assert witt_theta(x * y, k) == witt_theta(x, k) * witt_theta(y, k)


class TestKernelDivision:
    def test_roundtrip_teichmuller_x(self):
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        pmp = p_seq_minus_p(ctx, P)
        x_vec = pmp * WittVec.teichmuller(ctx, X)
        result = divide_by_p_seq_minus_p(x_vec)
        assert result.steps == 2 and not result.exhausted

    def test_zero_divides_to_zero(self):
        P, _, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        z = WittVec.zero(ctx, P)
        result = divide_by_p_seq_minus_p(z)
        assert result.quotient.is_zero

    def test_cube_sum_blocks_plain_division(self):
        P, X, Y = generators(5, 3, 3, QUOTIENT)
        eta = P**3 + X**3 + Y**3
        ctx = WittCtx(5, 2)
        x_vec = WittVec.teichmuller(ctx, eta)
        with pytest.raises(SequenceDivisionError) as err:
            divide_by_p_seq_minus_p(x_vec)
        assert err.value.index == 1

    def test_non_kernel_input_rejected(self):
        _, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        with pytest.raises(HypothesisNotMetError):
            divide_by_p_seq_minus_p(WittVec.teichmuller(ctx, X))

    def test_depth_exhaustion_stops_cleanly(self):
        # length 3 but only depth 3: the third step has no root shift left,
        # so the division reports the two achieved steps instead of raising
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 3)
        pmp = p_seq_minus_p(ctx, P)
        x_vec = pmp * WittVec.teichmuller(ctx, X)
        result = divide_by_p_seq_minus_p(x_vec)
        assert result.steps == 2 and result.exhausted


@st.composite
def char_p_pairs(draw):
    """Two Witt vectors over F_p residues, or over plain sequences of
    mixed depth (a result's depth is the least depth its terms use)."""
    p, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]))
    degree = 2 if p == 3 else 3
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        base = TowerCtx(p, rng.randint(0, 1), degree, rng.choice([FREE, QUOTIENT]))
        comps = [random_tower(rng, base, terms=2, span=4).reduce_mod_p() for _ in range(2 * n)]
    else:
        comps = [random_seq(rng, p, degree, rng.randint(1, 3)) for _ in range(2 * n)]
    ctx = WittCtx(p, n)
    return WittVec(ctx, comps[:n]), WittVec(ctx, comps[n:])


def witt_ops(x, y):
    return x + y, x * y, -x, x - y


def ops_with_tables(x, y, tables):
    """``witt_ops`` with the characteristic-p tables replaced by ``tables``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witt, "witt_polynomials_mod_p", tables)
        return witt_ops(x, y)


class TestModPTables:
    """Witt arithmetic on characteristic-p components: the tables reduced
    mod p against the exact ones."""

    @given(pair=char_p_pairs())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_exact_tables(self, pair):
        x, y = pair
        assert witt_ops(x, y) == ops_with_tables(x, y, witt_polynomials)

    def test_negative_control_dropped_term(self):
        def tampered(p, n):
            sums, prods = witt_polynomials_mod_p(p, n)
            s1 = dict(sums[1])
            del s1[next(iter(s1))]
            return (sums[0], s1, *sums[2:]), prods

        find(
            char_p_pairs(),
            lambda pair: ops_with_tables(*pair, tampered) != ops_with_tables(*pair, witt_polynomials),
            settings=settings(database=None, derandomize=True, max_examples=200),
        )


class TestSharedPSeqMinusP:
    def test_cached_constant_equals_a_fresh_build(self):
        ctx = WittCtx(5, 2)
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        pmp = p_seq_minus_p(ctx, P)
        assert p_seq_minus_p(ctx, X) is pmp
        assert pmp == witt._p_seq_minus_p.__wrapped__(ctx, 5, 3, 3, QUOTIENT, PLAIN)
        assert all(isinstance(c.comps, tuple) for c in pmp.comps)

    def test_template_levels_do_not_matter(self):
        # a template whose components all sit at the deepest level gives
        # the same value as building p from that template itself
        ctx = WittCtx(5, 2)
        deep = random_seq(random.Random(3), 5, 3, 3)
        P, _, _ = generators(5, 3, 3, QUOTIENT)
        p_one = mul_by_p(WittVec.teichmuller(ctx, deep.one_like()))
        assert p_seq_minus_p(ctx, deep) == WittVec.teichmuller(ctx, P) - p_one


#: sha256 of report.elem_to_json over the quotient components of
#: divide_by_p_seq_minus_p((p-root sequence - p) * w), with w made of
#: the sequences x + y, x * y, x, y cut to the Witt length, per
#: (p, degree, length, depth).  Recorded from the multiply-out paths,
#: which the characteristic-p fast paths reproduce byte for byte.
WITT_PATH_DIGESTS = {
    (5, 3, 2, 4): "0e43a720555095f5525177f2aa0b7ffb04b0463a764b176dbc67d2866d48a02b",
    (2, 3, 4, 7): "1e6bc4c8feb415fbe2c235adfd0738952ff1300db7c57f4141c79939f0c86714",
    (3, 2, 3, 6): "9311f7ef1a0f0f58dc7b1fcd0d6b0b7b219a6c373bce996433573f39c27fc371",
    (7, 3, 2, 3): "e5c7260d99b69d65893111b4d50d97dad34097a6833a2a0e3b5a3b5a4f318a81",
}


@pytest.mark.parametrize("shape", sorted(WITT_PATH_DIGESTS))
def test_division_bytes_match_the_recorded_digest(shape):
    p, degree, length, depth = shape
    _, X, Y = generators(p, degree, depth, QUOTIENT)
    ctx = WittCtx(p, length)
    w = WittVec(ctx, [X + Y, X * Y, X, Y][:length])
    quotient = divide_by_p_seq_minus_p(p_seq_minus_p(ctx, X) * w).quotient
    serial = json.dumps([[elem_to_json(c) for c in coord.comps] for coord in quotient.comps])
    assert hashlib.sha256(serial.encode()).hexdigest() == WITT_PATH_DIGESTS[shape]
