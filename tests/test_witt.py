import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootclose.closure import HypothesisNotMetError
from rootclose.fontaine import PLAIN, FontaineElem, SequenceDivisionError, generators
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
    theta,
    verschiebung,
    witt_frobenius,
    witt_polynomials,
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

    def test_cache_returns_same_object(self):
        assert witt_polynomials(2, 3) is witt_polynomials(2, 3)

    def test_cache_is_thread_safe(self):
        import threading

        results = []

        def hit():
            results.append(witt_polynomials(3, 3))

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)


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

    def test_teichmuller_is_multiplicative(self):
        ctx = WittCtx(5, 2)
        base = TowerCtx(5, 1, 3, QUOTIENT)
        rng = random.Random(2)
        for _ in range(8):
            a = ResidueElem(
                base, {(rng.randrange(5), rng.randrange(3), 0): rng.randint(1, 4)}
            )
            b = ResidueElem(
                base, {(0, rng.randrange(3), rng.randrange(3)): rng.randint(1, 4)}
            )
            lhs = WittVec.teichmuller(ctx, a) * WittVec.teichmuller(ctx, b)
            assert lhs == WittVec.teichmuller(ctx, a * b)

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

    def test_additive_order_of_one(self):
        for p, n in ((2, 3), (3, 3), (5, 2)):
            ctx = WittCtx(p, n)
            base = TowerCtx(p, 0, 1, FREE)
            one = WittVec.teichmuller(ctx, fp_const(base, 1))
            acc = WittVec.zero(ctx, one.comps[0])
            hits = []
            for k in range(1, p**n + 1):
                acc = acc + one
                if acc.is_zero:
                    hits.append(k)
            assert hits == [p**n]


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
        got = theta(WittVec.teichmuller(ctx, P), 2)
        assert got == got.ctx.p * (got ** 0)  # equals the integer p

    def test_p_root_minus_p_is_in_kernel(self):
        P, _, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        pmp = p_seq_minus_p(ctx, P)
        assert theta(pmp, 2).is_zero

    def test_zero_vector(self):
        P, _, _ = generators(5, 3, 2, QUOTIENT)
        ctx = WittCtx(5, 2)
        assert theta(WittVec.zero(ctx, P), 2).is_zero

    def test_additive_at_matched_precision(self):
        rng = random.Random(12)
        ctx = WittCtx(5, 2)
        for _ in range(4):
            x = WittVec(ctx, [_random_seq(rng, 5, 3, 3) for _ in range(2)])
            y = WittVec(ctx, [_random_seq(rng, 5, 3, 3) for _ in range(2)])
            k = 2
            assert theta(x + y, k) == theta(x, k) + theta(y, k)
            assert theta(x * y, k) == theta(x, k) * theta(y, k)


def _random_seq(rng, p, degree, depth):
    ctx = TowerCtx(p, depth, degree, QUOTIENT)
    seed = ResidueElem.monomial(
        ctx, rng.randrange(ctx.pi_order), rng.randrange(3), rng.randrange(3),
        rng.randint(1, p - 1),
    )
    return FontaineElem([seed ** (p ** (depth - i)) for i in range(depth + 1)], PLAIN)


class TestKernelDivision:
    def test_roundtrip_teichmuller_x(self):
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        pmp = p_seq_minus_p(ctx, P)
        x_vec = pmp * WittVec.teichmuller(ctx, X)
        result = divide_by_p_seq_minus_p(x_vec, m_max=5)
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
            divide_by_p_seq_minus_p(x_vec, m_max=5)
        assert err.value.index == 1

    def test_non_kernel_input_rejected(self):
        _, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        with pytest.raises(HypothesisNotMetError):
            divide_by_p_seq_minus_p(WittVec.teichmuller(ctx, X))

    def test_random_roundtrips(self):
        rng = random.Random(13)
        ctx = WittCtx(5, 2)
        for _ in range(4):
            w = WittVec(ctx, [_random_seq(rng, 5, 3, 4) for _ in range(2)])
            pmp = p_seq_minus_p(ctx, w.comps[0])
            x_vec = pmp * w
            result = divide_by_p_seq_minus_p(x_vec, m_max=5)
            assert result.steps == 2

    def test_depth_exhaustion_stops_cleanly(self):
        # length 3 but only depth 3: the third step has no root shift left,
        # so the division reports the two achieved steps instead of raising
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 3)
        pmp = p_seq_minus_p(ctx, P)
        x_vec = pmp * WittVec.teichmuller(ctx, X)
        result = divide_by_p_seq_minus_p(x_vec, m_max=5)
        assert result.steps == 2 and result.exhausted
