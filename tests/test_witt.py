import hashlib
import json
import random
from itertools import accumulate

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from rootclose import fontaine, witt
from rootclose.closure import HypothesisNotMetError
from rootclose.fontaine import (
    CERTIFIED,
    PLAIN,
    FontaineElem,
    SequenceDivisionError,
    divide_by_p_seq,
    generators,
)
from rootclose.invariants import random_seq, random_tower
from rootclose.report import elem_to_json
from rootclose.tower import FREE, QUOTIENT, ResidueElem, TowerCtx, TowerElem
from rootclose.witt import (
    WittCtx,
    WittVec,
    divide_by_p_seq_minus_p,
    ghost,
    mul_by_p,
    p_seq_minus_p,
    verschiebung,
    witt_frobenius,
    witt_polynomials,
    witt_theta,
)

F5 = TowerCtx(5, 0, 1, FREE)
F2 = TowerCtx(2, 0, 1, FREE)
B3 = TowerCtx(3, 0, 1, FREE)  # level 0 at p = 3: Z, or F_3 for residues


def fp_const(ctx, k):
    return TowerElem.integer(ctx, k, coeff_mod=ctx.p)


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
        a = TowerElem.monomial(base, 0, 1, 0, coeff_mod=5)
        v = verschiebung(WittVec.teichmuller(ctx, a))
        assert v.comps[0].is_zero and v.comps[1] == a

    def test_verschiebung_of_zero(self):
        ctx = WittCtx(5, 2)
        z = WittVec.zero(ctx, fp_const(F5, 0))
        assert verschiebung(z).is_zero

    def test_p_times_teichmuller(self):
        ctx = WittCtx(5, 3)
        base = TowerCtx(5, 1, 3, QUOTIENT)
        a = TowerElem.monomial(base, 1, 1, 0, 2, coeff_mod=5)
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

    @pytest.mark.parametrize(
        "comps, index, what",
        [
            ((1, 2), 0, "an integer"),
            ((TowerElem.integer(B3, 2), TowerElem.integer(B3, 1)), 0, "a tower element over Z"),
            ((TowerElem.integer(B3, 2, 9), TowerElem.integer(B3, 1, 9)), 0, "a residue mod 9"),
            ((fp_const(B3, 1), 1), 1, "an integer"),
        ],
        ids=["integers", "Z-tower", "Z/9", "F_3 then integer"],
    )
    def test_frobenius_needs_char_p(self, comps, index, what):
        # the componentwise p-th power is no ring map over Z: over the
        # tower ring, V(F(2, 1)) would be (0, 8), while (2, 1) * 3 is (6, -61)
        v = WittVec(WittCtx(3, 2), comps)
        for fn in (witt_frobenius, mul_by_p):
            with pytest.raises(ValueError, match=f"coordinate {index} is {what}: Frobenius runs"):
                fn(v)


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

    def test_reads_only_the_coordinates_below_the_precision(self):
        # coordinate 1 has depth 0, so no root to take, but its term
        # p * theta(...) vanishes modulo p
        _, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        short = WittVec(ctx, [X, X.truncate(0)])
        assert witt_theta(short, 1) == witt_theta(WittVec.teichmuller(ctx, X), 1)
        with pytest.raises(ValueError, match="compatible-sequence components"):
            witt_theta(WittVec(ctx, [X, 0]), 1)


def agrees_on_the_steps(product: WittVec, x: WittVec, result) -> bool:
    """The division checks no quotient: ``product`` = pmp * quotient must
    give x back on the first ``result.steps`` coordinates, at the depth
    reached."""
    for got, want in zip(product.comps[: result.steps], x.comps):
        d = min(got.depth, want.depth, result.depth)
        if not got.truncate(d).equals(want.truncate(d)):
            return False
    return True


class TestKernelDivision:
    def test_roundtrip_teichmuller_x(self):
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        pmp = p_seq_minus_p(ctx, P)
        x_vec = pmp * WittVec.teichmuller(ctx, X)
        result = divide_by_p_seq_minus_p(x_vec)
        assert result.steps == 2 and not result.exhausted
        assert agrees_on_the_steps(pmp * result.quotient, x_vec, result)

    @pytest.mark.parametrize("p", [5, 7, 11, 65521])
    def test_p_seq_minus_p_is_p_minus_one_then_zeros(self, p):
        # for odd p, [P] - p = [P] + V[-1] = (P, -1, 0, ...): the closed
        # form the example's witness and checker write in place of pmp
        for length in range(1, 5):
            for depth in range(5):
                P, _, _ = generators(p, 3, depth, QUOTIENT)
                want = [P, -P.one_like()] + [P.zero_like()] * (length - 2)
                got = p_seq_minus_p(WittCtx(p, length), P)
                assert [c.comps for c in got.comps] == [c.comps for c in want[:length]]

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
        # theta([x]) mod p is the base residue of x, which the first
        # sequence division refuses at component 0, where PI_0 = p
        _, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        with pytest.raises(SequenceDivisionError) as err:
            divide_by_p_seq_minus_p(WittVec.teichmuller(ctx, X))
        assert (err.value.index, err.value.monomial) == (0, (0, 1, 0))

    def test_short_coordinate_divides_as_far_as_its_depth_allows(self):
        # coordinate 1 has depth 0: the first fold has no depth left for
        # the next division, so the division stops after one step
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 2)
        x_vec = p_seq_minus_p(ctx, P) * WittVec(ctx, [X, X.truncate(0)])
        result = divide_by_p_seq_minus_p(x_vec)
        assert (result.steps, result.depth, result.exhausted) == (1, 2, True)
        assert result.quotient.comps[0].equals(X.truncate(2))

    def test_depth_exhaustion_stops_cleanly(self):
        # length 3 but only depth 3: the third step has no root shift left,
        # so the division reports the two achieved steps instead of raising
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        ctx = WittCtx(5, 3)
        pmp = p_seq_minus_p(ctx, P)
        x_vec = pmp * WittVec.teichmuller(ctx, X)
        result = divide_by_p_seq_minus_p(x_vec)
        assert result.steps == 2 and result.exhausted
        assert agrees_on_the_steps(pmp * result.quotient, x_vec, result)


def evaluate(poly, vals):
    """The polynomial at ``vals``, one value per variable, in their own
    component ring: the oracle of the tests.  S and M have no constant
    term, so every term has a variable.  Each power v**e is built once
    per call, in ``powers``."""
    powers = {}
    acc = None
    for exps, coeff in poly.items():
        term = None
        for i, (v, e) in enumerate(zip(vals, exps)):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = v**e
                powered = powers[i, e]
                term = powered if term is None else term * powered
        if coeff != 1:
            term = coeff * term
        acc = term if acc is None else acc + term
    return witt._zero_like(vals[0]) if acc is None else acc


SHAPES = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3, 4) if (p, n) != (5, 4)]


def _residue_coord(rng, base):
    if rng.random() < 0.4:
        return TowerElem.zero(base, base.p)
    return random_tower(rng, base, terms=2, span=4).reduce_mod_p()


def _sequence_coord(rng, p, degree, max_depth=3):
    """A plain sequence of depth 1..max_depth: a random monomial's roots
    (every component at level depth), a generator (component i at level
    i), or the zero of either; each component is sometimes embedded
    deeper."""
    depth = rng.randint(1, max_depth)
    if rng.random() < 0.5:
        seq = random_seq(rng, p, degree, depth)
    else:
        seq = generators(p, degree, depth, QUOTIENT)[rng.randrange(3)]
    if rng.random() < 0.4:
        seq = seq.zero_like()
    return FontaineElem([c.embed(c.level + rng.randint(0, 1)) for c in seq.comps], PLAIN)


@st.composite
def witt_pairs(draw):
    """Two Witt vectors over one ring of F_p residues, or over plain
    sequences of mixed depth and level, with many zero coordinates."""
    p, n = draw(st.sampled_from(SHAPES))
    degree = 2 if p == 3 else 3
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        base = TowerCtx(p, rng.randint(0, 1), degree, rng.choice([FREE, QUOTIENT]))
        comps = [_residue_coord(rng, base) for _ in range(2 * n)]
    else:
        comps = [_sequence_coord(rng, p, degree) for _ in range(2 * n)]
    ctx = WittCtx(p, n)
    return WittVec(ctx, comps[:n]), WittVec(ctx, comps[n:])


def witt_ops(x, y):
    return x + y, x * y, -x, x - y


def table_ops(x, y):
    """``witt_ops`` by evaluating the exact universal polynomials; -x
    solves x + z = 0 coordinate by coordinate, since S_i is X_i + Y_i
    plus terms in strictly earlier coordinates."""
    ctx = x.ctx
    sums, prods = witt_polynomials(ctx.p, ctx.length)

    def apply(table, a, b):
        return WittVec(ctx, [evaluate(poly, a.comps + b.comps) for poly in table])

    def neg(a):
        zero = witt._zero_like(a.comps[0])
        zs: list = []
        for i in range(ctx.length):
            pad = [zero] * (ctx.length - i)
            zs.append(-evaluate(sums[i], list(a.comps) + zs + pad))
        return WittVec(ctx, zs)

    return apply(sums, x, y), apply(prods, x, y), neg(x), apply(sums, x, neg(y))


def lowest_level(c):
    """A sequence component written at the lowest level at which all
    its exponents are integral: ``embed`` multiplies every exponent by
    p per level, so this form does not depend on the level it was
    written at."""
    p, level, terms = c.ctx.p, c.level, sorted(c.terms.items())
    while level and all(e % p == 0 for mono, _ in terms for e in mono):
        level -= 1
        terms = [(tuple(e // p for e in mono), v) for mono, v in terms]
    return level, c.coeff_mod, terms


def shape(vec):
    """Terms, moduli and depths of every coordinate.  A ring of residues
    keeps its level; a sequence component is read at ``lowest_level``,
    since the level it is written at is not part of its value."""

    def one(c):
        if isinstance(c, int):
            return c
        if isinstance(c, FontaineElem):
            return c.depth, c.mode, [lowest_level(r) for r in c.comps]
        return c.level, c.coeff_mod, sorted(c.terms.items())

    return [one(c) for c in vec.comps]


def shapes(vecs):
    return [shape(v) for v in vecs]


def short_modulus_disagrees(pair):
    """Does the recursion taken modulo p^k instead of p^(k+1) disagree
    with the tables, or raise, on this pair?"""
    modulus = witt._modulus
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witt, "_modulus", lambda zero, e: modulus(zero, max(e - 1, 1)))
        try:
            got = shapes(witt_ops(*pair))
        except ArithmeticError:
            return True
    return got != shapes(table_ops(*pair))


class TestGhostArithmetic:
    """Witt + * - through the ghost map against the exact tables."""

    @given(pair=witt_pairs())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_exact_tables(self, pair):
        assert shapes(witt_ops(*pair)) == shapes(table_ops(*pair))

    def test_negative_control_modulus_one_power_short(self):
        find(
            witt_pairs(),
            short_modulus_disagrees,
            settings=settings(database=None, derandomize=True, max_examples=200),
        )

    def test_arithmetic_reads_no_tables(self, monkeypatch):
        rng = random.Random(5)
        base = TowerCtx(3, 1, 2, QUOTIENT)
        ctx = WittCtx(3, 4)
        cases = [
            [_residue_coord(rng, base) for _ in range(8)],
            [_sequence_coord(rng, 3, 2) for _ in range(8)],
            [rng.randint(-9, 9) for _ in range(8)],
        ]
        want = [shapes(table_ops(WittVec(ctx, c[:4]), WittVec(ctx, c[4:]))) for c in cases]

        def no_tables(*args):
            raise AssertionError("the arithmetic path read the universal polynomials")

        monkeypatch.setattr(witt, "witt_polynomials", no_tables)
        got = [shapes(witt_ops(WittVec(ctx, c[:4]), WittVec(ctx, c[4:]))) for c in cases]
        assert got == want

    def test_difference_and_negative_take_one_ghost_pass(self, monkeypatch):
        rng = random.Random(7)
        base = TowerCtx(3, 1, 2, QUOTIENT)
        ctx = WittCtx(3, 3)
        cases = [
            [_residue_coord(rng, base) for _ in range(6)],
            [_sequence_coord(rng, 3, 2) for _ in range(6)],
            [rng.randint(-9, 9) for _ in range(6)],
        ]
        pairs = [(WittVec(ctx, c[:3]), WittVec(ctx, c[3:])) for c in cases]
        want = [(shape(x + (-y)), shape(table_ops(x, y)[2])) for x, y in pairs]
        ghost_op, ops = witt._ghost_op, []

        def counted(op, xs, ys, p):
            ops.append(op)
            return ghost_op(op, xs, ys, p)

        monkeypatch.setattr(witt, "_ghost_op", counted)
        for (x, y), (diff, neg) in zip(pairs, want):
            assert shape(x - y) == diff and ops == ["-"]
            assert shape(-x) == neg and ops == ["-", "-"]
            ops.clear()

    def test_coordinate_takes_least_depth_and_index_deepest_level(self):
        # coordinate k reads coordinates 0..k of each operand, zero ones
        # included, and nothing later; index j is computed once, for
        # every coordinate deep enough to have it, at the deepest level
        # of the index-j components it reads, and stays there
        for seed in range(6):
            rng = random.Random(seed)
            ctx = WittCtx(3, 3)
            x = WittVec(ctx, [_sequence_coord(rng, 3, 2) for _ in range(3)])
            y = WittVec(ctx, [_sequence_coord(rng, 3, 2) for _ in range(3)])
            for got, operands in zip(witt_ops(x, y), [(x, y), (x, y), (x,), (x, y)]):
                for k, coord in enumerate(got.comps):
                    read = [v.comps[i] for v in operands for i in range(k + 1)]
                    assert coord.depth == min(c.depth for c in read)
                for j in range(got.comps[0].depth + 1):
                    at_j = [coord.comps[j] for coord in got.comps if coord.depth >= j]
                    read = [v.comps[i].comps[j] for v in operands for i in range(len(at_j))]
                    assert {c.level for c in at_j} == {max(c.level for c in read)}

    @pytest.mark.parametrize("kind", ["certified sequence", "residue mod 25"])
    def test_refuses_rings_with_p_torsion(self, kind):
        ctx = WittCtx(5, 2)
        P, X, _ = generators(5, 3, 2, QUOTIENT)
        if kind == "certified sequence":
            Pc, Xc = (FontaineElem(g.comps, CERTIFIED) for g in (P, X))
            ok, bad = WittVec(ctx, (P, X)), WittVec(ctx, (X, Pc))
            all_bad = WittVec(ctx, (Pc, Xc))
        else:
            r = X.comps[2].lift()
            ok = WittVec(ctx, (r.reduce_mod_p(), r.reduce_mod_p()))
            bad = WittVec(ctx, (r.reduce_mod_p(), r.reduce_coeffs(25)))
            all_bad = WittVec(ctx, (r.reduce_coeffs(25), r.reduce_coeffs(25)))
        for op in (lambda: ok + bad, lambda: bad * ok, lambda: -bad, lambda: ok - bad):
            with pytest.raises(ValueError, match=f"coordinate 1 is a {kind}"):
                op()
        with pytest.raises(ValueError, match=f"coordinate 0 is a {kind}"):
            all_bad * all_bad

    def test_components_must_share_one_ring(self):
        ctx = WittCtx(3, 2)
        a = fp_const(TowerCtx(3, 1, 2, QUOTIENT), 1)
        b = fp_const(TowerCtx(3, 2, 2, QUOTIENT), 1)
        with pytest.raises(ValueError, match="one tower ring with p = 3"):
            WittVec(ctx, (a, a)) + WittVec(ctx, (a, b))
        with pytest.raises(ValueError, match="one tower ring with p = 3"):
            -WittVec(ctx, (fp_const(F5, 1), fp_const(F5, 2)))
        with pytest.raises(ValueError, match="mix integer and residue"):
            WittVec(ctx, (1, 2)) * WittVec(ctx, (a, a))

    def test_torsion_free_kinds_still_work(self):
        rng = random.Random(2)
        ctx = WittCtx(3, 3)
        base = TowerCtx(3, 1, 2, QUOTIENT)
        kinds = [
            [rng.randint(-9, 9) for _ in range(6)],
            [random_tower(rng, base, terms=2, span=3) for _ in range(6)],
            [_residue_coord(rng, base) for _ in range(6)],
            [_sequence_coord(rng, 3, 2) for _ in range(6)],
        ]
        for comps in kinds:
            pair = WittVec(ctx, comps[:3]), WittVec(ctx, comps[3:])
            assert shapes(witt_ops(*pair)) == shapes(table_ops(*pair))


def _per_index_op(op, xs, ys, p):
    """The per-index loop that ``_sequence_op`` replaced, kept as its
    oracle: the residue recursion at every sequence index j, on the
    index-j components at the deepest level among those it reads."""
    depths = list(accumulate((min(x.depth, y.depth) for x, y in zip(xs, ys)), min))
    comps: list[list] = [[] for _ in xs]
    for j in range(depths[0] + 1):
        m = sum(d >= j for d in depths)
        level = max(c.comps[j].level for c in (*xs[:m], *ys[:m]))
        index_j = ([c.comps[j].embed(level) for c in v[:m]] for v in (xs, ys))
        for k, c in enumerate(witt._lifted_op(op, *index_j, p)):
            comps[k].append(c)
    return [FontaineElem(c, PLAIN) for c in comps]


@st.composite
def sequence_operands(draw):
    """The coordinates of two Witt vectors over compatible plain
    sequences of mixed depth and level, many of them zero, and p."""
    p, n = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    comps = [_sequence_coord(rng, p, 2 if p == 3 else 3) for _ in range(2 * n)]
    return comps[:n], comps[n:], p


@st.composite
def fold_operands(draw):
    """The operands of one fold of the Witt division, (0, r_1, ...) and
    (0, y^p, 0, ..., 0), at Witt lengths 2..6: nearly every coordinate
    of the sum is derived from zero components."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    degree = 2 if p == 3 else 3
    rs = [_sequence_coord(rng, p, degree) for _ in range(n)]
    y_p = _sequence_coord(rng, p, degree) ** p
    zero = y_p.zero_like()
    return [rs[0].zero_like(), *rs[1:]], [zero, y_p, *[zero] * (n - 2)], p


def as_written(coords):
    """Depth and, per component, level, modulus and terms as written."""
    return [(s.depth, [(c.level, c.coeff_mod, sorted(c.terms.items())) for c in s.comps]) for s in coords]


def as_valued(coords):
    """Depth and, per component, the value in ``lowest_level`` form."""
    return [(s.depth, [lowest_level(c) for c in s.comps]) for s in coords]


def agrees_with_per_index(case, form=as_written) -> bool:
    xs, ys, p = case
    return all(
        form(witt._sequence_op(op, xs, ys, p)) == form(_per_index_op(op, xs, ys, p)) for op in "+*-"
    )


def copied_disagrees(case) -> bool:
    """Does index j copied from index j + 1 without the p-th power (only
    embedded, where index j sits deeper) give another value?"""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TowerElem, "frobenius", lambda c, level: c.embed(max(level, c.level)))
        return not agrees_with_per_index(case, as_valued)


class TestSequenceFrobenius:
    """Plain sequences: one ghost pass per coordinate depth, every lower
    index the Frobenius image of the one above, against the per-index
    loop."""

    @given(case=st.one_of(sequence_operands(), fold_operands()))
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_agrees_with_the_per_index_loop(self, case):
        assert agrees_with_per_index(case)

    def test_the_division_takes_no_frobenius_image_of_a_zero(self, monkeypatch):
        # p5-d100-w101: the folds' coordinates are nearly all zero, and
        # the zero of each index is shared instead of computed
        _, X, _ = generators(5, 3, 100, QUOTIENT)
        ctx = WittCtx(5, 101)
        x = p_seq_minus_p(ctx, X) * WittVec.teichmuller(ctx, X)
        kernel, seen = TowerElem._frobenius_power, []

        def counted(self, *args):
            seen.append(self.is_zero)
            return kernel(self, *args)

        monkeypatch.setattr(TowerElem, "_frobenius_power", counted)
        assert divide_by_p_seq_minus_p(x).steps == 50
        assert seen.count(True) == 0
        assert seen.count(False) > 0  # the counter sees the nonzero images

    def test_negative_control_index_copied_without_the_p_th_power(self):
        find(
            sequence_operands(),
            copied_disagrees,
            settings=settings(database=None, derandomize=True, max_examples=200),
        )

    def test_one_pass_per_coordinate_depth(self, monkeypatch):
        lifted_op, calls = witt._lifted_op, []

        def counted(*args):
            calls.append(args)
            return lifted_op(*args)

        monkeypatch.setattr(witt, "_lifted_op", counted)
        for seed, (p, n) in enumerate(SHAPES):
            rng = random.Random(seed)
            xs, ys = ([_sequence_coord(rng, p, 2 if p == 3 else 3) for _ in range(n)] for _ in "xy")
            depths = accumulate((min(x.depth, y.depth) for x, y in zip(xs, ys)), min)
            calls.clear()
            for op in "+*-":
                witt._sequence_op(op, xs, ys, p)
            assert len(calls) == 3 * len(set(depths))
        # (p-root sequence - p) * w at p = 2, depth 7: the equal depths
        # take one pass, where the per-index loop took eight
        _, X, Y = generators(2, 3, 7, QUOTIENT)
        ctx = WittCtx(2, 4)
        pmp, w = p_seq_minus_p(ctx, X), WittVec(ctx, [X + Y, X * Y, X, Y])
        calls.clear()
        pmp * w
        assert len(calls) == 1

    def test_division_builds_no_sequence_through_init(self, monkeypatch):
        # every sequence the division makes comes from components that are
        # already valid, so only the caller's sequences are validated
        _, X, Y = generators(2, 3, 7, QUOTIENT)
        ctx = WittCtx(2, 4)
        x_vec = p_seq_minus_p(ctx, X) * WittVec(ctx, [X + Y, X * Y, X, Y])
        init, inits = FontaineElem.__init__, []

        def counted(self, *args):
            inits.append(args)
            init(self, *args)

        monkeypatch.setattr(FontaineElem, "__init__", counted)
        assert divide_by_p_seq_minus_p(x_vec).steps == 4
        assert inits == []
        FontaineElem(X.comps, PLAIN)
        assert len(inits) == 1


#: The witt-kernel benchmark's shapes (p, degree, length, depth), with
#: the steps their division takes.
WITT_KERNEL_STEPS = {
    (5, 3, 2, 4): 2, (5, 3, 2, 5): 2, (2, 3, 3, 5): 3, (3, 2, 3, 6): 3, (2, 3, 4, 7): 4
}


class TestNoCompatibilityDecision:
    """A plain sequence is compatible by construction, so neither Witt
    + * - nor the division by (p-root sequence - p) decides one: no
    ``check_compat`` call and no component comparison."""

    @staticmethod
    def spied(monkeypatch, run):
        calls = []
        check_compat, comp_equal = FontaineElem.check_compat, fontaine._comp_equal

        def counted_check(self):
            calls.append("check_compat")
            return check_compat(self)

        def counted_equal(*args):
            calls.append("_comp_equal")
            return comp_equal(*args)

        with monkeypatch.context() as mp:
            mp.setattr(FontaineElem, "check_compat", counted_check)
            mp.setattr(fontaine, "_comp_equal", counted_equal)
            got = run()
        return got, calls

    @pytest.mark.parametrize(
        "shape", sorted(WITT_KERNEL_STEPS), ids="p{0[0]}-w{0[2]}-d{0[3]}".format
    )
    def test_witt_kernel_shapes(self, monkeypatch, shape):
        p, degree, length, depth = shape
        rng = random.Random(sum(shape))
        ctx = WittCtx(p, length)
        w = WittVec(ctx, [random_seq(rng, p, degree, depth) for _ in range(length)])

        def run():
            return divide_by_p_seq_minus_p(p_seq_minus_p(ctx, w.comps[0]) * w).steps

        assert self.spied(monkeypatch, run) == (WITT_KERNEL_STEPS[shape], [])

    def test_the_deepest_report_config(self, monkeypatch):
        # p5-d100-w101: pmp * [X] and its division
        _, X, _ = generators(5, 3, 100, QUOTIENT)
        ctx = WittCtx(5, 101)

        def run():
            x = p_seq_minus_p(ctx, X) * WittVec.teichmuller(ctx, X)
            return divide_by_p_seq_minus_p(x).steps

        assert self.spied(monkeypatch, run) == (50, [])

    def test_positive_control_the_spy_sees_a_decision(self, monkeypatch):
        _, X, _ = generators(5, 3, 2, QUOTIENT)
        want = (True, ["check_compat", "_comp_equal", "_comp_equal"])
        assert self.spied(monkeypatch, lambda: X.check_compat()) == want


@st.composite
def teichmuller_products(draw):
    """[a] and an arbitrary vector over one component kind (integers,
    tower elements over Z, F_p residues or plain sequences), in either
    order, of length 1..4 with many zero coordinates.  A sequence [a]
    sometimes has shallower zero coordinates than a, so that its deep
    indices read coordinate 0 alone."""
    p, n = draw(st.sampled_from(SHAPES))
    degree = 2 if p == 3 else 3
    kind = draw(st.sampled_from(["integer", "Z-tower", "residue", "sequence"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = TowerCtx(p, rng.randint(0, 1), degree, rng.choice([FREE, QUOTIENT]))
    coord = {
        "integer": lambda: rng.choice([0, rng.randint(-9, 9)]),
        "Z-tower": lambda: random_tower(rng, base, terms=2, span=3) * rng.randint(0, 1),
        "residue": lambda: _residue_coord(rng, base),
        "sequence": lambda: _sequence_coord(rng, p, degree),
    }[kind]
    ctx = WittCtx(p, n)
    a, b = coord(), WittVec(ctx, [coord() for _ in range(n)])
    zero = witt._zero_like(a)
    if kind == "sequence" and draw(st.booleans()):
        zero = a.truncate(rng.randint(0, a.depth)).zero_like()
    t = WittVec(ctx, [a] + [zero] * (n - 1))
    return (t, b) if draw(st.booleans()) else (b, t)


def product_agrees(pair) -> bool:
    """x * y against the exact oracle: the ghost map over integers, the
    universal product polynomials over every other kind."""
    x, y = pair
    got = x * y
    if isinstance(x.comps[0], int):
        return ghost(got) == [a * b for a, b in zip(ghost(x), ghost(y))]
    _, prods = witt_polynomials(x.ctx.p, x.ctx.length)
    want = WittVec(x.ctx, [evaluate(poly, x.comps + y.comps) for poly in prods])
    return shape(got) == shape(want)


def untwisted_disagrees(pair) -> bool:
    """Does the closed form without its Frobenius twist, [a] * b =
    (a b_0, a b_1, ...), disagree with the oracle on this pair?"""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witt, "_teichmuller_product", lambda a, bs, p: [a * b for b in bs])
        return not product_agrees(pair)


class TestTeichmullerProduct:
    """[a] * b = (a b_0, a^p b_1, a^(p^2) b_2, ...) against the exact path."""

    @given(pair=teichmuller_products())
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_the_exact_oracle(self, pair):
        assert product_agrees(pair)

    def test_negative_control_without_the_frobenius_twist(self):
        find(
            teichmuller_products(),
            untwisted_disagrees,
            settings=settings(database=None, derandomize=True, max_examples=200),
        )

    def test_runs_no_ghost_recursion(self, monkeypatch):
        rng = random.Random(3)
        base = TowerCtx(3, 1, 2, QUOTIENT)
        ctx = WittCtx(3, 3)
        kinds = [
            [rng.randint(-9, 9) for _ in range(4)],
            [random_tower(rng, base, terms=2, span=3) for _ in range(4)],
            [_residue_coord(rng, base) for _ in range(4)],
            [_sequence_coord(rng, 3, 2) for _ in range(4)],
        ]
        pairs = [(WittVec.teichmuller(ctx, c[0]), WittVec(ctx, c[1:])) for c in kinds]
        want = [(shape(t * b), shape(b * t)) for t, b in pairs]

        def no_recursion(*args):
            raise AssertionError("a Teichmuller product ran the ghost recursion")

        monkeypatch.setattr(witt, "_poly_div_exact", no_recursion)
        assert [(shape(t * b), shape(b * t)) for t, b in pairs] == want
        with pytest.raises(AssertionError, match="ghost recursion"):
            WittVec(ctx, (2, 1, 0)) * WittVec(ctx, (1, 1, 0))  # no Teichmuller operand


class TestSharedPSeqMinusP:
    def test_cached_constant_equals_a_fresh_build(self):
        ctx = WittCtx(5, 2)
        P, X, _ = generators(5, 3, 3, QUOTIENT)
        pmp = p_seq_minus_p(ctx, P)
        assert p_seq_minus_p(ctx, X) is pmp
        assert pmp == witt._p_seq_minus_p.__wrapped__(ctx, 5, 3, 3, QUOTIENT)
        assert all(isinstance(c.comps, tuple) for c in pmp.comps)

    def test_template_levels_do_not_matter(self):
        # a template whose components all sit at the deepest level gives
        # the same value as building p from that template itself
        ctx = WittCtx(5, 2)
        deep = random_seq(random.Random(3), 5, 3, 3)
        P, _, _ = generators(5, 3, 3, QUOTIENT)
        p_one = mul_by_p(WittVec.teichmuller(ctx, deep.one_like()))
        assert p_seq_minus_p(ctx, deep) == WittVec.teichmuller(ctx, P) - p_one


def _reference_division(x):
    """The division's earlier loop, kept as the oracle of its closed
    forms: the theta test at precision 1 first, then per step the fold
    rem - (p-root sequence - p) * [y_k], its division by p at full
    length (a root shift padded with zero), and the quotient as a
    running Witt sum of the increments p^k [y_k]."""
    ctx = x.ctx
    pmp = p_seq_minus_p(ctx, x.comps[0])
    if not witt_theta(x, 1).is_zero:
        raise HypothesisNotMetError("input is not in the kernel even at precision 1")
    w = WittVec.zero(ctx, x.comps[0])
    rem, done = x, 0
    while done < ctx.length:
        head = rem.comps[0]
        if head.depth < 1:
            break
        y = WittVec.teichmuller(ctx, divide_by_p_seq(head))
        incr = y
        for _ in range(done):
            incr = mul_by_p(incr)
        w = w + incr
        done += 1
        if done < ctx.length:
            folded = rem - pmp * y
            if min(c.depth for c in folded.comps) < 1:
                break
            roots = [c.proot() for c in folded.comps[1:]]
            rem = WittVec(ctx, (*roots, roots[-1].zero_like()))
    depth = min(c.depth for c in w.comps) if done else min(c.depth for c in x.comps)
    return witt.SeqDivisionResult(w, done, depth, done < ctx.length)


def division_outcome(divide, x):
    """What a division gives: (steps, depth, exhausted) and the
    quotient's ``shape``, or the arithmetic error it raises."""
    try:
        r = divide(x)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return r.steps, r.depth, r.exhausted, shape(r.quotient)


@st.composite
def division_inputs(draw):
    """A plain vector of length 1..4 whose coordinates have depth 1..4
    and mixed levels, times (p-root sequence - p) or as it is."""
    p, n = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ctx = WittCtx(p, n)
    w = WittVec(ctx, [_sequence_coord(rng, p, 2 if p == 3 else 3, 4) for _ in range(n)])
    return p_seq_minus_p(ctx, w.comps[0]) * w if draw(st.booleans()) else w


class TestClosedFormDivision:
    """One sequence division and one Witt addition per step, against
    the earlier loop."""

    @given(x=division_inputs())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_reference_loop(self, x):
        try:
            want = division_outcome(_reference_division, x)
        except HypothesisNotMetError:
            # outside the kernel: the first sequence division refuses
            # component 0
            with pytest.raises(SequenceDivisionError) as err:
                divide_by_p_seq_minus_p(x)
            assert err.value.index == 0
        else:
            assert division_outcome(divide_by_p_seq_minus_p, x) == want

    def test_negative_control_fold_without_p_times_y(self):
        # with every Witt addition's second operand zeroed, the fold drops
        # p [y_k] and is rem - [r], off by exactly p [y_k]
        rng = random.Random(11)
        cases = []
        for p, degree in ((2, 3), (3, 2)):
            for depth, n in ((4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)):
                _, X, Y = generators(p, degree, depth, QUOTIENT)
                ctx = WittCtx(p, n)
                coords = [X ** rng.randint(1, 3) + Y ** rng.randint(0, 2) for _ in range(n)]
                cases.append(p_seq_minus_p(ctx, X) * WittVec(ctx, coords))
        want = [division_outcome(divide_by_p_seq_minus_p, x) for x in cases]
        ghost_op = witt._ghost_op

        def without_p_times_y(op, xs, ys, p):
            if op == "+":
                ys = tuple(c.zero_like() for c in ys)
            return ghost_op(op, xs, ys, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(witt, "_ghost_op", without_p_times_y)
            got = [division_outcome(divide_by_p_seq_minus_p, x) for x in cases]
        assert all(len(w) == 4 and w[0] >= 2 for w in want)
        assert all(g != w for g, w in zip(got, want))

    def test_one_addition_per_fold_and_no_product(self, monkeypatch):
        _, X, Y = generators(2, 3, 7, QUOTIENT)
        ctx = WittCtx(2, 4)
        x_vec = p_seq_minus_p(ctx, X) * WittVec(ctx, [X + Y, X * Y, X, Y])
        ghost_op, ops, tails = witt._ghost_op, [], []

        def counted(op, xs, ys, p):
            ops.append((op, len(xs), len(ys)))
            tails.append(ys[1:])
            return ghost_op(op, xs, ys, p)

        def no_theta(*args):
            raise AssertionError("the division ran witt_theta")

        monkeypatch.setattr(witt, "_ghost_op", counted)
        monkeypatch.setattr(witt, "witt_theta", no_theta)
        assert divide_by_p_seq_minus_p(x_vec).steps == 4
        # three folds rem' + [y_k^p], each a coordinate shorter than the
        # remainder, and no closing roundtrip: the callers multiply the
        # quotient back
        assert ops == [("+", 3, 3), ("+", 2, 2), ("+", 1, 1)]
        # the second operand is the Teichmuller vector [y_k^p]
        assert all(c.is_zero for tail in tails for c in tail)

    def test_the_fold_keeps_the_levels_of_a_deeper_head(self):
        # coordinate 0 (zero) is written deeper than coordinate 1 at
        # index 1: the fold's sum is written at rem's levels there, and
        # the second step refuses PI_5^16 = PI_4^8 = PI_1, which reads the
        # same at every level: its lowest one, (1, 0, 0) at level 1
        P, _, _ = generators(2, 3, 4, QUOTIENT)
        head = FontaineElem([c.embed(lv) for c, lv in zip(P.zero_like().comps, (5, 5, 4, 4, 4))])
        tail = FontaineElem([c.embed(lv) for c, lv in zip(P.comps, (1, 2, 3, 4, 4))])
        x = WittVec(WittCtx(2, 2), [head, tail])
        want = ("SequenceDivisionError", "component 0 is not divisible (monomial (1, 0, 0))")
        assert division_outcome(_reference_division, x) == want
        assert division_outcome(divide_by_p_seq_minus_p, x) == want

    def test_runs_no_frobenius_and_no_verschiebung(self, monkeypatch):
        _, X, Y = generators(3, 2, 6, QUOTIENT)
        ctx = WittCtx(3, 3)
        x_vec = p_seq_minus_p(ctx, X) * WittVec(ctx, [X * Y, X, Y])
        want = division_outcome(divide_by_p_seq_minus_p, x_vec)

        def refuse(*args):
            raise AssertionError("the division ran a Witt Frobenius or Verschiebung")

        for name in ("mul_by_p", "verschiebung", "witt_frobenius"):
            monkeypatch.setattr(witt, name, refuse)
        assert division_outcome(divide_by_p_seq_minus_p, x_vec) == want
        assert want[0] == 3


class TestRefusalUpFront:
    """Each coordinate that is not a plain sequence is refused before any
    division runs, by the index the caller gave it and with the Witt
    layer's own message, at every length: the folds number the remainder
    from 0, so a refusal inside the first one would name coordinate
    i - 1.  An incompatible plain sequence cannot be built."""

    @staticmethod
    def _vector(n, index, bad):
        # (p-root sequence - p) * w with coordinate ``index`` made bad
        _, X, Y = generators(5, 3, 5, QUOTIENT)
        ctx = WittCtx(5, n)
        comps = list((p_seq_minus_p(ctx, X) * WittVec(ctx, [X, Y, X * Y][:n])).comps)
        comps[index] = bad(comps[index])
        return WittVec(ctx, comps)

    @pytest.mark.parametrize("n, index", [(1, 0), (3, 0), (3, 1), (3, 2)])
    def test_refuses_a_certified_coordinate(self, n, index):
        x = self._vector(n, index, lambda c: FontaineElem(c.comps, CERTIFIED))
        runs = "Witt + * - run over integers, tower elements over Z, residues mod p and plain sequences"
        with pytest.raises(ValueError) as err:
            divide_by_p_seq_minus_p(x)
        assert str(err.value) == f"coordinate {index} is a certified sequence: {runs}"

    @pytest.mark.parametrize("n", [1, 3])
    def test_positive_control_the_plain_vector_divides(self, n):
        assert divide_by_p_seq_minus_p(self._vector(n, 0, lambda c: c)).steps == n


class TestFoldClosedForms:
    """The closed forms the division's fold rests on, over plain
    sequences: p [y] = VF [y] = (0, y^p, 0, ...), the root shift
    inverts p, and a sum's first k coordinates read only the first k
    coordinates of its operands."""

    def test_p_times_teichmuller_is_y_p_at_coordinate_1(self):
        rng = random.Random(5)
        for p, n in ((2, 2), (2, 4), (3, 3), (5, 2)):
            ctx = WittCtx(p, n)
            y = _sequence_coord(rng, p, 2 if p == 3 else 3)
            tau = WittVec.teichmuller(ctx, y)
            summed = WittVec.zero(ctx, y)
            for _ in range(p):
                summed = summed + tau
            zero = y.zero_like()
            closed = WittVec(ctx, (zero, y**p, *[zero] * (n - 2)))
            assert shape(summed) == shape(closed) == shape(mul_by_p(tau))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_root_shift_inverts_p(self, p):
        rng = random.Random(p)
        n = 4 if p < 5 else 3
        degree = 2 if p == 3 else 3
        v = WittVec(WittCtx(p, n), [_sequence_coord(rng, p, degree, 4) for _ in range(n)])
        times_p = mul_by_p(v)
        assert times_p.comps[0].is_zero
        roots = [c.proot() for c in times_p.comps[1:]]
        for root, c in zip(roots, v.comps):
            assert root.equals(c.truncate(c.depth - 1))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shifted_sum_is_the_shift_of_the_sum(self, p):
        # (0, u_0, ...) + (0, b, 0, ...) = V(u + [b]): the fold's V(rem') +
        # V[y^p]; [b] left unshifted, V(u) + [b], is the negative control
        rng = random.Random(100 + p)
        degree = 2 if p == 3 else 3
        for n in (2, 3, 4):
            ctx = WittCtx(p, n)
            u = WittVec(ctx, [_sequence_coord(rng, p, degree, 4) for _ in range(n)])
            b = generators(p, degree, rng.randint(1, 4), QUOTIENT)[rng.randint(1, 2)]
            b = b ** rng.randint(1, 3)
            zero = b.zero_like()
            shifted_b = WittVec(ctx, (zero, b, *[zero] * (n - 2)))
            tau_b = WittVec.teichmuller(ctx, b)
            want = shape(verschiebung(u + tau_b))
            assert shape(verschiebung(u) + shifted_b) == want
            assert shape(verschiebung(u) + tau_b) != want

    @given(pair=witt_pairs())
    @settings(max_examples=40, deadline=None)
    def test_truncated_operands_give_the_truncated_result(self, pair):
        x, y = pair
        full = shapes(witt_ops(x, y))
        for k in range(1, x.ctx.length + 1):
            sub = WittCtx(x.ctx.p, k)
            cut = shapes(witt_ops(WittVec(sub, x.comps[:k]), WittVec(sub, y.comps[:k])))
            assert cut == [s[:k] for s in full]


#: sha256 of report.elem_to_json over the quotient components of
#: divide_by_p_seq_minus_p((p-root sequence - p) * w), with w made of
#: the sequences x + y, x * y, x, y cut to the Witt length, per
#: (p, degree, length, depth).  Quotient coordinate k is y_k^(p^k),
#: written at the levels of the sequence-division quotient y_k; in
#: ``lowest_level`` form it is what the earlier Witt-sum loop gave
#: (``test_agrees_with_the_reference_loop``).
WITT_PATH_DIGESTS = {
    (5, 3, 2, 4): "487faf950f248f4cdd207f800c993007e8640a3842b17f570572a0cd6762ae2a",
    (2, 3, 4, 7): "0fd86d3a77049fe00d4777d20df8d8bfd8d5f34402b25763cf17079e3cc27f7b",
    (3, 2, 3, 6): "d59f46a922d5c387b0420eea759a94509c159dd3be8fa4986022b220db0f7e45",
    (7, 3, 2, 3): "6f88ef497c63542cd5042a89caf87bfa3038a230d1b1aeed8311bcb58abdd5f4",
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
