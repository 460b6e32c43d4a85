import random

import pytest

from rootclose.closure import LocalElem
from rootclose.fontaine import (
    CERTIFIED,
    PLAIN,
    CertComponent,
    DepthExhaustedError,
    FontaineElem,
    PrecisionError,
    SequenceDivisionError,
    UndeterminedCongruenceError,
    base_residue,
    divide_by_p_seq,
    divide_by_p_seq_traced,
    generators,
    theta,
)
from rootclose.tower import QUOTIENT, ResidueElem, TowerCtx, TowerElem


def gens(depth=3, closure=PLAIN):
    return generators(5, 3, depth, QUOTIENT, closure)


def cube_sum(depth=3, closure=PLAIN):
    P, X, Y = gens(depth, closure)
    return P**3 + X**3 + Y**3


def random_seq(rng, p=5, degree=3, depth=2, level=None):
    level = depth if level is None else level
    ctx = TowerCtx(p, level, degree, QUOTIENT)
    seed = ResidueElem.monomial(
        ctx, rng.randrange(ctx.pi_order), rng.randrange(3), rng.randrange(3),
        rng.randint(1, p - 1),
    )
    return FontaineElem([seed ** (p ** (depth - i)) for i in range(depth + 1)], PLAIN)


class TestCompat:
    def test_generators_are_compatible(self):
        for g in gens():
            assert g.check_compat()

    def test_cube_sum_is_compatible(self):
        assert cube_sum().check_compat()

    def test_incompatible_pair(self):
        ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
        ctx1 = TowerCtx(5, 1, 3, QUOTIENT)
        e = FontaineElem(
            [ResidueElem.monomial(ctx0, 0, 1, 0), ResidueElem.monomial(ctx1, 0, 0, 1)]
        )
        assert not e.check_compat()

    def test_generator_components(self):
        P, X, _ = gens()
        assert base_residue(P).is_zero  # level-0 residue of p
        assert base_residue(X) == ResidueElem.monomial(TowerCtx(5, 0, 3, QUOTIENT), 0, 1, 0)

    def test_constructor_can_enforce_compat(self):
        ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
        ctx1 = TowerCtx(5, 1, 3, QUOTIENT)
        with pytest.raises(ValueError):
            FontaineElem(
                [ResidueElem.monomial(ctx0, 0, 1, 0), ResidueElem.monomial(ctx1, 0, 0, 1)],
                check=True,
            )

    def test_level_below_index_rejected(self):
        ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
        with pytest.raises(ValueError):
            FontaineElem([ResidueElem.zero(ctx0), ResidueElem.zero(ctx0)])

    def test_plain_mode_rejects_z_component(self):
        ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
        with pytest.raises(ValueError):
            FontaineElem([TowerElem.monomial(ctx0, 0, 1, 0)], PLAIN)

    def test_only_residues_mod_p_are_residue_components(self):
        ctx0 = TowerCtx(5, 0, 3, QUOTIENT)
        for mode in (PLAIN, CERTIFIED):
            with pytest.raises(ValueError):
                FontaineElem([TowerElem.monomial(ctx0, 0, 1, 0, coeff_mod=25)], mode)


class TestRingOps:
    def test_proot_inverts_frobenius(self):
        e = cube_sum()
        assert e.frobenius().proot().equals(e.truncate(e.depth - 1))

    def test_frobenius_matches_repeated_mul(self):
        P, _, _ = gens()
        by_mul = P * P * P * P * P
        assert P.frobenius().equals(by_mul)

    def test_mul_with_shifted(self):
        P, _, _ = gens()
        prod = P * P.proot()
        # component n is the product of the roots at slots n and n+1
        for n in range(prod.depth + 1):
            ctx = TowerCtx(5, n + 1, 3, QUOTIENT)
            assert prod.residue(n) == ResidueElem.monomial(ctx, 6, 0, 0)

    def test_proot_consumes_depth(self):
        P, _, _ = gens(1)
        with pytest.raises(DepthExhaustedError):
            P.proot().proot()

    def test_int_coercion(self):
        _, X, _ = gens()
        assert (2 * X + 3 * X).equals(5 * X)
        assert (X + 0).equals(X)

    def test_constant_sequences_are_compatible(self):
        _, X, _ = gens()
        assert X.from_int(7).check_compat()


class TestBaseResidue:
    def test_cube_sum_maps_to_zero(self):
        assert base_residue(cube_sum()).is_zero

    def test_p_sequence_maps_to_zero(self):
        P, _, _ = gens()
        assert base_residue(P).is_zero

    def test_x_sequence(self):
        _, X, _ = gens()
        got = base_residue(X)
        assert got == ResidueElem.monomial(TowerCtx(5, 0, 3, QUOTIENT), 0, 1, 0)

    def test_is_multiplicative_and_additive(self):
        rng = random.Random(5)
        for _ in range(10):
            a = random_seq(rng)
            b = random_seq(rng)
            assert base_residue(a * b) == base_residue(a) * base_residue(b)
            assert base_residue(a + b) == base_residue(a) + base_residue(b)


class TestTheta:
    def test_p_sequence_gives_p(self):
        P, _, _ = gens()
        for k in (1, 2, 3):
            got = theta(P, k)
            assert got == TowerElem.integer(got.ctx, 5, 5**k)

    def test_x_sequence_is_exact(self):
        _, X, _ = gens()
        got = theta(X, 2)
        assert got == TowerElem.monomial(got.ctx, 0, 5**3, 0, coeff_mod=25)

    def test_zero_sequence(self):
        P, _, _ = gens()
        assert theta(P.zero_like(), 2).is_zero

    def test_precision_cap(self):
        P, _, _ = gens(2)
        with pytest.raises(PrecisionError):
            theta(P, 4)

    def test_multiplicative(self):
        rng = random.Random(6)
        for _ in range(6):
            a = random_seq(rng)
            b = random_seq(rng)
            assert theta(a * b, 2) == theta(a, 2) * theta(b, 2)

    def test_lift_independent(self):
        rng = random.Random(7)
        for _ in range(6):
            a = random_seq(rng)
            base = theta(a, 2)
            last = a.residue(a.depth)
            junk = TowerElem(last.ctx, {(1, 1, 0): rng.randint(1, 9)})
            other_lift = last.lift() + 5 * junk
            alt = other_lift.pow_mod(5**a.depth, 25)
            assert base == alt

    def test_padic_precision_mismatch_rejected(self):
        P, _, _ = gens()
        with pytest.raises(ValueError):
            theta(P, 1) + theta(P, 2)


class TestDivision:
    def test_exact_factor(self):
        P, X, _ = gens()
        e = P * X
        got = divide_by_p_seq(e)
        assert got.equals(X.truncate(X.depth - 1))

    def test_cube_sum_fails_plain(self):
        with pytest.raises(SequenceDivisionError) as err:
            divide_by_p_seq(cube_sum(closure=PLAIN))
        assert err.value.index == 1
        assert err.value.monomial in ((0, 0, 3), (0, 3, 0))  # a unit X- or Y-cube

    def test_nonzero_base_residue_fails_at_zero(self):
        _, X, _ = gens()
        with pytest.raises(SequenceDivisionError) as err:
            divide_by_p_seq(X)
        assert err.value.index == 0

    def test_cube_sum_divides_with_certificates(self):
        eta = cube_sum(closure=CERTIFIED)
        quotient, trace = divide_by_p_seq_traced(eta, 5)
        assert quotient.depth == eta.depth - 1
        assert [f["cert"].m for f in trace["factors"] if f["kind"] == "certified"] == [1, 2, 3]
        assert all(chk["cert"].m == 0 for chk in trace["compat"] if "cert" in chk)
        P, _, _ = gens(closure=CERTIFIED)
        assert (P.truncate(2) * quotient).equals(eta.truncate(2), m_max=5)

    def test_quotient_components_carry_certs(self):
        eta = cube_sum(closure=CERTIFIED)
        quotient = divide_by_p_seq(eta, 5)
        for comp in quotient.comps:
            assert isinstance(comp, CertComponent)
            assert comp.cert is not None

    def test_certified_division_at_deep_levels(self):
        # components represented above their canonical level still factor
        eta = cube_sum()
        deep = FontaineElem([c.embed(3) for c in eta.comps], CERTIFIED)
        quotient, trace = divide_by_p_seq_traced(deep, 5)
        assert [f["cert"].m for f in trace["factors"] if f["kind"] == "certified"] == [1, 2, 3]
        P, _, _ = gens(closure=CERTIFIED)
        P_deep = FontaineElem([c.embed(3) for c in P.comps], CERTIFIED)
        assert (P_deep.truncate(2) * quotient).equals(deep.truncate(2), m_max=5)

    def test_roundtrip_on_random_products(self):
        rng = random.Random(9)
        P, _, _ = gens(2)
        for _ in range(8):
            s = random_seq(rng, depth=2)
            e = P * s
            assert base_residue(e).is_zero
            t = divide_by_p_seq(e)
            assert (P.truncate(1) * t).equals(e.truncate(1))

    def test_depth_zero_rejected(self):
        P, _, _ = gens(0)
        with pytest.raises(DepthExhaustedError):
            divide_by_p_seq(P)


class TestUndetermined:
    def test_certified_equality_can_exhaust(self):
        ctx = TowerCtx(5, 1, 3, QUOTIENT)
        u = TowerElem(ctx, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        a = FontaineElem([CertComponent(LocalElem(u, 1))], CERTIFIED)
        b = FontaineElem([CertComponent(LocalElem.zero(ctx))], CERTIFIED)
        with pytest.raises(UndeterminedCongruenceError):
            a.equals(b, m_max=1)

    def test_undetermined_names_its_component(self):
        ctx0, ctx1 = TowerCtx(5, 0, 3, QUOTIENT), TowerCtx(5, 1, 3, QUOTIENT)
        u = TowerElem(ctx1, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        a = FontaineElem([ResidueElem.zero(ctx0), CertComponent(LocalElem(u, 1))], CERTIFIED)
        with pytest.raises(UndeterminedCongruenceError) as err:
            a.equals(a.zero_like(), m_max=1)
        assert err.value.index == 1
        with pytest.raises(UndeterminedCongruenceError) as err:
            a.is_zero
        assert err.value.index == 1
