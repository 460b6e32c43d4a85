"""Acceptance criteria, one test per criterion, each printing a
pass/fail line with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import pytest

from rootclose import closure, fontaine, report, tower, valuation, witt
from rootclose.closure import ClosureCert, LocalElem
from rootclose.fontaine import CERTIFIED
from rootclose.invariants import random_seq
from rootclose.tower import QUOTIENT, ResidueElem, TowerCtx, TowerElem


def _announce(num: int, name: str, started: float, limit: float, extra: str = ""):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} overran its {limit}s budget ({elapsed:.1f}s)"
    suffix = f", {extra}" if extra else ""
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s < {limit:.0f}s{suffix})")


def test_criterion_1_binomial_valuation_exhaustive():
    started = time.perf_counter()
    cases = 0
    for p in (2, 3, 5):
        top = 4 if p == 5 else 5
        for m in range(top + 1):
            for i in range(1, p**m + 1):
                want = valuation.vp(p, math.comb(p**m, i))
                got = valuation.binom_valuation(p, m, i)
                assert got == want, f"mismatch at p={p}, m={m}, i={i}"
                cases += 1
    _announce(1, "binomial-valuation-exhaustive", started, 10, f"{cases} cases")


def test_criterion_2_closure_addition_bound():
    started = time.perf_counter()
    ctx = TowerCtx(2, 1, 3, QUOTIENT)
    piv = TowerElem.monomial(ctx, 1, 0, 0)
    # the only degree-3 shape whose square cancels mod 2 under the
    # quotient rewrite: genuine exponent-1 members live on this coset
    cubes = TowerElem(ctx, {(0, 3, 0): 1, (0, 0, 3): 1})
    rng = random.Random(20)

    def certified_sample():
        # PI*g + e*(X^3+Y^3) + 2*h over PI: denominator 1, exponent <= 1,
        # with e = 1 forcing a genuine exponent-1 certificate
        def small():
            return TowerElem(
                ctx,
                {
                    (rng.randrange(2), rng.randrange(4), rng.randrange(4)): rng.randint(-7, 7)
                    for _ in range(rng.randint(1, 3))
                },
            )

        e = rng.randrange(2)
        num = piv * small() + e * cubes + 2 * small()
        got = closure.membership(LocalElem(num, 1), 1)
        return got if isinstance(got, ClosureCert) else None

    pairs = 0
    worst = 0
    genuine = 0
    while pairs < 100:
        s, t = certified_sample(), certified_sample()
        if s is None or t is None:
            continue
        assert max(s.m, t.m) <= 1 and max(s.elem.denom_exp, t.elem.denom_exp) <= 1
        genuine += (s.m == 1) + (t.m == 1)
        summed = closure.closure_add(s, t)  # raises on any internal bound failure
        assert summed.m <= 5, f"certificate exponent {summed.m} above the proved bound"
        assert closure.validate_cert(summed)
        worst = max(worst, summed.m)
        pairs += 1
    assert genuine >= 20, "sample family failed to produce exponent-1 certificates"
    _announce(
        2, "closure-addition-bound-p2", started, 30,
        f"{pairs} pairs ({genuine} exponent-1 members), worst m={worst}",
    )


def test_criterion_3_witt_ghost_oracle_and_order():
    started = time.perf_counter()
    rng = random.Random(21)
    vectors = 0
    for p, n in ((2, 3), (3, 3), (5, 2)):
        ctx = witt.WittCtx(p, n)
        for _ in range(70):
            x = witt.WittVec(ctx, [rng.randint(-50, 50) for _ in range(n)])
            y = witt.WittVec(ctx, [rng.randint(-50, 50) for _ in range(n)])
            gx, gy = witt.ghost(x), witt.ghost(y)
            assert witt.ghost(x + y) == [a + b for a, b in zip(gx, gy)]
            assert witt.ghost(x * y) == [a * b for a, b in zip(gx, gy)]
            vectors += 1
        # additive order of 1 over the p-element field is exactly p^n
        base = TowerCtx(p, 0, 1, tower.FREE)
        one = witt.WittVec.teichmuller(ctx, TowerElem.integer(base, 1, coeff_mod=p))
        acc = witt.WittVec.zero(ctx, one.comps[0])
        order = None
        for k in range(1, p**n + 1):
            acc = acc + one
            if acc.is_zero:
                order = k
                break
        assert order == p**n, f"additive order {order} != {p**n} at (p,n)=({p},{n})"
    assert vectors >= 200
    _announce(3, "witt-ghost-oracle", started, 60, f"{vectors} vectors")


def test_criterion_4_example_suite():
    started = time.perf_counter()
    cfg = report.Config(p=5, depth=3, witt_length=2, timestamp=False)
    rep = report.run_example_suite(cfg)
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses == {
        "sequence_compatibility": "pass",
        "base_residue_vanishes": "pass",
        "plain_division_fails": "pass",
        "closure_certificates": "pass",
        "certified_division": "pass",
        "witt_division_roundtrip": "pass",
    }

    # (a) the base residue of the cube sum vanishes exactly
    P, X, Y = fontaine.generators(5, 3, 3, QUOTIENT)
    eta = P**3 + X**3 + Y**3
    assert fontaine.base_residue(eta).is_zero

    # (b) plain division fails at component 1, and the independent
    # polynomial non-divisibility check agrees
    with pytest.raises(fontaine.SequenceDivisionError) as err:
        fontaine.divide_by_p_seq(eta)
    assert err.value.index == 1
    free1 = TowerCtx(5, 1, 3, tower.FREE)
    low = ResidueElem(free1, {(0, 3, 0): 1, (0, 0, 3): 1})
    relation = ResidueElem(free1, {(0, 15, 0): 1, (0, 0, 15): 1})
    divides, _ = tower.poly_divides(relation, low)
    assert not divides

    # (c) closure certificates for the level-1 and level-2 quotients at
    # exponents 1 and 2, re-validated from scratch: the report records
    # the exponents, and the elements are u_n / PI, rebuilt here
    by_name = {c.name: c for c in rep.checks}
    exponents = by_name["closure_certificates"].details["exponents"]
    assert exponents == [1, 2]
    for n, m in enumerate(exponents, 1):
        u_n = TowerElem(TowerCtx(5, n, 3, QUOTIENT), {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        assert closure.validate_cert(ClosureCert(LocalElem(u_n, 1), m))

    # (d) certified division returns a quotient with product equal to the
    # input at depth 2; every congruence check is determined at m_max 5
    eta_c = fontaine.FontaineElem(eta.comps, CERTIFIED)
    quotient, factors = fontaine.divide_by_p_seq_traced(eta_c)
    assert quotient.depth == 2
    assert [0 if c is None else c.m for c in factors] == [0, 1, 2, 3]
    assert quotient.check_compat()
    P_short = P.truncate(2)
    assert (P_short * quotient).equals(eta.truncate(2), m_max=5)

    # every factor exponent in the report certifies the factor the
    # division found, decided from scratch
    assert by_name["certified_division"].details["factor_exponents"] == [0, 1, 2, 3]
    for c in factors[1:]:
        assert closure.validate_cert(ClosureCert(c.elem, c.m))
    _announce(4, "worked-example-suite", started, 120)


def _verify_kernel_roundtrip(ctx, w):
    pmp = witt.p_seq_minus_p(ctx, w.comps[0])
    x_vec = pmp * w
    # achievable precision: capped by the Witt length and by depth
    precision = min(
        ctx.length, min(c.depth - i for i, c in enumerate(x_vec.comps)) + 1
    )
    assert witt.witt_theta(x_vec, precision).is_zero
    result = witt.divide_by_p_seq_minus_p(x_vec)
    # re-verify the product agreement at the achieved precision
    product = pmp * result.quotient
    for i in range(result.steps):
        d = min(product.comps[i].depth, x_vec.comps[i].depth, result.depth)
        assert product.comps[i].truncate(d).equals(x_vec.comps[i].truncate(d))
    return result


def test_criterion_5_kernel_division_roundtrip():
    started = time.perf_counter()
    rng = random.Random(22)
    runs = []
    ctx2 = witt.WittCtx(5, 2)
    for _ in range(20):
        w = witt.WittVec(ctx2, [random_seq(rng, 5, 3, 4) for _ in range(2)])
        runs.append((5, _verify_kernel_roundtrip(ctx2, w)))
    for p, degree in ((2, 3), (3, 2)):
        ctx3 = witt.WittCtx(p, 3)
        for _ in range(10):
            w = witt.WittVec(ctx3, [random_seq(rng, p, degree, 6) for _ in range(3)])
            runs.append((p, _verify_kernel_roundtrip(ctx3, w)))
    assert all(r.steps == 2 for p, r in runs if p == 5)
    assert all(r.steps == 3 for p, r in runs if p != 5)
    _announce(5, "kernel-division-roundtrip", started, 120, f"{len(runs)} roundtrips")


def test_criterion_6_negative_control():
    started = time.perf_counter()
    P, X, Y = fontaine.generators(5, 3, 3, QUOTIENT)
    eta = P**3 + X**3 + Y**3
    ctx = witt.WittCtx(5, 2)
    tau_eta = witt.WittVec.teichmuller(ctx, eta)
    with pytest.raises(fontaine.SequenceDivisionError) as err:
        witt.divide_by_p_seq_minus_p(tau_eta)
    assert err.value.index == 1
    _announce(6, "plain-mode-negative-control", started, 10)
