"""Randomized invariants for every layer, defined once.

Each is ``fn(rng) -> details`` (a JSON-ready dict; ``"_status": FAIL``
marks a violation).  ``rootclose props`` runs the ordered ``INVARIANTS``
table on one shared generator, so the table order and the order of the
draws fix the samples of a seed; the tests run each entry on its own.
"""

from __future__ import annotations

import math
import operator
import random
from functools import reduce

from . import closure, fontaine, tower, valuation, witt
from .closure import ClosureCert, LocalElem, NotMember
from .fontaine import PLAIN, FontaineElem
from .tower import FREE, QUOTIENT, TowerCtx, TowerElem

FAIL = "fail"


def random_tower(rng: random.Random, ctx: TowerCtx, terms: int = 3, span: int = 5) -> TowerElem:
    out = {}
    for _ in range(rng.randint(1, terms)):
        key = (rng.randrange(span), rng.randrange(span), rng.randrange(span))
        out[key] = rng.randint(-9, 9)
    return TowerElem(ctx, out)


def random_seq(rng: random.Random, p: int, degree: int, depth: int) -> FontaineElem:
    """The compatible sequence of p-power roots of a random F_p monomial
    at level ``depth`` of the quotient tower."""
    ctx = TowerCtx(p, depth, degree, QUOTIENT)
    a, b, c = rng.randrange(ctx.pi_order), rng.randrange(3), rng.randrange(3)
    seed = TowerElem.monomial(ctx, a, b, c, rng.randint(1, p - 1), coeff_mod=p)
    return FontaineElem([seed ** (p ** (depth - i)) for i in range(depth + 1)], PLAIN)


def valuation_rule(rng: random.Random) -> dict:
    count = 0
    for p in (2, 3, 5):
        for m in range(4):
            for i in range(1, p**m + 1):
                want = valuation.vp(p, math.comb(p**m, i))
                if valuation.binom_valuation(p, m, i) != want:
                    return {"_status": FAIL, "p": p, "m": m, "i": i}
                count += 1
    return {"cases": count}


def valuation_products(rng: random.Random) -> dict:
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        if valuation.vp(p, a * b) != valuation.vp(p, a) + valuation.vp(p, b):
            return {"_status": FAIL, "p": p, "a": a, "b": b}
    return {"cases": 200}


def ring_axioms(rng: random.Random) -> dict:
    for p, level, degree in ((2, 1, 3), (5, 1, 3), (3, 2, 2)):
        ctx = TowerCtx(p, level, degree, QUOTIENT)
        for _ in range(20):
            a = random_tower(rng, ctx)
            b = random_tower(rng, ctx)
            c = random_tower(rng, ctx)
            if (a + b) + c != a + (b + c) or a + b != b + a:
                return {"_status": FAIL, "p": p}
            if a * (b + c) != a * b + a * c or a * b != b * a:
                return {"_status": FAIL, "p": p}
    return {"cases": 60}


def embed_hom(rng: random.Random) -> dict:
    ctx = TowerCtx(5, 1, 3, QUOTIENT)
    for _ in range(25):
        a = random_tower(rng, ctx)
        b = random_tower(rng, ctx)
        a2, b2 = a.embed(2), b.embed(2)
        if (a * b).embed(2) != a2 * b2 or (a + b).embed(2) != a2 + b2:
            return {"_status": FAIL}
    return {"cases": 25}


def pi_roundtrip(rng: random.Random) -> dict:
    for p, level in ((2, 1), (5, 1), (5, 2)):
        ctx = TowerCtx(p, level, 3, QUOTIENT)
        piv = TowerElem.monomial(ctx, 1, 0, 0)
        for _ in range(15):
            e = random_tower(rng, ctx)
            if (piv * e).pi_divide(1) != e:
                return {"_status": FAIL, "p": p, "level": level}
    return {"cases": 45}


def frobenius_additive(rng: random.Random) -> dict:
    ctx = TowerCtx(5, 1, 3, QUOTIENT)
    for _ in range(20):
        a = random_tower(rng, ctx).reduce_mod_p()
        b = random_tower(rng, ctx).reduce_mod_p()
        if (a + b).frobenius() != a.frobenius() + b.frobenius():
            return {"_status": FAIL}
        # the termwise p-th power against the product kernel
        for x in (a, b):
            if x.frobenius() != reduce(operator.mul, [x] * ctx.p):
                return {"_status": FAIL, "oracle": "p-fold product"}
    return {"cases": 20}


def relation_dies(rng: random.Random) -> dict:
    for level in (0, 1, 2):
        ctx = TowerCtx(5, level, 3, QUOTIENT)
        pn = ctx.pi_order
        e = TowerElem(ctx, {(3 * pn, 0, 0): 1, (0, 3 * pn, 0): 1, (0, 0, 3 * pn): 1})
        if not e.reduce_mod_p().is_zero:
            return {"_status": FAIL, "level": level}
    return {"cases": 3}


def _certified_at_p2(rng: random.Random, ctx: TowerCtx, cubes: TowerElem) -> ClosureCert | None:
    g = random_tower(rng, ctx, terms=2, span=3)
    h = random_tower(rng, ctx, terms=2, span=3)
    num = TowerElem.monomial(ctx, 1, 0, 0) * g + rng.randrange(2) * cubes + 2 * h
    got = closure.membership(LocalElem(num, 1), 1)
    return got if isinstance(got, ClosureCert) else None


def closure_bound(rng: random.Random) -> dict:
    ctx = TowerCtx(2, 1, 3, QUOTIENT)
    cubes = TowerElem(ctx, {(0, 3, 0): 1, (0, 0, 3): 1})
    pairs = 0
    worst = 0
    for _ in range(30):
        s = _certified_at_p2(rng, ctx, cubes)
        t = _certified_at_p2(rng, ctx, cubes)
        if s is None or t is None:
            continue
        cert = closure.closure_add(s, t)
        worst = max(worst, cert.m)
        if cert.m > 5 or not closure.validate_cert(cert):
            return {"_status": FAIL, "m": cert.m}
        pairs += 1
    return {"pairs": pairs, "worst_m": worst}


def closure_monotone(rng: random.Random) -> dict:
    # num + (PI^3 + X^3 + Y^3) / PI needs m = 1 at p = 2, level 1
    p = 2
    ctx = TowerCtx(p, 1, 3, QUOTIENT)
    pi = TowerElem.monomial(ctx, 1, 0, 0)
    cubes = TowerElem(ctx, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    checked = top = 0
    for _ in range(20):
        num = random_tower(rng, ctx, terms=2, span=4)
        c = LocalElem(num * pi + cubes, 1)
        got = closure.membership(c, 3)
        if isinstance(got, NotMember):
            continue
        # the smallest exponent is stable under a larger search bound
        if closure.membership(c, got.m + 1).m != got.m:
            return {"_status": FAIL, "m": got.m}
        # succeed at m implies succeed at m+1 (k = p), and power stability
        for k in (p, 3, 5):
            try:
                (c.num ** (k * p**got.m)).pi_divide(c.denom_exp * k * p**got.m)
            except tower.NotDivisibleError:
                return {"_status": FAIL, "m": got.m, "k": k}
        checked += 1
        top = max(top, got.m)
    if checked < 5 or top < 1:
        return {"_status": FAIL, "cases": checked, "max_m": top}
    return {"cases": checked}


_WITT_OPS = {"add": operator.add, "mul": operator.mul, "sub": operator.sub}


def _random_witt(rng: random.Random, ctx: witt.WittCtx) -> witt.WittVec:
    return witt.WittVec(ctx, [rng.randint(-9, 9) for _ in range(ctx.length)])


def _witt_violation(x: witt.WittVec, y: witt.WittVec, results: dict) -> dict | None:
    """The first of ``results`` (op name -> the computed x op y over the
    integers) that fails a check, or None.  Exact path: the ghost map is
    a ring map W(Z) -> Z^n, so ghost(x op y) = ghost(x) op ghost(y).
    F_p chain path: reduction mod p is a ring map W(Z) -> W(F_p), so
    (x mod p) op (y mod p) = (x op y) mod p coordinatewise."""
    p = x.ctx.p
    fp = tower.context(p, 0, 1, FREE)

    def mod_p(v):
        return witt.WittVec(v.ctx, [TowerElem.integer(fp, c, p) for c in v.comps])

    gx, gy, xp, yp = witt.ghost(x), witt.ghost(y), mod_p(x), mod_p(y)
    for op, got in results.items():
        fn = _WITT_OPS[op]
        if witt.ghost(got) != [fn(a, b) for a, b in zip(gx, gy)]:
            return {"p": p, "op": op}
        if fn(xp, yp) != mod_p(got):
            return {"p": p, "op": op, "path": "mod p"}
    return None


def witt_ghost(rng: random.Random) -> dict:
    """Witt + * - over the integers, checked by ``_witt_violation``."""
    for p, n in ((2, 3), (3, 3), (5, 2)):
        ctx = witt.WittCtx(p, n)
        for _ in range(30):
            x, y = _random_witt(rng, ctx), _random_witt(rng, ctx)
            bad = _witt_violation(x, y, {op: fn(x, y) for op, fn in _WITT_OPS.items()})
            if bad:
                return {"_status": FAIL, **bad}
    return {"cases": 90}


def witt_ghost_negative(rng: random.Random) -> dict:
    # a sum with coordinate 1 moved by 1: the check of witt_ghost must
    # notice (negative control for the check itself)
    ctx = witt.WittCtx(2, 3)
    x, y = _random_witt(rng, ctx), _random_witt(rng, ctx)
    s = (x + y).comps
    if _witt_violation(x, y, {"add": witt.WittVec(ctx, (s[0], s[1] + 1, s[2]))}):
        return {"detected": True}
    return {"_status": FAIL, "error": "a moved sum coordinate went unnoticed"}


def witt_order(rng: random.Random) -> dict:
    for p, n in ((2, 3), (3, 3), (5, 2)):
        ctx = witt.WittCtx(p, n)
        base = TowerCtx(p, 0, 1, FREE)
        one = witt.WittVec.teichmuller(ctx, TowerElem.integer(base, 1, p))
        acc = witt.WittVec.zero(ctx, one.comps[0])
        order = 0
        for k in range(1, p**n + 1):
            acc = acc + one
            if acc.is_zero:
                order = k
                break
        if order != p**n:
            return {"_status": FAIL, "p": p, "n": n, "order": order}
    return {"cases": 3}


def witt_vf(rng: random.Random) -> dict:
    ctx = witt.WittCtx(3, 3)
    base = TowerCtx(3, 1, 1, FREE)
    for _ in range(10):
        comps = [random_tower(rng, base, terms=2, span=3).reduce_mod_p() for _ in range(3)]
        v = witt.WittVec(ctx, comps)
        lhs = witt.mul_by_p(v)
        rhs = witt.WittVec.zero(ctx, comps[0])
        for _ in range(3):
            rhs = rhs + v
        if lhs != rhs:
            return {"_status": FAIL}
    return {"cases": 10}


def teichmuller_mult(rng: random.Random) -> dict:
    ctx = witt.WittCtx(5, 2)
    base = TowerCtx(5, 1, 3, QUOTIENT)
    for _ in range(10):
        a = random_tower(rng, base, terms=2, span=3).reduce_mod_p()
        b = random_tower(rng, base, terms=2, span=3).reduce_mod_p()
        lhs = witt.WittVec.teichmuller(ctx, a) * witt.WittVec.teichmuller(ctx, b)
        if lhs != witt.WittVec.teichmuller(ctx, a * b):
            return {"_status": FAIL}
    return {"cases": 10}


def base_residue_hom(rng: random.Random) -> dict:
    for _ in range(10):
        a = random_seq(rng, 5, 3, 2)
        b = random_seq(rng, 5, 3, 2)
        ra, rb = fontaine.base_residue(a), fontaine.base_residue(b)
        total, diff, prod = a + b, a - b, a * b
        if fontaine.base_residue(prod) != ra * rb or fontaine.base_residue(total) != ra + rb:
            return {"_status": FAIL}
        # Frobenius is a ring map in characteristic p, so + - * keep
        # p-power compatibility; nothing checks it again at run time
        if not all(c.check_compat() for c in (total, diff, prod)):
            return {"_status": FAIL}
    return {"cases": 10}


def theta_mult(rng: random.Random) -> dict:
    for _ in range(8):
        a = random_seq(rng, 5, 3, 2)
        b = random_seq(rng, 5, 3, 2)
        k = 2
        if fontaine.theta(a * b, k) != fontaine.theta(a, k) * fontaine.theta(b, k):
            return {"_status": FAIL}
    return {"cases": 8}


def theta_lifts(rng: random.Random) -> dict:
    for _ in range(8):
        a = random_seq(rng, 5, 3, 2)
        k = 2
        base = fontaine.theta(a, k)
        # a second lift of the deepest residue, shifted by p * junk
        last = a.residue(a.depth)
        junk = random_tower(rng, last.ctx, terms=2, span=3)
        lift2 = last.lift() + 5 * junk
        if base != lift2.pow_mod(5**a.depth, 5**k):
            return {"_status": FAIL}
    return {"cases": 8}


def division_roundtrip(rng: random.Random) -> dict:
    P, _, _ = fontaine.generators(5, 3, 2, QUOTIENT)
    for _ in range(8):
        s = random_seq(rng, 5, 3, 2)
        e = P * s
        if not fontaine.base_residue(e).is_zero:
            return {"_status": FAIL, "error": "product escaped the kernel"}
        t = fontaine.divide_by_p_seq(e)
        if not (P.truncate(1) * t).equals(e.truncate(1)):
            return {"_status": FAIL}
    return {"cases": 8}


def witt_kernel_roundtrip(rng: random.Random) -> dict:
    ctx = witt.WittCtx(5, 2)
    for _ in range(3):
        w = witt.WittVec(ctx, [random_seq(rng, 5, 3, 4) for _ in range(2)])
        result = witt.divide_by_p_seq_minus_p(witt.p_seq_minus_p(ctx, w.comps[0]) * w)
        if result.steps < 2:
            return {"_status": FAIL, "steps": result.steps}
        # the quotient is w itself, at the depth reached
        d = result.depth
        for i in range(result.steps):
            if not result.quotient.comps[i].truncate(d).equals(w.comps[i].truncate(d)):
                return {"_status": FAIL, "coordinate": i}
    return {"cases": 3}


INVARIANTS = (
    ("valuation_binomial_rule", valuation_rule),
    ("valuation_product_rule", valuation_products),
    ("tower_ring_axioms", ring_axioms),
    ("tower_embed_hom", embed_hom),
    ("tower_pi_roundtrip", pi_roundtrip),
    ("residue_frobenius_additive", frobenius_additive),
    ("quotient_relation_dies_mod_p", relation_dies),
    ("closure_addition_bound", closure_bound),
    ("closure_monotone_and_stable", closure_monotone),
    ("witt_ghost_oracle", witt_ghost),
    ("witt_ghost_negative_control", witt_ghost_negative),
    ("witt_additive_order", witt_order),
    ("witt_vf_identity", witt_vf),
    ("witt_teichmuller_multiplicative", teichmuller_mult),
    ("fontaine_base_residue_hom", base_residue_hom),
    ("fontaine_theta_multiplicative", theta_mult),
    ("fontaine_theta_lift_independence", theta_lifts),
    ("fontaine_division_roundtrip", division_roundtrip),
    ("witt_kernel_roundtrip", witt_kernel_roundtrip),
)
