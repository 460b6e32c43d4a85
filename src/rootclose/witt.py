"""Truncated p-typical Witt vectors over characteristic-p component rings.

Arithmetic is driven by the universal sum/product polynomials, computed
once per (p, length) through the ghost-component recursion with exact
integer divisions, cached, and then evaluated in whatever component
ring the vectors carry (plain integers for the test oracle, residue
elements, or finite-depth compatible sequences).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .closure import HypothesisNotMetError
from .fontaine import (
    FontaineElem,
    PrecisionError,
    divide_by_p_seq,
    generators,
)
from .fontaine import theta as seq_theta
from .tower import TowerElem
from .valuation import check_prime

SPoly = dict[tuple[int, ...], int]


# ----------------------------------------------------------------------
# integer polynomial helpers for the universal-polynomial recursion
def _poly_add(a: SPoly, b: SPoly) -> SPoly:
    out = dict(a)
    for k, v in b.items():
        acc = out.get(k, 0) + v
        if acc:
            out[k] = acc
        elif k in out:
            del out[k]
    return out


def _poly_scale(a: SPoly, k: int) -> SPoly:
    if k == 0:
        return {}
    return {m: v * k for m, v in a.items()}


def _poly_mul(a: SPoly, b: SPoly) -> SPoly:
    out: SPoly = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            acc = out.get(key, 0) + v1 * v2
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
    return out


def _poly_pow(a: SPoly, e: int) -> SPoly:
    result: SPoly = {(0,) * len(next(iter(a), ())): 1} if a else {(): 1}
    base = a
    while e:
        if e & 1:
            result = _poly_mul(result, base)
        e >>= 1
        if e:
            base = _poly_mul(base, base)
    return result


def _poly_div_exact(a: SPoly, k: int) -> SPoly:
    out = {}
    for m, v in a.items():
        q, r = divmod(v, k)
        if r:
            raise ArithmeticError("ghost recursion produced a non-exact division (bug)")
        out[m] = q
    return out


def _ghost_poly(p: int, i: int, offset: int, nvars: int) -> SPoly:
    """w_i = sum_j p^j T_(offset+j)^(p^(i-j)) as a polynomial in nvars."""
    out: SPoly = {}
    for j in range(i + 1):
        exps = [0] * nvars
        exps[offset + j] = p ** (i - j)
        out[tuple(exps)] = p**j
    return out


_POLY_CACHE: dict[tuple[int, int], tuple[tuple[SPoly, ...], tuple[SPoly, ...]]] = {}
_POLY_LOCK = threading.Lock()


def witt_polynomials(p: int, length: int) -> tuple[tuple[SPoly, ...], tuple[SPoly, ...]]:
    """Universal sum and product polynomials S_0..S_{length-1},
    M_0..M_{length-1} with exact integer coefficients.

    Computed once per (p, length) under a lock and then shared
    read-only, so concurrent users see a single immutable copy.
    """
    check_prime(p)
    if length < 1:
        raise ValueError("length must be >= 1")
    key = (p, length)
    got = _POLY_CACHE.get(key)
    if got is not None:
        return got
    with _POLY_LOCK:
        got = _POLY_CACHE.get(key)
        if got is not None:
            return got
        nv = 2 * length
        sums: list[SPoly] = []
        prods: list[SPoly] = []
        for i in range(length):
            wx = _ghost_poly(p, i, 0, nv)
            wy = _ghost_poly(p, i, length, nv)
            tgt_sum = _poly_add(wx, wy)
            tgt_prod = _poly_mul(wx, wy)
            for j in range(i):
                e = p ** (i - j)
                tgt_sum = _poly_add(tgt_sum, _poly_scale(_poly_pow(sums[j], e), -(p**j)))
                tgt_prod = _poly_add(tgt_prod, _poly_scale(_poly_pow(prods[j], e), -(p**j)))
            sums.append(_poly_div_exact(tgt_sum, p**i))
            prods.append(_poly_div_exact(tgt_prod, p**i))
        got = (tuple(sums), tuple(prods))
        _POLY_CACHE[key] = got
        return got


# ----------------------------------------------------------------------
# component-ring dispatch: plain ints, residues, or compatible sequences
def _zero_like(a):
    return 0 if isinstance(a, int) else a.zero_like()


def _is_zero(a) -> bool:
    return a == 0 if isinstance(a, int) else a.is_zero


def _proot(a):
    if isinstance(a, int):
        raise ValueError("integers are not a perfect characteristic-p ring")
    return a.proot()


def _eval(poly: SPoly, vals) -> object:
    acc = None
    for exps, coeff in poly.items():
        term = None
        for v, e in zip(vals, exps):
            if e:
                powered = v**e
                term = powered if term is None else term * powered
        if term is None:
            term = coeff  # constant term; does not occur in S/M but kept safe
        elif coeff != 1:
            term = coeff * term
        acc = term if acc is None else acc + term
    return _zero_like(vals[0]) if acc is None else acc


@dataclass(frozen=True)
class WittCtx:
    p: int
    length: int

    def __post_init__(self):
        check_prime(self.p)
        if self.length < 1:
            raise ValueError("length must be >= 1")

    def polynomials(self):
        return witt_polynomials(self.p, self.length)


class NotDivisibleWittError(ArithmeticError):
    """Division by p in the Witt ring needs a zero leading component."""


class WittVec:
    """Length-N vector over a component ring supporting +, *, -, ** and
    integer coercion; p-th roots are needed only by the perfect-ring
    operations (frobenius, division by p)."""

    __slots__ = ("ctx", "comps")

    def __init__(self, ctx: WittCtx, comps):
        comps = tuple(comps)
        if len(comps) != ctx.length:
            raise ValueError(f"expected {ctx.length} components, got {len(comps)}")
        self.ctx = ctx
        self.comps = comps

    # ------------------------------------------------------------------
    @classmethod
    def teichmuller(cls, ctx: WittCtx, a) -> "WittVec":
        zero = _zero_like(a)
        return cls(ctx, (a,) + (zero,) * (ctx.length - 1))

    @classmethod
    def zero(cls, ctx: WittCtx, template) -> "WittVec":
        zero = _zero_like(template)
        return cls(ctx, (zero,) * ctx.length)

    @property
    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.comps)

    def _check(self, other: "WittVec"):
        if self.ctx != other.ctx:
            raise ValueError("Witt context mismatch")

    # ------------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        self._check(other)
        sums, _ = self.ctx.polynomials()
        vals = list(self.comps) + list(other.comps)
        return WittVec(self.ctx, (_eval(s, vals) for s in sums))

    def __mul__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        self._check(other)
        _, prods = self.ctx.polynomials()
        vals = list(self.comps) + list(other.comps)
        return WittVec(self.ctx, (_eval(m, vals) for m in prods))

    def __neg__(self):
        # solve x + z = 0 coordinate by coordinate: S_i is X_i + Y_i plus
        # terms in strictly earlier coordinates
        sums, _ = self.ctx.polynomials()
        zero = _zero_like(self.comps[0])
        zs: list = []
        for i in range(self.ctx.length):
            pad = [zero] * (self.ctx.length - i)
            partial = _eval(sums[i], list(self.comps) + zs + pad)
            zs.append(-partial)
        return WittVec(self.ctx, zs)

    def __sub__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        return self.ctx == other.ctx and all(
            a == b for a, b in zip(self.comps, other.comps)
        )

    __hash__ = None

    def __repr__(self):
        return f"WittVec(p={self.ctx.p}, {list(self.comps)!r})"


def verschiebung(x: WittVec) -> WittVec:
    zero = _zero_like(x.comps[0])
    return WittVec(x.ctx, (zero,) + x.comps[:-1])


def witt_frobenius(x: WittVec) -> WittVec:
    """Componentwise p-th power; correct over characteristic-p rings."""
    if any(isinstance(c, int) for c in x.comps):
        raise ValueError("frobenius needs a characteristic-p component ring")
    p = x.ctx.p
    return WittVec(x.ctx, (c**p for c in x.comps))


def mul_by_p(x: WittVec) -> WittVec:
    """p * x computed as verschiebung(frobenius(x)); the repeated-sum
    route is kept as a test oracle."""
    return verschiebung(witt_frobenius(x))


def p_divide_witt(x: WittVec) -> WittVec:
    """Invert mul_by_p: requires a zero leading component and perfect
    components; the final slot is padded with zero (precision loss is
    the caller's to track)."""
    if not _is_zero(x.comps[0]):
        raise NotDivisibleWittError("leading component is nonzero")
    roots = [_proot(c) for c in x.comps[1:]]
    pad = _zero_like(roots[-1]) if roots else _zero_like(x.comps[0])
    return WittVec(x.ctx, (*roots, pad))


def ghost(x: WittVec) -> list[int]:
    """Ghost components of an integer vector: the test oracle that turns
    Witt arithmetic into plain componentwise arithmetic."""
    if not all(isinstance(c, int) for c in x.comps):
        raise ValueError("ghost oracle runs over plain integers")
    p = x.ctx.p
    return [
        sum(p**j * x.comps[j] ** (p ** (i - j)) for j in range(i + 1))
        for i in range(x.ctx.length)
    ]


# ----------------------------------------------------------------------
# the map to the p-adic ring and the division by (p-root sequence - p)
def theta(x: WittVec, precision: int) -> TowerElem:
    """Sum of p^i * theta(a_i^(1/p^i)) over the coordinates, modulo
    p^precision.

    The precision is capped by the vector length (truncating the
    coordinates at N discards exactly a p^N-multiple) and by each
    coordinate's depth after its root shifts.
    """
    if precision > x.ctx.length:
        raise PrecisionError(
            f"length {x.ctx.length} only determines the image modulo p^{x.ctx.length}"
        )
    terms = []
    p = x.ctx.p
    for i, comp in enumerate(x.comps):
        if not isinstance(comp, FontaineElem):
            raise ValueError("theta needs compatible-sequence components")
        shifted = comp
        for _ in range(i):
            shifted = shifted.proot()
        terms.append(seq_theta(shifted, precision) * p**i)
    level = max(t.level for t in terms)
    return sum((t.embed(level) for t in terms[1:]), terms[0].embed(level))


def p_seq_minus_p(ctx: WittCtx, template: FontaineElem) -> WittVec:
    """The Witt vector (p-root sequence) - p over the template's family."""
    fam = template.family
    p_seq, _, _ = generators(fam.p, fam.degree, template.depth, fam.mode, template.mode)
    tau_p = WittVec.teichmuller(ctx, p_seq)
    p_one = mul_by_p(WittVec.teichmuller(ctx, template.one_like()))
    return tau_p - p_one


@dataclass
class SeqDivisionResult:
    """Quotient by (p-root sequence - p) with its achieved precision:
    the first ``steps`` Witt coordinates agree at component depth
    ``depth``; ``exhausted`` flags an early stop for lack of depth."""

    quotient: WittVec
    steps: int
    depth: int
    exhausted: bool


def divide_by_p_seq_minus_p(
    x: WittVec, steps: int | None = None, m_max: int | None = None
) -> SeqDivisionResult:
    """Successive approximation: peel one factor per step.

    At step k the remainder is reduced to its leading coordinate (an
    element of the sequence ring with vanishing base residue), divided
    by the p-root sequence, and the Teichmueller lift of the quotient
    is folded into the answer with weight p^(k-1); the corrected
    remainder is then exactly divisible by p in the Witt ring.  Each
    step costs one unit of component depth.
    """
    ctx = x.ctx
    length = ctx.length
    for c in x.comps:
        if not isinstance(c, FontaineElem):
            raise ValueError("division needs compatible-sequence components")
    requested = length if steps is None else min(steps, length)
    template = x.comps[0]
    pmp = p_seq_minus_p(ctx, template)

    if not theta(x, 1).is_zero:
        raise HypothesisNotMetError("input is not in the kernel even at precision 1")

    w = WittVec.zero(ctx, template)
    rem = x
    done = 0
    while done < requested:
        head = rem.comps[0]
        if head.depth < 1:
            break  # out of component depth
        factor = divide_by_p_seq(head, m_max)
        y = WittVec.teichmuller(ctx, factor)
        incr = y
        for _ in range(done):
            incr = mul_by_p(incr)
        w = w + incr
        done += 1
        if done < requested:
            # fold the correction in and strip one factor of p; the zero
            # leading coordinate is checked by p_divide_witt itself
            folded = rem - pmp * y
            if min(c.depth for c in folded.comps) < 1:
                break  # the root shift of the next division has no depth left
            rem = p_divide_witt(folded)

    final_depth = min(c.depth for c in w.comps) if done else min(c.depth for c in x.comps)
    product = pmp * w
    for i in range(done):
        got, want = product.comps[i], x.comps[i]
        d = min(got.depth, want.depth, final_depth)
        if not got.truncate(d).equals(want.truncate(d)):
            raise ArithmeticError(f"roundtrip failed at coordinate {i} (bug)")
    return SeqDivisionResult(w, done, final_depth, done < requested)
