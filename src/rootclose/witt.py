"""Truncated p-typical Witt vectors over characteristic-p component rings.

Arithmetic runs through the ghost map.  A component ring R_n/p (F_p
residues at one tower level) has the lift R_n, free over Z on the
normal-form monomials and so without p-torsion; over it the ghost map
is injective, and coordinate k of a sum, product or difference is solved
in R_n/p^(k+1) from the ghost components (Hazewinkel, "Witt vectors.
Part 1", arXiv:0804.3888).  Integers and tower elements over Z run it
exactly.  Plain sequences run it once per coordinate depth, at the
index where that depth starts: a plain sequence is compatible by
construction, so it is determined by its deepest component, and
W(Frobenius) is a ring map, so every lower index is the Frobenius image
of the one above it.  A product with a Teichmuller factor is
computed in closed form instead, [a] * (b_0, b_1, ...) = (a b_0,
a^p b_1, a^(p^2) b_2, ...), which over F_p is a termwise Frobenius
twist; everything else goes through the ghost map.  Residues mod p^j
(j >= 2) and certified sequences are refused.

The universal sum/product polynomials, computed once per (p, length)
through the same recursion with exact integer divisions, stay as the
oracle of the tests, which evaluate them; no arithmetic path reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .fontaine import PLAIN, FontaineElem, PrecisionError, divide_by_p_seq, generators
from .fontaine import theta as seq_theta
from .tower import FREE, TowerElem, context
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


@cache
def witt_polynomials(p: int, length: int) -> tuple[tuple[SPoly, ...], tuple[SPoly, ...]]:
    """Universal sum and product polynomials S_0..S_{length-1},
    M_0..M_{length-1} with exact integer coefficients.

    Computed once per (p, length) and then shared read-only.
    """
    check_prime(p)
    if length < 1:
        raise ValueError("length must be >= 1")
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
    return tuple(sums), tuple(prods)


# ----------------------------------------------------------------------
# component-ring dispatch: plain ints, residues, or compatible sequences
def _zero_like(a):
    return 0 if isinstance(a, int) else a.zero_like()


def _is_zero(a) -> bool:
    return a == 0 if isinstance(a, int) else a.is_zero


# ----------------------------------------------------------------------
# + * - through the ghost map on a p-torsion-free lift
#
# A component ring A here has a lift B with B/p = A and no p-torsion:
# Z for itself, R_n (free over Z on the normal-form monomials) for
# R_n/p.  The ghost map w_k(x) = sum_(i<=k) p^i x_i^(p^(k-i)) is
# injective over B, so coordinate k of x + y, x * y or x - y solves
#
#     p^k c_k = G_k - sum_(j<k) p^j c_j^(p^(k-j)),
#
# with G_k = w_k(x) + w_k(y), w_k(x) * w_k(y) or w_k(x) - w_k(y); -x is
# 0 - x.  Over F_p any lift of each coordinate will do modulo p^(k+1),
# because u = v (mod p) implies u^(p^e) = v^(p^e) (mod p^(e+1)): a
# coordinate needs only its chain v^(p^e) mod p^(e+1) =
# (v^(p^(e-1)) mod p^e)^p.  Over Z (ints and tower elements over Z) the
# same recursion runs exactly.
_INTEGER, _EXACT, _RESIDUE, _SEQUENCE = "integer", "Z-tower", "residue", "sequence"


def _kind(c, index: int, char_p: bool = False) -> str:
    """How coordinate ``index`` lifts: exactly (an integer or a tower
    element over Z), as a residue mod p, or as a plain sequence of
    residues.  Residues mod p^j (j >= 2) and certified sequences are
    refused: Z/p^j has p-torsion, and a certified component is read
    modulo p * closure, so the ghost map does not determine a coordinate
    there.  With ``char_p`` the exact kinds are refused too: the
    componentwise p-th power is Frobenius only in characteristic p."""
    if isinstance(c, int):
        kind, what = _INTEGER, "an integer"
    elif isinstance(c, TowerElem) and c.coeff_mod is None:
        kind, what = _EXACT, "a tower element over Z"
    elif isinstance(c, TowerElem):
        kind, what = (_RESIDUE if c.over_fp else None), f"a residue mod {c.coeff_mod}"
    elif isinstance(c, FontaineElem):
        kind, what = (_SEQUENCE if c.mode == PLAIN else None), f"a {c.mode} sequence"
    else:
        kind, what = None, f"a {type(c).__name__}"
    if kind and not (char_p and kind in (_INTEGER, _EXACT)):
        return kind
    runs = "Frobenius runs over" if char_p else "Witt + * - run over integers, tower elements over Z,"
    raise ValueError(f"coordinate {index} is {what}: {runs} residues mod p and plain sequences")


def _modulus(zero: TowerElem, e: int) -> int | None:
    """The coefficient modulus of a value needed modulo p^e: p^e in a
    ring of F_p residues, none over Z, where the recursion is exact."""
    return None if zero.coeff_mod is None else zero.ctx.p**e


def _teichmuller_product(a, bs, p: int) -> list:
    """[a] * (b_0, b_1, ...) = (a b_0, a^p b_1, a^(p^2) b_2, ...): both
    sides have the ghost components a^(p^k) w_k(b), and over F_p the
    power is the termwise Frobenius, so no ghost pass is needed."""
    return [a ** p**k * b for k, b in enumerate(bs)]


def _lifted_op(op: str, xs, ys, p: int) -> list[TowerElem]:
    """Coordinates of x op y (op one of + * -) in one ring of F_p
    residues, or exactly in one tower ring over Z; a product with a
    Teichmuller operand in closed form."""
    n = len(xs)
    zero = xs[0].zero_like()
    ctx = zero.ctx
    if ctx.p != p or any(v.ctx != ctx for v in (*xs, *ys)):
        raise ValueError(f"Witt components must lie in one tower ring with p = {p}")
    if op == "*":
        for t, b in ((xs, ys), (ys, xs)):
            if all(v.is_zero for v in t[1:]):
                return _teichmuller_product(t[0], b, p)

    def chain(v, i):
        # v^(p^e) mod p^(e+1) for the e that coordinate i enters: e < n - i;
        # representatives mod p^e are already reduced mod p^(e+1)
        if v.is_zero:
            return None
        out = [v]
        for e in range(1, n - i):
            out.append(TowerElem(ctx, out[-1].terms, _modulus(zero, e + 1), _normal=True) ** p)
        return out

    def reduced(terms, mod):
        # a sum of normal forms in ctx: only its coefficients need reducing
        kept = {m: r for m, v in terms.items() if (r := v % mod if mod else v)}
        return TowerElem(ctx, kept, mod, _normal=True)

    def ghost(acc, chains, k, sign=1):
        # acc + sign * sum of p^i v_i^(p^(k-i)) over the nonzero chains, as terms
        for i, ch in enumerate(chains):
            if ch is not None:
                scale = sign * p**i
                for mono, v in ch[k - i].terms.items():
                    acc[mono] = acc.get(mono, 0) + scale * v
        return acc

    x_chains = [chain(v, i) for i, v in enumerate(xs)]
    y_chains = [chain(v, i) for i, v in enumerate(ys)]
    out, out_chains = [], []
    for k in range(n):
        mod = _modulus(zero, k + 1)
        if op == "*":
            gx, gy = (reduced(ghost({}, c[: k + 1], k), mod) for c in (x_chains, y_chains))
            acc = {} if gx.is_zero or gy.is_zero else dict((gx * gy).terms)
        else:
            acc = ghost({}, x_chains[: k + 1], k)
            ghost(acc, y_chains[: k + 1], k, 1 if op == "+" else -1)
        rest = reduced(ghost(acc, out_chains, k, -1), mod)
        # rest = p^k c_k exactly, so its division by p^k has no remainder
        c = TowerElem(ctx, _poly_div_exact(rest.terms, p**k), zero.coeff_mod, _normal=True)
        out.append(c)
        out_chains.append(chain(c, k))
    return out


def _sequence_op(op: str, xs, ys, p: int) -> list:
    """Coordinates of x op y over compatible plain sequences, whose
    arithmetic is componentwise.  Coordinate k reads coordinates 0..k of
    the operands, zero ones included, so it takes their least depth.
    Index j is written at the deepest level among the index-j components
    it reads.  The residue recursion runs only at the indices where some
    coordinate's depth starts (once, at the top index, when the depths
    are equal); every lower index j is the Frobenius image of index
    j + 1, c_k^(j) = (c_k^(j+1))^p, because the operands are compatible
    and W(Frobenius) is a ring map: one pass over each nonzero
    component's terms (``TowerElem.frobenius``), while every zero one
    maps to index j's zero, built once.  The outputs are compatible for
    the same reason, so no check runs."""
    n = len(xs)
    depths = list(accumulate((min(x.depth, y.depth) for x, y in zip(xs, ys)), min))
    starts = set(depths)
    comps: list[list] = [[] for _ in xs]
    m = 0  # the coordinates that read index j: the depths do not increase
    for j in range(depths[0], -1, -1):
        while m < n and depths[m] >= j:
            m += 1
        level = max([c.comps[j].ctx.level for c in (*xs[:m], *ys[:m])])
        if j in starts:
            index_j = ([c.comps[j].embed(level) for c in v[:m]] for v in (xs, ys))
            at_j = _lifted_op(op, *index_j, p)
        else:
            above = [comp[-1] for comp in comps[:m]]
            zero = TowerElem.zero(above[0].ctx.at_level(level), above[0].coeff_mod)
            at_j = [zero if c.is_zero else c.frobenius(level) for c in above]
        for k, c in enumerate(at_j):
            comps[k].append(c)
    return [FontaineElem._trusted(c[::-1], PLAIN) for c in comps]


def _ghost_op(op: str, xs, ys, p: int) -> list:
    """Coordinates of x op y through the ghost map, by component kind."""
    kinds = {_kind(c, i % len(xs)) for i, c in enumerate(xs + ys)}
    if len(kinds) > 1:
        raise ValueError(f"coordinates mix {' and '.join(sorted(kinds))} components")
    if _SEQUENCE in kinds:
        return _sequence_op(op, xs, ys, p)
    if _INTEGER in kinds:
        # Z is the free tower ring at level 0, and integers its constants
        ring = context(p, 0, 1, FREE)
        lifted = ([TowerElem.integer(ring, v) for v in vs] for vs in (xs, ys))
        return [c.terms.get((0, 0, 0), 0) for c in _lifted_op(op, *lifted, p)]
    return _lifted_op(op, xs, ys, p)


@dataclass(frozen=True)
class WittCtx:
    p: int
    length: int

    def __post_init__(self):
        check_prime(self.p)
        if self.length < 1:
            raise ValueError("length must be >= 1")


class WittVec:
    """Length-N vector over integers, tower elements over Z, F_p residues
    or plain sequences (``+ * -`` refuse any other component, naming its
    coordinate); no operation needs a p-th root of a Witt vector: the
    division by (p-root sequence - p) shifts the sequences' roots."""

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

    # ------------------------------------------------------------------
    def _binary(self, other, op: str):
        """x op y (op one of + * -) through ``_ghost_op``, in one Witt context."""
        if not isinstance(other, WittVec):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("Witt context mismatch")
        return WittVec(self.ctx, _ghost_op(op, self.comps, other.comps, self.ctx.p))

    def __add__(self, other):
        return self._binary(other, "+")

    def __mul__(self, other):
        return self._binary(other, "*")

    def __neg__(self):
        return WittVec(self.ctx, map(_zero_like, self.comps)) - self

    def __sub__(self, other):
        return self._binary(other, "-")

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
    """Componentwise p-th power over residues mod p or plain sequences;
    any other coordinate is refused, by index."""
    for i, c in enumerate(x.comps):
        _kind(c, i, char_p=True)
    p = x.ctx.p
    return WittVec(x.ctx, (c**p for c in x.comps))


def mul_by_p(x: WittVec) -> WittVec:
    """p * x computed as verschiebung(frobenius(x)); the repeated-sum
    route is kept as a test oracle."""
    return verschiebung(witt_frobenius(x))


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
def witt_theta(x: WittVec, precision: int) -> TowerElem:
    """Sum of p^i * theta(a_i^(1/p^i)) over the coordinates i <
    precision, modulo p^precision; the later terms are multiples of
    p^precision, so those coordinates are not read.

    The precision is capped by the vector length (truncating the
    coordinates at N discards exactly a p^N-multiple) and by each read
    coordinate's depth after its root shifts.  No arithmetic path calls
    it: it is theta itself, kept as the oracle of the kernel tests (the
    division reads its own kernel test off the first sequence division).
    """
    if not 1 <= precision <= x.ctx.length:
        n = x.ctx.length
        raise PrecisionError(f"length {n} only determines the image modulo p^k, 1 <= k <= {n}")
    if not all(isinstance(c, FontaineElem) for c in x.comps):
        raise ValueError("witt_theta needs compatible-sequence components")
    terms = []
    p = x.ctx.p
    for i, shifted in enumerate(x.comps[:precision]):
        for _ in range(i):
            shifted = shifted.proot()
        terms.append(seq_theta(shifted, precision) * p**i)
    level = max(c.comps[-1].level for c in x.comps)  # theta(c) is at c's last level
    return sum((t.embed(level) for t in terms[1:]), terms[0].embed(level))


def p_seq_minus_p(ctx: WittCtx, template: FontaineElem) -> WittVec:
    """The Witt vector (p-root sequence) - p over the template's family
    and depth, of plain sequences (Witt arithmetic refuses certified
    ones): one shared constant per shape."""
    fam = template.family
    return _p_seq_minus_p(ctx, fam.p, fam.degree, template.depth, fam.mode)


@cache
def _p_seq_minus_p(ctx: WittCtx, p: int, degree: int, depth: int, ring_mode: str) -> WittVec:
    # shared by every caller: WittVec and FontaineElem hold tuples, and
    # tower elements are never changed in place
    p_seq, _, _ = generators(p, degree, depth, ring_mode)
    tau_p = WittVec.teichmuller(ctx, p_seq)
    p_one = verschiebung(WittVec.teichmuller(ctx, p_seq.one_like()))  # p[1] = VF[1] = V[1]
    return tau_p - p_one


@dataclass
class SeqDivisionResult:
    """Quotient by (p-root sequence - p) with its achieved precision: the
    first ``steps`` Witt coordinates are meant to agree at component
    depth ``depth``; ``exhausted`` flags an early stop for lack of
    depth.  The quotient is not checked here: callers decide it."""

    quotient: WittVec
    steps: int
    depth: int
    exhausted: bool


def divide_by_p_seq_minus_p(x: WittVec) -> SeqDivisionResult:
    """Successive approximation: step k divides the remainder's leading
    coordinate r by the p-root sequence PI, y_k = r / PI, at the cost
    of one unit of component depth; the first such division is the
    kernel test, refusing component 0, where PI_0 = p.  As [PI][y_k] =
    [r] and p = VF, rem - (p-root sequence - p)[y_k] = V(rem') + V[y_k^p]
    = V(rem' + [y_k^p]), rem' = (rem_1, ...): its quotient by p is the
    root shift of a Witt sum one coordinate shorter.  The quotient is
    (y_0, y_1^p, y_2^(p^2), ...), the sum of p^k [y_k], unchecked here.
    Each coordinate is refused up front, by index, as Witt + * - would.
    """
    ctx, p, length = x.ctx, x.ctx.p, x.ctx.length
    if not all(isinstance(c, FontaineElem) for c in x.comps):
        raise ValueError("division needs compatible-sequence components")
    for i, c in enumerate(x.comps):
        _kind(c, i)

    ys, rem = [], x.comps
    while len(ys) < length and rem[0].depth >= 1:
        ys.append(divide_by_p_seq(rem[0]))
        if len(ys) < length:
            # not F^-1(rem') + [y_k]: it keeps one more unit of depth per step,
            # so (steps, depth, exhausted) change; y_k^p, compatible as a power,
            # takes rem[0]'s level where deeper, so the fold is at rem's levels
            at = zip((ys[-1] ** p).comps, rem[0].comps)
            y_p = FontaineElem._trusted([a.embed(max(a.level, b.level)) for a, b in at], PLAIN)
            sub = WittCtx(p, len(rem) - 1)
            c = WittVec(sub, rem[1:]) + WittVec.teichmuller(sub, y_p)
            if min(v.depth for v in c.comps) < 1:
                break  # the root shift of the next division has no depth left
            rem = [v.proot() for v in c.comps]

    final_depth = min(y.depth for y in ys) if ys else min(c.depth for c in x.comps)
    zero = x.comps[0].truncate(final_depth).zero_like()
    coords = [y.truncate(final_depth) ** p**k for k, y in enumerate(ys)]
    w = WittVec(ctx, coords + [zero] * (length - len(ys)))
    return SeqDivisionResult(w, len(ys), final_depth, len(ys) < length)
