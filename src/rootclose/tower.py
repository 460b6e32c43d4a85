"""Exact normal-form arithmetic in p-power root tower rings.

A level-n context works with combinations of monomials
``PI^a * X^b * Y^c`` where PI, X and Y stand for the p^n-th roots of
p, x and y, with coefficients in Z, F_p or Z/p^k (one element type,
``TowerElem``, with a coefficient modulus).  Two rewrite rules keep representatives canonical::

    PI^(p^n)    -> p                     (integer carry, both modes)
    Y^(d*p^n)   -> -p^d - X^(d*p^n)      (quotient mode only)

The rules have leading terms in disjoint variables with unit
coefficients, so rewriting is confluent and normal forms are unique;
the test suite exercises the ring axioms on random elements rather
than carrying a proof in code.  Coefficients are exact integers
throughout: all the computations this package runs stay polynomial,
so power-series truncation is never needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .valuation import check_prime

Monomial = tuple[int, int, int]
TermMap = dict[Monomial, int]

FREE = "free"
QUOTIENT = "quotient"


class NotDivisibleError(ArithmeticError):
    """Requested division does not exist; carries a witness monomial."""

    def __init__(self, monomial: Monomial, reason: str = ""):
        self.monomial = monomial
        super().__init__(reason or f"not divisible at monomial {monomial}")


class PthRootError(ArithmeticError):
    def __init__(self, monomial: Monomial):
        self.monomial = monomial
        super().__init__(f"no p-th root: exponents not divisible at {monomial}")


@dataclass(frozen=True)
class TowerCtx:
    """Presentation parameters of one level of the tower.

    ``quotient`` mode imposes the relation p^degree + x^degree + y^degree = 0;
    ``free`` mode only carries the root structure.
    """

    p: int
    level: int
    degree: int = 3
    mode: str = QUOTIENT

    def __post_init__(self):
        check_prime(self.p)
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.mode not in (FREE, QUOTIENT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == QUOTIENT and gcd(self.degree, self.p) != 1:
            raise ValueError("quotient relation needs degree coprime to p")

    @property
    def pi_order(self) -> int:
        return self.p**self.level

    @property
    def y_order(self) -> int:
        return self.degree * self.p**self.level

    def at_level(self, level: int) -> "TowerCtx":
        return TowerCtx(self.p, level, self.degree, self.mode)

    def same_family(self, other: "TowerCtx") -> bool:
        return (self.p, self.degree, self.mode) == (other.p, other.degree, other.mode)


def _normalized(ctx: TowerCtx, raw: TermMap, coeff_mod: int | None) -> TermMap:
    """Reduce a raw term map under both rewrite rules, then, given a
    modulus, reduce the coefficients.

    One pass suffices: the PI rule only moves weight into the
    coefficient, and the Y rule lowers c below its bound while only
    raising b, which no rule constrains.  Reducing coefficients last is
    sound because both rules are Z-linear.
    """
    pn = ctx.pi_order
    quotient = ctx.mode == QUOTIENT
    yo = ctx.y_order
    pd = ctx.p**ctx.degree
    out: TermMap = {}

    def put(key: Monomial, value: int) -> None:
        acc = out.get(key, 0) + value
        if acc:
            out[key] = acc
        elif key in out:
            del out[key]

    for (a, b, c), coeff in raw.items():
        if coeff == 0:
            continue
        if a >= pn:
            q, a = divmod(a, pn)
            coeff *= ctx.p**q
        if quotient and c >= yo:
            q, c = divmod(c, yo)
            sign = -1 if q % 2 else 1
            for j in range(q + 1):
                put((a, b + j * yo, c), sign * comb(q, j) * pd ** (q - j) * coeff)
        else:
            put((a, b, c), coeff)
    return out if coeff_mod is None else _reduced(out, coeff_mod)


def _reduced(terms: TermMap, m: int) -> TermMap:
    return {k: r for k, v in terms.items() if (r := v % m)}


class TowerElem:
    """Immutable element in normal form; ``terms`` maps (a, b, c) to
    nonzero coefficients with a < p^level and, in quotient mode,
    c < degree * p^level.

    ``coeff_mod`` is the coefficient ring: None for Z, m for Z/m with
    coefficients kept in [1, m).  Mod p the PI carry dies (PI^(p^level)
    becomes 0) because the carry multiplies coefficients by p.  Elements
    with different moduli never mix: arithmetic between them raises
    ValueError and equality is False.
    """

    __slots__ = ("ctx", "terms", "coeff_mod")

    def __init__(
        self,
        ctx: TowerCtx,
        terms: TermMap | None = None,
        coeff_mod: int | None = None,
        *,
        _normal: bool = False,
    ):
        self.ctx = ctx
        self.coeff_mod = coeff_mod
        raw = terms or {}
        if _normal:
            self.terms = raw
        else:
            if coeff_mod is not None and coeff_mod < 2:
                raise ValueError("modulus must be >= 2")
            self.terms = _normalized(ctx, raw, coeff_mod)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, ctx: TowerCtx, coeff_mod: int | None = None) -> "TowerElem":
        return cls(ctx, {}, coeff_mod, _normal=True)

    @classmethod
    def integer(cls, ctx: TowerCtx, k: int, coeff_mod: int | None = None) -> "TowerElem":
        if coeff_mod is not None:
            k %= coeff_mod
        return cls(ctx, {(0, 0, 0): k} if k else {}, coeff_mod, _normal=True)

    @classmethod
    def monomial(
        cls, ctx: TowerCtx, a: int, b: int, c: int, coeff: int = 1, coeff_mod: int | None = None
    ) -> "TowerElem":
        return cls(ctx, {(a, b, c): coeff}, coeff_mod)

    def _new(self, terms: TermMap) -> "TowerElem":
        """Same context and modulus; ``terms`` are exponent-normal but
        their coefficients may still need reducing."""
        m = self.coeff_mod
        return TowerElem(self.ctx, terms if m is None else _reduced(terms, m), m, _normal=True)

    def zero_like(self) -> "TowerElem":
        return TowerElem.zero(self.ctx, self.coeff_mod)

    def one_like(self) -> "TowerElem":
        return TowerElem.integer(self.ctx, 1, self.coeff_mod)

    @property
    def level(self) -> int:
        return self.ctx.level

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, a: int, b: int, c: int) -> int:
        return self.terms.get((a, b, c), 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return [(m, self.terms[m]) for m in sorted(self.terms)]

    # ------------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, int):
            return TowerElem.integer(self.ctx, other, self.coeff_mod)
        if isinstance(other, TowerElem):
            if other.ctx != self.ctx:
                raise ValueError("tower context mismatch")
            if other.coeff_mod != self.coeff_mod:
                raise ValueError("coefficient modulus mismatch")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc = out.get(k, 0) + v
            if acc:
                out[k] = acc
            else:
                del out[k]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({k: v * other for k, v in self.terms.items()} if other else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        raw: TermMap = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                raw[key] = raw.get(key, 0) + v1 * v2
        return TowerElem(self.ctx, raw, self.coeff_mod)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("exponent must be non-negative")
        result = self.one_like()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def pow_mod(self, e: int, coeff_mod: int) -> "TowerElem":
        """Power with coefficients modulo ``coeff_mod``.

        Sound because coeff_mod * (whole ring) is an ideal that meets the
        monomial basis coefficient-wise, so truncation commutes with
        normalization.
        """
        return self.reduce_coeffs(coeff_mod) ** e

    def reduce_coeffs(self, m: int) -> "TowerElem":
        """The image with coefficients modulo m, which must divide the
        current modulus (any m >= 2 for an element over Z)."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if self.coeff_mod is not None and self.coeff_mod % m:
            raise ValueError(f"cannot reduce modulo {m} from modulo {self.coeff_mod}")
        return TowerElem(self.ctx, _reduced(self.terms, m), m, _normal=True)

    def reduce_mod_p(self) -> "TowerElem":
        return self.reduce_coeffs(self.ctx.p)

    def lift(self) -> "TowerElem":
        """Coefficient-wise integer lift (the canonical representative)."""
        return TowerElem(self.ctx, self.terms, _normal=True)

    def as_local(self):
        """The canonical lift as a localized element with denominator 1."""
        from .closure import LocalElem  # closure builds on this module

        return LocalElem(self.lift(), 0, _canonical=True)

    # ------------------------------------------------------------------
    def embed(self, to_level: int) -> "TowerElem":
        """Rewrite at a deeper level: PI -> PI^(p^delta) and so on.

        Exponent bounds scale along, so a normal form stays normal.
        """
        delta = to_level - self.ctx.level
        if delta < 0:
            raise ValueError("can only embed into a deeper level")
        if delta == 0:
            return self
        f = self.ctx.p**delta
        ctx = self.ctx.at_level(to_level)
        terms = {(a * f, b * f, c * f): v for (a, b, c), v in self.terms.items()}
        return TowerElem(ctx, terms, self.coeff_mod, _normal=True)

    def pi_divide(self, j: int) -> "TowerElem":
        """Exact quotient by PI^j, or NotDivisibleError.

        Division by PI^(p^level) is coefficient division by p; the
        remaining single steps shift each (b, c) fiber down one PI slot,
        wrapping the bottom coefficient (which must be divisible by p)
        to the top.  With a coefficient modulus the divisibility answer
        is exact when the modulus lies in (PI^j), and the quotient keeps
        the modulus of its representative.
        """
        if j < 0:
            raise ValueError("j must be non-negative")
        if j == 0 or self.is_zero:
            return self
        p = self.ctx.p
        pn = self.ctx.pi_order
        q, r = divmod(j, pn)
        terms = self.terms
        if q:
            pq = p**q
            bad = [m for m, v in terms.items() if v % pq]
            if bad:
                raise NotDivisibleError(min(bad))
            terms = {m: v // pq for m, v in terms.items()}
        top = pn - 1
        for _ in range(r):
            nxt: TermMap = {}
            bad = []
            for (a, b, c), v in terms.items():
                if a:
                    key = (a - 1, b, c)
                else:
                    if v % p:
                        bad.append((a, b, c))
                        continue
                    v //= p
                    if not v:
                        continue
                    key = (top, b, c)
                acc = nxt.get(key, 0) + v
                if acc:
                    nxt[key] = acc
                elif key in nxt:
                    del nxt[key]
            if bad:
                raise NotDivisibleError(min(bad))
            terms = nxt
        return self._new(terms)

    def p_divide(self) -> "TowerElem":
        """Exact quotient by the integer p (same as pi_divide by p^level)."""
        p = self.ctx.p
        bad = [m for m, v in self.terms.items() if v % p]
        if bad:
            raise NotDivisibleError(min(bad))
        return self._new({m: v // p for m, v in self.terms.items()})

    # ------------------------------------------------------------------
    def frobenius(self) -> "TowerElem":
        """The p-power map, computed by actual exponentiation."""
        return self**self.ctx.p

    def proot(self) -> "TowerElem":
        """Inverse of frobenius over F_p when it exists at this level.

        Frobenius sends each basis monomial to a single monomial with
        p-fold exponents (coefficients are fixed points mod p), so an
        element is a p-th power exactly when every exponent triple is
        divisible by p.
        """
        p = self.ctx.p
        if self.coeff_mod != p:
            raise ValueError("p-th roots are taken over F_p")
        out: TermMap = {}
        for (a, b, c), v in self.terms.items():
            if a % p or b % p or c % p:
                raise PthRootError((a, b, c))
            out[(a // p, b // p, c // p)] = v
        return TowerElem(self.ctx, out, p, _normal=True)

    def xy_part(self) -> "TowerElem":
        """Image under PI -> 0 (the monomials without a PI factor)."""
        return self._new({k: v for k, v in self.terms.items() if k[0] == 0})

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            return self == TowerElem.integer(self.ctx, other, self.coeff_mod)
        return (
            isinstance(other, TowerElem)
            and self.ctx == other.ctx
            and self.coeff_mod == other.coeff_mod
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        mod = "" if self.coeff_mod is None else f", mod={self.coeff_mod}"
        return f"TowerElem(level={self.ctx.level}{mod}, {_format_terms(self.terms)})"


class ResidueElem(TowerElem):
    """Constructor alias: ``ResidueElem(ctx, terms)`` is
    ``TowerElem(ctx, terms, ctx.p)``, an element over F_p.  No object
    has this type."""

    __slots__ = ()
    # the one product kernel, kept in this class's dict because bench/tracer.py wraps
    # ResidueElem.__mul__ by name; no instance dispatches through it
    __mul__ = TowerElem.__mul__

    def __new__(cls, ctx: TowerCtx, terms: TermMap | None = None):
        return TowerElem(ctx, terms, ctx.p)

    @staticmethod
    def zero(ctx: TowerCtx) -> TowerElem:
        return TowerElem.zero(ctx, ctx.p)

    @staticmethod
    def integer(ctx: TowerCtx, k: int) -> TowerElem:
        return TowerElem.integer(ctx, k, ctx.p)

    @staticmethod
    def monomial(ctx: TowerCtx, a: int, b: int, c: int, coeff: int = 1) -> TowerElem:
        return TowerElem.monomial(ctx, a, b, c, coeff, ctx.p)


def poly_divides(h: TowerElem, g: TowerElem) -> tuple[bool, TowerElem | None]:
    """Single-divisor division in the X,Y polynomial part over F_p.

    Monomial order is lex with Y > X; any order works for membership in
    a principal ideal over a field, a fixed one keeps outputs
    reproducible.  Returns (True, quotient) when g is a multiple of h,
    else (False, None).
    """
    if h.ctx != g.ctx:
        raise ValueError("tower context mismatch")
    if h.ctx.mode != FREE:
        raise ValueError("divisibility test runs in the free presentation")
    if h.is_zero:
        raise ValueError("divisor must be nonzero")
    for (a, _, _) in list(h.terms) + list(g.terms):
        if a:
            raise ValueError("inputs must be pure X,Y polynomials")
    p = h.ctx.p

    def order(m: Monomial):
        return (m[2], m[1])

    hm = max(h.terms, key=order)
    hinv = pow(h.terms[hm], -1, p)
    rem = dict(g.terms)
    quot: TermMap = {}
    while rem:
        lead = max(rem, key=order)
        if lead[1] < hm[1] or lead[2] < hm[2]:
            return False, None
        shift = (0, lead[1] - hm[1], lead[2] - hm[2])
        c = rem[lead] * hinv % p
        quot[shift] = (quot.get(shift, 0) + c) % p
        for (_, b, cc), v in h.terms.items():
            key = (0, b + shift[1], cc + shift[2])
            nv = (rem.get(key, 0) - c * v) % p
            if nv:
                rem[key] = nv
            else:
                rem.pop(key, None)
    quot = {k: v for k, v in quot.items() if v}
    return True, TowerElem(h.ctx, quot, p, _normal=True)


def pi(ctx: TowerCtx) -> TowerElem:
    return TowerElem.monomial(ctx, 1, 0, 0)


def x_var(ctx: TowerCtx) -> TowerElem:
    return TowerElem.monomial(ctx, 0, 1, 0)


def y_var(ctx: TowerCtx) -> TowerElem:
    return TowerElem.monomial(ctx, 0, 0, 1)


def _format_terms(terms: TermMap, limit: int = 8) -> str:
    if not terms:
        return "0"
    parts = []
    for (a, b, c), v in sorted(terms.items())[:limit]:
        factors = [str(v)] if abs(v) != 1 or (a, b, c) == (0, 0, 0) else (["-"] if v == -1 else [])
        for name, e in (("PI", a), ("X", b), ("Y", c)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        part = "*".join(factors) if factors and factors != ["-"] else ""
        if factors and factors[0] == "-":
            part = "-" + "*".join(factors[1:])
        parts.append(part or str(v))
    tail = " + ..." if len(terms) > limit else ""
    return " + ".join(parts) + tail
