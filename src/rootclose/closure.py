"""Root-closure membership with re-checkable certificates.

Elements of the localization are written num / PI^j with a PI-power
denominator: since p itself is a PI-power, every p-power denominator
reduces to this shape, and divisibility questions stay exact and
one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tower import NotDivisibleError, TowerCtx, TowerElem


class HypothesisNotMetError(ValueError):
    """Precondition of a certified construction failed."""


class CertificateSearchError(RuntimeError):
    """A check that holds on valid input failed: a search that is
    guaranteed to succeed came up empty (a library bug), or a sequence
    division met an incompatible input ("roundtrip mismatch")."""


class LocalElem:
    """num / PI^denom_exp in canonical form (denominator minimal)."""

    __slots__ = ("num", "denom_exp")

    def __init__(self, num: TowerElem, denom_exp: int = 0, *, _canonical: bool = False):
        if denom_exp < 0:
            raise ValueError("denominator exponent must be non-negative")
        if not _canonical:
            if num.is_zero:
                denom_exp = 0
            elif denom_exp:
                k = num.pi_valuation(denom_exp)
                if k:
                    num = num.pi_divide(k)
                    denom_exp -= k
        self.num = num
        self.denom_exp = denom_exp

    # ------------------------------------------------------------------
    @property
    def ctx(self) -> TowerCtx:
        return self.num.ctx

    @property
    def level(self) -> int:
        return self.num.ctx.level

    @property
    def is_integral(self) -> bool:
        return self.denom_exp == 0

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def embed(self, to_level: int) -> "LocalElem":
        delta = to_level - self.level
        if delta < 0:
            raise ValueError("can only embed into a deeper level")
        if delta == 0:
            return self
        f = self.ctx.p**delta
        # an irreducible denominator stays irreducible: embedding maps the
        # failing fiber of the PI-division onto a failing fiber
        return LocalElem(self.num.embed(to_level), self.denom_exp * f, _canonical=True)

    # ------------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, int):
            return LocalElem(TowerElem.integer(self.ctx, other), 0, _canonical=True)
        if isinstance(other, TowerElem):
            return LocalElem(other, 0, _canonical=True)
        if isinstance(other, LocalElem):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.ctx != self.ctx:
            raise ValueError("context mismatch")
        j = max(self.denom_exp, other.denom_exp)
        a = self.num * TowerElem.monomial(self.ctx, j - self.denom_exp, 0, 0)
        b = other.num * TowerElem.monomial(self.ctx, j - other.denom_exp, 0, 0)
        return LocalElem(a + b, j)

    __radd__ = __add__

    def __neg__(self):
        return LocalElem(-self.num, self.denom_exp, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LocalElem(self.num * other, self.denom_exp)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.ctx != self.ctx:
            raise ValueError("context mismatch")
        return LocalElem(self.num * other.num, self.denom_exp + other.denom_exp)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("exponent must be non-negative")
        return LocalElem(self.num**e, self.denom_exp * e)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.denom_exp == other.denom_exp

    __hash__ = None

    def __repr__(self):
        if self.denom_exp == 0:
            return f"LocalElem({self.num!r})"
        return f"LocalElem({self.num!r} / PI^{self.denom_exp})"


def as_local(c: TowerElem | LocalElem) -> LocalElem:
    """A LocalElem as it is; a tower element (a residue mod p, say) as
    its canonical integer lift over denominator 1."""
    if isinstance(c, LocalElem):
        return c
    return LocalElem(c.lift(), 0, _canonical=True)


def aligned(a: TowerElem | LocalElem, b: TowerElem | LocalElem) -> tuple:
    """Both operands embedded at their common (deeper) level; when
    exactly one is a LocalElem, the other is lifted to one too."""
    level = max(a.level, b.level)
    a, b = a.embed(level), b.embed(level)
    if isinstance(a, LocalElem) != isinstance(b, LocalElem):
        return as_local(a), as_local(b)
    return a, b


@dataclass(frozen=True)
class ClosureCert:
    """Certificate (elem, m): elem^(p^m) is integral, which
    ``validate_cert`` decides again.  ``witness``, absent from a report,
    is the truncated quotient ``membership`` found (``_truncated_quotient``)."""

    elem: LocalElem
    m: int
    witness: TowerElem | None = None


@dataclass(frozen=True)
class NotMember:
    """No certificate found with exponent <= m_max.

    With ``refuted`` False this is bound-relative: a larger exponent
    could still succeed, so it is not a proof of non-membership.  With
    ``refuted`` True, ``definite_nonmember`` proved that no exponent
    can succeed.
    """

    m_max: int
    refuted: bool


def _truncated_quotient(c: LocalElem, m: int) -> TowerElem | None:
    """num^(p^m) / PI^j, j = denom_exp * p^m, with coefficients mod p^Q,
    Q = ceil(j / p^level), so defined only modulo PI^(Q * p^level - j);
    None when PI^j does not divide num^(p^m).  The answer is exact,
    because p^Q = PI^(Q * p^level) lies in (PI^j).

    Most exponents are refuted mod p first, where num^(p^m) is the
    termwise Frobenius.  For z in normal form, PI^j * z is normalized
    by carrying each PI^(a + j) with a + j >= p^level into a factor p
    (PI^(p^level) = p); no Y exponent moves, so the Y rule (which adds
    only p^d multiples) never fires.  Hence a multiple of PI^j has no
    term PI^a with a < j mod p, and any such term of num^(p^m) mod p
    refutes m.  Only a survivor pays for the power mod p^Q; when Q = 1
    that power is the one just built.
    """
    p = c.ctx.p
    j = c.denom_exp * p**m
    if j == 0:
        return c.num
    power = c.num.pow_mod(p**m, p)
    if any(a < j for a, _, _ in power.terms):
        return None
    q = -(-j // c.ctx.pi_order)
    if q > 1:
        power = c.num.pow_mod(p**m, p**q)
    try:
        return power.pi_divide(j)
    except NotDivisibleError:
        return None


def membership(c: LocalElem, m_max: int) -> ClosureCert | NotMember:
    """Smallest m <= m_max with c^(p^m) integral, as a certificate.
    A structural non-member is refuted before any power is built."""
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    if definite_nonmember(c):
        return NotMember(m_max, True)
    for m in range(m_max + 1):
        if (witness := _truncated_quotient(c, m)) is not None:
            return ClosureCert(c, m, witness)
    return NotMember(m_max, False)


def validate_cert(cert: ClosureCert) -> bool:
    """Decide again, from elem and m alone, that elem^(p^m) is integral."""
    return _truncated_quotient(cert.elem, cert.m) is not None


def definite_nonmember(c: LocalElem) -> bool:
    """Structural proof of non-membership for a narrow shape.

    If num mod p is a single monomial with no PI factor, every p-power
    of it is again a single unit-coefficient monomial off the PI line
    (the quotient rewrite maps pure powers to pure powers mod p), so no
    exponent can ever clear the denominator.
    """
    if c.denom_exp == 0:
        return False
    r = c.num.reduce_mod_p()
    if len(r.terms) != 1:
        return False
    ((a, _, _),) = r.terms
    return a == 0


def closure_add(s: ClosureCert, t: ClosureCert) -> ClosureCert:
    """Certificate for the sum of two certified elements.

    The search bound 2*k*p^n + n + 1 (n the larger certificate
    exponent, k the larger denominator exponent) is a proven upper
    bound, so coming up empty is a library bug, not a result.
    """
    if s.elem.ctx != t.elem.ctx:
        raise ValueError("certificates must share a context and level")
    p = s.elem.ctx.p
    n = max(s.m, t.m)
    k = max(s.elem.denom_exp, t.elem.denom_exp)
    bound = 2 * k * p**n + n + 1
    got = membership(s.elem + t.elem, bound)
    if isinstance(got, NotMember):
        raise CertificateSearchError(f"sum certificate missing below bound {bound}")
    return got


def certified_pi_factor(a: TowerElem) -> ClosureCert:
    """Certify a / PI, where ``a`` sits at level n and p divides
    a^(p^n); raise HypothesisNotMetError when it does not.

    One search decides the hypothesis: since PI^(p^n) = p, p divides
    a^(p^n) exactly when (a/PI)^(p^n) is a ring element, and a
    certificate at any m <= n gives one at n.  The smallest certificate
    is returned.  With j = p^m <= p^n, Q = 1: the search runs over F_p.
    """
    n = a.level
    got = membership(LocalElem(a, 1), n)
    if isinstance(got, NotMember):
        raise HypothesisNotMetError(f"a^(p^{n}) is not divisible by p")
    return got
