"""Frobenius-compatible residue sequences at finite depth.

A depth-N element is a list r_0, ..., r_N of residues with
r_{i+1}^p = r_i, each component living at a tower level >= its index.
Finite depth replaces the inverse limit: operations that consume a
p-th root lose one component and say so.

Two closure modes say which components a sequence may hold and how a
division factors them: ``plain`` takes honest residues mod p only,
``certified`` also PI-power fractions (``LocalElem``).  Comparisons
read the kind of a component pair: two residues compare exactly, a
pair with a LocalElem modulo p * (root closure) by a bounded
certificate search that never silently passes.
"""

from __future__ import annotations

from .closure import (
    CertificateSearchError,
    ClosureCert,
    LocalElem,
    NotMember,
    aligned,
    as_local,
    membership,
)
from .tower import NotDivisibleError, RingOps, TowerCtx, TowerElem, context

PLAIN = "plain"
CERTIFIED = "certified"


class DepthExhaustedError(ArithmeticError):
    """Not enough components left for the requested operation."""


class PrecisionError(ValueError):
    """Requested p-adic precision exceeds what the depth determines."""


class UndeterminedCongruenceError(RuntimeError):
    """A congruence modulo p * (root closure) exhausted its certificate
    search bound: neither confirmed nor refuted."""

    def __init__(self, index: int, m_max: int):
        self.index = index
        self.m_max = m_max
        super().__init__(f"congruence at component {index} undetermined up to exponent {m_max}")


class NonIntegralComponentError(ArithmeticError):
    """A residue was asked of a component with a PI-power denominator."""

    def __init__(self, index: int, denom_exp: int):
        self.index = index
        self.denom_exp = denom_exp
        super().__init__(f"component {index} is not integral (denominator PI^{denom_exp})")


class SequenceDivisionError(ArithmeticError):
    """Division by the p-root sequence failed at a component; a refused
    monomial is written at the lowest level its exponents allow."""

    def __init__(self, index: int, monomial=None):
        self.index = index
        self.monomial = monomial
        extra = f" (monomial {monomial})" if monomial is not None else ""
        super().__init__(f"component {index} is not divisible{extra}")


# Both kinds of component, residues mod p and (certified mode only)
# LocalElems read modulo p * (root closure), give ctx, level,
# embed(level), -c and c**e; ``closure.aligned`` brings two of them to
# one level and one kind before any binary step or comparison.
Component = TowerElem | LocalElem


def default_m_max(depth: int) -> int:
    """Certificate search bound of a division at ``depth``."""
    return depth + 2


def _p_closure_cert(delta: LocalElem, index: int, m_max: int) -> ClosureCert | None:
    """Is ``delta`` zero modulo p * (root closure)?  The closure
    certificate of delta / p (m = 0 decides p * R exactly), or None when
    delta is refuted structurally; a search that exhausts ``m_max``
    raises, naming component ``index``."""
    scaled = LocalElem(delta.num, delta.denom_exp + delta.ctx.p**delta.level)
    got = membership(scaled, m_max)
    if isinstance(got, ClosureCert):
        return got
    if got.refuted:
        return None
    raise UndeterminedCongruenceError(index, m_max)


def _comp_equal(a: Component, b: Component, index: int, m_max: int) -> bool:
    """Two residues compare exactly, a pair with a LocalElem modulo p * closure."""
    a, b = aligned(a, b)
    if isinstance(a, TowerElem):
        return a == b
    delta = a - b
    return delta.is_zero or _p_closure_cert(delta, index, m_max) is not None


class FontaineElem(RingOps):
    """Finite-depth compatible sequence of residues.  ``__init__`` refuses
    a plain one that is not; a certified one, whose congruences can be
    undetermined, is decided by ``check_compat()``.  Sequences built here
    skip ``__init__`` (``_trusted``), compatible for the reason at each."""

    __slots__ = ("comps", "mode")

    def __init__(self, comps, mode: str = PLAIN):
        comps = tuple(comps)
        if not comps:
            raise ValueError("a sequence needs at least one component")
        if mode not in (PLAIN, CERTIFIED):
            raise ValueError(f"unknown closure mode {mode!r}")
        for i, comp in enumerate(comps):
            residue = isinstance(comp, TowerElem) and comp.over_fp
            if not (residue or (mode == CERTIFIED and isinstance(comp, LocalElem))):
                kinds = "residues mod p" if mode == PLAIN else "residues mod p and LocalElems"
                raise ValueError(f"{mode} mode takes {kinds} only (component {i})")
            if not comp.ctx.same_family(comps[0].ctx):
                raise ValueError("components must share p, degree and ring mode")
            if comp.level < i:
                raise ValueError(f"component {i} sits at level {comp.level} < {i}")
        self.comps = comps
        self.mode = mode
        if mode == PLAIN and (i := self._first_incompatible()) is not None:
            raise ValueError(f"component {i + 1} is not a p-th root of component {i}")

    @classmethod
    def _trusted(cls, comps, mode: str) -> "FontaineElem":
        """Components valid in ``mode`` and compatible, unchecked: -c, c**e,
        a truncation and a root shift keep every relation r_{i+1}^p = r_i."""
        e = object.__new__(cls)
        e.comps = tuple(comps)
        e.mode = mode
        return e

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.comps) - 1

    @property
    def family(self) -> TowerCtx:
        """Component 0's context: read only its p, degree and mode."""
        return self.comps[0].ctx

    @property
    def is_zero(self) -> bool:
        return self.equals(self.zero_like())

    def residue(self, i: int) -> TowerElem:
        rep = as_local(self.comps[i])
        if rep.is_integral:
            return rep.num.reduce_mod_p()
        raise NonIntegralComponentError(i, rep.denom_exp)

    def truncate(self, depth: int) -> "FontaineElem":
        if depth < 0 or depth > self.depth:
            raise ValueError("bad truncation depth")
        return FontaineElem._trusted(self.comps[: depth + 1], self.mode)

    def zero_like(self) -> "FontaineElem":
        return self.from_int(0)

    def one_like(self) -> "FontaineElem":
        return self.from_int(1)

    def from_int(self, k: int) -> "FontaineElem":
        # constant sequences are compatible: k^p = k mod p
        comps = [TowerElem.integer(c.ctx, k, c.ctx.p) for c in self.comps]
        return FontaineElem._trusted(comps, self.mode)

    # ------------------------------------------------------------------
    def _binary(self, other, op):
        """Componentwise ``op`` at the lesser depth.  The result is not
        checked for compatibility: + - * keep it because Frobenius is a
        ring map in characteristic p, a property the tests cover."""
        if isinstance(other, int):
            other = self.from_int(other)
        if not isinstance(other, FontaineElem):
            return NotImplemented
        if not other.family.same_family(self.family):
            raise ValueError("sequence family mismatch")
        comps = [op(*aligned(a, b)) for a, b in zip(self.comps, other.comps)]
        mode = CERTIFIED if CERTIFIED in (self.mode, other.mode) else PLAIN
        return FontaineElem._trusted(comps, mode)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __neg__(self):
        return FontaineElem._trusted([-c for c in self.comps], self.mode)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("exponent must be non-negative")
        return FontaineElem._trusted([c**e for c in self.comps], self.mode)

    def proot(self) -> "FontaineElem":
        """Left shift: the p-th root, at the cost of one unit of depth."""
        if self.depth < 1:
            raise DepthExhaustedError("no depth left for a p-th root")
        return FontaineElem._trusted(self.comps[1:], self.mode)

    # ------------------------------------------------------------------
    def equals(self, other, m_max: int | None = None) -> bool:
        """Equal as sequences; anything that is not a sequence is unequal.
        Searches stop at ``m_max``, by default ``default_m_max(depth)``."""
        if not (isinstance(other, FontaineElem) and self.depth == other.depth):
            return False
        m_max = default_m_max(self.depth) if m_max is None else m_max
        return self.family.same_family(other.family) and all(
            _comp_equal(a, b, i, m_max) for i, (a, b) in enumerate(zip(self.comps, other.comps))
        )

    def __eq__(self, other):
        return self.equals(other) if isinstance(other, FontaineElem) else NotImplemented

    def check_compat(self) -> bool:
        """Do consecutive components satisfy r_{i+1}^p = r_i?  Decided on
        every call, r_{i+1}^p built modulo p * R; an undetermined
        congruence is reported at index i + 1 and leaves it undecided."""
        return self._first_incompatible() is None

    def _first_incompatible(self) -> int | None:
        """The least i with r_{i+1}^p != r_i, or None."""
        m, c = default_m_max(self.depth), self.comps
        ok = (_comp_equal(_pth_power_mod_p(c[i + 1]), c[i], i + 1, m) for i in range(self.depth))
        return next((i for i, good in enumerate(ok) if not good), None)

    def __repr__(self):
        kinds = ", ".join(repr(c) for c in self.comps[:3])
        tail = ", ..." if len(self.comps) > 3 else ""
        return f"FontaineElem(depth={self.depth}, mode={self.mode}, [{kinds}{tail}])"


def generators(
    p: int, degree: int, depth: int, ring_mode: str
) -> tuple[FontaineElem, FontaineElem, FontaineElem]:
    """The canonical compatible sequences of p-power roots of p, x, y,
    in plain mode.

    Component i is PI_i, X_i or Y_i at level i, whose p-th power is
    component i - 1 exactly (level 0: PI_0 = p, which is 0 mod p).
    """
    ctxs = [context(p, i, degree, ring_mode) for i in range(depth + 1)]
    P, X, Y = (
        FontaineElem._trusted([TowerElem.monomial(ctx, *e, coeff_mod=p) for ctx in ctxs], PLAIN)
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    return P, X, Y


def base_residue(e: FontaineElem) -> TowerElem:
    """The zeroth component (the reduction to the base residue ring)."""
    return e.residue(0)


def theta(e: FontaineElem, precision: int) -> TowerElem:
    """Evaluate the limit of p^n-th powers: lift the deepest component
    and raise it to p^depth, keeping coefficients modulo p^precision.

    Level-N data determines the value modulo p^(N+1): two lifts differ
    by p * delta, and p^N-th powers of such lifts agree mod p^(N+1).
    """
    if not 1 <= precision <= e.depth + 1:
        raise PrecisionError(f"precision {precision} needs depth >= {precision - 1}")
    last = e.residue(e.depth)
    p = last.ctx.p
    return last.lift().pow_mod(p**e.depth, p**precision)


def divide_by_p_seq(e: FontaineElem) -> FontaineElem:
    quotient, _ = divide_by_p_seq_traced(e)
    return quotient


def _pth_power_mod_p(c: Component) -> Component:
    """c^p modulo p * R.  A residue's is its termwise Frobenius.  For
    c = num / PI^j at level n, num^p is needed only modulo p^k with
    k = 1 + ceil(j p / p^n): p^k / PI^(j p) = p * PI^((k - 1) p^n - j p)
    lies in p * R.  For integral c that is the Frobenius of its residue,
    lifted."""
    p = c.ctx.p
    if isinstance(c, TowerElem):
        return c**p
    k = 1 + -(-c.denom_exp * p // c.ctx.pi_order)
    return LocalElem(c.num.pow_mod(p, p**k).lift(), c.denom_exp * p)


def factor_by_p_seq(e: FontaineElem) -> tuple[list[Component], list[ClosureCert | None]]:
    """The first two steps of the division by the sequence of p-power
    roots of p, which decide whether it succeeds: (1) factor each
    component, s_n = r_n / PI_n, exactly over F_p in plain mode (p =
    PI_n^(p^n) lies in (PI_n), so R/p decides divisibility by PI_n) or,
    in certified mode, with a closure certificate; (2) certified mode
    only (a plain sequence is compatible by construction): r_(n+1)^p =
    r_n modulo p * closure for n = 1..N-1.  Step 2 is the roundtrip PI_n
    * t_n = r_n of the quotient t_n = s_(n+1)^p, because PI_n * t_n =
    (PI_(n+1) * s_(n+1))^p = r_(n+1)^p, with r_(n+1)^p built modulo p *
    R (``_pth_power_mod_p``).  Returns the factors s_n and their
    certificates, ``certs[n]`` for s_n and None where the factor is
    exact; a failed step raises.

    Nothing else needs deciding at slot 0, because the root closure is a
    ring (in plain mode read R for the closure throughout): PI_0 = p, so
    step 1 at n = 0 asks whether r_0 lies in p * closure, and the
    roundtrip there is PI_0 * t_0 - r_0 = p * (t_0 - s_0), with t_0 and
    s_0 in the closure.  Searches stop at ``default_m_max(depth)``.
    """
    N = e.depth
    if N < 1:
        raise DepthExhaustedError("division needs depth >= 1")
    certified = e.mode == CERTIFIED
    m_max = default_m_max(N)
    p = e.family.p
    r = [as_local(c) for c in e.comps] if certified else e.comps

    # step 1: r_n = PI_n * s_n, with PI_n = PI^jn at the component's level
    s: list[Component] = []
    certs: list[ClosureCert | None] = []
    for n, rn in enumerate(r):
        jn = p ** (rn.level - n)
        cert = None
        if certified:
            sn = LocalElem(rn.num, rn.denom_exp + jn)
            if not sn.is_integral:
                cert = membership(sn, m_max)
                if isinstance(cert, NotMember):
                    raise SequenceDivisionError(n)
        else:
            try:
                sn = rn.pi_divide(jn)
            except NotDivisibleError as exc:  # refused at the least failing monomial
                mono, level = exc.monomial, rn.level
                while level > 0 and not any(x % p for x in mono):
                    mono, level = tuple(x // p for x in mono), level - 1
                raise SequenceDivisionError(n, mono) from exc
        s.append(sn)
        certs.append(cert)

    # step 2: the input's compatibility, which is the roundtrip PI_n * t_n = r_n
    for n in range(1, N) if certified else ():
        if not _comp_equal(_pth_power_mod_p(r[n + 1]), r[n], n, m_max):
            raise CertificateSearchError(f"roundtrip mismatch at component {n}")
    return s, certs


def divide_by_p_seq_traced(e: FontaineElem) -> tuple[FontaineElem, list[ClosureCert | None]]:
    """Divide by the sequence of p-power roots of p, constructively:
    ``factor_by_p_seq``, then (3) shift the factors down one slot,
    t_n = s_(n+1)^p, exactly.  Returns the quotient t_0..t_(N-1) and the
    factor certificates.  Quotient component n is certified by
    ``certs[n + 1]`` with exponent max(m - 1, 0), because
    (s^p)^(p^(m-1)) = s^(p^m); when that factor is exact or has m = 0,
    t_n is integral.

    The quotient is compatible with no further decision: with delta =
    t_n - s_n, the input's compatibility puts PI_n * delta in p * closure,
    so delta lies in PI_n^(p^n - 1) * closure; as t_(n-1) = s_n^p,
    t_n^p - t_(n-1) is the sum of C(p, i) s_n^(p-i) delta^i over 0 < i <
    p, which lies in p * closure, plus delta^p, which lies in
    PI_n^(p (p^n - 1)) * closure, inside p * closure for n >= 1.
    """
    s, certs = factor_by_p_seq(e)
    p = e.family.p
    return FontaineElem._trusted([sn**p for sn in s[1:]], e.mode), certs
