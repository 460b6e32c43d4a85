"""Frobenius-compatible residue sequences at finite depth.

A depth-N element is a list r_0, ..., r_N of residues with
r_{i+1}^p = r_i, each component living at a tower level >= its index.
Finite depth replaces the inverse limit: operations that consume a
p-th root lose one component and say so.

Two closure modes:

* ``plain``      -- components are honest residues mod p; every check
                    is exact.
* ``certified``  -- components may be PI-power fractions carrying
                    closure certificates; congruence modulo
                    p * (root closure) is semi-decided by a bounded
                    certificate search and never silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import (
    CertificateSearchError,
    ClosureCert,
    LocalElem,
    NotMember,
    certified_pi_factor,
    definite_nonmember,
    membership,
)
from .tower import NotDivisibleError, TowerCtx, TowerElem

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


class SequenceDivisionError(ArithmeticError):
    """Division by the p-root sequence failed at a component."""

    def __init__(self, index: int, monomial=None):
        self.index = index
        self.monomial = monomial
        extra = f" (monomial {monomial})" if monomial is not None else ""
        super().__init__(f"component {index} is not divisible{extra}")


class IncompatibleSequenceError(ValueError):
    """Components do not satisfy the p-power compatibility relation."""


@dataclass
class CertComponent:
    """A component representative with a PI-power denominator, read
    modulo p * (root closure); ``cert`` witnesses closure membership."""

    rep: LocalElem
    cert: ClosureCert | None = None

    @property
    def ctx(self) -> TowerCtx:
        return self.rep.ctx

    @property
    def level(self) -> int:
        return self.rep.level

    def embed(self, level: int) -> "CertComponent":
        return CertComponent(self.rep.embed(level))

    def as_local(self) -> LocalElem:
        return self.rep

    # a certificate does not carry over to the results
    def __neg__(self) -> "CertComponent":
        return CertComponent(-self.rep)

    def __pow__(self, e: int) -> "CertComponent":
        return CertComponent(self.rep**e)

    def __repr__(self):
        return f"Cert({self.rep!r})"


# Both kinds of component give ctx, level, embed(level), as_local(), -c
# and c**e; residues mod p also have exact ring arithmetic of their own.
Component = TowerElem | CertComponent


def _is_residue(comp: Component) -> bool:
    return isinstance(comp, TowerElem) and comp.coeff_mod == comp.ctx.p


class FontaineElem:
    """Finite-depth compatible sequence of residues."""

    __slots__ = ("comps", "mode")

    def __init__(self, comps, mode: str = PLAIN, *, check: bool = False):
        comps = list(comps)
        if not comps:
            raise ValueError("a sequence needs at least one component")
        if mode not in (PLAIN, CERTIFIED):
            raise ValueError(f"unknown closure mode {mode!r}")
        for i, comp in enumerate(comps):
            if not (_is_residue(comp) or (mode == CERTIFIED and isinstance(comp, CertComponent))):
                kinds = "residues mod p" if mode == PLAIN else "residues mod p and CertComponents"
                raise ValueError(f"{mode} mode takes {kinds} only (component {i})")
            if not comp.ctx.same_family(comps[0].ctx):
                raise ValueError("components must share p, degree and ring mode")
            if comp.level < i:
                raise ValueError(f"component {i} sits at level {comp.level} < {i}")
        self.comps = comps
        self.mode = mode
        if check and not self.check_compat():
            raise IncompatibleSequenceError("components violate the p-power relation")

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.comps) - 1

    @property
    def family(self) -> TowerCtx:
        return self.comps[0].ctx.at_level(0)

    @property
    def is_zero(self) -> bool:
        return all(self._comp_is_zero(c, i) for i, c in enumerate(self.comps))

    @staticmethod
    def _comp_is_zero(comp: Component, index: int, m_max: int = 4) -> bool:
        rep = comp.as_local()
        if rep.is_zero:
            return True
        if rep.is_integral:
            return rep.num.reduce_mod_p().is_zero
        # fractional representative: zero means rep lies in p * closure
        scaled = LocalElem(rep.num, rep.denom_exp + rep.ctx.p ** rep.level)
        got = membership(scaled, m_max)
        if isinstance(got, ClosureCert):
            return True
        if definite_nonmember(scaled):
            return False
        raise UndeterminedCongruenceError(index, m_max)

    def residue(self, i: int) -> TowerElem:
        rep = self.comps[i].as_local()
        if rep.is_integral:
            return rep.num.reduce_mod_p()
        raise UndeterminedCongruenceError(i, 0)

    def truncate(self, depth: int) -> "FontaineElem":
        if depth < 0 or depth > self.depth:
            raise ValueError("bad truncation depth")
        return FontaineElem(self.comps[: depth + 1], self.mode)

    def zero_like(self) -> "FontaineElem":
        return self.from_int(0)

    def one_like(self) -> "FontaineElem":
        return self.from_int(1)

    def from_int(self, k: int) -> "FontaineElem":
        # constant sequences are compatible: k^p = k mod p
        comps = [TowerElem.integer(c.ctx, k, c.ctx.p) for c in self.comps]
        return FontaineElem(comps, self.mode)

    # ------------------------------------------------------------------
    def _binary(self, other, op):
        if isinstance(other, int):
            other = self.from_int(other)
        if not isinstance(other, FontaineElem):
            return NotImplemented
        if not other.family.same_family(self.family):
            raise ValueError("sequence family mismatch")
        depth = min(self.depth, other.depth)
        mode = CERTIFIED if CERTIFIED in (self.mode, other.mode) else PLAIN
        out: list[Component] = []
        for i in range(depth + 1):
            a, b = self.comps[i], other.comps[i]
            level = max(a.level, b.level)
            a, b = a.embed(level), b.embed(level)
            if _is_residue(a) and _is_residue(b):
                out.append(op(a, b))
            else:
                out.append(CertComponent(op(a.as_local(), b.as_local())))
        result = FontaineElem(out, mode)
        if all(_is_residue(c) for c in out) and not result.check_compat():
            raise IncompatibleSequenceError("ring operation broke compatibility (bug)")
        return result

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return FontaineElem([-c for c in self.comps], self.mode)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("exponent must be non-negative")
        return FontaineElem([c**e for c in self.comps], self.mode)

    def frobenius(self) -> "FontaineElem":
        """Componentwise p-th power: the depth-preserving right shift."""
        return self**self.family.p

    def proot(self) -> "FontaineElem":
        """Left shift: the p-th root, at the cost of one unit of depth."""
        if self.depth < 1:
            raise DepthExhaustedError("no depth left for a p-th root")
        return FontaineElem(self.comps[1:], self.mode)

    # ------------------------------------------------------------------
    def _comp_equal(self, a: Component, b: Component, index: int, m_max: int) -> bool:
        level = max(a.level, b.level)
        a, b = a.embed(level), b.embed(level)
        if _is_residue(a) and _is_residue(b):
            return a == b
        delta = a.as_local() - b.as_local()
        if delta.is_zero:
            return True
        if self.mode == PLAIN:
            return delta.is_integral and delta.num.reduce_mod_p().is_zero
        # certified: equality holds modulo p * closure
        scaled = LocalElem(delta.num, delta.denom_exp + delta.ctx.p**level)
        got = membership(scaled, m_max)
        if isinstance(got, ClosureCert):
            return True
        if definite_nonmember(scaled):
            return False
        raise UndeterminedCongruenceError(index, m_max)

    def equals(self, other: "FontaineElem", m_max: int = 4) -> bool:
        if not isinstance(other, FontaineElem):
            return NotImplemented
        if self.depth != other.depth or not self.family.same_family(other.family):
            return False
        return all(
            self._comp_equal(a, b, i, m_max)
            for i, (a, b) in enumerate(zip(self.comps, other.comps))
        )

    def __eq__(self, other):
        if not isinstance(other, FontaineElem):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def check_compat(self, m_max: int = 4) -> bool:
        """Do consecutive components satisfy r_{i+1}^p = r_i?  An
        undetermined congruence is reported at index i + 1."""
        p = self.family.p
        for i in range(self.depth):
            if not self._comp_equal(self.comps[i + 1] ** p, self.comps[i], i + 1, m_max):
                return False
        return True

    def __repr__(self):
        kinds = ", ".join(repr(c) for c in self.comps[:3])
        tail = ", ..." if len(self.comps) > 3 else ""
        return f"FontaineElem(depth={self.depth}, mode={self.mode}, [{kinds}{tail}])"


def generators(
    p: int, degree: int, depth: int, ring_mode: str, closure_mode: str = PLAIN
) -> tuple[FontaineElem, FontaineElem, FontaineElem]:
    """The canonical compatible sequences of p-power roots of p, x, y.

    Component i lives at level i; the level-i residue of the root of p
    is the PI variable there (level 0: the integer p, which is 0 mod p).
    """
    ps, xs, ys = [], [], []
    for i in range(depth + 1):
        ctx = TowerCtx(p, i, degree, ring_mode)
        ps.append(TowerElem.monomial(ctx, 1, 0, 0, coeff_mod=p))
        xs.append(TowerElem.monomial(ctx, 0, 1, 0, coeff_mod=p))
        ys.append(TowerElem.monomial(ctx, 0, 0, 1, coeff_mod=p))
    return (
        FontaineElem(ps, closure_mode),
        FontaineElem(xs, closure_mode),
        FontaineElem(ys, closure_mode),
    )


def base_residue(e: FontaineElem) -> TowerElem:
    """The zeroth component (the reduction to the base residue ring)."""
    return e.residue(0)


# A tower element known modulo p^k is the element with coeff_mod p^k.
PadicValue = TowerElem


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


def _pow_cert(cert: ClosureCert) -> ClosureCert:
    """Certificate for the p-th power of a certified element; the
    witness is unchanged because (c^p)^(p^(m-1)) = c^(p^m)."""
    elem = cert.elem ** cert.elem.ctx.p
    if cert.m == 0:
        return ClosureCert(elem, 0, elem.num)
    return ClosureCert(elem, cert.m - 1, cert.witness)


def divide_by_p_seq(e: FontaineElem, m_max: int | None = None) -> FontaineElem:
    quotient, _ = divide_by_p_seq_traced(e, m_max)
    return quotient


def divide_by_p_seq_traced(
    e: FontaineElem, m_max: int | None = None
) -> tuple[FontaineElem, dict]:
    """Divide by the sequence of p-power roots of p, constructively.

    Steps: (1) factor each component exactly, or with a closure
    certificate in certified mode; (2) square the factors down one slot
    (t_n = s_{n+1}^p); (3) verify the approximation order
    s_{n+1}^p = s_n up to the expected PI power; (4) verify the
    quotient sequence is compatible, semi-deciding modulo p * closure
    in certified mode; (5) assert componentwise that the product with
    the p-root sequence gives back the input, one depth lower.
    """
    N = e.depth
    if N < 1:
        raise DepthExhaustedError("division needs depth >= 1")
    certified = e.mode == CERTIFIED
    if m_max is None:
        m_max = N + 2
    p = e.family.p
    trace: dict = {"factors": [], "approx": [], "compat": [], "roundtrip": []}

    r0 = base_residue(e)
    if not r0.is_zero:
        raise SequenceDivisionError(0, min(r0.terms))

    # step 1: r_n = PI_n * s_n
    s: list[LocalElem] = []
    certs: list[ClosureCert | None] = []
    for n in range(N + 1):
        comp = e.comps[n]
        rep = comp.as_local()
        level = rep.level
        jn = p ** (level - n)  # PI at slot n, written at the component's level
        cand = LocalElem(rep.num, rep.denom_exp + jn)
        if cand.denom_exp == 0:
            s.append(cand)
            certs.append(ClosureCert(cand, 0, cand.num))
            trace["factors"].append({"component": n, "kind": "exact"})
            continue
        if not certified:
            try:
                rep.num.pi_divide(rep.denom_exp + jn)
            except NotDivisibleError as exc:
                raise SequenceDivisionError(n, exc.monomial) from exc
            raise SequenceDivisionError(n)  # pragma: no cover - unreachable
        if rep.is_integral and level == n:
            cert = certified_pi_factor(rep.num, n, m_max)
        else:
            got = membership(cand, max(n, m_max))
            if isinstance(got, NotMember):
                raise SequenceDivisionError(n)
            cert = got
        s.append(cert.elem)
        certs.append(cert)
        trace["factors"].append({"component": n, "kind": "certified", "cert": cert})

    # step 2: shift the factors down by squaring to the p-th power
    t = [s[n + 1] ** p for n in range(N)]

    # step 3: s_{n+1}^p = s_n + PI^(p^L - p^(L-n)) * v with v integral
    for n in range(N):
        level = max(s[n].level, s[n + 1].level)
        diff = t[n].embed(level) - s[n].embed(level)
        exponent = p**level - p ** (level - n)
        if exponent and not diff.is_zero:
            try:
                diff.num.pi_divide(diff.denom_exp + exponent)
            except NotDivisibleError as exc:
                raise CertificateSearchError(
                    f"approximation order failed at component {n}: {exc}"
                ) from exc
        trace["approx"].append({"component": n, "pi_exponent": exponent, "ok": True})

    # step 4: the quotient sequence is itself compatible
    for n in range(1, N):
        level = max(t[n].level, t[n - 1].level)
        delta = (t[n] ** p).embed(level) - t[n - 1].embed(level)
        if delta.is_zero:
            trace["compat"].append({"component": n, "kind": "exact"})
            continue
        half = LocalElem(delta.num, delta.denom_exp + p**level)
        bound = 0 if not certified else m_max
        got = membership(half, bound)
        if isinstance(got, NotMember):
            if certified:
                raise UndeterminedCongruenceError(n, m_max)
            raise CertificateSearchError(
                f"plain quotient compatibility failed at component {n}"
            )
        trace["compat"].append({"component": n, "kind": "certified", "cert": got})

    # step 5: components of the quotient, with the roundtrip assertion
    out: list[Component] = []
    for n in range(N):
        level = t[n].level
        pi_n = TowerElem.monomial(t[n].ctx.at_level(level), p ** (level - n), 0, 0)
        prod = t[n] * pi_n
        if not prod.is_integral:
            raise CertificateSearchError(f"roundtrip product not integral at component {n}")
        got = (
            CertComponent(LocalElem.from_tower(prod.num)) if certified else prod.num.reduce_mod_p()
        )
        if not e._comp_equal(got, e.comps[n], n, m_max):
            raise CertificateSearchError(f"roundtrip mismatch at component {n}")
        trace["roundtrip"].append({"component": n, "ok": True})
        if certified:
            out.append(CertComponent(t[n], _pow_cert(certs[n + 1])))
        else:
            out.append(t[n].num.reduce_mod_p())

    return FontaineElem(out, e.mode), trace
