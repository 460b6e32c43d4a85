"""Expression parser for the CLI: variables p, x, y with rational
exponents whose denominators are powers of the prime.

Each subexpression is evaluated as soon as it is parsed, as a
``LocalElem`` at the least tower level that holds it: ``v^(num/p^l)``
is the monomial V^num at level l.  A binary operation first embeds both
operands at the deeper of their two levels; embedding is a ring map and
normal forms are unique, so the value is the one an evaluation at the
final level would give.  Division is only allowed by p-power factors,
which is exactly what a PI-power denominator can absorb.
"""

from __future__ import annotations

import re

from .closure import LocalElem, aligned
from .tower import QUOTIENT, TowerCtx, TowerElem
from .valuation import vp

#: Deepest parenthesis nesting accepted; only parentheses recurse.
MAX_NESTING = 100

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d_][^\W_]*)|(?P<op>[-+*/^()])|(?P<bad>\S)")
_VARS = {"p": (1, 0, 0), "x": (0, 1, 0), "y": (0, 0, 1)}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, closed by an ``end`` token."""
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        toks.append((m.lastgroup, m.group(), m.start()))
    toks.append(("end", "", len(text)))
    return toks


def _as_pi_power(val: LocalElem) -> tuple[int, int] | None:
    """Recognize +-PI^e (possibly written through p-powers): returns
    (sign, net exponent) or None."""
    if len(val.num.terms) != 1:
        return None
    ((a, b, c), coeff) = next(iter(val.num.terms.items()))
    if b or c:
        return None
    k = vp(val.ctx.p, coeff)
    if abs(coeff) != val.ctx.p**k:
        return None
    sign = 1 if coeff > 0 else -1
    return sign, k * val.ctx.pi_order + a - val.denom_exp


def _divide(a: LocalElem, b: LocalElem, pos: int) -> LocalElem:
    """a / b for operands at one level; ``pos`` locates the divisor."""
    pi_pow = _as_pi_power(b)
    if pi_pow is None:
        raise ParseError("division is only supported by p-power terms", pos)
    sign, net = pi_pow
    num = a.num if sign == 1 else -a.num
    if net >= 0:
        return LocalElem(num, a.denom_exp + net)
    return LocalElem(num * TowerElem.monomial(a.ctx, -net, 0, 0), a.denom_exp)


class _Parser:
    def __init__(self, text: str, p: int, degree: int):
        self.ctx = TowerCtx(p, 0, degree, QUOTIENT)  # rejects a bad p or degree first
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.toks[self.i][1]

    def take(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        _, got, pos = self.take()
        if got != text:
            raise ParseError(f"expected {text!r}, found {got or 'end of input'!r}", pos)

    def integer(self, what: str) -> tuple[int, int]:
        kind, text, pos = self.take()
        if kind != "int":
            raise ParseError(f"{what} must be an integer", pos)
        return int(text), pos

    def parse(self) -> LocalElem:
        val = self.expr()
        _, text, pos = self.take()
        if text:
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return val

    def expr(self) -> LocalElem:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[1]
            acc, rhs = aligned(acc, self.term())
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> LocalElem:
        acc = self.atom()
        while self.peek() in ("*", "/"):
            op = self.take()[1]
            pos = self.toks[self.i][2]
            acc, rhs = aligned(acc, self.atom())
            acc = acc * rhs if op == "*" else _divide(acc, rhs, pos)
        return acc

    def atom(self) -> LocalElem:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        kind, text, pos = self.take()
        if kind == "name":
            if text not in _VARS:
                raise ParseError(f"unknown variable {text!r}", pos)
            val = self.variable(_VARS[text])
        elif kind == "int":
            val = LocalElem(TowerElem.integer(self.ctx, int(text)))
        elif text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            val = self.expr()
            self.depth -= 1
            self.expect(")")
        else:
            raise ParseError(f"unexpected {text or 'end of input'!r}", pos)
        if self.peek() == "^":
            raise ParseError("exponents apply to the variables p, x, y", self.toks[self.i][2])
        return -val if negate else val

    def variable(self, unit: tuple[int, int, int]) -> LocalElem:
        """The variable with ``unit`` as its exponent vector, raised to
        the exponent that follows it, if any."""
        num, den, den_pos = 1, 1, 0
        if self.peek() == "^":
            self.take()
            if self.peek() == "(":
                self.take()
                num, _ = self.integer("exponent numerator")
                self.expect("/")
                den, den_pos = self.integer("exponent denominator")
                if den == 0:
                    raise ParseError("exponent denominator is zero", den_pos)
                self.expect(")")
            else:
                num, _ = self.integer("exponent")
        level = vp(self.ctx.p, den)
        if den != self.ctx.p**level:
            raise ParseError(f"exponent denominator {den} is not a power of {self.ctx.p}", den_pos)
        mono = tuple(num * u for u in unit)
        return LocalElem(TowerElem.monomial(self.ctx.at_level(level), *mono), 0)


def parse_expr(text: str, p: int, degree: int = 3) -> LocalElem:
    """Parse to a localized element at the minimal level accommodating
    every exponent denominator."""
    return _Parser(text, p, degree).parse()
