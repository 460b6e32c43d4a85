"""Expression parser for the CLI: variables p, x, y with rational
exponents whose denominators are powers of the prime.

The minimal tower level accommodating every exponent denominator is
inferred before evaluation; division is only allowed by p-power
factors, which is exactly what a PI-power denominator can absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import LocalElem
from .tower import QUOTIENT, TowerCtx, TowerElem
from .valuation import vp


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


@dataclass(frozen=True)
class _Tok:
    kind: str  # int, name, op, end
    text: str
    pos: int


_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append(_Tok("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", len(text)))
    return toks


# AST nodes: ("int", k) | ("var", name, num, den) | ("neg", a)
#          | ("add"|"sub"|"mul"|"div", a, b)
class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek().text == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().text == "^":
            caret = self.take()
            if node[0] != "var":
                raise ParseError("exponents apply to the variables p, x, y", caret.pos)
            num, den = self.exponent()
            node = ("var", node[1], num, den)
        return node

    def exponent(self) -> tuple[int, int]:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return int(tok.text), 1
        if tok.text == "(":
            self.take()
            num = self.take()
            if num.kind != "int":
                raise ParseError("exponent numerator must be an integer", num.pos)
            self.expect("/")
            den = self.take()
            if den.kind != "int":
                raise ParseError("exponent denominator must be an integer", den.pos)
            if int(den.text) == 0:
                raise ParseError("exponent denominator is zero", den.pos)
            self.expect(")")
            return int(num.text), int(den.text)
        raise ParseError("expected an exponent", tok.pos)

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return ("int", int(tok.text))
        if tok.kind == "name":
            if tok.text not in ("p", "x", "y"):
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return ("var", tok.text, 1, 1)
        if tok.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def _denominator_level(node, p: int, out: list[int]) -> None:
    kind = node[0]
    if kind == "var":
        den = node[3]
        level = vp(p, den)
        if den != p**level:
            raise ParseError(
                f"exponent denominator {den} is not a power of {p}", 0
            )
        out.append(level)
    elif kind in ("neg",):
        _denominator_level(node[1], p, out)
    elif kind in ("add", "sub", "mul", "div"):
        _denominator_level(node[1], p, out)
        _denominator_level(node[2], p, out)


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


def _evaluate(node, ctx: TowerCtx) -> LocalElem:
    kind = node[0]
    if kind == "int":
        return LocalElem(TowerElem.integer(ctx, node[1]), 0, _canonical=True)
    if kind == "var":
        _, name, num, den = node
        exp = num * ctx.pi_order // den
        mono = {
            "p": (exp, 0, 0),
            "x": (0, exp, 0),
            "y": (0, 0, exp),
        }[name]
        return LocalElem(TowerElem.monomial(ctx, *mono), 0)
    if kind == "neg":
        return -_evaluate(node[1], ctx)
    a = _evaluate(node[1], ctx)
    b = _evaluate(node[2], ctx)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        pi_pow = _as_pi_power(b)
        if pi_pow is None:
            raise ParseError("division is only supported by p-power terms", 0)
        sign, net = pi_pow
        num = a.num if sign == 1 else -a.num
        if net >= 0:
            return LocalElem(num, a.denom_exp + net)
        return LocalElem(num * TowerElem.monomial(a.ctx, -net, 0, 0), a.denom_exp)
    raise AssertionError(f"unknown node {kind}")  # pragma: no cover


def parse_expr(
    text: str, p: int, degree: int = 3, mode: str = QUOTIENT
) -> LocalElem:
    """Parse to a localized element at the minimal level accommodating
    every exponent denominator."""
    toks = _tokenize(text)
    ast = _Parser(toks).parse()
    levels: list[int] = [0]
    _denominator_level(ast, p, levels)
    ctx = TowerCtx(p, max(levels), degree, mode)
    return _evaluate(ast, ctx)
