"""Check suites and machine-readable reports.

Each check of the worked example is a witness and a checker: the run
writes the objects its claim is about (residues, divisor and dividend)
and what its search found (closure exponents, the monomial a division
refused, the Witt quotient's first coordinate), never a verdict or a
copy of the config.  One checker per check decides both the run's
status and ``revalidate``'s, from objects rebuilt from the config with
``tower`` and ``closure`` alone.  A closure certificate is its exponent
m, since the config fixes its element; the Witt quotient is multiplied
back in closed form, with pmp = (P, -1, 0, ...).  Reports are
deterministic: one config and seed give byte-identical JSON, modulo the
optional timestamp.
"""

from __future__ import annotations

import datetime
import json
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from math import inf

from . import closure, fontaine, tower, valuation, witt
from .closure import ClosureCert, LocalElem
from .fontaine import CERTIFIED, PLAIN, FontaineElem
from .invariants import FAIL, INVARIANTS
from .tower import FREE, QUOTIENT, TowerCtx, TowerElem

PASS = "pass"
UNDETERMINED = "undetermined"

#: Degree of the relation p^d + x^d + y^d = 0 of the worked example:
#: eta, u_n and the plain-division divisor are all written for it.
DEGREE = 3


def _stamped(config: dict, timestamp: bool) -> dict:
    """``config``, plus the current UTC time when ``timestamp`` is set."""
    if timestamp:
        config["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()
        )
    return config


@dataclass
class Config:
    """The worked example's claim: the ring at p, the degree-3 relation,
    the tower depth and the Witt length, and the closure mode of the
    division.  ``to_dict`` writes it into a report, ``from_dict`` is the
    only reader of a report's config."""

    p: int = 5
    depth: int = 3
    witt_length: int = 2
    closure_mode: str = CERTIFIED
    timestamp: bool = True

    def validate_example(self) -> None:
        valuation.check_prime(self.p)
        if self.p <= 3:
            raise ValueError("the example suite requires a prime p > 3")
        # the upper end is the tower's level bound: depth 1,000 runs about a minute
        if not 2 <= self.depth <= tower.MAX_LEVEL:
            raise ValueError(f"the example suite requires 2 <= depth <= {tower.MAX_LEVEL}")
        if self.witt_length < 1:
            raise ValueError("witt_length must be >= 1")
        # a work bound: at most (depth + 1) // 2 coordinates are determined,
        # and a longer vector only adds zero coordinates to every ghost pass
        if self.witt_length > self.depth + 1:
            raise ValueError(f"witt_length must be <= depth + 1 = {self.depth + 1}")
        if self.closure_mode not in (PLAIN, CERTIFIED):
            raise ValueError(f"unknown closure mode {self.closure_mode!r}")

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "degree": DEGREE,
            "depth": self.depth,
            "witt_length": self.witt_length,
            "closure_mode": self.closure_mode,
        }
        return _stamped(out, self.timestamp)

    @classmethod
    def from_dict(cls, d) -> Config:
        """The inverse of ``to_dict``: exactly its keys, integers where it
        writes integers, a string timestamp if any, and a config that
        passes ``validate_example``.  Raises TypeError or ValueError."""
        if not isinstance(d, dict):
            raise TypeError("config must be an object")
        keys = set(cls(timestamp=False).to_dict())
        missing, extra = keys - set(d), set(d) - keys - {"timestamp"}
        if missing or extra:
            raise ValueError(
                f"config keys must be {', '.join(sorted(keys))} and an optional timestamp"
                f" (missing: {sorted(missing)}, unexpected: {sorted(extra)})"
            )
        for key in ("p", "degree", "depth", "witt_length"):
            if type(d[key]) is not int:
                raise TypeError(f"config {key} must be an integer, not {d[key]!r}")
        if d["degree"] != DEGREE:
            raise ValueError(f"config degree is {d['degree']}, the example's is {DEGREE}")
        if not isinstance(d.get("timestamp", ""), str):
            raise TypeError("config timestamp must be a string")
        cfg = cls(d["p"], d["depth"], d["witt_length"], d["closure_mode"], "timestamp" in d)
        cfg.validate_example()
        return cfg


@dataclass
class CheckRecord:
    name: str
    status: str
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    config: dict
    checks: list[CheckRecord]

    @property
    def ok(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def to_dict(self) -> dict:
        checks = [{"name": c.name, "status": c.status, "details": c.details} for c in self.checks]
        return {"config": self.config, "checks": checks}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [f"[{c.status}] {c.name}" for c in self.checks]
        lines.append("all checks passed" if self.ok else "FAILURES PRESENT")
        return "\n".join(lines) + "\n"


class MalformedReportError(ValueError):
    """Input without the shape of a report: nothing to revalidate."""


# ----------------------------------------------------------------------
# serialization of elements and certificates (coefficients as decimal
# strings: arbitrary precision, bit-exact)
def terms_to_json(terms: dict) -> list:
    return [[a, b, c, str(v)] for (a, b, c), v in sorted(terms.items())]


_DECIMAL = re.compile(r"-?[0-9]+")


def terms_from_json(data: list, ctx: TowerCtx, key: str) -> dict:
    """The inverse of ``terms_to_json`` at ``ctx``.  Each term is
    [a, b, c, "v"] with v a decimal string and ``int`` exponents (not
    booleans) in normal form: 0 <= a < p^level, 0 <= b and, in quotient
    mode, 0 <= c < degree * p^level (rewriting a larger c takes
    c / (degree * p^level) steps); no monomial comes twice.  Raises
    MalformedReportError naming ``key``."""
    if not isinstance(data, list):
        raise MalformedReportError(f"{key} must be a list of terms, not {type(data).__name__}")
    pn, y_bound = ctx.pi_order, ctx.y_order if ctx.mode == QUOTIENT else inf
    out: dict = {}
    for term in data:
        if type(term) is list and len(term) == 4:
            a, b, c, v = term
            if (
                type(a) is int and type(b) is int and type(c) is int and type(v) is str
                and 0 <= a < pn and b >= 0 and 0 <= c < y_bound
                and _DECIMAL.fullmatch(v) and (a, b, c) not in out
            ):
                out[a, b, c] = int(v)
                continue
        raise MalformedReportError(
            f'{key} holds {term!r:.80}, not a new [a, b, c, "v"] in normal form'
            " with v a decimal string"
        )
    return out


def elem_to_json(e: TowerElem) -> dict:
    return {"level": e.ctx.level, "ring": e.ctx.mode, "terms": terms_to_json(e.terms)}


def _natural(d: dict, key: str, what: str) -> int:
    """``d[key]`` if a non-negative ``int`` (not a boolean), else refused."""
    if type(d[key]) is not int or d[key] < 0:
        raise MalformedReportError(f"{what} {key} must be a non-negative integer, not {d[key]!r}")
    return d[key]


def _context_from_json(d: dict, p: int, degree: int, what: str, max_level: int) -> TowerCtx:
    """The context a serialized element names by ``level`` and ``ring``,
    refused above ``max_level`` before p^level is ever computed."""
    level = _natural(d, "level", what)
    if level > max_level:
        raise MalformedReportError(f"{what} level {level} is above {max_level}")
    if d["ring"] not in (FREE, QUOTIENT):
        raise MalformedReportError(f"{what} ring {d['ring']!r} is not a known mode")
    return tower.context(p, level, degree, d["ring"])


def residue_from_json(d: dict, cfg: Config) -> TowerElem:
    ctx = _context_from_json(d, cfg.p, DEGREE, "residue", cfg.depth)
    return TowerElem(ctx, terms_from_json(d["terms"], ctx, "residue terms"), cfg.p)


#: A certificate as ``eval`` prints it: the element num / PI^denom_exp at
#: ``level`` of ``ring``, and the exponent m with elem^(p^m) integral.
CERT_KEYS = ("m", "denom_exp", "level", "ring", "num_terms")


def cert_to_json(cert: ClosureCert) -> dict:
    return {
        "m": cert.m,
        "denom_exp": cert.elem.denom_exp,
        "level": cert.elem.level,
        "ring": cert.elem.ctx.mode,
        "num_terms": terms_to_json(cert.elem.num.terms),
    }


def cert_from_json(d: dict, p: int, degree: int) -> ClosureCert:
    """The inverse of ``cert_to_json``: exactly ``CERT_KEYS``, with m,
    denom_exp and level non-negative integers (not booleans), a known
    ring and strict ``num_terms`` (``terms_from_json``).  Raises
    MalformedReportError naming the offending key."""
    if not isinstance(d, dict):
        raise MalformedReportError("a certificate must be an object")
    missing, extra = set(CERT_KEYS) - set(d), set(d) - set(CERT_KEYS)
    if missing or extra:
        raise MalformedReportError(
            f"certificate keys must be {', '.join(CERT_KEYS)}"
            f" (missing: {sorted(missing)}, unexpected: {sorted(extra)})"
        )
    m, denom_exp = _natural(d, "m", "certificate"), _natural(d, "denom_exp", "certificate")
    ctx = _context_from_json(d, p, degree, "certificate", tower.MAX_LEVEL)
    num = TowerElem(ctx, terms_from_json(d["num_terms"], ctx, "certificate num_terms"))
    return ClosureCert(LocalElem(num, denom_exp), m)


# ----------------------------------------------------------------------
def _run_checks(config: dict, steps) -> Report:
    """One record per (name, run) step, ``run()`` giving status and details."""
    checks = []
    for name, run in steps:
        try:
            status, details = run()
        except fontaine.UndeterminedCongruenceError as exc:
            status, details = UNDETERMINED, {"error": str(exc)}
        except Exception as exc:  # recorded, never raised past the runner
            status, details = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
        checks.append(CheckRecord(name, status, details))
    return Report(config, checks)


def _example_eta(cfg: Config) -> FontaineElem:
    """eta = P^3 + X^3 + Y^3, the worked example's plain sequence."""
    P, X, Y = fontaine.generators(cfg.p, DEGREE, cfg.depth, QUOTIENT)
    return P**DEGREE + X**DEGREE + Y**DEGREE


def _u(cfg: Config, n: int, coeff_mod: int | None = None) -> TowerElem:
    """u_n = PI^3 + X^3 + Y^3 at level n of the quotient ring, over Z or mod ``coeff_mod``."""
    ctx = tower.context(cfg.p, n, DEGREE, QUOTIENT)
    return TowerElem(ctx, {(DEGREE, 0, 0): 1, (0, DEGREE, 0): 1, (0, 0, DEGREE): 1}, coeff_mod)


def _closure_claim(cfg: Config, n: int) -> LocalElem:
    """u_n / PI at level n, whose closure certificate the example records."""
    return LocalElem(_u(cfg, n), 1)


def _division_operands(cfg: Config, r1: TowerElem) -> tuple[TowerElem, TowerElem]:
    """The independent negative certificate of plain division: the
    relation and r1 with PI -> 0, at level 1 of the free ring mod p, as
    divisor X^(3p) + Y^(3p) and dividend, for polynomial divisibility."""
    free1 = tower.context(cfg.p, 1, DEGREE, FREE)
    divisor = TowerElem(free1, {(0, DEGREE * cfg.p, 0): 1, (0, 0, DEGREE * cfg.p): 1}, cfg.p)
    return divisor, TowerElem(free1, r1.xy_part().terms, cfg.p)


def _witness_sequence(cfg: Config, eta: FontaineElem) -> dict:
    return {"sequence": [elem_to_json(eta.residue(i)) for i in range(cfg.depth + 1)]}


def _witness_residue(cfg: Config, eta: FontaineElem) -> dict:
    return {"residue": elem_to_json(fontaine.base_residue(eta))}


def _witness_plain_division(cfg: Config, eta: FontaineElem) -> dict:
    """Where plain division of eta stops (None when it does not), and
    the operands of the polynomial certificate."""
    try:
        fontaine.divide_by_p_seq(eta)
        details = {"component": None, "monomial": None}
    except fontaine.SequenceDivisionError as exc:
        details = {"component": exc.index, "monomial": list(exc.monomial) if exc.monomial else None}
    divisor, dividend = _division_operands(cfg, eta.residue(1))
    return details | {"divisor": elem_to_json(divisor), "dividend": elem_to_json(dividend)}


def _witness_closure(cfg: Config, _eta: FontaineElem) -> dict:
    return {"exponents": list(range(1, cfg.depth))}  # n, the least exponent of u_n / PI


def _witness_division(cfg: Config, eta: FontaineElem) -> dict:
    # the constructor (plain) or the factoring (certified) refuses eta unless it is
    # compatible, which makes P * quotient give eta back, one depth lower; no quotient is built
    _, factors = fontaine.factor_by_p_seq(FontaineElem(eta.comps, cfg.closure_mode))
    return {"factor_exponents": [0 if c is None else c.m for c in factors]}


def _witness_witt(cfg: Config, _eta: FontaineElem | None = None) -> dict:
    """The steps and the quotient's coordinate 0 of x = pmp * [X] divided
    by pmp, with x a Witt product: the checker's closed form is its own."""
    ctx = witt.WittCtx(cfg.p, cfg.witt_length)
    _, X, _ = fontaine.generators(cfg.p, DEGREE, cfg.depth, QUOTIENT)
    x = witt.p_seq_minus_p(ctx, X) * witt.WittVec.teichmuller(ctx, X)
    got = witt.divide_by_p_seq_minus_p(x)
    return {"steps": got.steps, "quotient": [elem_to_json(c) for c in got.quotient.comps[0].comps]}


def _same(recorded, again) -> bool:
    """Equal as JSON: 1 does not stand in for true, nor 1.0 for 1."""
    return json.dumps(recorded) == json.dumps(again)


def _compatible(comps: list[TowerElem]) -> list[bool]:
    """r_(n+1)^p = r_n per n, both sides written at t = max(level_n,
    level_(n+1) - 1), where the Frobenius divides no exponent and so no
    recorded level makes it raise."""
    ts = [max(low.level, high.level - 1) for low, high in zip(comps, comps[1:])]
    return [high.frobenius(t) == low.embed(t) for low, high, t in zip(comps, comps[1:], ts)]


def _check_sequence(details: dict, cfg: Config) -> Iterator[str | None]:
    """The sequence is u_n mod p for n = 0..depth, and it is compatible."""
    comps = [residue_from_json(d, cfg) for d in details["sequence"]]
    if comps != [_u(cfg, n, cfg.p) for n in range(cfg.depth + 1)]:
        yield f"the sequence is not u_n mod p for n = 0..{cfg.depth}"
    else:
        yield None if all(_compatible(comps)) else "the sequence is incompatible"


def _check_residue(details: dict, cfg: Config) -> Iterator[str | None]:
    """The residue is u_0 mod p, and it is zero."""
    r0 = residue_from_json(details["residue"], cfg)
    if r0 != _u(cfg, 0, cfg.p):
        yield "the residue is not u_0 mod p"
    else:
        yield None if r0.is_zero else "the base residue is not zero"


def _check_plain_division(details: dict, cfg: Config) -> Iterator[str | None]:
    """Plain division stops at component 1, on the monomial that
    ``pi_divide(1)`` names on u_1 mod p; the operands are those of u_1
    mod p, and the divisor does not divide the dividend."""
    u_1 = _u(cfg, 1, cfg.p)
    try:
        u_1.pi_divide(1)
        named = None
    except tower.NotDivisibleError as exc:
        named = list(exc.monomial)
    if not (_same(details["component"], 1) and _same(details["monomial"], named)):
        yield f"plain division must stop at component 1, monomial {named}"
    operands = tuple(residue_from_json(details[k], cfg) for k in ("divisor", "dividend"))
    if operands != _division_operands(cfg, u_1):
        yield "the divisor and dividend are not X^(3p) + Y^(3p) and X^3 + Y^3 at level 1"
    else:
        yield "the divisor divides the dividend" if tower.poly_divides(*operands)[0] else None


def _decide(cfg: Config, n: int, m: int) -> str | None:
    """The claim (n, m): u_n / PI, rebuilt from the config, is in the
    closure with exponent m.  An integral c^(p^k) stays integral under
    p-th powers, so the example's exponent n settles every m >= n: the
    exponent decided is min(m, n), whose work the config fixes.  Deciding
    a larger m itself works modulo p^(p^(m - n)), which ran past 20 s at
    the default config's m = 5, n = 1."""
    k = min(m, n)
    cert = ClosureCert(_closure_claim(cfg, n), k)
    return None if closure.validate_cert(cert) else f"u_{n} / PI fails with exponent {k}"


def _check_closure(details: dict, cfg: Config) -> Iterator[str | None]:
    """The exponents are exactly 1..depth-1, compared before any power is
    built; then, one verdict per level, (n, n) holds and (n, n - 1)
    fails: n is the least, as an integral c^(p^m) stays integral."""
    levels = list(range(1, cfg.depth))
    if not _same(details["exponents"], levels):
        yield f"the exponents must be {levels}"
        return
    for n in levels:
        error = _decide(cfg, n, n)
        if error is None and _decide(cfg, n, n - 1) is None:
            error = f"u_{n} / PI passes with exponent {n - 1}"
        yield error


def _check_division(details: dict, cfg: Config) -> Iterator[str | None]:
    """One factor exponent e_n per component of eta, each an integer
    (not a boolean) in 0..default_m_max(depth), read before any power is
    built.  e_n = 0 claims that r_n / PI_n is integral; a nonzero e_n
    claims (n, e_n), since with p > 3 the factor r_n / PI_n of eta's
    component n is u_n / PI."""
    exponents, m_max = details["factor_exponents"], fontaine.default_m_max(cfg.depth)
    if not (
        type(exponents) is list
        and len(exponents) == cfg.depth + 1
        and all(type(e) is int and 0 <= e <= m_max for e in exponents)
    ):
        yield f"factor_exponents must be {cfg.depth + 1} integers between 0 and {m_max}"
        return
    for n, e in enumerate(exponents):
        if e:
            yield _decide(cfg, n, e)
        elif not _closure_claim(cfg, n).is_integral:
            yield f"factor exponent {n} is 0, but r_{n} / PI_{n} is not integral"


def _pmp_times(a: TowerElem, n: int, steps: int) -> list[TowerElem]:
    """Index n of pmp * [a] = (a PI_n, -a^p, 0, ...) at a's level L, with
    PI_n = PI^(p^(L - n)), on its first ``steps`` coordinates but the zero
    ones, the unit -1 dropped; PI_0 = p is 0 mod p, so at n = 0 a^p decides."""
    pi_n = TowerElem.monomial(a.ctx, a.ctx.p ** (a.level - n), 0, 0, coeff_mod=a.ctx.p)
    return [a * pi_n, a.frobenius()][:steps]


def _check_witt(details: dict, cfg: Config) -> Iterator[str | None]:
    """No division and no Witt product runs: the recorded quotient's
    coordinate 0, q, is multiplied back as [q] in closed form.  A step
    takes two roots, one in each division, and runs while the Witt length
    and the depth allow: steps = min(witt_length, (depth + 1) // 2), and q
    is a compatible sequence of depth + 1 - 2 * steps in the quotient ring.
    Then pmp * [q] = pmp * [X] on the first ``steps`` coordinates, per
    index n at q_n's level L, X^(p^(L - n))."""
    steps = _natural(details, "steps", "witt")
    if type(details["quotient"]) is not list:
        raise MalformedReportError("the witt quotient must be a list of residues")
    comps = [residue_from_json(d, cfg) for d in details["quotient"]]
    length, comp_depth = cfg.witt_length, cfg.depth + 1 - 2 * steps
    need = min(length, (cfg.depth + 1) // 2)
    if steps != need:
        yield f"steps must be {need} = min(Witt length {length}, (depth + 1) // 2)"
    elif len(comps) != comp_depth + 1:
        yield f"the quotient must be a sequence of depth {comp_depth} after {steps} steps"
    elif low := [n for n, q in enumerate(comps) if q.level < n]:
        raise MalformedReportError(f"witt quotient component {low[0]} sits below its index")
    elif any(q.ctx.mode != QUOTIENT for q in comps) or not all(_compatible(comps)):
        yield "the quotient is not a compatible sequence of the example's ring"
    else:
        for n, q in enumerate(comps):
            x_n = TowerElem.monomial(q.ctx, 0, cfg.p ** (q.level - n), 0, coeff_mod=cfg.p)
            if _pmp_times(q, n, steps) != _pmp_times(x_n, n, steps):
                yield f"pmp * [quotient] is not pmp * [X] on the first {steps} coordinates"
                return
        yield None


#: The example suite in run order, the one place that names its checks:
#: (name, witness, keys, check).  ``witness(cfg, eta)``, with eta from
#: ``_example_eta``, returns what the run found as details with exactly
#: ``keys``, or raises; ``check(details, cfg)`` decides them with no
#: search, one verdict per piece of evidence (None, or the error), and
#: first requires the recorded objects to equal those rebuilt from the
#: config, as one error in place of its decisions.  ``example`` and
#: ``revalidate`` both take their status from ``_checked``.
EXAMPLE_CHECKS = (
    ("sequence_compatibility", _witness_sequence, ("sequence",), _check_sequence),
    ("base_residue_vanishes", _witness_residue, ("residue",), _check_residue),
    (
        "plain_division_fails",
        _witness_plain_division,
        ("component", "monomial", "divisor", "dividend"),
        _check_plain_division,
    ),
    ("closure_certificates", _witness_closure, ("exponents",), _check_closure),
    ("certified_division", _witness_division, ("factor_exponents",), _check_division),
    ("witt_division_roundtrip", _witness_witt, ("steps", "quotient"), _check_witt),
)
CHECK_NAMES = tuple(name for name, _, _, _ in EXAMPLE_CHECKS)


def _checked(row: tuple, details: dict, cfg: Config) -> tuple[str, int, list[str]]:
    """The row checker's status, verdict count and errors on ``details``,
    read only if their keys are the row's: a pass is one verdict or more
    and no error."""
    _, _, keys, check = row
    verdicts = list(check(details, cfg)) if set(details) == set(keys) else []
    errors = [v for v in verdicts if v]
    return (PASS if verdicts and not errors else FAIL), len(verdicts), errors


def _certified(row: tuple, cfg: Config, eta: FontaineElem) -> tuple[str, dict]:
    """The checker's status, with the witness on a pass, else its errors."""
    details = row[1](cfg, eta)
    status, _, errors = _checked(row, details, cfg)
    return status, details if status == PASS else {"error": "; ".join(errors) or "no evidence"}


def run_example_suite(cfg: Config) -> Report:
    """The worked example at prime p: the sum of cubes is killed by the
    base residue map, fails plain division, and divides with closure
    certificates; plus a Witt-level division roundtrip.  eta is built
    once per call and shared by the witnesses that read it."""
    cfg.validate_example()
    eta = _example_eta(cfg)
    steps = [(row[0], partial(_certified, row, cfg, eta)) for row in EXAMPLE_CHECKS]
    return _run_checks(cfg.to_dict(), steps)


def _invariant(fn, rng: random.Random) -> tuple[str, dict]:
    details = fn(rng)
    return details.pop("_status", PASS), details


def run_property_suites(seed: int, timestamp: bool = True) -> Report:
    """Every entry of ``invariants.INVARIANTS``, in order, drawing from
    one generator seeded by ``seed``, the only value the config records;
    statuses are deterministic across seeds, the samples differ."""
    rng = random.Random(seed)
    steps = [(name, partial(_invariant, fn, rng)) for name, fn in INVARIANTS]
    return _run_checks(_stamped({"seed": seed}, timestamp), steps)


# ----------------------------------------------------------------------
def _revalidate(row: tuple, record: dict, cfg: Config) -> CheckRecord:
    """Decide ``record`` again through its row's checker: a recorded pass
    takes the checker's status (``no evidence`` when it decided nothing),
    a fail or undetermined keeps its status."""
    name = row[0]
    status, details = record["status"], record.get("details", {})
    if status not in (PASS, FAIL, UNDETERMINED) or not isinstance(details, dict):
        raise ValueError(f"{name} needs a known status and details that are an object")
    checked, count, errors = _checked(row, details, cfg)
    if status == PASS:
        status, errors = checked, errors if count else ["no evidence"]
    return CheckRecord(name, status, {"revalidated": count, "errors": errors})


def revalidate_report(data) -> Report:
    """Re-check every piece of evidence by independent recomputation.  A
    recorded fail or undetermined keeps its status; a recorded pass stays
    a pass only when its own evidence is all reproduced.  Raises
    MalformedReportError on input without the shape, config
    (``Config.from_dict``) and check names (``CHECK_NAMES``, in order)
    of an example report, or with evidence it cannot read."""
    try:
        config, records = data["config"], data["checks"]
        cfg = Config.from_dict(config)
        if not isinstance(records, list):
            raise TypeError("checks must be a list")
        if tuple(r["name"] for r in records) != CHECK_NAMES:
            raise ValueError(f"the checks are not the example's: {', '.join(CHECK_NAMES)}")
        checks = [_revalidate(c, r, cfg) for c, r in zip(EXAMPLE_CHECKS, records)]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise MalformedReportError(
            f"not a report that can be revalidated ({type(exc).__name__}: {exc})"
        ) from exc
    return Report(config, checks)
