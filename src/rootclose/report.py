"""Check suites and machine-readable reports.

Every passing record embeds enough data (certificates, witnesses,
offending monomials) for the ``revalidate`` pass to reproduce it by
independent recomputation.  Reports are deterministic: one config and
seed give byte-identical JSON, modulo the optional timestamp.
"""

from __future__ import annotations

import datetime
import json
import random
from dataclasses import dataclass, field

from . import closure, fontaine, tower, valuation, witt
from .closure import ClosureCert, LocalElem, NotMember
from .fontaine import CERTIFIED, PLAIN, FontaineElem
from .tower import FREE, QUOTIENT, TowerCtx, TowerElem

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"


@dataclass
class Config:
    p: int = 5
    degree: int = 3
    depth: int = 3
    witt_length: int = 2
    m_max: int | None = None
    seed: int = 0
    fmt: str = "text"
    timestamp: bool = True
    closure_mode: str = CERTIFIED

    @property
    def resolved_m_max(self) -> int:
        return self.m_max if self.m_max is not None else self.depth + 2

    def validate_example(self) -> None:
        valuation.check_prime(self.p)
        if self.p <= 3:
            raise ValueError("the example suite requires a prime p > 3")
        if self.depth < 2:
            raise ValueError("the example suite requires depth >= 2")
        if self.witt_length < 1:
            raise ValueError("witt_length must be >= 1")
        if self.closure_mode not in (PLAIN, CERTIFIED):
            raise ValueError(f"unknown closure mode {self.closure_mode!r}")
        # degree/p coprimality is enforced by the tower context itself
        TowerCtx(self.p, 0, self.degree, QUOTIENT)

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "degree": self.degree,
            "depth": self.depth,
            "witt_length": self.witt_length,
            "m_max": self.resolved_m_max,
            "seed": self.seed,
            "closure_mode": self.closure_mode,
        }
        if self.timestamp:
            out["timestamp"] = (
                datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()
            )
        return out


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
        return {
            "config": self.config,
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details} for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{c.status}] {c.name}")
        verdict = "all checks passed" if self.ok else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# serialization of elements and certificates (coefficients as decimal
# strings: arbitrary precision, bit-exact)
def terms_to_json(terms: dict) -> list:
    return [[a, b, c, str(v)] for (a, b, c), v in sorted(terms.items())]


def terms_from_json(data: list) -> dict:
    return {(a, b, c): int(v) for a, b, c, v in data}


def elem_to_json(e: TowerElem) -> dict:
    return {
        "level": e.ctx.level,
        "ring": e.ctx.mode,
        "terms": terms_to_json(e.terms),
    }


def tower_from_json(d: dict, p: int, degree: int) -> TowerElem:
    ctx = TowerCtx(p, d["level"], degree, d["ring"])
    return TowerElem(ctx, terms_from_json(d["terms"]))


def residue_from_json(d: dict, p: int, degree: int) -> TowerElem:
    ctx = TowerCtx(p, d["level"], degree, d["ring"])
    return TowerElem(ctx, terms_from_json(d["terms"]), p)


def cert_to_json(cert: ClosureCert) -> dict:
    return {
        "m": cert.m,
        "denom_exp": cert.elem.denom_exp,
        "level": cert.elem.level,
        "ring": cert.elem.ctx.mode,
        "num_terms": terms_to_json(cert.elem.num.terms),
        "witness_terms": terms_to_json(cert.witness.terms),
    }


def cert_from_json(d: dict, p: int, degree: int) -> ClosureCert:
    ctx = TowerCtx(p, d["level"], degree, d["ring"])
    num = TowerElem(ctx, terms_from_json(d["num_terms"]))
    witness = TowerElem(ctx, terms_from_json(d["witness_terms"]))
    elem = LocalElem(num, d["denom_exp"], _canonical=True)
    return ClosureCert(elem, d["m"], witness)


# ----------------------------------------------------------------------
def _run_checks(cfg: Config, steps) -> Report:
    checks = []
    for name, fn in steps:
        try:
            details = fn()
            status = details.pop("_status", PASS)
        except fontaine.UndeterminedCongruenceError as exc:
            status, details = UNDETERMINED, {"error": str(exc)}
        except Exception as exc:  # recorded, never raised past the runner
            status, details = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
        checks.append(CheckRecord(name, status, details))
    return Report(cfg.to_dict(), checks)


def _example_elements(cfg: Config, closure_mode: str):
    P, X, Y = fontaine.generators(cfg.p, cfg.degree, cfg.depth, QUOTIENT, closure_mode)
    eta = P**3 + X**3 + Y**3
    return P, X, Y, eta


def run_example_suite(cfg: Config) -> Report:
    """The worked example at prime p: the sum of cubes is killed by the
    base residue map, fails plain division, and divides with closure
    certificates; plus a Witt-level division roundtrip."""
    cfg.validate_example()
    m_max = cfg.resolved_m_max

    def check_compat():
        _, _, _, eta = _example_elements(cfg, PLAIN)
        if not eta.check_compat():
            return {"_status": FAIL, "depth": cfg.depth}
        return {
            "depth": cfg.depth,
            "sequence": [elem_to_json(eta.residue(i)) for i in range(cfg.depth + 1)],
        }

    def check_base_residue():
        _, _, _, eta = _example_elements(cfg, PLAIN)
        r0 = fontaine.base_residue(eta)
        details = {
            "residues": [
                {"elem": elem_to_json(r0), "expect_zero": True},
            ]
        }
        if not r0.is_zero:
            details["_status"] = FAIL
        return details

    def check_plain_division():
        _, _, _, eta = _example_elements(cfg, PLAIN)
        details: dict = {}
        try:
            fontaine.divide_by_p_seq(eta, m_max)
        except fontaine.SequenceDivisionError as exc:
            details["component"] = exc.index
            details["monomial"] = list(exc.monomial) if exc.monomial else None
            if exc.index != 1:
                details["_status"] = FAIL
        else:
            details["_status"] = FAIL
            details["error"] = "plain division unexpectedly succeeded"
            return details
        # independent negative certificate: project the first component and
        # the defining relation to the free presentation modulo PI and ask
        # for single-divisor polynomial divisibility
        free1 = TowerCtx(cfg.p, 1, cfg.degree, FREE)
        d = cfg.degree
        r1 = eta.residue(1).xy_part()
        dividend = TowerElem(free1, r1.terms, cfg.p)
        divisor = TowerElem(free1, {(0, d * cfg.p, 0): 1, (0, 0, d * cfg.p): 1}, cfg.p)
        divides, _ = tower.poly_divides(divisor, dividend)
        details["divisions"] = [
            {
                "divisor": elem_to_json(divisor),
                "dividend": elem_to_json(dividend),
                "divides": divides,
            }
        ]
        if divides:
            details["_status"] = FAIL
        return details

    def check_closure_certs():
        certs = []
        for n in range(1, cfg.depth):
            ctx = TowerCtx(cfg.p, n, cfg.degree, QUOTIENT)
            u_n = TowerElem(ctx, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
            got = closure.membership(LocalElem(u_n, 1), m_max)
            if isinstance(got, NotMember):
                return {"_status": FAIL, "error": f"no certificate for level {n}"}
            if got.m != n or not closure.validate_cert(got):
                return {"_status": FAIL, "error": f"bad certificate at level {n} (m={got.m})"}
            certs.append(cert_to_json(got))
        return {"certificates": certs}

    def check_certified_division():
        P, _, _, eta = _example_elements(cfg, cfg.closure_mode)
        quotient, trace = fontaine.divide_by_p_seq_traced(eta, m_max)
        P_short = P.truncate(cfg.depth - 1)
        product = P_short * quotient
        roundtrip = product.equals(eta.truncate(cfg.depth - 1), m_max)
        certs = [f["cert"] for f in trace["factors"] if "cert" in f]
        compat_certs = [cchk["cert"] for cchk in trace["compat"] if "cert" in cchk]
        details = {
            "certificates": [cert_to_json(c) for c in certs + compat_certs],
            "factor_exponents": [
                f["cert"].m if "cert" in f else 0 for f in trace["factors"]
            ],
            "roundtrip": roundtrip,
            "quotient_depth": quotient.depth,
        }
        if not roundtrip:
            details["_status"] = FAIL
        return details

    def check_witt_roundtrip():
        ctx = witt.WittCtx(cfg.p, cfg.witt_length)
        _, X, _, _ = _example_elements(cfg, PLAIN)
        w = witt.WittVec.teichmuller(ctx, X)
        pmp = witt.p_seq_minus_p(ctx, w.comps[0])
        x_vec = pmp * w
        kernel = witt.theta(x_vec, 1).is_zero
        result = witt.divide_by_p_seq_minus_p(x_vec, m_max=m_max)
        details = {
            "recheck": "witt_roundtrip",
            "kernel_at_precision_1": kernel,
            "steps": result.steps,
            "component_depth": result.depth,
            "exhausted": result.exhausted,
        }
        # each approximation step costs one root shift in the sequence
        # division and one in the Witt division by p
        achievable = min(cfg.witt_length, (cfg.depth + 1) // 2)
        if not kernel or result.steps < achievable:
            details["_status"] = FAIL
        return details

    steps = [
        ("sequence_compatibility", check_compat),
        ("base_residue_vanishes", check_base_residue),
        ("plain_division_fails", check_plain_division),
        ("closure_certificates", check_closure_certs),
        ("certified_division", check_certified_division),
        ("witt_division_roundtrip", check_witt_roundtrip),
    ]
    return _run_checks(cfg, steps)


# ----------------------------------------------------------------------
# property suites
def _random_tower(rng: random.Random, ctx: TowerCtx, terms: int = 3, span: int = 5) -> TowerElem:
    out = {}
    for _ in range(rng.randint(1, terms)):
        key = (rng.randrange(span), rng.randrange(span), rng.randrange(span))
        out[key] = rng.randint(-9, 9)
    return TowerElem(ctx, out)


def _random_seq(
    rng: random.Random, p: int, degree: int, depth: int, mode: str = QUOTIENT
) -> FontaineElem:
    ctx = TowerCtx(p, depth, degree, mode)
    seed = TowerElem.monomial(
        ctx,
        rng.randrange(ctx.pi_order),
        rng.randrange(3),
        rng.randrange(3),
        rng.randint(1, p - 1),
        coeff_mod=p,
    )
    comps = [seed ** (p ** (depth - i)) for i in range(depth + 1)]
    return FontaineElem(comps, PLAIN)


def run_property_suites(cfg: Config) -> Report:
    """Randomized invariants for every layer, driven by the configured
    seed; statuses are deterministic across seeds, the samples differ."""
    rng = random.Random(cfg.seed)

    def valuation_rule():
        count = 0
        for p in (2, 3, 5):
            for m in range(4):
                for i in range(1, p**m + 1):
                    want = valuation.vp(p, valuation.binom(p**m, i))
                    if valuation.binom_valuation(p, m, i) != want:
                        return {"_status": FAIL, "p": p, "m": m, "i": i}
                    count += 1
        return {"cases": count}

    def valuation_products():
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            a = rng.randint(1, 10**6)
            b = rng.randint(1, 10**6)
            if valuation.vp(p, a * b) != valuation.vp(p, a) + valuation.vp(p, b):
                return {"_status": FAIL, "p": p, "a": a, "b": b}
        return {"cases": 200}

    def pascal():
        for _ in range(200):
            n = rng.randint(1, 60)
            k = rng.randint(1, n)
            lhs = valuation.binom(n, k)
            rhs = valuation.binom(n - 1, k - 1) + (valuation.binom(n - 1, k) if k < n else 0)
            if k == n:
                rhs = valuation.binom(n - 1, k - 1)
            if lhs != rhs:
                return {"_status": FAIL, "n": n, "k": k}
        return {"cases": 200}

    def ring_axioms():
        for p, level, degree in ((2, 1, 3), (5, 1, 3), (3, 2, 2)):
            ctx = TowerCtx(p, level, degree, QUOTIENT)
            for _ in range(20):
                a = _random_tower(rng, ctx)
                b = _random_tower(rng, ctx)
                c = _random_tower(rng, ctx)
                if (a + b) + c != a + (b + c) or a + b != b + a:
                    return {"_status": FAIL, "p": p}
                if a * (b + c) != a * b + a * c or a * b != b * a:
                    return {"_status": FAIL, "p": p}
        return {"cases": 60}

    def embed_hom():
        ctx = TowerCtx(5, 1, 3, QUOTIENT)
        for _ in range(25):
            a = _random_tower(rng, ctx)
            b = _random_tower(rng, ctx)
            if (a * b).embed(2) != a.embed(2) * b.embed(2):
                return {"_status": FAIL}
            if (a + b).embed(2) != a.embed(2) + b.embed(2):
                return {"_status": FAIL}
        return {"cases": 25}

    def pi_roundtrip():
        for p, level in ((2, 1), (5, 1), (5, 2)):
            ctx = TowerCtx(p, level, 3, QUOTIENT)
            piv = TowerElem.monomial(ctx, 1, 0, 0)
            for _ in range(15):
                e = _random_tower(rng, ctx)
                if (piv * e).pi_divide(1) != e:
                    return {"_status": FAIL, "p": p, "level": level}
        return {"cases": 45}

    def frobenius_additive():
        ctx = TowerCtx(5, 1, 3, QUOTIENT)
        for _ in range(20):
            a = _random_tower(rng, ctx).reduce_mod_p()
            b = _random_tower(rng, ctx).reduce_mod_p()
            if (a + b).frobenius() != a.frobenius() + b.frobenius():
                return {"_status": FAIL}
        return {"cases": 20}

    def relation_dies():
        for level in (0, 1, 2):
            ctx = TowerCtx(5, level, 3, QUOTIENT)
            pn = ctx.pi_order
            e = TowerElem(
                ctx, {(3 * pn, 0, 0): 1, (0, 3 * pn, 0): 1, (0, 0, 3 * pn): 1}
            )
            if not e.reduce_mod_p().is_zero:
                return {"_status": FAIL, "level": level}
        return {"cases": 3}

    def closure_bound():
        ctx = TowerCtx(2, 1, 3, QUOTIENT)
        cubes = TowerElem(ctx, {(0, 3, 0): 1, (0, 0, 3): 1})
        pairs = 0
        worst = 0
        for _ in range(30):
            def certified(rng=rng):
                g = _random_tower(rng, ctx, terms=2, span=3)
                h = _random_tower(rng, ctx, terms=2, span=3)
                num = TowerElem.monomial(ctx, 1, 0, 0) * g + rng.randrange(2) * cubes + 2 * h
                got = closure.membership(LocalElem(num, 1), 1)
                return got if isinstance(got, ClosureCert) else None

            s = certified()
            t = certified()
            if s is None or t is None:
                continue
            cert = closure.closure_add(s, t)
            worst = max(worst, cert.m)
            if cert.m > 5:
                return {"_status": FAIL, "m": cert.m}
            pairs += 1
        return {"pairs": pairs, "worst_m": worst}

    def closure_monotone():
        ctx = TowerCtx(5, 1, 3, QUOTIENT)
        checked = 0
        for _ in range(20):
            num = _random_tower(rng, ctx, terms=2, span=4)
            c = LocalElem(num * TowerElem.monomial(ctx, 1, 0, 0) + 5 * num, 1)
            got = closure.membership(c, 3)
            if isinstance(got, NotMember):
                continue
            # succeed at m implies succeed at m+1 (and power stability)
            p = 5
            power = c.num ** (p ** (got.m + 1))
            try:
                power.pi_divide(c.denom_exp * p ** (got.m + 1))
            except tower.NotDivisibleError:
                return {"_status": FAIL, "m": got.m}
            for k in (2, 3):
                kp = c.num ** (k * p**got.m)
                try:
                    kp.pi_divide(c.denom_exp * k * p**got.m)
                except tower.NotDivisibleError:
                    return {"_status": FAIL, "k": k}
            checked += 1
        return {"cases": checked}

    def witt_ghost(polys_override=None):
        for p, n in ((2, 3), (3, 3), (5, 2)):
            ctx = witt.WittCtx(p, n)
            sums, prods = polys_override or ctx.polynomials()
            for _ in range(30):
                xs = [rng.randint(-9, 9) for _ in range(n)]
                ys = [rng.randint(-9, 9) for _ in range(n)]
                vals = xs + ys
                sv = [witt._eval(s, vals) for s in sums]
                mv = [witt._eval(m, vals) for m in prods]
                gx = witt.ghost(witt.WittVec(ctx, xs))
                gy = witt.ghost(witt.WittVec(ctx, ys))
                gs = witt.ghost(witt.WittVec(ctx, sv))
                gm = witt.ghost(witt.WittVec(ctx, mv))
                if gs != [a + b for a, b in zip(gx, gy)]:
                    return {"_status": FAIL, "p": p, "op": "add"}
                if gm != [a * b for a, b in zip(gx, gy)]:
                    return {"_status": FAIL, "p": p, "op": "mul"}
        return {"cases": 90}

    def witt_ghost_negative():
        # tamper with a copy of the cached polynomials: the ghost oracle
        # must notice (negative control for the oracle itself)
        sums, prods = witt.witt_polynomials(2, 3)
        bad_sums = list(sums)
        bad = dict(bad_sums[1])
        first = next(iter(bad))
        bad[first] += 1
        bad_sums[1] = bad
        result = witt_ghost(polys_override=(tuple(bad_sums), prods))
        if result.get("_status") == FAIL:
            return {"detected": True}
        return {"_status": FAIL, "error": "tampered polynomials went unnoticed"}

    def witt_order():
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

    def witt_vf():
        ctx = witt.WittCtx(3, 3)
        base = TowerCtx(3, 1, 1, FREE)
        for _ in range(10):
            comps = [
                _random_tower(rng, base, terms=2, span=3).reduce_mod_p() for _ in range(3)
            ]
            v = witt.WittVec(ctx, comps)
            lhs = witt.mul_by_p(v)
            rhs = witt.WittVec.zero(ctx, comps[0])
            for _ in range(3):
                rhs = rhs + v
            if lhs != rhs:
                return {"_status": FAIL}
        return {"cases": 10}

    def teichmuller_mult():
        ctx = witt.WittCtx(5, 2)
        base = TowerCtx(5, 1, 3, QUOTIENT)
        for _ in range(10):
            a = _random_tower(rng, base, terms=2, span=3).reduce_mod_p()
            b = _random_tower(rng, base, terms=2, span=3).reduce_mod_p()
            lhs = witt.WittVec.teichmuller(ctx, a) * witt.WittVec.teichmuller(ctx, b)
            if lhs != witt.WittVec.teichmuller(ctx, a * b):
                return {"_status": FAIL}
        return {"cases": 10}

    def base_residue_hom():
        for _ in range(10):
            a = _random_seq(rng, 5, 3, 2)
            b = _random_seq(rng, 5, 3, 2)
            if fontaine.base_residue(a * b) != fontaine.base_residue(
                a
            ) * fontaine.base_residue(b):
                return {"_status": FAIL}
            if fontaine.base_residue(a + b) != fontaine.base_residue(
                a
            ) + fontaine.base_residue(b):
                return {"_status": FAIL}
        return {"cases": 10}

    def theta_mult():
        for _ in range(8):
            a = _random_seq(rng, 5, 3, 2)
            b = _random_seq(rng, 5, 3, 2)
            k = 2
            if fontaine.theta(a * b, k) != fontaine.theta(a, k) * fontaine.theta(b, k):
                return {"_status": FAIL}
        return {"cases": 8}

    def theta_lifts():
        for _ in range(8):
            a = _random_seq(rng, 5, 3, 2)
            k = 2
            base = fontaine.theta(a, k)
            # a second lift of the deepest residue, shifted by p * junk
            last = a.residue(a.depth)
            junk = _random_tower(rng, last.ctx, terms=2, span=3)
            lift2 = last.lift() + 5 * junk
            if base != lift2.pow_mod(5**a.depth, 5**k):
                return {"_status": FAIL}
        return {"cases": 8}

    def division_roundtrip():
        P, _, _ = fontaine.generators(5, 3, 2, QUOTIENT)
        for _ in range(8):
            s = _random_seq(rng, 5, 3, 2)
            e = P * s
            if not fontaine.base_residue(e).is_zero:
                return {"_status": FAIL, "error": "product escaped the kernel"}
            t = fontaine.divide_by_p_seq(e)
            if not (P.truncate(1) * t).equals(e.truncate(1)):
                return {"_status": FAIL}
        return {"cases": 8}

    def witt_kernel_roundtrip():
        ctx = witt.WittCtx(5, 2)
        for _ in range(3):
            w_comps = [_random_seq(rng, 5, 3, 4) for _ in range(2)]
            w = witt.WittVec(ctx, w_comps)
            pmp = witt.p_seq_minus_p(ctx, w_comps[0])
            x_vec = pmp * w
            result = witt.divide_by_p_seq_minus_p(x_vec)
            if result.steps < 2:
                return {"_status": FAIL, "steps": result.steps}
        return {"cases": 3}

    steps = [
        ("valuation_binomial_rule", valuation_rule),
        ("valuation_product_rule", valuation_products),
        ("pascal_recurrence", pascal),
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
    ]
    return _run_checks(cfg, steps)


# ----------------------------------------------------------------------
def revalidate_report(data: dict) -> Report:
    """Re-check every embedded certificate and witness by independent
    recomputation; a reproduced pass stays a pass."""
    cfg_d = data["config"]
    p = cfg_d["p"]
    degree = cfg_d["degree"]
    checks = []
    for check in data["checks"]:
        name = check["name"]
        details = check.get("details", {})
        errors: list[str] = []
        revalidated = 0
        for cert_d in details.get("certificates", []):
            cert = cert_from_json(cert_d, p, degree)
            if not closure.validate_cert(cert):
                errors.append("certificate failed revalidation")
            revalidated += 1
        for div_d in details.get("divisions", []):
            divisor = residue_from_json(div_d["divisor"], p, degree)
            dividend = residue_from_json(div_d["dividend"], p, degree)
            divides, _ = tower.poly_divides(divisor, dividend)
            if divides != div_d["divides"]:
                errors.append("division outcome changed")
            revalidated += 1
        for res_d in details.get("residues", []):
            elem = residue_from_json(res_d["elem"], p, degree)
            if elem.is_zero != res_d["expect_zero"]:
                errors.append("residue zero-check changed")
            revalidated += 1
        if "sequence" in details:
            comps = [residue_from_json(d, p, degree) for d in details["sequence"]]
            if not FontaineElem(comps, PLAIN).check_compat():
                errors.append("sequence compatibility changed")
            revalidated += 1
        if details.get("recheck") == "witt_roundtrip":
            cfg = Config(
                p=p,
                degree=degree,
                depth=cfg_d["depth"],
                witt_length=cfg_d["witt_length"],
                m_max=cfg_d.get("m_max"),
                timestamp=False,
            )
            ctx = witt.WittCtx(cfg.p, cfg.witt_length)
            _, X, _, _ = _example_elements(cfg, PLAIN)
            w = witt.WittVec.teichmuller(ctx, X)
            pmp = witt.p_seq_minus_p(ctx, w.comps[0])
            result = witt.divide_by_p_seq_minus_p(pmp * w, m_max=cfg.resolved_m_max)
            if result.steps != details.get("steps"):
                errors.append("witt roundtrip precision changed")
            revalidated += 1
        if check["status"] == PASS and errors:
            status = FAIL
        else:
            status = PASS
        checks.append(
            CheckRecord(name, status, {"revalidated": revalidated, "errors": errors})
        )
    return Report(cfg_d, checks)
