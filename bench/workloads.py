"""The three benchmark workloads: seeded inputs, one timed job, and the
check of its answer.

Each workload turns a seed into a job list made of *blocks*.  A block is
a fixed mix of job kinds in seeded order, so every block, and therefore
every run, loads the layers in the same proportions; only the concrete
inputs change with the seed.  ``run`` is the part a user waits for and
is timed; ``check`` decides whether the answer is right and is not part
of the job time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Job:
    index: int
    block: int
    kind: str
    spec: object


@dataclass
class Outcome:
    """``summary`` is the answer as folded into the outcome digest;
    ``recheck`` is the (start, end) of the re-check, on ``perf_counter``."""

    ok: bool
    summary: str
    evidence_bytes: int
    recheck: tuple[float, float]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(rc, argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rc["cli"].main(argv)
    return code, buf.getvalue()


def _blocks(rng: random.Random, n_blocks: int, kinds: list, make) -> list[Job]:
    jobs: list[Job] = []
    for block in range(n_blocks):
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            jobs.append(Job(len(jobs), block, str(kind), make(rng, kind, block)))
    return jobs


# ----------------------------------------------------------------------
# certify: the worked-example suite, then revalidate on its report
CHECKS = (
    "sequence_compatibility",
    "base_residue_vanishes",
    "plain_division_fails",
    "closure_certificates",
    "certified_division",
    "witt_division_roundtrip",
)
ALL_PASS = {name: "pass" for name in CHECKS}

#: (name, example arguments, expected per-check status).  The plain-mode
#: run is the negative control: its certified division must fail.
CERTIFY_CONFIGS = (
    ("p5-d3", ["--p", "5", "--depth", "3"], ALL_PASS),
    ("p7-d2", ["--p", "7", "--depth", "2"], ALL_PASS),
    ("p5-d2-w3", ["--p", "5", "--depth", "2", "--witt-len", "3"], ALL_PASS),
    ("p5-d2", ["--p", "5", "--depth", "2"], ALL_PASS),
    (
        "p5-d3-plain",
        ["--p", "5", "--depth", "3", "--mode", "plain"],
        {**ALL_PASS, "certified_division": "fail"},
    ),
)


class Workload:
    name = ""
    #: blocks in the job list of one run
    blocks = 1
    #: (p, length) pairs of the Witt polynomials the jobs use
    witt_shapes: tuple = ()

    def prepare(self, rc, jobs: list[Job]) -> None:
        """Build library inputs for the generated job list."""


#: Runs of each config per block.  The p=5 depth 3 headline takes about
#: half the block's time; repeating the short configs puts the median
#: among eight p=7 runs and the 90th percentile among the p=5 witt-len 3
#: runs, rather than on single samples.
CERTIFY_MIX = {"p5-d3": 1, "p7-d2": 8, "p5-d2-w3": 2, "p5-d2": 2, "p5-d3-plain": 2}


class Certify(Workload):
    name = "certify"
    blocks = 2
    witt_shapes = ((5, 2), (7, 2), (5, 3))

    def jobs(self, seed: int) -> list[Job]:
        configs = {c[0]: c for c in CERTIFY_CONFIGS}
        kinds = [name for name, n in CERTIFY_MIX.items() for _ in range(n)]
        return _blocks(random.Random(seed), self.blocks, kinds, lambda r, k, b: configs[k])

    def run(self, rc, job: Job) -> dict:
        name, args, _ = job.spec
        code, text = _cli(rc, ["example", *args, "--format", "json", "--no-timestamp"])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        try:
            t0 = perf_counter()
            re_code, re_text = _cli(rc, ["revalidate", str(path), "--format", "json"])
            recheck = (t0, perf_counter())
        finally:
            path.unlink()
        return {"code": code, "text": text, "re_code": re_code, "re_text": re_text, "recheck": recheck}

    def check(self, rc, job: Job, answer: dict, expected: dict | None = None) -> Outcome:
        name, _, want = job.spec
        want = want if expected is None else expected
        statuses = {c["name"]: c["status"] for c in json.loads(answer["text"])["checks"]}
        rechecked = {c["name"]: c["status"] for c in json.loads(answer["re_text"])["checks"]}
        all_pass = all(s == "pass" for s in want.values())
        ok = statuses == want and answer["code"] == (0 if all_pass else 1)
        # every check that passed must pass again on revalidation; the
        # verdict on a check that failed is left to the program
        ok = ok and all(rechecked.get(n) == "pass" for n, s in want.items() if s == "pass")
        if all_pass:
            ok = ok and answer["re_code"] == 0
        summary = f"{name}|{answer['code']}|{sorted(statuses.items())}|{answer['re_code']}|{_sha(answer['text'])}"
        return Outcome(ok, summary, len(answer["text"].encode()), answer["recheck"])


# ----------------------------------------------------------------------
# closure-query: eval --check-closure on seeded expressions
CQ_P, CQ_DEGREE, CQ_MMAX = 5, 3, 2
#: Job kinds of one block, per level L: random sums of 1-4 terms (the
#: 3-term sums three times, so that the median job falls inside their
#: spread rather than in a gap between kinds; the 4-term sums at L = 2
#: twice, so that the 90th percentile falls among the slow 4-term
#: queries rather than in the sparse stretch just below them), and the sum
#: p^e + x^e + y^e with e = 3 * p^i, alone or with one random term.  Its
#: p^(L-i)-th power dies modulo p by the degree-3 relation, so alone
#: over p^(j/p^L) with j <= p^i it is always a member: those jobs are
#: where certificates come from.  Most other queries miss.
CQ_KINDS = [
    kind
    for L in (1, 2)
    for kind in (
        [(L, "random", 1), (L, "random", 2)]
        + [(L, "relation", 3, i) for i in range(L)]
        + [(L, "random", 3)] * 3
        + [(L, "random", 4)] * L
        + [(L, "relation", 4, L - 1)]
    )
]


def _cq_terms(rng: random.Random, n: int, den: int) -> list[tuple[int, str, int]]:
    # variables cycle through a shuffled p, x, y so that a sum of n terms
    # always has min(n, 3) of them, and a repeated variable gets a new
    # exponent: the cost of a query grows steeply with the number of
    # distinct monomials
    order = rng.sample("pxy", 3)
    exps = rng.sample(range(1, den + 1), 2)
    return [(rng.randint(1, 4), order[k % 3], exps[k // 3] if k % 3 == 0 else rng.randint(1, den))
            for k in range(n)]


def cq_spec(rng: random.Random, kind, block: int) -> tuple[int, list, int]:
    L, shape, n = kind[:3]
    den = CQ_P**L
    if shape == "random":
        return L, _cq_terms(rng, n, den), rng.randint(1, den - 1)
    i = kind[3]
    c = rng.randint(1, 4)
    terms = [(c, v, 3 * CQ_P**i) for v in "pxy"] + _cq_terms(rng, n - 3, den)
    return L, terms, rng.randint(1, CQ_P**i)


def cq_expr(spec) -> str:
    L, terms, j = spec
    den = CQ_P**L
    parts = [f"{v}^({e}/{den})" if c == 1 else f"{c}*{v}^({e}/{den})" for c, v, e in terms]
    return f"({'+'.join(parts)})/p^({j}/{den})"


def cq_element(rc, spec):
    """The queried element built directly from the term list, without
    the parser."""
    L, terms, j = spec
    tower = rc["tower"]
    ctx = tower.TowerCtx(CQ_P, L, CQ_DEGREE, tower.QUOTIENT)
    raw: dict = {}
    for c, v, e in terms:
        mono = {"p": (e, 0, 0), "x": (0, e, 0), "y": (0, 0, e)}[v]
        raw[mono] = raw.get(mono, 0) + c
    return rc["closure"].LocalElem(tower.TowerElem(ctx, raw), j)


def smallest_exponent(rc, elem, m_max: int) -> int | None:
    """Smallest m <= m_max with elem^(p^m) integral, decided in
    truncated arithmetic, independently of ``closure.membership``.

    With num the numerator and k = denom_exp * p^m, the question is
    whether PI^k divides y = num^(p^m).  Normal forms PI^a X^b Y^c
    (a < p^L) are a Z-basis and PI^(p^L) = p, so a multiple of PI^k has
    coefficients divisible by p at every a < k.  Hence a coefficient of
    y mod p at some a < k refutes divisibility (the cheap test: mod p,
    the p-th powers of most sums collapse).  Otherwise the question is
    decided on y mod p^Q with p^Q in (PI^k), i.e. Q * p^L >= k.
    """
    if elem.denom_exp == 0:
        return 0
    not_divisible = rc["tower"].NotDivisibleError
    order = elem.ctx.pi_order
    for m in range(m_max + 1):
        e, k = CQ_P**m, elem.denom_exp * CQ_P**m
        if any(a < k for a, _, _ in elem.num.pow_mod(e, CQ_P).terms):
            continue
        try:
            elem.num.pow_mod(e, CQ_P ** (-(-k // order))).pi_divide(k)
        except not_divisible:
            continue
        return m
    return None


class ClosureQuery(Workload):
    name = "closure-query"
    blocks = 48

    def jobs(self, seed: int) -> list[Job]:
        return _blocks(random.Random(seed), self.blocks, CQ_KINDS, cq_spec)

    def run(self, rc, job: Job) -> dict:
        code, text = _cli(
            rc,
            ["eval", cq_expr(job.spec), "--check-closure", "--mmax", str(CQ_MMAX),
             "--p", str(CQ_P), "--degree", str(CQ_DEGREE), "--format", "json"],
        )
        return {"code": code, "text": text}

    def check(self, rc, job: Job, answer: dict, expected=None) -> Outcome:
        """``expected``, when given, is ``(m,)`` with m the smallest
        exponent, or None for a miss."""
        report, closure = rc["report"], rc["closure"]
        out = json.loads(answer["text"])
        elem = cq_element(rc, job.spec)
        want_m = smallest_exponent(rc, elem, CQ_MMAX) if expected is None else expected[0]
        got = out["closure"]
        ok = (
            out["level"] == elem.level
            and out["denom_exp"] == elem.denom_exp
            and out["num_terms"] == report.terms_to_json(elem.num.terms)
            and got["member"] == (want_m is not None)
            and answer["code"] == (0 if got["member"] else 1)
        )
        evidence, recheck = 0, (0.0, 0.0)
        if got["member"]:
            cert_json = got["certificate"]
            evidence = len(json.dumps(cert_json, sort_keys=True).encode())
            t0 = perf_counter()
            cert = report.cert_from_json(cert_json, CQ_P, CQ_DEGREE)
            valid = closure.validate_cert(cert)
            recheck = (t0, perf_counter())
            ok = ok and valid and cert.m == want_m and cert.elem == elem
            answer_key = f"member m={cert.m} {_sha(json.dumps(cert_json, sort_keys=True))}"
        else:
            ok = ok and got["m_max"] == CQ_MMAX
            answer_key = f"miss definite={got['definite_nonmember']}"
        return Outcome(ok, f"{cq_expr(job.spec)}|{answer_key}", evidence, recheck)


# ----------------------------------------------------------------------
# witt-kernel: divide (p-root sequence - p) * w by (p-root sequence - p)
#: (p, degree, Witt length, sequence depth) -> jobs per block of 20.
#: The mix puts the median among the (2,3,3,5) jobs, whose times are
#: close together, and the 90th percentile among the (3,2,3,6) jobs,
#: rather than on a gap between two shapes.
WK_MIX = {(5, 3, 2, 4): 6, (5, 3, 2, 5): 2, (2, 3, 3, 5): 8, (3, 2, 3, 6): 3, (2, 3, 4, 7): 1}
#: Achieved (steps, depth, exhausted) per shape; each step costs one
#: unit of depth in the sequence division and one in the division by p.
WK_EXPECTED = {
    (5, 3, 2, 4): (2, 1, False),
    (5, 3, 2, 5): (2, 2, False),
    (2, 3, 3, 5): (3, 0, False),
    (3, 2, 3, 6): (3, 1, False),
    (2, 3, 4, 7): (4, 0, False),
}


def wk_seed_terms(rng: random.Random, shape, n_terms: int) -> dict:
    p, _, _, depth = shape
    terms: dict = {}
    while len(terms) < n_terms:
        terms[(rng.randrange(p**depth), rng.randrange(3), rng.randrange(3))] = rng.randint(1, p - 1)
    return terms


#: The shape that holds the 90th percentile gets 2-term seeds only: its
#: 1-term jobs run about a quarter faster, and the percentile would
#: otherwise sit on the gap between the two.
WK_TWO_TERM_SHAPES = {(3, 2, 3, 6)}


def wk_spec(rng: random.Random, kind, block: int):
    shape, slot = kind
    # otherwise alternate 1- and 2-term seeds, so every block has the same mix
    n_terms = 2 if shape in WK_TWO_TERM_SHAPES else 1 + (slot + block) % 2
    return shape, [wk_seed_terms(rng, shape, n_terms) for _ in range(shape[2])]


def wk_vector(rc, spec):
    """The Witt vector w whose coordinates are the compatible sequences
    of p-power roots of the seeds."""
    (p, degree, length, depth), seeds = spec
    tower, fontaine, witt = rc["tower"], rc["fontaine"], rc["witt"]
    ctx = tower.TowerCtx(p, depth, degree, tower.QUOTIENT)
    coords = []
    for terms in seeds:
        seed = tower.ResidueElem(ctx, terms)
        comps = [seed ** (p ** (depth - i)) for i in range(depth + 1)]
        coords.append(fontaine.FontaineElem(comps, fontaine.PLAIN))
    return witt.WittVec(witt.WittCtx(p, length), coords)


class WittKernel(Workload):
    name = "witt-kernel"
    blocks = 5
    witt_shapes = tuple(sorted({(s[0], s[2]) for s in WK_MIX}))

    def jobs(self, seed: int) -> list[Job]:
        kinds = [(shape, slot) for shape, n in WK_MIX.items() for slot in range(n)]
        return _blocks(random.Random(seed), self.blocks, kinds, wk_spec)

    def prepare(self, rc, jobs: list[Job]) -> None:
        for job in jobs:
            job.spec = (*job.spec, wk_vector(rc, job.spec))

    def run(self, rc, job: Job) -> dict:
        witt = rc["witt"]
        w = job.spec[2]
        pmp = witt.p_seq_minus_p(w.ctx, w.comps[0])
        x = pmp * w
        return {"x": x, "pmp": pmp, "result": witt.divide_by_p_seq_minus_p(x)}

    def check(self, rc, job: Job, answer: dict, expected=None) -> Outcome:
        shape, _, w = job.spec
        res, x, pmp = answer["result"], answer["x"], answer["pmp"]
        want = WK_EXPECTED[shape] if expected is None else expected
        ok = (res.steps, res.depth, res.exhausted) == want
        t0 = perf_counter()
        product = pmp * res.quotient
        q = res.quotient
        for i in range(res.steps):
            # the quotient is w itself, and multiplying back gives x
            d = min(res.depth, q.comps[i].depth)
            ok = ok and q.comps[i].truncate(d).equals(w.comps[i].truncate(d))
            d = min(res.depth, product.comps[i].depth, x.comps[i].depth)
            ok = ok and product.comps[i].truncate(d).equals(x.comps[i].truncate(d))
        recheck = (t0, perf_counter())
        elem_to_json = rc["report"].elem_to_json
        serial = json.dumps([[elem_to_json(c) for c in coord.comps] for coord in q.comps])
        summary = f"{shape}|{res.steps}|{res.depth}|{res.exhausted}|{_sha(serial)}"
        return Outcome(ok, summary, len(serial.encode()), recheck)


WORKLOADS = {wl.name: wl for wl in (Certify(), ClosureQuery(), WittKernel())}
