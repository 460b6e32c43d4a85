"""Span and counter tracing of the rootclose layers, applied from outside.

The library has no hooks of its own, so the tracer replaces each traced
function with a wrapper, everywhere it is bound: the defining module or
class, every module of the package that imported it under its own name,
and same-class aliases such as ``__rmul__ = __mul__``.  ``uninstall``
puts every original back.

Spans are kept in memory as parallel arrays (name id, parent index, job
id, start, end) so that a traced run of a few million calls stays small;
self time is computed from them when the run ends, and only the per-layer
summary is printed.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter


def self_times(names, parents, starts, ends) -> tuple[dict, dict]:
    """Per-name self time and inclusive time of a span tree.

    Span ``i`` is named ``names[i]``, runs from ``starts[i]`` to
    ``ends[i]`` and has parent index ``parents[i]`` (-1 for a root).
    The tree comes from one thread, so the children of a span are
    disjoint and the part of its interval they cover is the sum of
    their durations.  Inclusive time counts only spans whose parent has
    another name, so a name nested in itself is not counted twice.
    """
    n = len(names)
    covered = [0.0] * n
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    own: dict = defaultdict(float)
    total: dict = defaultdict(float)
    for i in range(n):
        dur = ends[i] - starts[i]
        name = names[i]
        own[name] += dur - covered[i]
        parent = parents[i]
        if parent < 0 or names[parent] != name:
            total[name] += dur
    return dict(own), dict(total)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.job_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k

    def peak(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return nid

    def span_wrapper(self, fn, name: str, after=None, on_error=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` and
        ``on_error(exc, args)`` run inside the span."""
        nid = self._nid(name)
        stack, name_id, parent, job = self._stack, self.name_id, self.parent, self.job
        start, end = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, args)
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_wrapper(self, fn, name: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` and every alias of it with ``make(fn)``.

        Aliases are attributes of the same class, or of any loaded
        ``rootclose`` module, bound to the very same object.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        homes = [owner]
        if not isinstance(owner, type):
            homes += [
                mod
                for name, mod in list(sys.modules.items())
                if mod is not None and mod is not owner
                and (name == "rootclose" or name.startswith("rootclose."))
            ]
        wrapper = make(original)
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    self._undo.append((home, key, value))
                    setattr(home, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            home, key, value = self._undo.pop()
            setattr(home, key, value)

    # ------------------------------------------------------------------
    def span_count(self) -> int:
        return len(self.start)

    def totals(self) -> tuple[dict, dict, dict]:
        """(calls, self seconds, inclusive seconds) per span name."""
        own, total = self_times(self.name_id, self.parent, self.start, self.end)
        calls: dict = defaultdict(int)
        for nid in self.name_id:
            calls[nid] += 1
        table = self.name_table
        return (
            {table[k]: v for k, v in calls.items()},
            {table[k]: v for k, v in own.items()},
            {table[k]: v for k, v in total.items()},
        )


# ----------------------------------------------------------------------
# the rootclose layers

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    ("valuation.check_prime.calls", "count", "lower"),
    ("tower.ctx.created", "count", "lower"),
    ("tower.mul.calls", "count", "lower"),
    ("tower.mul.self_s", "s", "lower"),
    ("tower.mul.term_pairs", "count", "lower"),
    ("tower.mul.max_out_terms", "terms", "lower"),
    ("tower.mul.max_coeff_bits", "bits", "lower"),
    ("tower.pow.calls", "count", "lower"),
    ("tower.pow.total_s", "s", "lower"),
    ("tower.residue_mul.calls", "count", "lower"),
    ("tower.residue_mul.self_s", "s", "lower"),
    ("tower.residue_mul.term_pairs", "count", "lower"),
    ("tower.pi_divide.calls", "count", "lower"),
    ("tower.pi_divide.self_s", "s", "lower"),
    ("tower.pi_divide.refused", "count", "lower"),
    ("closure.membership.calls", "count", "lower"),
    ("closure.membership.self_s", "s", "lower"),
    ("closure.membership.hits", "count", "higher"),
    ("closure.membership.hit_ratio", "ratio", "higher"),
    ("closure.membership.exponents_tried", "count", "lower"),
    ("closure.definite_nonmember.calls", "count", "lower"),
    ("closure.certified_pi_factor.calls", "count", "lower"),
    ("closure.certified_pi_factor.self_s", "s", "lower"),
    ("closure.validate_cert.calls", "count", "lower"),
    ("closure.validate_cert.self_s", "s", "lower"),
    ("closure.witness_terms_max", "terms", "lower"),
    ("closure.witness_bits_max", "bits", "lower"),
    ("fontaine.arith.calls", "count", "lower"),
    ("fontaine.arith.self_s", "s", "lower"),
    ("fontaine.check_compat.calls", "count", "lower"),
    ("fontaine.check_compat.self_s", "s", "lower"),
    ("fontaine.divide.calls", "count", "lower"),
    ("fontaine.divide.self_s", "s", "lower"),
    ("fontaine.theta.calls", "count", "lower"),
    ("fontaine.theta.self_s", "s", "lower"),
    ("fontaine.undetermined", "count", "lower"),
    ("witt.polys.build_s", "s", "lower"),
    ("witt.polys.terms", "terms", "lower"),
    ("witt.arith.calls", "count", "lower"),
    ("witt.arith.self_s", "s", "lower"),
    ("witt.divide.calls", "count", "lower"),
    ("witt.divide.self_s", "s", "lower"),
    ("witt.divide.steps", "count", "higher"),
    ("witt.divide.exhausted", "count", "lower"),
    ("parser.parse.calls", "count", "lower"),
    ("parser.parse.self_s", "s", "lower"),
    ("report.suite.self_s", "s", "lower"),
    ("report.to_json.self_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("report.revalidate.self_s", "s", "lower"),
    ("report.json_load.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _coeff_bits(terms: dict) -> int:
    return max((abs(v).bit_length() for v in terms.values()), default=0)


def install_layers(tr: Tracer, rc) -> None:
    """Wrap the public functions of every rootclose layer.

    ``rc`` maps the module names valuation, tower, closure, fontaine,
    witt, parser, report and cli to the loaded modules.  TowerCtx and
    check_prime are counted without spans: they run tens of thousands
    of times per job and their cost is noise next to the span overhead.
    """
    import json

    tower, closure, fontaine, witt = rc["tower"], rc["closure"], rc["fontaine"], rc["witt"]
    TowerElem, ResidueElem = tower.TowerElem, tower.ResidueElem

    def span(name, after=None, on_error=None):
        return lambda fn: tr.span_wrapper(fn, name, after, on_error)

    def counted(name):
        return lambda fn: tr.count_wrapper(fn, name)

    def mul_stats(prefix, track_size):
        def after(result, args):
            if result is NotImplemented:
                return
            a, b = args
            tr.count(prefix + ".term_pairs", len(a.terms) * (1 if isinstance(b, int) else len(b.terms)))
            if track_size:
                tr.peak(prefix + ".max_out_terms", len(result.terms))
                tr.peak(prefix + ".max_coeff_bits", _coeff_bits(result.terms))

        return after

    def refused(exc, args):
        if isinstance(exc, tower.NotDivisibleError):
            tr.count("tower.pi_divide.refused")

    def membership_stats(result, args):
        if isinstance(result, closure.ClosureCert):
            tr.count("closure.membership.hits")
            tr.count("closure.membership.exponents_tried", result.m + 1)
            tr.peak("closure.witness_terms_max", len(result.witness.terms))
            tr.peak("closure.witness_bits_max", _coeff_bits(result.witness.terms))
        else:
            tr.count("closure.membership.exponents_tried", result.m_max + 1)

    def witt_divide_stats(result, args):
        tr.count("witt.divide.steps", result.steps)
        tr.count("witt.divide.exhausted", int(result.exhausted))

    def report_bytes(result, args):
        tr.count("report.bytes", len(result))

    tr.patch(rc["valuation"], "check_prime", counted("valuation.check_prime"))
    tr.patch(tower.TowerCtx, "__post_init__", counted("tower.ctx"))
    tr.patch(TowerElem, "__mul__", span("tower.mul", mul_stats("tower.mul", True)))
    tr.patch(TowerElem, "__pow__", span("tower.pow"))
    tr.patch(TowerElem, "pow_mod", span("tower.pow"))
    tr.patch(TowerElem, "pi_divide", span("tower.pi_divide", on_error=refused))
    tr.patch(ResidueElem, "__mul__", span("tower.residue_mul", mul_stats("tower.residue_mul", False)))
    tr.patch(closure, "membership", span("closure.membership", membership_stats))
    tr.patch(closure, "definite_nonmember", counted("closure.definite_nonmember"))
    tr.patch(closure, "certified_pi_factor", span("closure.certified_pi_factor"))
    tr.patch(closure, "validate_cert", span("closure.validate_cert"))
    for attr in ("_binary", "__neg__", "__pow__"):
        tr.patch(fontaine.FontaineElem, attr, span("fontaine.arith"))
    tr.patch(fontaine.FontaineElem, "check_compat", span("fontaine.check_compat"))
    # divide_by_p_seq (also bound as witt.divide_by_p_seq) delegates to
    # the traced variant through the module global, so one span covers both
    tr.patch(fontaine, "divide_by_p_seq_traced", span("fontaine.divide"))
    tr.patch(fontaine, "theta", span("fontaine.theta"))
    tr.patch(fontaine.UndeterminedCongruenceError, "__init__", counted("fontaine.undetermined"))
    for attr in ("__add__", "__mul__", "__neg__"):
        tr.patch(witt.WittVec, attr, span("witt.arith"))
    tr.patch(witt, "divide_by_p_seq_minus_p", span("witt.divide", witt_divide_stats))
    tr.patch(rc["parser"], "parse_expr", span("parser.parse"))
    tr.patch(rc["report"], "run_example_suite", span("report.suite"))
    tr.patch(rc["report"].Report, "to_json", span("report.to_json", report_bytes))
    tr.patch(rc["report"], "revalidate_report", span("report.revalidate"))
    tr.patch(json, "load", span("report.json_load"))
    tr.patch(rc["cli"], "main", span("cli.main"))


def layer_metrics(tr: Tracer, polys_build_s: float, polys_terms: int, overhead: float) -> dict:
    """Every PER_LAYER metric from a finished traced run; the Witt
    polynomial figures come from set-up, where the cache is built."""
    calls, own, total = tr.totals()
    c, mx = tr.counters, tr.maxima
    out = {
        "valuation.check_prime.calls": c["valuation.check_prime"],
        "tower.ctx.created": c["tower.ctx"],
        "tower.mul.term_pairs": c["tower.mul.term_pairs"],
        "tower.mul.max_out_terms": mx["tower.mul.max_out_terms"],
        "tower.mul.max_coeff_bits": mx["tower.mul.max_coeff_bits"],
        "tower.pow.total_s": total.get("tower.pow", 0.0),
        "tower.residue_mul.term_pairs": c["tower.residue_mul.term_pairs"],
        "tower.pi_divide.refused": c["tower.pi_divide.refused"],
        "closure.membership.hits": c["closure.membership.hits"],
        "closure.membership.exponents_tried": c["closure.membership.exponents_tried"],
        "closure.definite_nonmember.calls": c["closure.definite_nonmember"],
        "closure.witness_terms_max": mx["closure.witness_terms_max"],
        "closure.witness_bits_max": mx["closure.witness_bits_max"],
        "fontaine.undetermined": c["fontaine.undetermined"],
        "witt.polys.build_s": polys_build_s,
        "witt.polys.terms": polys_terms,
        "witt.divide.steps": c["witt.divide.steps"],
        "witt.divide.exhausted": c["witt.divide.exhausted"],
        "report.bytes": c["report.bytes"],
        "trace.overhead_ratio": overhead,
    }
    for name in (
        "tower.mul", "tower.pow", "tower.residue_mul", "tower.pi_divide",
        "closure.membership", "closure.certified_pi_factor", "closure.validate_cert",
        "fontaine.arith", "fontaine.check_compat", "fontaine.divide", "fontaine.theta",
        "witt.arith", "witt.divide", "parser.parse", "cli.main",
    ):
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = own.get(name, 0.0)
    for name in ("report.suite", "report.to_json", "report.revalidate", "report.json_load"):
        out[name + ".self_s"] = own.get(name, 0.0)
    hits, tried = out["closure.membership.hits"], out["closure.membership.calls"]
    out["closure.membership.hit_ratio"] = hits / tried if tried else 0.0
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}
