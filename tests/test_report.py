import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootclose import cli, closure, fontaine, report, tower, valuation, witt
from rootclose.closure import CertificateSearchError
from rootclose.fontaine import PLAIN, FontaineElem, UndeterminedCongruenceError
from rootclose.tower import QUOTIENT, TowerElem


def cfg(**kw):
    kw.setdefault("timestamp", False)
    return report.Config(**kw)


@pytest.fixture(scope="module")
def depth2_report():
    return report.run_example_suite(cfg(depth=2))


@pytest.fixture(scope="module")
def eval_certificate() -> dict:
    """The certificate ``eval --format json`` prints for u_1 / PI at p = 5: m = 1."""
    argv = ["eval", "(p^(3/5)+x^(3/5)+y^(3/5))/p^(1/5)", "--check-closure", "--mmax", "2"]
    code, text = _main([*argv, "--format", "json"])
    assert code == 0
    return json.loads(text)["closure"]["certificate"]


def _report_text(checks, **config) -> str:
    """A report whose config ``Config.from_dict`` accepts, with ``config``
    overriding its values."""
    return json.dumps({"config": {**cfg(depth=2).to_dict(), **config}, "checks": checks})


def _example_checks(name=None, **record):
    """The example's six check names in order, each a pass without
    details, with ``record`` merged into check ``name``."""
    return [
        {"name": n, "status": "pass", "details": {}, **(record if n == name else {})}
        for n in report.CHECK_NAMES
    ]


CERT_KEYS = {"m", "denom_exp", "level", "ring", "num_terms"}

#: A residue at level 10**7, far above any report's depth: reading its
#: terms would compute p**level.
FAR_ELEM = {"level": 10**7, "ring": "quotient", "terms": [[0, 0, 0, "1"]]}


def _details(data: dict, name: str) -> dict:
    return data["checks"][report.CHECK_NAMES.index(name)]["details"]


def _constant_one_sequence(data):
    for comp in _details(data, "sequence_compatibility")["sequence"]:
        comp["terms"] = [[0, 0, 0, "1"]]


def _zeroed_exponent(data):
    # a factor exponent of 0 claims that r_1 / PI_1 is integral
    _details(data, "certified_division")["factor_exponents"][1] = 0


def _old_certificates(*levels) -> list:
    """Closure certificates as reports recorded them before a
    certificate was its exponent: u_n / PI and m = n, in full."""
    return [
        report.cert_to_json(closure.ClosureCert(report._closure_claim(cfg(), n), n))
        for n in levels
    ]


def _old_witt_record(details: dict) -> dict:
    """The Witt record as it was before it held coordinate 0 alone: every
    coordinate of the quotient, its depth and whether the steps ran out."""
    zero = [{**r, "terms": []} for r in details["quotient"]]
    return {
        "steps": 2,
        "component_depth": 0,
        "exhausted": False,
        "quotient": [details["quotient"], zero],
    }


NOT_THE_OPERANDS = "the divisor and dividend are not X^(3p) + Y^(3p) and X^3 + Y^3 at level 1"
NOT_COMPATIBLE = "the quotient is not a compatible sequence of the example's ring"

#: Forged default reports, each of which revalidated all-pass while a
#: record was checked against its own recorded verdict rather than
#: against the claim: (forge, {failing check: its errors}).
FORGERIES = {
    "nonzero-residue": (
        lambda data: _details(data, "base_residue_vanishes").update(
            residue={"level": 0, "ring": "quotient", "terms": [[0, 1, 0, "1"]]}
        ),
        {"base_residue_vanishes": ["the residue is not u_0 mod p"]},
    ),
    "dividend-is-the-divisor": (
        lambda data: (d := _details(data, "plain_division_fails")).update(dividend=d["divisor"]),
        {"plain_division_fails": [NOT_THE_OPERANDS]},
    ),
    "dividend-is-x": (
        lambda data: _details(data, "plain_division_fails").update(
            dividend={"level": 1, "ring": "free", "terms": [[0, 1, 0, "1"]]}
        ),
        {"plain_division_fails": [NOT_THE_OPERANDS]},
    ),
    "constant-one-sequence": (
        _constant_one_sequence,
        {"sequence_compatibility": ["the sequence is not u_n mod p for n = 0..3"]},
    ),
    "zeroed-exponent": (
        _zeroed_exponent,
        {"certified_division": ["factor exponent 1 is 0, but r_1 / PI_1 is not integral"]},
    ),
    # the divisor depends on p, and so does the Witt quotient: X^5 is not
    # the X^1009 that the multiply-back at p = 1009 needs
    "config-p-1009": (
        lambda data: data["config"].update(p=1009),
        {
            "plain_division_fails": [NOT_THE_OPERANDS],
            "witt_division_roundtrip": [
                "pmp * [quotient] is not pmp * [X] on the first 2 coordinates"
            ],
        },
    ),
}

CLOSURE_EXPONENTS = ["the exponents must be [1, 2]"]
FACTOR_EXPONENTS = ["factor_exponents must be 4 integers between 0 and 5"]

#: Forged exponents in the default report, whose closure exponents are
#: [1, 2], whose factor exponents are [0, 1, 2, 3] and whose search
#: bound is 5: (check, exponents, its errors).  Shorter lists are
#: ``test_evidence_of_the_wrong_size_fails``' cases.
EXPONENT_FORGERIES = {
    "closure-edited": ("closure_certificates", [1, 1], CLOSURE_EXPONENTS),
    "closure-raised": ("closure_certificates", [1, 3], CLOSURE_EXPONENTS),
    "closure-negative": ("closure_certificates", [-1, 2], CLOSURE_EXPONENTS),
    "closure-bool": ("closure_certificates", [True, 2], CLOSURE_EXPONENTS),
    "closure-float": ("closure_certificates", [1.0, 2], CLOSURE_EXPONENTS),
    "closure-above-bound": ("closure_certificates", [1, 6], CLOSURE_EXPONENTS),
    "closure-10**7": ("closure_certificates", [10**7, 2], CLOSURE_EXPONENTS),
    "closure-long": ("closure_certificates", [1, 2, 3], CLOSURE_EXPONENTS),
    "closure-not-a-list": ("closure_certificates", {"1": 1, "2": 2}, CLOSURE_EXPONENTS),
    "division-lowered": ("certified_division", [0, 1, 1, 3], ["u_2 / PI fails with exponent 1"]),
    "division-negative": ("certified_division", [0, -1, 2, 3], FACTOR_EXPONENTS),
    "division-bool": ("certified_division", [0, True, 2, 3], FACTOR_EXPONENTS),
    "division-float": ("certified_division", [0, 1.0, 2, 3], FACTOR_EXPONENTS),
    "division-above-bound": ("certified_division", [0, 6, 2, 3], FACTOR_EXPONENTS),
    "division-10**7": ("certified_division", [0, 10**7, 2, 3], FACTOR_EXPONENTS),
    "division-long": ("certified_division", [0, 1, 2, 3, 4], FACTOR_EXPONENTS),
    "division-not-a-list": ("certified_division", "0123", FACTOR_EXPONENTS),
}


class TestExampleSuite:
    def test_default_config_passes(self, example_report):
        assert [c.status for c in example_report.checks] == ["pass"] * 6
        assert example_report.ok

    def test_check_names_are_stable(self, example_report):
        assert report.CHECK_NAMES == (
            "sequence_compatibility",
            "base_residue_vanishes",
            "plain_division_fails",
            "closure_certificates",
            "certified_division",
            "witt_division_roundtrip",
        )
        assert tuple(c.name for c in example_report.checks) == report.CHECK_NAMES

    def test_plain_mode_fails_certified_division(self):
        rep = report.run_example_suite(cfg(closure_mode=PLAIN))
        by_name = {c.name: c.status for c in rep.checks}
        assert by_name["certified_division"] == "fail"
        assert by_name["plain_division_fails"] == "pass"
        assert not rep.ok

    def test_a_failed_division_fails_its_check_and_the_example(self, monkeypatch, capsys):
        # the check records what the factoring decided: it raises unless
        # P * quotient gives eta back, so no quotient or product is built
        factor = fontaine.factor_by_p_seq

        def mismatch(e):
            if e.mode == PLAIN:
                return factor(e)
            raise CertificateSearchError("roundtrip mismatch at component 1")

        monkeypatch.setattr(fontaine, "factor_by_p_seq", mismatch)
        rep = report.run_example_suite(cfg(depth=2))
        failed = {c.name: c.details for c in rep.checks if c.status != "pass"}
        assert failed == {
            "certified_division": {"error": "CertificateSearchError: roundtrip mismatch at component 1"}
        }
        assert cli.main(["example", "--depth", "2", "--no-timestamp"]) == 1
        assert "[fail] certified_division" in capsys.readouterr().out

    def test_a_dividend_outside_the_kernel_fails_the_witt_check(self, monkeypatch):
        # the check records what the division decided: (pmp + [1]) * [X]
        # = x + [X] has theta = X mod p, and the first sequence division
        # refuses its component 0
        divide = witt.divide_by_p_seq_minus_p

        def off_by_one(x):
            X = fontaine.generators(x.ctx.p, report.DEGREE, x.comps[0].depth, QUOTIENT)[1]
            return divide(x + witt.WittVec.teichmuller(x.ctx, X))

        monkeypatch.setattr(witt, "divide_by_p_seq_minus_p", off_by_one)
        rep = report.run_example_suite(cfg(depth=2))
        failed = {c.name: c.details for c in rep.checks if c.status != "pass"}
        assert list(failed) == ["witt_division_roundtrip"]
        assert failed["witt_division_roundtrip"]["error"] == (
            "SequenceDivisionError: component 0 is not divisible (monomial (0, 1, 0))"
        )

    def test_a_wrong_factor_exponent_fails_the_run(self, monkeypatch):
        # negative control: the run records the search's exponents and the
        # checker decides them, so a search that reports exponent 0 at
        # index 1 fails the run itself, not only its revalidation
        factor = fontaine.factor_by_p_seq

        def zeroed(e):
            factors, certs = factor(e)
            return factors, [certs[0], None, *certs[2:]]

        monkeypatch.setattr(fontaine, "factor_by_p_seq", zeroed)
        rep = report.run_example_suite(cfg())
        failed = {c.name: c.details for c in rep.checks if c.status != "pass"}
        assert failed == {
            "certified_division": {
                "error": "factor exponent 1 is 0, but r_1 / PI_1 is not integral"
            }
        }

    def test_a_plain_division_that_does_not_stop_fails_the_run(self, monkeypatch):
        # the witness records no stopping component, and the checker
        # rejects it: the error is the checker's
        monkeypatch.setattr(fontaine, "divide_by_p_seq", lambda e: e)
        rep = report.run_example_suite(cfg())
        failed = {c.name: c.details for c in rep.checks if c.status != "pass"}
        assert failed == {
            "plain_division_fails": {
                "error": "plain division must stop at component 1, monomial [0, 0, 3]"
            }
        }

    @pytest.mark.parametrize(
        "depth, error",
        [(3, "pmp * [quotient] is not pmp * [X] on the first 2 coordinates"), (4, NOT_COMPATIBLE)],
        ids=["p5-d3", "p5-d4"],
    )
    def test_a_wrong_witt_quotient_fails_the_run(self, monkeypatch, depth, error):
        # negative control: the division does not multiply its quotient
        # back, so one residue of coordinate 0 moved by 1 after it returns
        # must fail the run's checker: at depth 3 the quotient is one
        # residue, at depth 4 two, whose relation the move breaks (so the
        # forgery is built unchecked: the constructor would refuse it)
        divide = witt.divide_by_p_seq_minus_p

        def moved(x):
            got = divide(x)
            q0, *rest = got.quotient.comps
            comps = [q0.comps[0] + 1, *q0.comps[1:]]
            forged = FontaineElem._trusted(comps, PLAIN)
            got.quotient = witt.WittVec(got.quotient.ctx, [forged, *rest])
            return got

        monkeypatch.setattr(witt, "divide_by_p_seq_minus_p", moved)
        rep = report.run_example_suite(cfg(depth=depth))
        failed = {c.name: c.details for c in rep.checks if c.status != "pass"}
        assert failed == {"witt_division_roundtrip": {"error": error}}

    def test_eta_is_built_once_per_run(self, monkeypatch):
        # eta = P^3 + X^3 + Y^3 takes three cubes of sequences; the Witt
        # check reads only X, and each run builds its own eta
        cubes, power = [], FontaineElem.__pow__

        def counted(seq, e):
            if e == report.DEGREE:
                cubes.append(seq)
            return power(seq, e)

        monkeypatch.setattr(FontaineElem, "__pow__", counted)
        first = report.run_example_suite(cfg())
        assert len(cubes) == 3
        cubes.clear()
        report._witness_witt(cfg())
        assert report.revalidate_report(first.to_dict()).ok
        assert cubes == []
        assert report.run_example_suite(cfg()).to_json() == first.to_json()
        assert len(cubes) == 3

    def test_the_closure_check_decides_two_exponents_per_level(self, monkeypatch):
        # the least exponent of u_n / PI is n: the checker decides (n, n)
        # and refutes (n, n - 1), one verdict per level, rather than
        # trying every m from 0 up; the witness decides nothing
        tried, quotient = [], closure._truncated_quotient

        def counted(c, m):
            tried.append(m)
            return quotient(c, m)

        monkeypatch.setattr(closure, "_truncated_quotient", counted)
        config = cfg(p=65521, depth=100, witt_length=101)
        details = report._witness_closure(config, None)
        assert details == {"exponents": list(range(1, 100))} and tried == []
        assert list(report._check_closure(details, config)) == [None] * (100 - 1)
        assert len(tried) == 2 * (100 - 1)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            report.run_example_suite(cfg(p=2))
        with pytest.raises(ValueError):
            report.run_example_suite(cfg(p=3))

    def test_a_certificate_is_its_exponent(self, example_report):
        # the config fixes each certificate's element, u_n / PI, so a
        # report records only the exponents: no element and no witness
        by_name = {c.name: c.details for c in example_report.checks}
        assert by_name["closure_certificates"] == {"exponents": [1, 2]}
        assert by_name["certified_division"] == {"factor_exponents": [0, 1, 2, 3]}

    def test_json_schema_shape(self, example_report):
        data = json.loads(example_report.to_json())
        assert set(data) == {"config", "checks"}
        for check in data["checks"]:
            assert set(check) == {"name", "status", "details"}
            assert check["status"] in ("pass", "fail", "undetermined")


#: (config overrides, sha256 of the example report without timestamp)
#: for the five configs the certify benchmark runs; {} is the default
EXAMPLE_DIGESTS = {
    "p5-d3": ({}, "2281cd14820f963ff3d6a60a051c8b06f490d8746a9a5c6143358cc6e0b1056b"),
    "p7-d2": (
        {"p": 7, "depth": 2},
        "5351f9bb9cd151d7da7c316de822cf9ab8816415d465401b8a0c0df219c2f9d9",
    ),
    "p5-d2-w3": (
        {"depth": 2, "witt_length": 3},
        "e4db41ce6fd07fda399c0357540fe33c10698655580291d209d81f4678635e33",
    ),
    "p5-d2": ({"depth": 2}, "86f5e15d5c7ee6c245b5755a415edb4a3e336a775eb2486f856be6d1a223a85b"),
    "p5-d3-plain": (
        {"closure_mode": PLAIN},
        "abfb4084b750ee7e17b692dae418b311822a08cee9e985a437d1130847dba13f",
    ),
}

#: sha256 of the --witt-len 4 report (depth 3, no timestamp), whose Witt
#: check the universal-polynomial path first recorded in about 24 s; kept
#: apart from EXAMPLE_DIGESTS, the configs the certify benchmark runs
W4_DIGEST = "76677e035ff2d19da4a3ffd6c7755f0c10d17e40ca7868b02bee13ad4a4ad67f"

#: (config overrides, length, sha256) of the example reports, without
#: timestamp, that run the most Witt folds: up to 100 per report
DEEP_REPORT_PINS = {
    "p5-d100-w101": (
        {"depth": 100, "witt_length": 101},
        9180,
        "b32ddf28e5c206fb99e3db25748791449d62a2dbceb94f9729e845144457417a",
    ),
    "p65521-d100-w101": (
        {"p": 65521, "depth": 100, "witt_length": 101},
        9200,
        "72334935abc96ed80c622bd385e293e2040681088e8e6d8292128975d5784254",
    ),
    "p5-d20-w21": (
        {"depth": 20, "witt_length": 21},
        2536,
        "6b1bbc9670831247003e49f085daca1785fd65f760d80fe26c2875e0229215b3",
    ),
    "p7-d3-w4": (
        {"p": 7, "depth": 3, "witt_length": 4},
        1089,
        "54f1cc14cdeeb2e209b688005ad42e7b2449f2a7950a6a78b61e1ec70f004aab",
    ),
    "p5-d6-w4": (
        {"depth": 6, "witt_length": 4},
        1381,
        "7232ef9369092126bf1d2a1a72bd0300ee1cc9c7584a5105700dedece6e86f07",
    ),
}


class TestDeterminism:
    def test_example_bytes_are_stable(self, example_report):
        again = report.run_example_suite(cfg())
        assert again.to_json() == example_report.to_json()

    @pytest.mark.parametrize("name", EXAMPLE_DIGESTS)
    def test_example_bytes_match_the_recorded_digest(self, name, monkeypatch):
        # with certified_pi_factor refused: the division certifies step 1
        # through membership alone
        original = closure.certified_pi_factor

        def refuse(a):
            raise AssertionError("certified_pi_factor was called")

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("rootclose") and vars(mod).get("certified_pi_factor") is original:
                monkeypatch.setattr(mod, "certified_pi_factor", refuse)
        overrides, digest = EXAMPLE_DIGESTS[name]
        rep = report.run_example_suite(cfg(**overrides))
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest

    def test_first_w4_report_matches_the_recorded_digest(self):
        text = report.run_example_suite(cfg(depth=3, witt_length=4)).to_json()
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (1089, W4_DIGEST)

    @pytest.mark.parametrize("name", DEEP_REPORT_PINS)
    def test_deep_report_bytes_match_the_recorded_digest(self, name):
        overrides, length, digest = DEEP_REPORT_PINS[name]
        text = report.run_example_suite(cfg(**overrides)).to_json()
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (length, digest)

    def test_props_bytes_are_stable(self):
        a = report.run_property_suites(5, timestamp=False).to_json()
        b = report.run_property_suites(5, timestamp=False).to_json()
        assert a == b

    def test_props_bytes_match_the_recorded_digest(self):
        # the compact JSON of the 19-check report: any drift in sample
        # order, case counts or details changes the digest
        text = report.run_property_suites(0, timestamp=False).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "575478a1bc60f83371a01adcf3d42864a1f11f88388d0beb12dde4aeddda451c"
        )

    def test_seed_changes_samples_not_statuses(self):
        a = report.run_property_suites(0, timestamp=False)
        b = report.run_property_suites(12345, timestamp=False)
        assert [c.status for c in a.checks] == [c.status for c in b.checks]

    def test_timestamp_flag(self):
        # the seed is all a props run reads, so all its config records
        with_ts = report.run_property_suites(0).config
        without = report.run_property_suites(0, timestamp=False).config
        assert isinstance(with_ts.pop("timestamp"), str)
        assert with_ts == without == {"seed": 0}


EXAMPLE_KEYS = {"p", "degree", "depth", "witt_length", "closure_mode"}

#: ``Config.to_dict()`` as every report recorded it before the config held
#: only what its run reads: ``seed`` and ``m_max`` are read by no example
#: run, and a props run reads nothing but ``seed``
OLD_CONFIG = {
    "p": 5,
    "degree": 3,
    "depth": 3,
    "witt_length": 2,
    "m_max": 5,
    "seed": 0,
    "closure_mode": "certified",
}


class TestConfig:
    def test_example_config_is_the_five_keys(self, example_report):
        assert set(example_report.config) == EXAMPLE_KEYS
        assert set(cfg(timestamp=True).to_dict()) == EXAMPLE_KEYS | {"timestamp"}

    def test_from_dict_refuses_the_old_config(self):
        with pytest.raises(ValueError, match="unexpected: \\['m_max', 'seed'\\]"):
            report.Config.from_dict(OLD_CONFIG)

    @pytest.mark.parametrize("timestamp", [False, True])
    @pytest.mark.parametrize("name", EXAMPLE_DIGESTS)
    def test_from_dict_inverts_to_dict(self, name, timestamp):
        c = cfg(timestamp=timestamp, **EXAMPLE_DIGESTS[name][0])
        assert report.Config.from_dict(c.to_dict()) == c

    def test_witt_length_is_bounded_by_the_depth(self):
        cfg(depth=3, witt_length=4).validate_example()
        with pytest.raises(ValueError, match="witt_length must be <= depth \\+ 1 = 3"):
            cfg(depth=2, witt_length=4).validate_example()


class TestPropertySuites:
    def test_negative_control_present(self):
        rep = report.run_property_suites(0, timestamp=False)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["witt_ghost_negative_control"].details == {"detected": True}

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_passes_without_the_universal_polynomials(self, monkeypatch, seed):
        # the invariants check the ghost-map arithmetic, which reads no tables
        def no_tables(*args):
            raise AssertionError("props read the universal polynomials")

        monkeypatch.setattr(witt, "witt_polynomials", no_tables)
        rep = report.run_property_suites(seed, timestamp=False)
        assert rep.ok and len(rep.checks) == 19


class TestRevalidation:
    def test_reproduces_example_suite(self, example_report):
        rv = report.revalidate_report(example_report.to_dict())
        assert rv.ok
        assert [c.details["revalidated"] for c in rv.checks] == [1, 1, 1, 2, 3, 1]

    @pytest.mark.parametrize("name", EXPONENT_FORGERIES)
    def test_revalidate_fails_a_forged_exponent(self, tmp_path, capsys, example_report, name):
        # the exponents are read before any power is built: the closure
        # exponents must be exactly 1..depth-1, the factor exponents in
        # 0..5, and an exponent below the least one fails its decision
        check, exponents, errors = EXPONENT_FORGERIES[name]
        data = copy.deepcopy(example_report.to_dict())
        details = _details(data, check)
        (key,) = details
        details[key] = exponents
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        assert cli.main(["revalidate", str(path), "--format", "json"]) == 1
        assert time.perf_counter() - started < 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"]: c["details"]["errors"] for c in checks if c["status"] != "pass"} == {
            check: errors
        }

    @pytest.mark.parametrize("overrides", [{}, {"depth": 20}], ids=["p5-d3", "p5-d20"])
    def test_a_raised_factor_exponent_is_decided_at_the_least_one(self, monkeypatch, overrides):
        # u_n / PI has the least exponent n, so e_n >= n is a true claim,
        # settled by deciding n: exponents raised to the bound build no
        # larger power (m = 5 at level 1 alone works modulo 5^625 and ran
        # past 20 s)
        config = cfg(**overrides)
        data = report.run_example_suite(config).to_dict()
        m_max = fontaine.default_m_max(config.depth)
        _details(data, "certified_division")["factor_exponents"] = [m_max] * (config.depth + 1)
        tried, quotient = [], closure._truncated_quotient

        def counted(c, m):
            tried.append((c.level, m))
            return quotient(c, m)

        monkeypatch.setattr(closure, "_truncated_quotient", counted)
        started = time.perf_counter()
        rv = report.revalidate_report(data)
        assert time.perf_counter() - started < 1
        assert rv.ok and tried and all(m <= level for level, m in tried)

    def test_revalidate_reads_no_certificate(self, monkeypatch, example_report):
        # a certificate is its exponent: its element is rebuilt from the
        # config, never read from the report
        def refuse(*args):
            raise AssertionError("revalidate read a certificate")

        monkeypatch.setattr(report, "cert_from_json", refuse)
        rv = report.revalidate_report(example_report.to_dict())
        assert rv.ok and [c.details["revalidated"] for c in rv.checks] == [1, 1, 1, 2, 3, 1]

    @pytest.mark.parametrize(
        "edit",
        [{"component": 2}, {"component": True}, {"monomial": [0, 3, 0]}, {"monomial": None}],
        ids=["component-2", "bool-component", "other-monomial", "no-monomial"],
    )
    def test_detects_tampered_division_verdict(self, example_report, edit):
        # plain division stops at component 1 on the monomial that
        # pi_divide(1) names on u_1 mod p, both found again from the config
        data = copy.deepcopy(example_report.to_dict())
        index = report.CHECK_NAMES.index("plain_division_fails")
        data["checks"][index]["details"].update(edit)
        rv = report.revalidate_report(data)
        assert rv.checks[index].details == {
            "revalidated": 2,
            "errors": ["plain division must stop at component 1, monomial [0, 0, 3]"],
        }
        assert [c.status for c in rv.checks] == ["fail" if c == index else "pass" for c in range(6)]

    def test_recorded_failure_keeps_its_status(self, example_report, tmp_path, capsys):
        data = copy.deepcopy(example_report.to_dict())
        for check in data["checks"]:
            if check["name"] == "certified_division":
                check["status"] = "fail"
            if check["name"] == "closure_certificates":
                check["status"] = "undetermined"
        rv = report.revalidate_report(data)
        statuses = {c.name: c.status for c in rv.checks}
        assert statuses["certified_division"] == "fail"
        assert statuses["closure_certificates"] == "undetermined"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 1

    def test_pass_without_evidence_fails(self, example_report):
        data = copy.deepcopy(example_report.to_dict())
        data["checks"][0]["details"] = {}
        rv = report.revalidate_report(data)
        assert rv.checks[0].status == "fail"
        assert rv.checks[0].details == {"revalidated": 0, "errors": ["no evidence"]}
        assert [c.status for c in rv.checks[1:]] == ["pass"] * 5

    @pytest.mark.parametrize(
        "name, forge, errors",
        [
            (
                "sequence_compatibility",
                lambda d: d.update(sequence=d["sequence"][:1]),
                ["the sequence is not u_n mod p for n = 0..3"],
            ),
            ("closure_certificates", lambda d: d["exponents"].pop(0), CLOSURE_EXPONENTS),
            ("certified_division", lambda d: d.update(factor_exponents=[0]), FACTOR_EXPONENTS),
            (
                "witt_division_roundtrip",
                lambda d: d["quotient"].pop(),
                ["the quotient must be a sequence of depth 0 after 2 steps"],
            ),
        ],
        ids=["sequence-cut", "closure-certificate-dropped", "exponents-cut", "quotient-cut"],
    )
    def test_evidence_of_the_wrong_size_fails(self, example_report, tmp_path, name, forge, errors):
        # the config fixes how much evidence each check carries: the
        # refusal is one error in place of the check's decisions
        data = copy.deepcopy(example_report.to_dict())
        index = report.CHECK_NAMES.index(name)
        forge(data["checks"][index]["details"])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 1
        rv = report.revalidate_report(data)
        assert rv.checks[index].status == "fail"
        assert rv.checks[index].details["errors"] == errors
        assert [c.status for c in rv.checks] == ["fail" if c == name else "pass" for c in report.CHECK_NAMES]

    @pytest.mark.parametrize("name", FORGERIES)
    def test_revalidate_refuses_a_forged_object(self, tmp_path, capsys, example_report, name):
        # each recorded object must equal the one rebuilt from the config
        forge, errors = FORGERIES[name]
        data = copy.deepcopy(example_report.to_dict())
        forge(data)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        assert cli.main(["revalidate", str(path), "--format", "json"]) == 1
        assert time.perf_counter() - started < 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"]: c["details"]["errors"] for c in checks if c["status"] != "pass"} == errors

    @pytest.mark.parametrize(
        "name, old",
        [
            ("sequence_compatibility", lambda d: {**d, "depth": 3}),
            (
                "base_residue_vanishes",
                lambda d: {"residues": [{"elem": d["residue"], "expect_zero": True}]},
            ),
            (
                "plain_division_fails",
                lambda d: {
                    "component": d["component"],
                    "monomial": d["monomial"],
                    "divisions": [
                        {"divisor": d["divisor"], "dividend": d["dividend"], "divides": False}
                    ],
                },
            ),
            ("certified_division", lambda d: {**d, "roundtrip": True, "quotient_depth": 2}),
            ("witt_division_roundtrip", lambda d: {**d, "kernel_at_precision_1": True}),
            ("closure_certificates", lambda d: {"certificates": _old_certificates(1, 2)}),
            (
                "certified_division",
                lambda d: {**d, "certificates": _old_certificates(1, 2, 3)},
            ),
            ("witt_division_roundtrip", _old_witt_record),
            ("witt_division_roundtrip", lambda d: {**d, "component_depth": 0, "exhausted": False}),
        ],
        ids=[
            "depth",
            "residues",
            "divisions",
            "roundtrip",
            "kernel",
            "closure-certificates",
            "division-certificates",
            "witt-coordinates",
            "witt-depth-and-exhausted",
        ],
    )
    def test_a_record_in_the_old_shape_has_no_evidence(self, example_report, name, old):
        # records that also carried their verdict, a copy of the config,
        # or what the config and the step count fix
        data = copy.deepcopy(example_report.to_dict())
        index = report.CHECK_NAMES.index(name)
        data["checks"][index]["details"] = old(data["checks"][index]["details"])
        rv = report.revalidate_report(data)
        assert rv.checks[index].details == {"revalidated": 0, "errors": ["no evidence"]}
        assert [c.status for c in rv.checks] == ["fail" if i == index else "pass" for i in range(6)]

    @pytest.mark.parametrize(
        "index, var, want",
        [
            (None, None, [True] * 3),
            (2, (0, 1, 0), [True, False, False]),
            (1, (0, 0, 1), [False, False, True]),
        ],
        ids=["u_n", "x-at-2", "y-at-1"],
    )
    def test_compatibility_is_one_frobenius_per_index(self, index, var, want):
        # verdict n is comps[n + 1].frobenius(n) == comps[n]: a component
        # moved by X or Y breaks its relations with both neighbours
        config = cfg()
        comps = [report._u(config, n, config.p) for n in range(config.depth + 1)]
        if index is not None:
            moved = comps[index]
            comps[index] = moved + TowerElem.monomial(moved.ctx, *var, coeff_mod=config.p)
        assert report._compatible(comps) == want

    def test_the_run_decides_the_compatibility(self, monkeypatch):
        # eta carries the answer of its construction; the checker decides
        # it again, one tower Frobenius per component pair, and the
        # witness decides nothing
        calls, frobenius = [], TowerElem.frobenius
        monkeypatch.setattr(
            TowerElem, "frobenius", lambda self, *a: calls.append(a) or frobenius(self, *a)
        )
        details = report._witness_sequence(cfg(), report._example_eta(cfg()))
        assert set(details) == {"sequence"} and calls == []
        assert list(report._check_sequence(details, cfg())) == [None]
        assert calls == [(0,), (1,), (2,)]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"p": 7, "depth": 2},
            {"p": 7, "depth": 3},
            {"p": 11, "depth": 3},
            {"depth": 20, "witt_length": 21},
        ],
        ids=["p5-d3", "p7-d2", "p7-d3", "p11-d3", "p5-d20-w21"],
    )
    def test_the_recorded_objects_are_the_rebuilt_ones(self, overrides):
        # every re-check finds its objects equal to the claim's and decides
        # each once, or each certificate once
        config = cfg(**overrides)
        rv = report.revalidate_report(report.run_example_suite(config).to_dict())
        assert [c.details for c in rv.checks] == [
            {"revalidated": n, "errors": []} for n in (1, 1, 1, config.depth - 1, config.depth, 1)
        ]

    def test_each_run_writes_exactly_its_evidence_keys(self, example_report):
        for (name, _, keys, _), check in zip(report.EXAMPLE_CHECKS, example_report.checks):
            assert check.name == name
            assert set(check.details) == set(keys), name

    @pytest.mark.parametrize(
        "name, donor",
        [(a, b) for a in report.CHECK_NAMES for b in report.CHECK_NAMES if a != b],
        ids=lambda name: name,
    )
    def test_a_check_given_another_checks_details_fails(self, depth2_report, name, donor):
        # every piece of evidence is bound to the check that wrote it: a
        # check holding another's details has none of its own
        data = copy.deepcopy(depth2_report.to_dict())
        by_name = {c["name"]: c for c in data["checks"]}
        by_name[name]["details"] = copy.deepcopy(by_name[donor]["details"])
        rv = {c.name: c for c in report.revalidate_report(data).checks}
        assert rv.pop(name).details == {"revalidated": 0, "errors": ["no evidence"]}
        assert {c.status for c in rv.values()} == {"pass"}

    @pytest.mark.parametrize(
        "forge, errors",
        [
            (
                # X^5 at level 2 -> Y^5: no longer the 5th root of X^5 at level 1
                lambda d: d["quotient"][1].update(terms=[[0, 0, 5, "1"]]),
                [NOT_COMPATIBLE],
            ),
            (
                # X -> Y at every level: compatible, but pmp * [Y] is not pmp * [X]
                lambda d: [c.update(terms=[[0, 0, 5, "1"]]) for c in d["quotient"]],
                ["pmp * [quotient] is not pmp * [X] on the first 2 coordinates"],
            ),
            (
                lambda d: d.update(steps=3),
                ["steps must be 2 = min(Witt length 2, (depth + 1) // 2)"],
            ),
            (
                lambda d: d.update(steps=1),
                ["steps must be 2 = min(Witt length 2, (depth + 1) // 2)"],
            ),
        ],
        ids=["component", "coordinate", "steps-plus-one", "steps-minus-one"],
    )
    def test_revalidate_refuses_a_forged_witt_quotient(self, tmp_path, capsys, forge, errors):
        # depth 4, Witt length 2: two steps, component depth 1 and the
        # quotient [X], whose coordinate 0 is X^5 at levels 1 and 2; the
        # re-check multiplies back and runs no division
        data = copy.deepcopy(report.run_example_suite(cfg(depth=4)).to_dict())
        index = report.CHECK_NAMES.index("witt_division_roundtrip")
        forge(data["checks"][index]["details"])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        assert cli.main(["revalidate", str(path), "--format", "json"]) == 1
        assert time.perf_counter() - started < 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"]: c["details"]["errors"] for c in checks if c["status"] != "pass"} == {
            "witt_division_roundtrip": errors
        }

    @pytest.mark.parametrize(
        "edit, key",
        [
            ({"steps": True}, "steps"),
            ({"steps": 1.0}, "steps"),
            ({"quotient": {}}, "quotient"),
            (
                {"quotient": [{"level": 1, "ring": "quotient", "terms": [[0, 5, 0, 1]]}]},
                "residue terms",
            ),
            ({"quotient": [FAR_ELEM]}, "residue level"),
        ],
        ids=["bool-steps", "float-steps", "quotient-object", "int-coefficient", "far-level"],
    )
    def test_revalidate_refuses_a_malformed_witt_record(
        self, tmp_path, capsys, depth2_report, edit, key
    ):
        data = copy.deepcopy(depth2_report.to_dict())
        data["checks"][report.CHECK_NAMES.index("witt_division_roundtrip")]["details"].update(edit)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        assert cli.main(["revalidate", str(path)]) == 2
        assert time.perf_counter() - started < 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1 and key in out.err

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"depth": 2}, {"depth": 6, "witt_length": 4}, {"p": 7, "depth": 3, "witt_length": 4}],
    )
    def test_revalidate_runs_no_division(self, monkeypatch, overrides):
        # the Witt check is one multiply-back in closed form: neither the
        # Witt division nor the sequence division it calls runs again, and
        # no Witt arithmetic runs
        rep = report.run_example_suite(cfg(**overrides))

        def no_division(*args):
            raise AssertionError("revalidate ran a division or Witt arithmetic")

        monkeypatch.setattr(witt, "divide_by_p_seq_minus_p", no_division)
        monkeypatch.setattr(witt, "divide_by_p_seq", no_division)
        monkeypatch.setattr(witt.WittVec, "_binary", no_division)
        rv = report.revalidate_report(rep.to_dict())
        assert rv.ok and rv.checks[-1].details == {"revalidated": 1, "errors": []}


MULTIPLY_BACK = "pmp * [quotient] is not pmp * [X] on the first {} coordinates"

#: Configs of the Witt record: (steps, quotient components) are (2, 1),
#: (1, 2), (1, 2), (3, 2), (2, 1) and (1, 3).
WITT_CONFIGS = {
    "p5-d3-w2": {},
    "p7-d2-w2": {"p": 7, "depth": 2},
    "p5-d2-w3": {"depth": 2, "witt_length": 3},
    "p5-d6-w4": {"depth": 6, "witt_length": 4},
    "p7-d3-w4": {"p": 7, "depth": 3, "witt_length": 4},
    "p5-d3-w1": {"witt_length": 1},
}


def _verdicts(check, details: dict, config: report.Config):
    """The checker's verdicts on ``details``, or "malformed" where it
    refuses them (MalformedReportError is a ValueError)."""
    try:
        return list(check(details, config))
    except ValueError:
        return "malformed"


def _multiply_back(details: dict, config: report.Config):
    """The oracle of the closed form, for a record whose steps and
    quotient length are right: pmp * [q] against x = pmp * [X], both
    built by Witt products over the quotient as a plain sequence.  A
    quotient that the constructor refuses as incompatible is not
    compatible; its other refusals are malformed records."""
    steps = details["steps"]
    comps = [report.residue_from_json(d, config) for d in details["quotient"]]
    ctx = witt.WittCtx(config.p, steps)
    _, X, _ = fontaine.generators(config.p, report.DEGREE, len(comps) - 1, QUOTIENT)
    pmp = witt.p_seq_minus_p(ctx, X)
    try:
        q = FontaineElem(comps, PLAIN)
    except ValueError as exc:
        if "is not a p-th root of component" not in str(exc):
            raise
        q = None
    if q is None or not q.family.same_family(X.family):
        yield NOT_COMPATIBLE
    elif pmp * witt.WittVec.teichmuller(ctx, q) != pmp * witt.WittVec.teichmuller(ctx, X):
        yield MULTIPLY_BACK.format(steps)
    else:
        yield None


@st.composite
def witt_edits(draw):
    """A Witt record of ``WITT_CONFIGS`` with one quotient component
    edited: a term added (to a monomial's coefficient, mod p), dropped or
    moved, or the component's level changed."""
    name = draw(st.sampled_from(sorted(WITT_CONFIGS)))
    config = cfg(**WITT_CONFIGS[name])
    details = report._witness_witt(config)
    comp = draw(st.sampled_from(details["quotient"]))
    terms = {tuple(t[:3]): int(t[3]) for t in comp["terms"]}
    level, p = comp["level"], config.p
    monomials = st.tuples(
        st.integers(0, p**level - 1), st.integers(0, 2 * p), st.integers(0, 3 * p**level - 1)
    )
    edit = draw(st.sampled_from(("add", "drop", "move", "level")))
    if edit == "level":
        comp["level"] = draw(st.integers(0, config.depth))
    elif edit == "add":
        mono = draw(monomials)
        terms[mono] = (terms.get(mono, 0) + draw(st.integers(1, p - 1))) % p
    elif terms:
        mono = draw(st.sampled_from(sorted(terms)))
        v = terms.pop(mono)
        if edit == "move":
            terms[draw(monomials)] = v
    comp["terms"] = [[*m, str(v)] for m, v in sorted(terms.items()) if v]
    return config, details


class TestClosedFormWittCheck:
    """The Witt check multiplies the quotient back in closed form,
    pmp = (P, -1, 0, ...) and [q] * pmp = (q P, -q^p, 0, ...), with no
    Witt product; the generic multiply-back is its oracle."""

    @pytest.mark.parametrize("overrides", WITT_CONFIGS.values(), ids=WITT_CONFIGS)
    def test_pmp_times_teichmuller_x_is_the_closed_form(self, monkeypatch, overrides):
        # the witness divides the Witt product pmp * [X], and it equals
        # the checker's closed form (X P, -X^p, 0, ...) component by
        # component, at the same levels
        config, seen = cfg(**overrides), []
        divide = witt.divide_by_p_seq_minus_p
        monkeypatch.setattr(witt, "divide_by_p_seq_minus_p", lambda x: seen.append(x) or divide(x))
        report._witness_witt(config)
        ctx = witt.WittCtx(config.p, config.witt_length)
        P, X, _ = fontaine.generators(config.p, report.DEGREE, config.depth, QUOTIENT)
        want = witt.p_seq_minus_p(ctx, X) * witt.WittVec.teichmuller(ctx, X)
        closed = [X * P, -(X**config.p)] + [X.zero_like()] * (config.witt_length - 2)
        assert [c.comps for c in seen[0].comps] == [c.comps for c in want.comps]
        assert [c.comps for c in want.comps] == [c.comps for c in closed[: config.witt_length]]

    @given(case=witt_edits())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_multiply_back_on_edited_quotients(self, case):
        config, details = case
        got = _verdicts(report._check_witt, details, config)
        assert got == _verdicts(_multiply_back, details, config)

    def test_negative_control_without_coordinate_0(self, monkeypatch):
        # PI^5 added to the top quotient component at p5-d6-w4 (level 2)
        # keeps it compatible and its p-th power, and moves q_1 PI_1 by
        # PI^10: only coordinate 0 sees it
        config = cfg(**WITT_CONFIGS["p5-d6-w4"])
        forged = report._witness_witt(config)
        forged["quotient"][1]["terms"].insert(0, [5, 0, 0, "1"])
        assert list(_multiply_back(forged, config)) == [MULTIPLY_BACK.format(3)]
        assert list(report._check_witt(forged, config)) == [MULTIPLY_BACK.format(3)]
        pmp_times = report._pmp_times
        monkeypatch.setattr(report, "_pmp_times", lambda a, n, steps: pmp_times(a, n, steps)[1:])
        assert list(report._check_witt(forged, config)) == [None]

    def test_negative_control_without_coordinate_1(self, monkeypatch):
        # at p5-d3-w2 the quotient is the one residue q_0, whose PI_0 = p
        # is zero mod p and whose compatibility is empty: Y added to it
        # is seen by q_0^p alone
        config = cfg(**WITT_CONFIGS["p5-d3-w2"])
        forged = report._witness_witt(config)
        forged["quotient"][0]["terms"].append([0, 0, 1, "1"])
        assert list(_multiply_back(forged, config)) == [MULTIPLY_BACK.format(2)]
        assert list(report._check_witt(forged, config)) == [MULTIPLY_BACK.format(2)]
        pmp_times = report._pmp_times
        monkeypatch.setattr(report, "_pmp_times", lambda a, n, steps: pmp_times(a, n, steps)[:1])
        assert list(report._check_witt(forged, config)) == [None]

    def test_negative_control_without_the_compatibility(self, monkeypatch):
        # Y added to q_0 at p5-d3-w1 (level 1) is killed by PI_0 = p, so
        # coordinate 0 alone, the only one at one step, passes it
        config = cfg(**WITT_CONFIGS["p5-d3-w1"])
        forged = report._witness_witt(config)
        forged["quotient"][0]["terms"].append([0, 0, 1, "1"])
        assert list(_multiply_back(forged, config)) == [NOT_COMPATIBLE]
        assert list(report._check_witt(forged, config)) == [NOT_COMPATIBLE]
        monkeypatch.setattr(report, "_compatible", lambda comps: [True] * (len(comps) - 1))
        assert list(report._check_witt(forged, config)) == [None]

    def test_compatibility_never_divides_an_exponent(self):
        # a component recorded levels above its neighbour is compared at
        # one below its own level, where its Frobenius image is written
        # without dividing: the same element embedded deeper is
        # compatible, the same terms read deeper are not
        at = [tower.context(5, level, report.DEGREE, QUOTIENT) for level in range(7)]
        low, high = (TowerElem.monomial(at[n], 0, 5, 0, coeff_mod=5) for n in (1, 2))
        assert report._compatible([low, high.embed(6)]) == [True]
        assert report._compatible([low, TowerElem(at[6], high.terms, 5)]) == [False]
        assert report._compatible([low.embed(5), high]) == [True]

    @pytest.mark.parametrize(
        "name, steps, error",
        [
            ("p5-d6-w4", 4, "steps must be 3 = min(Witt length 4, (depth + 1) // 2)"),
            ("p5-d2-w3", 2, "steps must be 1 = min(Witt length 3, (depth + 1) // 2)"),
            ("p7-d3-w4", 3, "steps must be 2 = min(Witt length 4, (depth + 1) // 2)"),
        ],
        ids=["p5-d6-w4", "p5-d2-w3", "p7-d3-w4"],
    )
    def test_steps_past_the_depth_fail(self, tmp_path, capsys, name, steps, error):
        # steps within the Witt length but beyond (depth + 1) // 2 leave
        # the quotient a depth below 0: an empty one must not pass
        data = report.run_example_suite(cfg(**WITT_CONFIGS[name])).to_dict()
        _details(data, "witt_division_roundtrip").update(steps=steps, quotient=[])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path), "--format", "json"]) == 1
        checks = {c["name"]: c["details"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["witt_division_roundtrip"] == {"revalidated": 1, "errors": [error]}

    @pytest.mark.parametrize(
        "name, index, level, code, out",
        [
            ("p5-d6-w4", 1, 0, 2, "witt quotient component 1 sits below its index"),
            ("p5-d6-w4", 1, 6, 1, NOT_COMPATIBLE),
            ("p5-d3-w1", 1, 3, 1, NOT_COMPATIBLE),
        ],
        ids=["below-its-index", "five-above-its-neighbour", "two-above-its-neighbour"],
    )
    def test_a_forged_level_exits_cleanly(self, tmp_path, capsys, name, index, level, code, out):
        # neither a level below the index nor one far above the neighbour
        # may end in a traceback: the first is malformed, the second fails
        data = report.run_example_suite(cfg(**WITT_CONFIGS[name])).to_dict()
        _details(data, "witt_division_roundtrip")["quotient"][index]["level"] = level
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path), "--format", "json"]) == code
        got = capsys.readouterr()
        assert "Traceback" not in got.err
        if code == 2:
            assert got.out == "" and out in got.err
        else:
            checks = {c["name"]: c["details"] for c in json.loads(got.out)["checks"]}
            assert checks["witt_division_roundtrip"] == {"revalidated": 1, "errors": [out]}


def _next_prime(n: int) -> int:
    while not valuation.is_prime(n):
        n += 1
    return n


@st.composite
def example_configs(draw):
    """A prime 5 <= p < 2^16, 2 <= depth <= 100 and 1 <= witt_length <= depth + 1."""
    p = _next_prime(draw(st.integers(5, 65521)))
    depth = draw(st.integers(2, 100))
    return p, depth, draw(st.integers(1, depth + 1))


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _example_and_revalidate(args: list[str], codes: tuple[int, int]) -> tuple[list, list]:
    """Run ``example`` with ``args``, then ``revalidate`` on its report,
    requiring the two exit ``codes`` and that every status ``example``
    gives is the one ``revalidate`` gives; return the statuses and the
    revalidated checks."""
    code, text = _main(["example", *args, "--format", "json", "--no-timestamp"])
    statuses = [c["status"] for c in json.loads(text)["checks"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(text)
        re_code, text = _main(["revalidate", str(path), "--format", "json"])
    rechecked = json.loads(text)["checks"]
    assert (code, re_code) == codes
    assert [c["status"] for c in rechecked] == statuses
    return statuses, rechecked


class TestConfigSpace:
    """The worked example as a property of its config space: every config
    inside the bounds passes, revalidates with the counts it implies, and
    does both within a time ceiling."""

    @staticmethod
    def passes_and_revalidates(p, depth, length):
        """Run the example and revalidate its report; return the seconds
        both took."""
        args = ["--p", str(p), "--depth", str(depth), "--witt-len", str(length)]
        started = time.perf_counter()
        statuses, rechecked = _example_and_revalidate(args, (0, 0))
        elapsed = time.perf_counter() - started
        assert statuses == ["pass"] * 6
        assert [(c["status"], c["details"]) for c in rechecked] == [
            ("pass", {"revalidated": n, "errors": []}) for n in (1, 1, 1, depth - 1, depth, 1)
        ]
        return elapsed

    @given(config=example_configs())
    @settings(max_examples=25, deadline=None)
    def test_every_config_passes_and_revalidates(self, config):
        assert self.passes_and_revalidates(*config) < 2

    def test_the_deepest_config_passes_and_revalidates(self):
        # the largest depth and Witt length the example accepts: 50 division steps
        assert self.passes_and_revalidates(5, 100, 101) < 2

    def test_plain_mode_revalidates_with_the_same_statuses(self):
        statuses, _ = _example_and_revalidate(["--mode", "plain"], (1, 1))
        assert statuses == ["pass"] * 4 + ["fail", "pass"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_p_2_and_3_are_refused(self, p):
        code, text = _main(["example", "--p", str(p)])
        assert code == 2 and text == ""


class TestRunnerStatusMapping:
    def test_undetermined_is_distinct(self):
        def blow_up():
            raise UndeterminedCongruenceError(1, 3)

        rep = report._run_checks({}, [("semi", blow_up)])
        assert rep.checks[0].status == "undetermined"
        assert not rep.ok


class TestCli:
    def test_example_json_exit_zero(self, capsys):
        assert cli.main(["example", "--no-timestamp", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["checks"]) == 6

    def test_plain_mode_exit_nonzero(self, capsys):
        assert cli.main(["example", "--mode", "plain", "--no-timestamp"]) == 1
        assert "FAILURES PRESENT" in capsys.readouterr().out

    def test_small_prime_exit_two(self, capsys):
        assert cli.main(["example", "--p", "2"]) == 2

    def test_witt_length_above_depth_plus_one_exits_two_at_once(self, capsys):
        started = time.perf_counter()
        assert cli.main(["example", "--depth", "2", "--witt-len", "4"]) == 2
        assert time.perf_counter() - started < 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["eval", "x", "--check-closure", "--mmax", "-1"]], ids=["eval"]
    )
    def test_negative_mmax_exits_two(self, capsys, argv):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["example", "--depth", "101"], "depth <= 100"),
            (["example", "--p", "65537"], "below 2^16"),
            (["eval", "x", "--p", "1000000000000000003"], "below 2^16"),
            (["eval", f"x^(1/{5**101})"], "level 101 is above the tower's bound 100"),
        ],
        ids=["example-depth-101", "example-p-65537", "eval-huge-prime", "eval-level-101"],
    )
    def test_work_is_bounded_up_front(self, capsys, argv, bound):
        started = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - started < 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1 and bound in out.err

    def test_props_text(self, capsys):
        assert cli.main(["props", "--seed", "3"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_eval_member(self, capsys):
        rc = cli.main(
            ["eval", "(p^(3/5)+x^(3/5)+y^(3/5))/p^(1/5)", "--check-closure", "--mmax", "2"]
        )
        assert rc == 0
        assert "m = 1" in capsys.readouterr().out

    def test_eval_nonmember(self, capsys):
        rc = cli.main(["eval", "x^(1/5)/p^(1/5)", "--check-closure", "--mmax", "3"])
        assert rc == 1
        assert "structurally impossible" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "expr, refuted", [("x^(1/5)/p^(1/25)", True), ("(x+y)/p^(1/5)", False)]
    )
    def test_eval_json_reports_the_refutation(self, capsys, expr, refuted):
        argv = ["eval", expr, "--check-closure", "--mmax", "1", "--format", "json"]
        assert cli.main(argv) == 1
        got = json.loads(capsys.readouterr().out)["closure"]
        assert got == {"member": False, "m_max": 1, "definite_nonmember": refuted}

    def test_eval_parse_error(self, capsys):
        assert cli.main(["eval", "x^(1/3)"]) == 2

    def test_eval_long_sum(self, capsys):
        assert cli.main(["eval", "+".join(["x"] * 2000), "--format", "json"]) == 0
        long_sum = capsys.readouterr().out
        assert cli.main(["eval", "2000*x", "--format", "json"]) == 0
        assert long_sum == capsys.readouterr().out

    def test_eval_deep_nesting_exits_two(self, capsys):
        assert cli.main(["eval", "(" * 1000 + "x" + ")" * 1000]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no int-to-str digit limit",
    )
    def test_eval_unprintable_coefficient_exits_two(self, capsys):
        # Y^3000 at p = 31 has a coefficient past the int-to-str limit
        assert cli.main(["eval", "y^3000", "--p", "31"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "limit" in out.err

    def test_revalidate_roundtrip(self, tmp_path, example_report, capsys):
        path = tmp_path / "report.json"
        path.write_text(example_report.to_json())
        assert cli.main(["revalidate", str(path)]) == 0

    def test_revalidate_other_degree_exits_two(self, tmp_path, example_report, capsys):
        data = example_report.to_dict()
        data["config"] = {**data["config"], "degree": 2}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "not json",
            "{}",
            "[]",
            _report_text([]),
            _report_text([], p="5"),
            _report_text({}),
            _report_text([{"name": 1, "status": "pass"}]),
            _report_text(_example_checks("sequence_compatibility", status="ok")),
            _report_text(
                _example_checks("witt_division_roundtrip", details={"steps": 1, "quotient": 3})
            ),
            _report_text(_example_checks("base_residue_vanishes", details={"residue": {}})),
            _report_text(_example_checks("plain_division_fails", details=[])),
            '{"config": [], "checks": []}',
            "[" * 100_000 + "]" * 100_000,
            _report_text(_example_checks("base_residue_vanishes", details={"residue": FAR_ELEM})),
        ],
        ids=[
            "missing-file",
            "not-json",
            "empty-object",
            "list",
            "no-checks",
            "string-p",
            "checks-object",
            "int-name",
            "unknown-status",
            "int-quotient",
            "residue-without-elem",
            "details-list",
            "config-list",
            "deep-nesting",
            "residue-level-above-depth",
        ],
    )
    def test_revalidate_unusable_input_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        assert cli.main(["revalidate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["one-check", "out-of-order", "props"])
    def test_revalidate_wants_exactly_the_example_checks(
        self, tmp_path, capsys, example_report, kind
    ):
        data = example_report.to_dict()
        if kind == "one-check":
            data["checks"] = [c for c in data["checks"] if c["name"] == "base_residue_vanishes"]
        elif kind == "out-of-order":
            data["checks"] = data["checks"][1:] + data["checks"][:1]
        else:
            # property-suite reports carry case counts, no evidence
            data = report.run_property_suites(0, timestamp=False).to_dict()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [{key: None} for key in sorted(EXAMPLE_KEYS)]
        + [
            {"seed": 0},
            {"m_max": 4},
            {"closure_mode": "banana"},
            {"witt_length": True},
            {"depth": 2.0},
            {"timestamp": 5},
            {"witt_length": 4},
            {"depth": 30_000},
            {"p": 1_000_000_000_000_000_003},
        ],
        ids=[f"drop-{key}" for key in sorted(EXAMPLE_KEYS)]
        + ["seed", "m_max", "mode-banana", "bool-witt-length", "float-depth", "int-timestamp"]
        + ["witt-length-depth-plus-2", "depth-30000", "huge-prime"],
    )
    def test_revalidate_refuses_an_edited_config(self, tmp_path, capsys, depth2_report, edit):
        # None drops the key; every edit is refused before any check runs,
        # so witt_length = depth + 2 no longer spends 25 s failing its division
        data = depth2_report.to_dict()
        config = {**data["config"], **edit}
        data["config"] = {key: value for key, value in config.items() if value is not None}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        assert cli.main(["revalidate", str(path)]) == 2
        assert time.perf_counter() - started < 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize("p, depth", [(5, 2), (5, 3), (7, 2), (11, 3)])
    def test_division_factors_are_the_closure_claims(self, p, depth):
        # the element the re-check decides factor exponent n for, u_n /
        # PI, is the factor r_n / PI_n that the division certifies (p > 3)
        config = cfg(p=p, depth=depth)
        eta = report._example_eta(config)
        _, factors = fontaine.divide_by_p_seq_traced(FontaineElem(eta.comps, fontaine.CERTIFIED))
        certified = [(n, c.elem) for n, c in enumerate(factors) if c is not None]
        assert certified == [(n, report._closure_claim(config, n)) for n in range(1, depth + 1)]

    @pytest.mark.parametrize(
        "edit, key",
        [
            ({"m": True}, "m"),
            ({"m": -1}, "m"),
            ({"m": 1.0}, "m"),
            ({"m": "1"}, "m"),
            ({"denom_exp": True}, "denom_exp"),
            ({"denom_exp": -1}, "denom_exp"),
            ({"level": 1.0}, "level"),
            ({"level": -1}, "level"),
            ({"level": 10**7}, "level"),
            ({"ring": "banana"}, "ring"),
            ({"witness_terms": []}, "witness_terms"),
            ({"num_terms": None}, "num_terms"),
            ({"num_terms": [[True, 0, 0, "1"]]}, "num_terms"),
            ({"num_terms": [[-1, 0, 0, "1"]]}, "num_terms"),
            ({"num_terms": [[0, 0, 1.0, "1"]]}, "num_terms"),
            ({"num_terms": [[0, 0, 0, 1]]}, "num_terms"),
            ({"num_terms": [[0, 0, 0, "1.0"]]}, "num_terms"),
            ({"num_terms": [[0, 0, 0, " 1"]]}, "num_terms"),
            ({"num_terms": [[0, 0, "1"]]}, "num_terms"),
            ({"num_terms": [[0, 0, 0, "1"], [0, 0, 0, "2"]]}, "num_terms"),
            ({"num_terms": [[5, 0, 0, "1"]]}, "num_terms"),
            ({"num_terms": [[0, 0, 10**9, "1"]]}, "num_terms"),
            ({"num_terms": {}}, "num_terms"),
        ],
        ids=[
            "bool-m",
            "negative-m",
            "float-m",
            "string-m",
            "bool-denom-exp",
            "negative-denom-exp",
            "float-level",
            "negative-level",
            "level-above-the-tower",
            "unknown-ring",
            "old-format-witness",
            "drop-num-terms",
            "bool-exponent",
            "negative-exponent",
            "float-exponent",
            "int-coefficient",
            "float-coefficient",
            "padded-coefficient",
            "three-entry-term",
            "repeated-monomial",
            "pi-exponent-not-normal",
            "y-exponent-not-normal",
            "terms-not-a-list",
        ],
    )
    def test_cert_from_json_refuses_a_malformed_certificate(self, eval_certificate, edit, key):
        # None drops the key; reports carry no certificates, ``eval`` does
        cert = {**eval_certificate, **edit}
        started = time.perf_counter()
        with pytest.raises(report.MalformedReportError) as err:
            report.cert_from_json({k: v for k, v in cert.items() if v is not None}, 5, 3)
        assert time.perf_counter() - started < 0.1
        assert f"certificate {key}" in str(err.value) or f"'{key}'" in str(err.value)

    def test_cert_from_json_inverts_cert_to_json(self, eval_certificate):
        assert set(eval_certificate) == set(report.CERT_KEYS) == CERT_KEYS
        cert = report.cert_from_json(eval_certificate, 5, 3)
        assert report.cert_to_json(cert) == eval_certificate
        assert closure.validate_cert(cert)

    #: Where each check's first element sits in its details.
    RESIDUE_AT = {
        "sequence_compatibility": lambda d: d["sequence"][0],
        "base_residue_vanishes": lambda d: d["residue"],
        "plain_division_fails": lambda d: d["divisor"],
    }

    @pytest.mark.parametrize(
        "name, terms",
        [
            ("sequence_compatibility", [[0, 0, 0, 1]]),
            ("base_residue_vanishes", [[True, 0, 0, "1"]]),
            ("plain_division_fails", [[0, -1, 0, "1"]]),
        ],
        ids=["int-coefficient", "bool-exponent", "negative-exponent"],
    )
    def test_revalidate_refuses_malformed_residue_terms(
        self, tmp_path, capsys, depth2_report, name, terms
    ):
        data = copy.deepcopy(depth2_report.to_dict())
        details = data["checks"][report.CHECK_NAMES.index(name)]["details"]
        self.RESIDUE_AT[name](details)["terms"] = terms
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "residue terms" in out.err

    @pytest.mark.parametrize("name", list(RESIDUE_AT))
    @pytest.mark.parametrize(
        "key, value",
        [
            ("level", True),
            ("level", 1.0),
            ("level", -1),
            ("level", "1"),
            ("level", 10**7),
            ("ring", "banana"),
        ],
        ids=[
            "bool-level",
            "float-level",
            "negative-level",
            "string-level",
            "level-above-depth",
            "unknown-ring",
        ],
    )
    def test_revalidate_refuses_a_residue_level_or_ring(
        self, tmp_path, capsys, depth2_report, name, key, value
    ):
        data = copy.deepcopy(depth2_report.to_dict())
        details = data["checks"][report.CHECK_NAMES.index(name)]["details"]
        self.RESIDUE_AT[name](details)[key] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert f"residue {key}" in out.err
