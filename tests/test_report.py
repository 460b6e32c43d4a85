import copy
import hashlib
import json

import pytest

from rootclose import cli, report
from rootclose.fontaine import PLAIN, UndeterminedCongruenceError


def cfg(**kw):
    kw.setdefault("timestamp", False)
    return report.Config(**kw)


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

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            report.run_example_suite(cfg(p=2))
        with pytest.raises(ValueError):
            report.run_example_suite(cfg(p=3))

    def test_certificate_details_embed_witnesses(self, example_report):
        by_name = {c.name: c for c in example_report.checks}
        certs = by_name["closure_certificates"].details["certificates"]
        assert [c["m"] for c in certs] == [1, 2]
        for c in certs:
            assert c["denom_exp"] == 1
            assert all(isinstance(t[3], str) for t in c["num_terms"])
            assert all(isinstance(t[3], str) for t in c["witness_terms"])

    def test_json_schema_shape(self, example_report):
        data = json.loads(example_report.to_json())
        assert set(data) == {"config", "checks"}
        for check in data["checks"]:
            assert set(check) == {"name", "status", "details"}
            assert check["status"] in ("pass", "fail", "undetermined")


#: (config overrides, sha256 of the example report without timestamp)
#: for the five configs the certify benchmark runs; {} is the default
EXAMPLE_DIGESTS = {
    "p5-d3": ({}, "d3fd66e6fee48e379420534dec17bf8692be01d08def09ec0e4b03a9e2ef2962"),
    "p7-d2": (
        {"p": 7, "depth": 2},
        "5917a06eacbf4369ab68e2238b007b40750ab984ea73834b286ba53969d0d9f3",
    ),
    "p5-d2-w3": (
        {"depth": 2, "witt_length": 3},
        "d80979b866657b4aeb52a5cbd5b08d4f5da47f49d54592d3ceab913f50f8f217",
    ),
    "p5-d2": ({"depth": 2}, "9d54cdd986711583dc7ad3c606b9d0923afdf17d5d87718853aabc9afa57f95a"),
    "p5-d3-plain": (
        {"closure_mode": PLAIN},
        "0cf061a0883ead822c49975cb082dbbae689adf17ca134daa85a3911c8217178",
    ),
}


class TestDeterminism:
    def test_example_bytes_are_stable(self, example_report):
        again = report.run_example_suite(cfg())
        assert again.to_json() == example_report.to_json()

    @pytest.mark.parametrize("name", EXAMPLE_DIGESTS)
    def test_example_bytes_match_the_recorded_digest(self, name, example_report):
        overrides, digest = EXAMPLE_DIGESTS[name]
        rep = report.run_example_suite(cfg(**overrides)) if overrides else example_report
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest

    def test_props_bytes_are_stable(self):
        a = report.run_property_suites(cfg(seed=5)).to_json()
        b = report.run_property_suites(cfg(seed=5)).to_json()
        assert a == b

    def test_props_bytes_match_the_recorded_digest(self):
        # recorded before the invariants moved into their own table: any
        # drift in sample order, case counts or details changes the digest
        text = report.run_property_suites(cfg(seed=0)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9973fc4de6c53e177d34b808ce991405d9706ca4f4007fa67357c892e5872b54"
        )

    def test_seed_changes_samples_not_statuses(self):
        a = report.run_property_suites(cfg(seed=0))
        b = report.run_property_suites(cfg(seed=12345))
        assert [c.status for c in a.checks] == [c.status for c in b.checks]

    def test_timestamp_flag(self):
        with_ts = report.run_property_suites(report.Config(seed=0)).config
        without = report.run_property_suites(cfg(seed=0)).config
        assert "timestamp" in with_ts and "timestamp" not in without


class TestPropertySuites:
    def test_negative_control_present(self):
        rep = report.run_property_suites(cfg())
        by_name = {c.name: c for c in rep.checks}
        assert by_name["witt_ghost_negative_control"].details == {"detected": True}


class TestRevalidation:
    def test_reproduces_example_suite(self, example_report):
        rv = report.revalidate_report(example_report.to_dict())
        assert rv.ok
        assert sum(c.details["revalidated"] for c in rv.checks) >= 9

    def test_detects_tampered_witness(self, example_report):
        data = copy.deepcopy(example_report.to_dict())
        for check in data["checks"]:
            if check["name"] == "closure_certificates":
                check["details"]["certificates"][0]["witness_terms"][0][3] = "999"
        rv = report.revalidate_report(data)
        assert not rv.ok

    def test_detects_tampered_division_verdict(self, example_report):
        data = copy.deepcopy(example_report.to_dict())
        for check in data["checks"]:
            if check["name"] == "plain_division_fails":
                check["details"]["divisions"][0]["divides"] = True
        rv = report.revalidate_report(data)
        assert not rv.ok


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


class TestRunnerStatusMapping:
    def test_undetermined_is_distinct(self):
        def blow_up():
            raise UndeterminedCongruenceError(1, 3)

        rep = report._run_checks(cfg(), [("semi", blow_up)])
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

    @pytest.mark.parametrize(
        "argv", [["eval", "x", "--check-closure", "--mmax", "-1"]], ids=["eval"]
    )
    def test_negative_mmax_exits_two(self, capsys, argv):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

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
            '{"config": {"p": 5, "degree": 3}, "checks": []}',
            '{"config": {"p": "5", "degree": 3}, "checks": []}',
            '{"config": {"p": 5, "degree": 3}, "checks": {}}',
            '{"config": {"p": 5, "degree": 3}, "checks": [{"name": 1, "status": "pass"}]}',
            '{"config": {"p": 5, "degree": 3}, "checks": [{"name": "c", "status": "ok"}]}',
            '{"config": {"p": 5, "degree": 3},'
            ' "checks": [{"name": "c", "status": "pass", "details": {"certificates": 3}}]}',
            '{"config": {"p": 5, "degree": 3},'
            ' "checks": [{"name": "c", "status": "pass", "details": {"residues": [{}]}}]}',
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
            "int-certificates",
            "residue-without-elem",
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
            data = report.run_property_suites(cfg()).to_dict()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.main(["revalidate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
