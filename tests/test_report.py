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
        assert [c.name for c in example_report.checks] == [
            "sequence_compatibility",
            "base_residue_vanishes",
            "plain_division_fails",
            "closure_certificates",
            "certified_division",
            "witt_division_roundtrip",
        ]

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


class TestDeterminism:
    def test_example_bytes_are_stable(self, example_report):
        again = report.run_example_suite(cfg())
        assert again.to_json() == example_report.to_json()

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

    def test_eval_parse_error(self, capsys):
        assert cli.main(["eval", "x^(1/3)"]) == 2

    def test_revalidate_roundtrip(self, tmp_path, example_report, capsys):
        path = tmp_path / "report.json"
        path.write_text(example_report.to_json())
        assert cli.main(["revalidate", str(path)]) == 0
