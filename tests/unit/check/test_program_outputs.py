"""Output-contract tests: JSON schema, SARIF 2.1.0, and the
`uvm-repro lint` CLI exit codes."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import jsonschema
import pytest

from repro.check.lint import RULES, lint_paths, report_to_json_dict
from repro.check.sarif import to_sarif
from repro.cli import main as cli_main

HERE = Path(__file__).resolve()
FIXTURES = HERE.parent / "fixtures" / "miniproj"
REPO = HERE.parents[3]
LINT_SCHEMA = json.loads(
    (REPO / "docs" / "schemas" / "lint.schema.json").read_text()
)
SARIF_SCHEMA = json.loads(
    (REPO / "docs" / "schemas" / "sarif-2.1.0-subset.schema.json").read_text()
)


class TestJsonSchema:
    def test_real_fixture_report_validates(self):
        report = lint_paths([FIXTURES])
        assert report.findings  # the fixture is deliberately dirty
        payload = json.loads(json.dumps(report_to_json_dict(report)))
        jsonschema.validate(payload, LINT_SCHEMA)

    def test_clean_report_validates(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("X = sorted([3, 1, 2])\n")
        payload = report_to_json_dict(lint_paths([target]))
        jsonschema.validate(payload, LINT_SCHEMA)
        assert payload["ok"] is True and payload["count"] == 0

    def test_cli_json_output_validates(self, capsys):
        rc = cli_main(["lint", str(FIXTURES), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, LINT_SCHEMA)
        assert rc == 1
        assert payload["count"] == len(payload["findings"]) > 0

    def test_schema_rejects_malformed_finding(self):
        report = lint_paths([FIXTURES])
        payload = report_to_json_dict(report)
        payload["findings"][0]["fingerprint"] = "nope"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, LINT_SCHEMA)


class TestSarif:
    def test_fixture_sarif_validates_and_is_complete(self):
        report = lint_paths([FIXTURES])
        doc = to_sarif(report.findings, report.sources, RULES,
                       tool_version="1.0.0", root=FIXTURES)
        jsonschema.validate(doc, SARIF_SCHEMA)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "uvm-repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(RULES)
        assert len(run["results"]) == len(report.findings)
        for result in run["results"]:
            assert result["partialFingerprints"]["uvmLint/v1"]
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
            assert not loc["artifactLocation"]["uri"].startswith("/")

    def test_cli_sarif_output_validates(self, capsys):
        rc = cli_main(["lint", str(FIXTURES), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SARIF_SCHEMA)
        assert rc == 1
        assert doc["version"] == "2.1.0"

    def test_fingerprints_are_the_same_in_any_clone(self, tmp_path):
        prints = []
        for clone in ("a", "b/deeper"):
            copy = tmp_path / clone / "miniproj"
            shutil.copytree(FIXTURES, copy)
            payload = report_to_json_dict(lint_paths([copy]))
            prints.append([f["fingerprint"] for f in payload["findings"]])
        assert prints[0] and prints[0] == prints[1]

    def test_every_result_is_an_error(self):
        report = lint_paths([FIXTURES])
        doc = to_sarif(report.findings, report.sources, RULES, root=FIXTURES)
        levels = {
            r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]
        }
        assert levels == {"mutable-default": "error", "wall-clock": "error"}
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert {r["defaultConfiguration"]["level"] for r in rules} == {"error"}


class TestCliContract:
    def test_exit_1_on_findings(self, capsys):
        assert cli_main(["lint", str(FIXTURES)]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_exit_0_with_covering_allowlist(self, tmp_path, capsys):
        allow = tmp_path / "allow.txt"
        allow.write_text("miniproj/timing.py: wall-clock  # fixture\n"
                         "miniproj/clock.py: *  # fixture\n")
        rc = cli_main(["lint", str(FIXTURES), "--allowlist", str(allow)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_2_on_malformed_allowlist(self, tmp_path, capsys):
        bad = tmp_path / "allow.txt"
        bad.write_text("no rule on this line\n")
        rc = cli_main(["lint", str(FIXTURES), "--allowlist", str(bad)])
        assert rc == 2
        assert "missing ':'" in capsys.readouterr().err

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        missing = tmp_path / "renamed" / "away.py"
        assert cli_main(["lint", str(missing)]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "clean" not in captured.out

    def test_exit_2_on_unparsable_file(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n    pass\n")
        assert cli_main(["lint", str(broken), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert str(broken) in captured.err
        assert captured.out == ""
