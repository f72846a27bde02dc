"""SARIF 2.1.0 export: findings as code-scanning annotations.

SARIF (Static Analysis Results Interchange Format, OASIS 2.1.0) is what CI
code-scanning UIs ingest; ``uvm-repro lint --format sarif`` emits one run
with the full rule catalog (ids and descriptions) and one ``result`` per
finding, every one at level ``error``, carrying the engine's stable
fingerprint in ``partialFingerprints`` so scanning backends track findings
across commits.

Paths are emitted repo-relative against ``SRCROOT`` when the analyzed
files live under the current working directory, absolute otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from .base import Finding, Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

def _artifact_uri(path: str, root: Path) -> Dict[str, str]:
    p = Path(path)
    try:
        rel = p.resolve().relative_to(root.resolve())
        return {"uri": rel.as_posix(), "uriBaseId": "SRCROOT"}
    except ValueError:
        return {"uri": p.as_posix()}


def to_sarif(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
    tool_version: str = "1.0.0",
    root: Path = None,
) -> dict:
    """The findings as a SARIF 2.1.0 log dict (``json.dumps``-ready)."""
    root = root or Path.cwd()
    rule_index = {rule.id: i for i, rule in enumerate(rules)}
    results: List[dict] = []
    for f in findings:
        result = {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": _artifact_uri(f.path, root),
                        "region": {
                            "startLine": max(1, f.line),
                            "startColumn": max(1, f.col + 1),
                        },
                    }
                }
            ],
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        if f.fingerprint:
            result["partialFingerprints"] = {"uvmLint/v1": f.fingerprint}
        if f.pass_name:
            result["properties"] = {"pass": f.pass_name}
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "uvm-repro-lint",
                        "informationUri":
                            "https://github.com/uvm-repro/uvm-repro",
                        "version": tool_version,
                        "rules": [
                            {
                                "id": rule.id,
                                "shortDescription": {"text": rule.description},
                                "defaultConfiguration": {"level": "error"},
                                "properties": {"pass": rule.pass_name},
                            }
                            for rule in rules
                        ],
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": root.resolve().as_uri() + "/"}
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def sarif_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
