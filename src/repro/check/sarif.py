"""SARIF 2.1.0 export and stable fingerprints for lint findings.

``uvm-repro lint --format sarif`` emits one SARIF run for code-scanning
UIs: the rule catalog, and one ``error``-level ``result`` per finding with
a stable fingerprint in ``partialFingerprints``, so scanning backends track
findings across commits.  Paths are ``SRCROOT``-relative when the linted
files live under the root, absolute otherwise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def stable_path(path: str) -> str:
    """``path`` from just above its top-level package
    (``repro/gpu/copy_engine.py``), so a fingerprint is the same in any
    clone; a file outside any package is its bare name."""
    p = Path(path).resolve()
    root = p.parent
    while (root / "__init__.py").exists():
        root = root.parent
    return p.relative_to(root).as_posix()


def fingerprints(
    findings: Sequence, sources: Mapping[str, Sequence[str]]
) -> List[str]:
    """One fingerprint per finding, in order: a hash of the rule, the
    stable path, the flagged line's stripped text and an occurrence index
    among identical (rule, path, text) triples.  Line *numbers* drift with
    unrelated edits; line *text* mostly doesn't."""
    seen: Dict[tuple, int] = {}
    out: List[str] = []
    for f in findings:
        lines = sources.get(f.path, ())
        text = lines[f.line - 1].strip() if 1 <= f.line <= len(lines) else ""
        key = (f.rule, stable_path(f.path), text)
        index = seen.get(key, 0)
        seen[key] = index + 1
        out.append(hashlib.sha256(
            "\x1f".join(key + (str(index),)).encode("utf-8")
        ).hexdigest()[:16])
    return out


def _artifact_uri(path: str, root: Path) -> Dict[str, str]:
    p = Path(path)
    try:
        rel = p.resolve().relative_to(root.resolve())
        return {"uri": rel.as_posix(), "uriBaseId": "SRCROOT"}
    except ValueError:
        return {"uri": p.as_posix()}


def to_sarif(
    findings: Sequence,
    sources: Mapping[str, Sequence[str]],
    rules: Mapping[str, str],
    tool_version: str = "1.0.0",
    root: Path = None,
) -> dict:
    """The findings as a SARIF 2.1.0 log dict (``json.dumps``-ready);
    ``rules`` maps each rule id to its description."""
    root = root or Path.cwd()
    rule_ids = sorted(rules)
    results: List[dict] = []
    for f, fingerprint in zip(findings, fingerprints(findings, sources)):
        region = {"startLine": max(1, f.line), "startColumn": max(1, f.col + 1)}
        results.append({
            "ruleId": f.rule,
            "ruleIndex": rule_ids.index(f.rule),
            "level": "error",
            "message": {"text": f.message},
            "locations": [{"physicalLocation": {
                "artifactLocation": _artifact_uri(f.path, root),
                "region": region,
            }}],
            "partialFingerprints": {"uvmLint/v1": fingerprint},
        })
    driver = {
        "name": "uvm-repro-lint",
        "informationUri": "https://github.com/uvm-repro/uvm-repro",
        "version": tool_version,
        "rules": [
            {"id": rule, "shortDescription": {"text": rules[rule]},
             "defaultConfiguration": {"level": "error"}}
            for rule in rule_ids
        ],
    }
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": driver},
            "originalUriBaseIds": {
                "SRCROOT": {"uri": root.resolve().as_uri() + "/"}
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }


def sarif_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
