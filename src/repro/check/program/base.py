"""Shared vocabulary of the whole-program analysis: findings, passes, rules.

Every pass — the ported per-file determinism rules and the
interprocedural lifecycle pass — emits :class:`Finding` objects through
the same funnel, so suppression comments, the allowlist, and every
output format (human / JSON / SARIF) treat them uniformly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Rule:
    """One reportable rule: id, owning pass, severity, description."""

    id: str
    pass_name: str
    severity: str
    description: str


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a pass."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    pass_name: str = ""
    severity: str = "error"
    #: Stable identity for code-scanning backends: hash of rule + path +
    #: the source line's stripped text + occurrence index (line *numbers*
    #: drift with unrelated edits; line *text* mostly doesn't).
    fingerprint: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "pass": self.pass_name,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


def normalize_path(path: str) -> str:
    return path.replace("\\", "/")


def fingerprint_findings(
    findings: Sequence[Finding],
    sources: Dict[str, Sequence[str]],
    stable_paths: Optional[Dict[str, str]] = None,
) -> List[Finding]:
    """Attach stable fingerprints; identical (rule, path, line-text) tuples
    are disambiguated by occurrence index in path order.

    ``stable_paths`` maps on-disk paths to checkout-independent forms
    (``repro/gpu/copy_engine.py``) so a fingerprint is the same in any
    clone, whatever the absolute working-tree location.
    """
    stable_paths = stable_paths or {}
    seen: Dict[tuple, int] = {}
    out: List[Finding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule)):
        norm = stable_paths.get(f.path) or normalize_path(f.path)
        lines = sources.get(f.path) or sources.get(norm) or ()
        text = lines[f.line - 1].strip() if 1 <= f.line <= len(lines) else ""
        key = (f.rule, norm, text)
        index = seen.get(key, 0)
        seen[key] = index + 1
        digest = hashlib.sha256(
            "\x1f".join((f.rule, norm, text, str(index))).encode("utf-8")
        ).hexdigest()[:16]
        out.append(
            Finding(
                rule=f.rule, path=f.path, line=f.line, col=f.col,
                message=f.message, pass_name=f.pass_name,
                severity=f.severity, fingerprint=digest,
            )
        )
    return out


class AnalysisPass:
    """Base class: a pass declares its rules and walks the project IR.

    Subclasses set ``name`` and ``rules`` (a list of :class:`Rule`) and
    implement :meth:`run`, returning raw findings — the engine owns
    suppression and allowlist filtering, and fingerprinting.
    """

    name: str = ""
    rules: Sequence[Rule] = ()

    def run(self, ir) -> List[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def make_finding(
        self,
        rule: Rule,
        path: str,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        return Finding(
            rule=rule.id,
            path=str(path),
            line=line,
            col=col,
            message=message,
            pass_name=self.name,
            severity=rule.severity,
        )
