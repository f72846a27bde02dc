"""``determinism``: the per-file lint rules as a pass on the shared IR.

The original :mod:`repro.check.lint` visitor stays the single source of
truth for the per-file hazard rules (and its module API keeps working for
callers and tests); this adapter re-runs it over the already-parsed
modules of the project IR so one engine invocation produces every finding
through the same suppression/allowlist/SARIF funnel.
"""

from __future__ import annotations

from typing import List

from .. import lint as _lint
from .base import AnalysisPass, Finding, Rule


class LocalRulesPass(AnalysisPass):
    """Per-file determinism hazards (wall-clock, unseeded-random, …)."""

    name = "determinism"
    rules = tuple(
        Rule(id=rule_id, pass_name="determinism", description=description)
        for rule_id, description in sorted(_lint.RULES.items())
    )

    def run(self, ir) -> List[Finding]:
        findings: List[Finding] = []
        for _name, mod in sorted(ir.modules.items()):
            visitor = _lint._HazardVisitor(str(mod.path))
            visitor.visit(mod.tree)
            for raw in visitor.findings:
                findings.append(
                    Finding(
                        rule=raw.rule, path=raw.path, line=raw.line,
                        col=raw.col, message=raw.message,
                        pass_name=self.name,
                    )
                )
        return findings
