"""Analysis engine: one IR build, every pass, one filtered report.

Pipeline (the order matters and is part of the contract):

1. build the :class:`~repro.check.program.ir.ProjectIR` over the target
   paths (optionally restricted to *reporting* on changed files only —
   the IR is always whole-program so interprocedural passes keep their
   cross-file view);
2. run the analysis passes → raw findings;
3. apply ``# repro: lint-ok[...]`` line suppressions, then the allowlist,
   then fingerprint what remains.

``uvm-repro lint`` keeps its exit-code contract on top of the result:
0 = no findings, 1 = findings, 2 = usage/configuration error.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import time

from ..lint import AllowEntry, drop_suppressed
from .base import AnalysisPass, Finding, Rule, fingerprint_findings, normalize_path
from .ir import ProjectIR, build_project_ir
from .lifecycle import LifecyclePass
from .local_rules import LocalRulesPass


def default_passes() -> List[AnalysisPass]:
    """The standard pass roster."""
    return [LocalRulesPass(), LifecyclePass()]


#: Analysis-seed files: editing one changes what the passes report in
#: *other* files (the protocol catalog, the allowlist), so a
#: ``--changed-only`` run restricted to the diff would report a silently
#: stale clean result.
SEED_SUFFIXES = (
    "repro/check/program/protocols.py",
    "repro/check/lint_allow.txt",
)


def seeds_in_changed(changed: Sequence[str]) -> List[str]:
    """The analysis seeds present in a changed-file list."""
    out = []
    for name in changed:
        norm = normalize_path(name)
        if any(norm.endswith(seed) for seed in SEED_SUFFIXES):
            out.append(name)
    return out


def all_rules(passes: Sequence[AnalysisPass] = None) -> List[Rule]:
    """Every rule the engine can report, id-sorted."""
    roster = passes if passes is not None else default_passes()
    rules: Dict[str, Rule] = {}
    for p in roster:
        for rule in p.rules:
            rules[rule.id] = rule
    return [rules[k] for k in sorted(rules)]


@dataclass
class AnalysisReport:
    """Everything one engine run produced."""

    findings: List[Finding]            # what survived suppressions/allowlist
    rules: List[Rule]
    stats: Dict[str, int] = field(default_factory=dict)
    changed_only: bool = False
    #: pass name → findings it contributed to ``findings``.
    by_pass: Dict[str, int] = field(default_factory=dict)
    #: pass name → wall seconds spent in its ``run`` (plus ``"ir"`` for the
    #: IR build and ``"total"``); CI holds the total under a 30 s
    #: ceiling so the analysis cannot quietly outgrow it.
    timings: Dict[str, float] = field(default_factory=dict)
    #: pass name → raw finding count before suppression/allowlist
    #: filtering (``by_pass`` only counts what survived).
    raw_by_pass: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings


def _apply_allowlist(
    findings: List[Finding], allowlist: Sequence[AllowEntry]
) -> List[Finding]:
    return [f for f in findings
            if not any(entry.matches(f) for entry in allowlist)]


def changed_files(base_ref: str = "HEAD",
                  cwd: Optional[Path] = None) -> Optional[List[str]]:
    """``git diff --name-only <base_ref>`` plus untracked files, or ``None``
    when git is unavailable / not a checkout (callers fall back to full)."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", base_ref],
            capture_output=True, text=True, timeout=30,
            cwd=str(cwd) if cwd else None,
        )
        if diff.returncode != 0:
            return None
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, timeout=30,
            cwd=str(cwd) if cwd else None,
        )
        names = diff.stdout.splitlines()
        if untracked.returncode == 0:
            names += untracked.stdout.splitlines()
        return sorted({n.strip() for n in names if n.strip()})
    except (OSError, subprocess.SubprocessError):
        return None


def stable_path_map(ir: ProjectIR) -> Dict[str, str]:
    """On-disk module path → checkout-independent form (``repro/obs/spans.py``)
    so fingerprints survive cloning the repo to a different absolute
    location."""
    out: Dict[str, str] = {}
    root = Path(ir.root).resolve()
    prefix = f"{ir.package}/" if ir.package else ""
    for _name, mod in sorted(ir.modules.items()):
        p = Path(mod.path)
        try:
            rel = p.resolve().relative_to(root).as_posix()
            out[str(mod.path)] = normalize_path(prefix + rel)
        except (ValueError, OSError):
            out[str(mod.path)] = p.name
    return out


def _restrict_to_changed(findings: List[Finding],
                         changed: List[str]) -> List[Finding]:
    suffixes = tuple(normalize_path(c) for c in changed)
    out = []
    for f in findings:
        norm = normalize_path(f.path)
        if any(norm.endswith(s) for s in suffixes):
            out.append(f)
    return out


def run_analysis(
    paths: Sequence,
    allowlist: Sequence[AllowEntry] = (),
    passes: Optional[Sequence[AnalysisPass]] = None,
    changed: Optional[List[str]] = None,
    ir: Optional[ProjectIR] = None,
) -> AnalysisReport:
    """Run the whole-program analysis; see the module docstring for order."""
    # Wall timing is observability about the analysis itself, not simulated
    # state; the clock never feeds a finding or a fingerprint.
    t0 = time.perf_counter()  # repro: lint-ok[wall-clock]
    timings: Dict[str, float] = {}
    raw_by_pass: Dict[str, int] = {}
    if ir is None:
        ir = build_project_ir(paths)
    timings["ir"] = time.perf_counter() - t0  # repro: lint-ok[wall-clock]
    roster: List[AnalysisPass] = (
        list(passes) if passes is not None else default_passes()
    )

    raw: List[Finding] = []
    for p in roster:
        t_pass = time.perf_counter()  # repro: lint-ok[wall-clock]
        produced = p.run(ir)
        timings[p.name] = time.perf_counter() - t_pass  # repro: lint-ok[wall-clock]
        raw_by_pass[p.name] = len(produced)
        raw.extend(produced)

    sources: Dict[str, List[str]] = {
        str(mod.path): mod.lines for mod in ir.modules.values()
    }
    filtered = drop_suppressed(raw, sources)
    filtered = _apply_allowlist(filtered, allowlist)
    filtered = fingerprint_findings(filtered, sources, stable_path_map(ir))

    report_changed = changed is not None
    if report_changed:
        filtered = _restrict_to_changed(filtered, changed)

    by_pass: Dict[str, int] = {}
    for f in filtered:
        by_pass[f.pass_name] = by_pass.get(f.pass_name, 0) + 1

    timings["total"] = time.perf_counter() - t0  # repro: lint-ok[wall-clock]
    return AnalysisReport(
        findings=filtered,
        rules=all_rules(roster),
        stats=ir.stats(),
        changed_only=report_changed,
        by_pass=by_pass,
        timings=timings,
        raw_by_pass=raw_by_pass,
    )


# ----------------------------------------------------------------- rendering


def render_report(report: AnalysisReport) -> str:
    """Human-readable multi-pass report."""
    lines = [str(f) for f in report.findings]
    if report.findings:
        per_pass = ", ".join(
            f"{name}: {n}" for name, n in sorted(report.by_pass.items())
        )
        lines.append(f"{len(report.findings)} finding(s) ({per_pass})")
    else:
        lines.append("clean: no determinism hazards found")
    if report.changed_only:
        lines.append("(scope: changed files only; IR was whole-program)")
    return "\n".join(lines)


def report_to_json_dict(report: AnalysisReport) -> dict:
    """The machine-readable report (see docs/schemas/lint.schema.json)."""
    return {
        "version": 1,
        "findings": [f.to_dict() for f in report.findings],
        "count": len(report.findings),
        "rules": {rule.id: rule.description for rule in report.rules},
        "passes": sorted({rule.pass_name for rule in report.rules}),
        "stats": report.stats,
        "changed_only": report.changed_only,
        "ok": report.ok,
        "timings": {
            name: round(seconds, 6)
            for name, seconds in sorted(report.timings.items())
        },
        "pass_findings": {
            name: {
                "raw": report.raw_by_pass.get(name, 0),
                "new": report.by_pass.get(name, 0),
            }
            for name in sorted(report.raw_by_pass)
        },
    }
