"""Analysis engine: one IR build, every pass, one filtered report.

Pipeline (the order matters and is part of the contract):

1. build the :class:`~repro.check.program.ir.ProjectIR` over the target
   paths (optionally restricted to *reporting* on changed files only —
   the IR is always whole-program so interprocedural passes keep their
   cross-file view);
2. run the analysis passes → raw findings;
3. run :class:`~repro.check.program.hygiene.SuppressionHygienePass`
   against the raw findings (staleness is judged before anything is
   filtered away);
4. apply ``# repro: lint-ok[...]`` line suppressions, then the allowlist,
   then fingerprint what remains;
5. subtract the committed baseline, keeping counts and stale entries for
   the report.

``uvm-repro lint`` keeps its exit-code contract on top of the result:
0 = no new findings, 1 = new findings, 2 = usage/configuration error.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import time

from ..lint import AllowEntry, LintFinding, _SUPPRESS_RE
from .base import AnalysisPass, Finding, Rule, fingerprint_findings, normalize_path
from .baseline import BaselineEntry, apply_baseline
from .dimensions import DimensionsPass
from .hygiene import SuppressionHygienePass
from .ir import ProjectIR, build_project_ir
from .lifecycle import LifecyclePass
from .local_rules import LocalRulesPass
from .metric_drift import MetricDriftPass
from .shared_state import SharedStatePass
from .taint import SimTaintPass


def default_passes() -> List[AnalysisPass]:
    """The standard pass roster, hygiene excluded (the engine appends it)."""
    return [
        LocalRulesPass(),
        SimTaintPass(),
        MetricDriftPass(),
        SharedStatePass(),
        DimensionsPass(),
        LifecyclePass(),
    ]


#: Analysis-seed files: editing one changes what the passes report in
#: *other* files (unit signatures, the metric catalog, the protocol
#: catalog), so a ``--changed-only`` run restricted to the diff would
#: report a silently stale clean result.
SEED_SUFFIXES = (
    "repro/units.py",
    "repro/obs/catalog.py",
    "repro/check/program/protocols.py",
    "repro/check/lint_allow.txt",
    "repro/check/lint_baseline.json",
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
    """Every rule the engine can report, hygiene included, id-sorted."""
    roster = list(passes) if passes is not None else default_passes()
    roster.append(SuppressionHygienePass(known_rules=()))
    rules: Dict[str, Rule] = {}
    for p in roster:
        for rule in p.rules:
            rules[rule.id] = rule
    return [rules[k] for k in sorted(rules)]


@dataclass
class AnalysisReport:
    """Everything one engine run produced."""

    findings: List[Finding]            # new findings (post-everything)
    baselined: List[Finding]           # matched by the committed baseline
    stale_baseline: List[BaselineEntry]
    rules: List[Rule]
    stats: Dict[str, int] = field(default_factory=dict)
    changed_only: bool = False
    #: pass name → findings it contributed to ``findings``.
    by_pass: Dict[str, int] = field(default_factory=dict)
    #: on-disk path → checkout-independent path used in fingerprints.
    stable_paths: Dict[str, str] = field(default_factory=dict)
    #: pass name → wall seconds spent in its ``run`` (plus ``"ir"`` for the
    #: IR build and ``"total"``); CI holds the total under a 30 s
    #: ceiling so the analysis cannot quietly outgrow it.
    timings: Dict[str, float] = field(default_factory=dict)
    #: pass name → raw finding count before suppression/allowlist/baseline
    #: filtering (``by_pass`` only counts what survived).
    raw_by_pass: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings


def _apply_line_suppressions(
    findings: List[Finding], sources: Dict[str, List[str]]
) -> List[Finding]:
    out: List[Finding] = []
    for f in findings:
        lines = sources.get(f.path)
        if lines and 1 <= f.line <= len(lines):
            match = _SUPPRESS_RE.search(lines[f.line - 1])
            if match is not None:
                named = match.group(1)
                if named is None:
                    continue
                allowed = {r.strip() for r in named.split(",")}
                if f.rule in allowed:
                    continue
        out.append(f)
    return out


def _apply_allowlist(
    findings: List[Finding], allowlist: Sequence[AllowEntry]
) -> List[Finding]:
    if not allowlist:
        return list(findings)
    out = []
    for f in findings:
        shim = LintFinding(rule=f.rule, path=f.path, line=f.line, col=f.col,
                           message=f.message)
        if any(entry.matches(shim) for entry in allowlist):
            continue
        out.append(f)
    return out


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
    so fingerprints — and therefore committed baselines — survive cloning the
    repo to a different absolute location."""
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
    allowlist_path: str = "",
    baseline: Sequence[BaselineEntry] = (),
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

    hygiene = SuppressionHygienePass(
        known_rules=[r.id for p in roster for r in p.rules],
        allowlist=allowlist,
        allowlist_path=allowlist_path,
    )
    hygiene.raw_findings = list(raw)
    t_pass = time.perf_counter()  # repro: lint-ok[wall-clock]
    hygiene_findings = hygiene.run(ir)
    timings[hygiene.name] = time.perf_counter() - t_pass  # repro: lint-ok[wall-clock]
    raw_by_pass[hygiene.name] = len(hygiene_findings)
    raw.extend(hygiene_findings)

    sources: Dict[str, List[str]] = {
        str(mod.path): mod.lines for mod in ir.modules.values()
    }
    stable = stable_path_map(ir)
    filtered = _apply_line_suppressions(raw, sources)
    filtered = _apply_allowlist(filtered, allowlist)
    filtered = fingerprint_findings(filtered, sources, stable)

    report_changed = False
    if changed is not None:
        filtered = _restrict_to_changed(filtered, changed)
        report_changed = True

    new, baselined, stale = apply_baseline(filtered, baseline)
    if report_changed:
        # A partial view can't judge staleness: an entry whose finding
        # lives outside the diff is absent, not paid off.
        stale = []
    new.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    by_pass: Dict[str, int] = {}
    for f in new:
        by_pass[f.pass_name] = by_pass.get(f.pass_name, 0) + 1

    rule_catalog: Dict[str, Rule] = {}
    for p in list(roster) + [hygiene]:
        for rule in p.rules:
            rule_catalog[rule.id] = rule

    timings["total"] = time.perf_counter() - t0  # repro: lint-ok[wall-clock]
    return AnalysisReport(
        findings=new,
        baselined=baselined,
        stale_baseline=stale,
        rules=[rule_catalog[k] for k in sorted(rule_catalog)],
        stats=ir.stats(),
        changed_only=report_changed,
        by_pass=by_pass,
        stable_paths=stable,
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
    if report.baselined:
        lines.append(
            f"baseline: absorbing {len(report.baselined)} known finding(s)"
        )
    if report.stale_baseline:
        lines.append(
            f"baseline: {len(report.stale_baseline)} stale entr"
            f"{'y' if len(report.stale_baseline) == 1 else 'ies'} — the "
            "debt was paid; prune with --write-baseline"
        )
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
        "baseline": {
            "matched": len(report.baselined),
            "stale": [entry.to_dict() for entry in report.stale_baseline],
        },
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
