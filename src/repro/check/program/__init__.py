"""Whole-program static analysis over the simulator package.

The per-file determinism lint sees one file at a time; this package sees
the project.  A shared IR (:mod:`~repro.check.program.ir`: module index,
symbol tables, intra-package call graph) feeds two passes through one
engine (:mod:`~repro.check.program.engine`):

* ``determinism`` — the per-file hazard rules, ported onto the IR;
* ``lifecycle`` — resource linearity over the declarative protocol
  catalog (:mod:`~repro.check.program.protocols`): BatchRecord
  open→close/abort, spans, SQLite ledgers, atomic-write temp files,
  telemetry monitors (:mod:`~repro.check.program.lifecycle`).

Properties that a run checks more cheaply are tested at run time
instead: the metric/span catalog by
:func:`repro.obs.catalog.validate_registry` and
``tests/unit/check/test_obs_catalog.py``; "no host wall time reaches the
simulated timeline" by the skewed-host-clock golden-digest test in
``tests/property/test_golden_timelines.py``; schedule-independent
campaign cells by the fleet byte-compare tests; live suppressions by
``tests/unit/check/test_suppression_liveness.py``.

Filtering order: line suppressions → allowlist.  Output: human, JSON
(``docs/schemas/lint.schema.json``), or SARIF 2.1.0
(:mod:`~repro.check.program.sarif`).  Front end: ``uvm-repro lint``.
"""

from .base import AnalysisPass, Finding, Rule, fingerprint_findings
from .engine import (
    AnalysisReport,
    SEED_SUFFIXES,
    all_rules,
    changed_files,
    default_passes,
    render_report,
    report_to_json_dict,
    run_analysis,
    seeds_in_changed,
)
from .ir import ProjectIR, build_project_ir
from .lifecycle import LifecyclePass
from .local_rules import LocalRulesPass
from .protocols import PROTOCOLS, ResourceProtocol
from .sarif import sarif_to_json, to_sarif

__all__ = [
    "AnalysisPass",
    "AnalysisReport",
    "Finding",
    "LifecyclePass",
    "LocalRulesPass",
    "PROTOCOLS",
    "ProjectIR",
    "ResourceProtocol",
    "Rule",
    "SEED_SUFFIXES",
    "all_rules",
    "build_project_ir",
    "changed_files",
    "default_passes",
    "fingerprint_findings",
    "render_report",
    "report_to_json_dict",
    "run_analysis",
    "sarif_to_json",
    "seeds_in_changed",
    "to_sarif",
]
