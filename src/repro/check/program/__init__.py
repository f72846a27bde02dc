"""Whole-program static analysis over the simulator package.

PR 2's determinism lint sees one file at a time; this package sees the
project.  A shared IR (:mod:`~repro.check.program.ir`: module index,
symbol tables, intra-package call graph) feeds five passes through one
engine (:mod:`~repro.check.program.engine`):

* ``determinism`` — the per-file hazard rules, ported onto the IR;
* ``sim-taint`` — interprocedural taint from wall-clock / unseeded-RNG
  sources into sim-clock, event-timestamp, and BatchRecord-timer sinks;
* ``mp-shared-state`` — module-global reads/writes reachable from
  multiprocessing worker entry points;
* ``lifecycle`` — resource linearity over the declarative protocol
  catalog (:mod:`~repro.check.program.protocols`): BatchRecord
  open→close/abort, spans, SQLite ledgers, atomic-write temp files,
  telemetry monitors (:mod:`~repro.check.program.lifecycle`);
* ``suppression-hygiene`` — stale ``lint-ok`` comments and dead
  allowlist entries.

The metric/span catalog (:mod:`repro.obs.catalog`) is checked at run
time instead, by :func:`repro.obs.catalog.validate_registry` and the
coverage test in ``tests/unit/check/test_obs_catalog.py``.

Filtering order: line suppressions → allowlist → committed baseline
(:mod:`~repro.check.program.baseline`).  Output: human, JSON
(``docs/schemas/lint.schema.json``), or SARIF 2.1.0
(:mod:`~repro.check.program.sarif`).  Front end: ``uvm-repro lint``.
"""

from .base import AnalysisPass, Finding, Rule, fingerprint_findings
from .baseline import (
    DEFAULT_BASELINE_PATH,
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
)
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
from .hygiene import SuppressionHygienePass
from .ir import ProjectIR, build_project_ir
from .lifecycle import LifecyclePass
from .local_rules import LocalRulesPass
from .protocols import PROTOCOLS, ResourceProtocol
from .sarif import sarif_to_json, to_sarif
from .shared_state import SharedStatePass, find_worker_entry_points
from .taint import SimTaintPass

__all__ = [
    "AnalysisPass",
    "AnalysisReport",
    "BaselineEntry",
    "DEFAULT_BASELINE_PATH",
    "Finding",
    "LifecyclePass",
    "LocalRulesPass",
    "PROTOCOLS",
    "ProjectIR",
    "ResourceProtocol",
    "Rule",
    "SEED_SUFFIXES",
    "SharedStatePass",
    "SimTaintPass",
    "SuppressionHygienePass",
    "all_rules",
    "apply_baseline",
    "build_project_ir",
    "changed_files",
    "default_passes",
    "find_worker_entry_points",
    "fingerprint_findings",
    "load_baseline",
    "render_report",
    "report_to_json_dict",
    "run_analysis",
    "sarif_to_json",
    "save_baseline",
    "seeds_in_changed",
    "to_sarif",
]
