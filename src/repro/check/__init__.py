"""Correctness tooling: the determinism lint + UVMSan runtime sanitizer.

Two complementary layers guard the reproduction's fidelity guarantee:

* :mod:`repro.check.lint` — the per-file AST rules flagging nondeterminism
  hazards (wall-clock reads, unseeded randomness, set-order iteration,
  per-iteration set rebuilds, ``id()`` sorts, mutable defaults) with
  per-rule allowlists and ``# repro: lint-ok[rule]`` suppressions, behind
  ``uvm-repro lint`` (human, JSON, or SARIF via
  :mod:`repro.check.sarif`).
* :mod:`repro.check.sanitizer` — UVMSan, a config-gated runtime invariant
  layer (``CheckConfig``; null object when off) hooked into the driver, the
  GPU models, and the engine, asserting the paper's reverse-engineered
  hardware invariants on every batch.

Resource protocols (every opened batch record, temp file, crash bundle,
ledger and monitor is closed on every raise) are checked by running the
code: ``tests/unit/test_resource_protocols.py`` makes each collaborator
call raise in turn.
"""

from .lint import (
    DEFAULT_ALLOWLIST_PATH, RULES, AllowEntry, LintFinding, LintReport,
    lint_paths, lint_source, load_allowlist,
)
from .sanitizer import NULL_SANITIZER, NullSanitizer, Sanitizer, make_sanitizer

__all__ = [
    "AllowEntry", "DEFAULT_ALLOWLIST_PATH", "LintFinding", "LintReport",
    "RULES", "lint_paths", "lint_source", "load_allowlist",
    "NULL_SANITIZER", "NullSanitizer", "Sanitizer", "make_sanitizer",
]
