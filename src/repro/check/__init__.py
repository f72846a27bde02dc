"""Correctness tooling: static analysis + UVMSan runtime sanitizer.

Three complementary layers guard the reproduction's fidelity guarantee:

* :mod:`repro.check.lint` — the per-file AST rules flagging nondeterminism
  hazards (wall-clock reads, unseeded randomness, set-order iteration,
  per-iteration set rebuilds, ``id()`` sorts, mutable defaults) with
  per-rule allowlists and ``# repro: lint-ok[rule]`` suppressions.
* :mod:`repro.check.program` — the whole-program engine: a project IR
  (module index, symbol tables, intra-package call graph) feeding the
  ``lifecycle`` pass (resource open/close linearity over the protocol
  catalog), plus SARIF export.  The per-file rules run as the
  ``determinism`` pass on the same engine; everything is reachable
  through ``uvm-repro lint``.
* :mod:`repro.check.sanitizer` — UVMSan, a config-gated runtime invariant
  layer (``CheckConfig``; null object when off) hooked into the driver, the
  GPU models, and the engine, asserting the paper's reverse-engineered
  hardware invariants on every batch.
"""

from .lint import (
    DEFAULT_ALLOWLIST_PATH,
    AllowEntry,
    LintFinding,
    RULES,
    lint_source,
    load_allowlist,
)
from .sanitizer import NULL_SANITIZER, NullSanitizer, Sanitizer, make_sanitizer

__all__ = [
    "AllowEntry",
    "DEFAULT_ALLOWLIST_PATH",
    "LintFinding",
    "RULES",
    "lint_source",
    "load_allowlist",
    "NULL_SANITIZER",
    "NullSanitizer",
    "Sanitizer",
    "make_sanitizer",
]
