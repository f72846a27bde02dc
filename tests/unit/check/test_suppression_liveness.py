"""Every suppression in the simulator still suppresses something."""

from __future__ import annotations

from pathlib import Path

from repro.check.lint import DEFAULT_ALLOWLIST_PATH, load_allowlist
from repro.check.program import build_project_ir
from tests.unit.check.suppression_audit import (
    dead_allow_entries,
    lint_ok_comments,
    raw_findings,
    stale_lint_ok_comments,
)

REPRO_SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


def test_every_allow_entry_and_lint_ok_comment_is_live():
    ir = build_project_ir([REPRO_SRC])
    raw = raw_findings(ir)

    entries = load_allowlist(DEFAULT_ALLOWLIST_PATH)
    dead = [f"{e.path_suffix}: {e.rule}" for e in dead_allow_entries(entries, raw)]

    comments = lint_ok_comments(ir)
    stale = [
        f"{path}:{line}: lint-ok[{', '.join(sorted(named))}]"
        for path, line, named in stale_lint_ok_comments(comments, raw)
    ]

    assert entries and comments, "nothing to audit: the walk found no suppressions"
    assert dead == [], f"allowlist entries matching no raw finding: {dead}"
    assert stale == [], f"lint-ok comments naming a rule that does not fire: {stale}"
