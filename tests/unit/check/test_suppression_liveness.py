"""Every suppression in the simulator still suppresses something."""

from __future__ import annotations

from pathlib import Path

from repro.check.lint import DEFAULT_ALLOWLIST_PATH, load_allowlist
from tests.unit.check.suppression_audit import (
    all_raw_findings,
    dead_allow_entries,
    lint_ok_comments,
    read_sources,
    stale_lint_ok_comments,
)

REPRO_SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


def test_every_allow_entry_and_lint_ok_comment_is_live():
    sources = read_sources([REPRO_SRC])
    raw = all_raw_findings(sources)

    entries = load_allowlist(DEFAULT_ALLOWLIST_PATH)
    dead = [f"{e.path_suffix}: {e.rule}" for e in dead_allow_entries(entries, raw)]

    comments = lint_ok_comments(sources)
    stale = [
        f"{path}:{line}: lint-ok[{', '.join(sorted(named))}]"
        for path, line, named in stale_lint_ok_comments(comments, raw)
    ]

    # No `lint-ok` comment is left in src/repro today; the walk must still
    # cover the package and the allowlist so a future comment is audited.
    assert len(sources) > 50 and entries, "nothing to audit: the walk found no files"
    assert dead == [], f"allowlist entries matching no raw finding: {dead}"
    assert stale == [], f"lint-ok comments naming a rule that does not fire: {stale}"
