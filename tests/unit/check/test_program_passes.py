"""The determinism lint over the miniproj fixture, and the suppression
liveness audit over small fixtures."""

from __future__ import annotations

from pathlib import Path

from repro.check.lint import AllowEntry, lint_paths
from tests.unit.check.suppression_audit import (
    all_raw_findings,
    dead_allow_entries,
    lint_ok_comments,
    read_sources,
    stale_lint_ok_comments,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "miniproj"


def stale_lines(path):
    sources = read_sources([path])
    return [
        line
        for _path, line, _named in stale_lint_ok_comments(
            lint_ok_comments(sources), all_raw_findings(sources))
    ]


class TestSuppressionHygienePass:
    """The liveness audit that ``test_suppression_liveness`` runs over
    ``src/repro``, checked on fixtures where the answer is known."""

    def test_stale_and_unknown_reported_live_kept(self, tmp_path):
        mod = tmp_path / "hygiene_mod.py"
        mod.write_text(
            "import time\n"
            "\n"
            "LIVE = time.time()  # repro: lint-ok[wall-clock]\n"
            "STALE = 1  # repro: lint-ok[wall-clock]\n"
            "TYPO = time.time()  # repro: lint-ok[wal-clock]\n"
        )
        # A rule that does not fire and a misspelt rule are both stale;
        # the live suppression on line 3 is kept.
        assert stale_lines(mod) == [4, 5]

    def test_docstring_mention_is_not_audited(self, tmp_path):
        mod = tmp_path / "docs_only.py"
        mod.write_text(
            '"""Explains `# repro: lint-ok[wall-clock]` suppressions."""\n'
            "X = 1\n"
        )
        assert lint_ok_comments(read_sources([mod])) == []
        assert stale_lines(mod) == []

    def test_dead_allow_entry_reported_live_kept(self):
        live = AllowEntry("timing.py", "wall-clock", "wall-clock fires there")
        dead = AllowEntry("clock.py", "wall-clock", "nothing fires there")
        raw = all_raw_findings(read_sources([FIXTURES]))
        assert dead_allow_entries([live, dead], raw) == [dead]


class TestDeterminismPassIntegration:
    def test_per_file_rules_flow_through_engine(self, tmp_path):
        target = tmp_path / "hazard.py"
        target.write_text("for x in {1, 2}:\n    print(x)\n")
        report = lint_paths([target])
        assert [f.rule for f in report.findings] == ["set-iter"]

    def test_suppressed_lines_do_not_reach_the_report(self):
        report = lint_paths([FIXTURES])
        # timing.py carries one suppressed and one unsuppressed wall-clock
        # read: only the unsuppressed one is reported.
        lines = [
            f.line for f in report.findings
            if f.rule == "wall-clock" and f.path.endswith("timing.py")
        ]
        assert lines == [20]
