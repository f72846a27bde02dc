"""Per-pass tests over the miniproj fixture: each pass has at least one
true positive and one false-positive-avoidance case."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.check.lint import AllowEntry
from repro.check.program import run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "miniproj"


def analyze(path=FIXTURES, **kw):
    return run_analysis([path], **kw)


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


@pytest.fixture()
def mini_copy(tmp_path):
    """A mutable copy of the fixture package for rename/edit scenarios."""
    dest = tmp_path / "miniproj"
    shutil.copytree(FIXTURES, dest)
    return dest


class TestSimTaintPass:
    def test_interprocedural_flow_is_the_only_finding(self):
        report = analyze()
        taints = by_rule(report, "sim-taint")
        assert len(taints) == 1
        f = taints[0]
        assert f.path.endswith("timing.py")
        assert "advance" in f.message
        assert "drive_tainted" in f.message

    def test_clean_sink_and_sinkless_source_not_flagged(self):
        report = analyze()
        taints = by_rule(report, "sim-taint")
        # drive_clean feeds a model value, log_wall_seconds never reaches
        # a sink: neither may appear.
        assert not any("drive_clean" in f.message for f in taints)
        assert not any("log_wall_seconds" in f.message for f in taints)

    def test_fixing_the_flow_clears_the_finding(self, mini_copy):
        timing = mini_copy / "timing.py"
        src = timing.read_text()
        timing.write_text(
            src.replace("clock.advance(_host_elapsed(t0))",
                        "clock.advance(1.0)")
        )
        assert by_rule(analyze(mini_copy), "sim-taint") == []


class TestSharedStatePass:
    def test_worker_reachable_write_flagged_once(self):
        writes = by_rule(analyze(), "mp-global-write")
        assert len(writes) == 1
        f = writes[0]
        assert f.path.endswith("pool.py")
        assert "VERDICTS" in f.message
        assert "_record" in f.message

    def test_readonly_registry_and_constants_not_flagged(self):
        report = analyze()
        flagged = " ".join(
            f.message for f in report.findings
            if f.rule in ("mp-global-write", "mp-global-read")
        )
        # Import-time-populated, read-only REGISTRY and the immutable
        # PAGE_SIZE must stay quiet; so must function locals.
        assert "REGISTRY" not in flagged
        assert "PAGE_SIZE" not in flagged
        assert "local_cache" not in flagged

    def test_unreachable_mutation_not_flagged(self, mini_copy):
        pool = mini_copy / "pool.py"
        pool.write_text(
            pool.read_text().replace("    _record(kind)\n", "")
        )
        assert by_rule(analyze(mini_copy), "mp-global-write") == []


class TestSuppressionHygienePass:
    def test_stale_and_unknown_reported_live_kept(self):
        report = analyze()
        stale = by_rule(report, "stale-suppression")
        unknown = by_rule(report, "unknown-suppression-rule")
        assert [f.line for f in stale if f.path.endswith("hygiene_mod.py")] == [9]
        assert [f.line for f in unknown] == [12]
        # The live suppression on line 6 is not reported.
        assert not any(
            f.path.endswith("hygiene_mod.py") and f.line == 6
            for f in report.findings
        )

    def test_docstring_mention_is_not_audited(self, tmp_path):
        mod = tmp_path / "docs_only.py"
        mod.write_text(
            '"""Explains `# repro: lint-ok[wall-clock]` suppressions."""\n'
            "X = 1\n"
        )
        report = analyze(mod)
        assert by_rule(report, "stale-suppression") == []

    def test_dead_allow_entry_reported_live_kept(self, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text(
            "timing.py: wall-clock  # live: wall-clock fires there (raw)\n"
            "clock.py: wall-clock  # dead: nothing fires in clock.py\n"
        )
        entries = [
            AllowEntry("timing.py", "wall-clock", "live"),
            AllowEntry("clock.py", "wall-clock", "dead"),
        ]
        report = analyze(FIXTURES, allowlist=entries,
                         allowlist_path=str(allow))
        dead = by_rule(report, "dead-allow-entry")
        assert len(dead) == 1
        assert "clock.py" in dead[0].message
        assert dead[0].line == 2

    def test_out_of_scope_allow_entry_not_dead(self, tmp_path):
        # The project allowlist applied to an unrelated single file must
        # not report every entry as dead.
        target = tmp_path / "one.py"
        target.write_text("X = 1\n")
        entries = [AllowEntry("repro/obs/spans.py", "wall-clock", "ok")]
        report = analyze(target, allowlist=entries,
                         allowlist_path="lint_allow.txt")
        assert by_rule(report, "dead-allow-entry") == []


class TestDeterminismPassIntegration:
    def test_per_file_rules_flow_through_engine(self, tmp_path):
        target = tmp_path / "hazard.py"
        target.write_text("for x in {1, 2}:\n    print(x)\n")
        report = analyze(target)
        assert [f.rule for f in report.findings] == ["set-iter"]
        assert report.findings[0].pass_name == "determinism"

    def test_suppressed_lines_do_not_reach_the_report(self):
        report = analyze()
        # timing.py carries two deliberately suppressed wall-clock reads.
        assert not any(
            f.rule == "wall-clock" and f.path.endswith("timing.py")
            for f in report.findings
        )
