"""Lifecycle pass over the protoproj fixture.

Three layers of tests:

* fixture true-positives — every rule of the pass fires exactly where
  protoproj seeds it, and each violation's clean twin stays silent;
* mutation scenarios — fixing a seeded violation clears its finding, and
  dropping an ``_abort_record`` call from a copy of the real tree
  produces a finding;
* the dogfood pin — the real ``src/repro`` tree is clean under the pass,
  so any future lifecycle regression fails here rather than landing in
  the baseline.

Checkpoint coverage is checked at runtime instead, by the restore
round-trip property in ``tests/property/test_inject_props.py``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.check.program import run_analysis, seeds_in_changed
from repro.check.program.lifecycle import LifecyclePass

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "protoproj"
REPO_SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

FAMILY_RULES = ("lifecycle-leak", "lifecycle-exception-leak")


def family_passes():
    return [LifecyclePass()]


def analyze(path=FIXTURES):
    return run_analysis([path], passes=family_passes())


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


@pytest.fixture()
def proto_copy(tmp_path):
    dest = tmp_path / "protoproj"
    shutil.copytree(FIXTURES, dest)
    return dest


@pytest.fixture()
def repro_copy(tmp_path):
    """A mutable copy of the real package for acceptance mutations."""
    dest = tmp_path / "repro"
    shutil.copytree(
        REPO_SRC, dest, ignore=shutil.ignore_patterns("__pycache__")
    )
    return dest


class TestFixtureSeeds:
    def test_every_family_rule_fires(self):
        report = analyze()
        fired = {f.rule for f in report.findings}
        assert set(FAMILY_RULES) <= fired

    def test_lifecycle_leaks_land_on_seeded_functions(self):
        report = analyze()
        leaks = by_rule(report, "lifecycle-leak")
        assert len(leaks) == 1
        assert leaks[0].path.endswith("runner.py")
        assert "forget_close" in leaks[0].message

        exc = by_rule(report, "lifecycle-exception-leak")
        where = {(f.path.rsplit("/", 1)[-1]) for f in exc}
        assert where == {"runner.py", "ledger.py", "worker.py"}
        # One protocol per module: monitor, sqlite connection, temp file.
        tags = sorted(f.message.split("]")[0] + "]" for f in exc)
        assert tags == [
            "[atomic-temp]", "[campaign-monitor]", "[sqlite-conn]"
        ]

    def test_clean_twins_stay_silent(self):
        report = analyze()
        blob = " ".join(f.message for f in report.findings)
        for clean_fn in (
            "clean_finally",
            "clean_guarded_none",
            "count_rows_clean",
            "write_state_clean",
        ):
            assert clean_fn not in blob


class TestMutationScenarios:
    def test_adding_close_clears_the_leak(self, proto_copy):
        runner = proto_copy / "runner.py"
        src = runner.read_text()
        runner.write_text(
            src.replace(
                "    mon = CampaignMonitor(cells)\n    return 0",
                "    mon = CampaignMonitor(cells)\n    mon.close()\n"
                "    return 0",
            )
        )
        assert by_rule(analyze(proto_copy), "lifecycle-leak") == []


class TestAcceptanceOnRealTree:
    """A mutation of the real tree must produce a finding."""

    def test_removing_abort_record_is_flagged(self, repro_copy):
        driver = repro_copy / "core" / "driver.py"
        src = driver.read_text()
        needle = "            self._abort_record(record)\n            raise"
        assert needle in src
        driver.write_text(src.replace(needle, "            raise", 1))
        report = run_analysis([repro_copy], passes=[LifecyclePass()])
        batch = [
            f
            for f in report.findings
            if "[batch-record]" in f.message and f.path.endswith("driver.py")
        ]
        assert batch, "dropping _abort_record must surface a record leak"


class TestDogfoodPin:
    def test_real_tree_is_clean_under_the_family(self):
        # Suppression hygiene runs on every analysis and flags the real
        # tree's `lint-ok[...]` comments as unknown against this reduced
        # roster — only the family's own rules are pinned clean here.
        report = run_analysis([REPO_SRC], passes=family_passes())
        family = [f for f in report.findings if f.rule in FAMILY_RULES]
        assert family == []


class TestSeedInvalidation:
    def test_changed_only_widens_when_a_seed_changed(
        self, monkeypatch, capsys
    ):
        import repro.check.program as program
        from repro.cli import main as cli_main

        monkeypatch.setattr(
            program, "changed_files",
            lambda ref: ["src/repro/units.py", "src/repro/core/batch.py"],
        )
        cli_main(["lint", str(FIXTURES), "--changed-only"])
        err = capsys.readouterr().err
        assert "analysis seed(s) changed" in err
        assert "units.py" in err

    def test_changed_only_stays_narrow_without_seeds(
        self, monkeypatch, capsys
    ):
        import repro.check.program as program
        from repro.cli import main as cli_main

        monkeypatch.setattr(
            program, "changed_files",
            lambda ref: ["src/repro/core/batch.py"],
        )
        cli_main(["lint", str(FIXTURES), "--changed-only"])
        err = capsys.readouterr().err
        assert "analysis seed(s) changed" not in err

    def test_analysis_seeds_are_recognized(self):
        changed = [
            "src/repro/core/driver.py",
            "src/repro/check/program/protocols.py",
            "src/repro/obs/catalog.py",
        ]
        seeds = seeds_in_changed(changed)
        assert seeds == ["src/repro/check/program/protocols.py",
                         "src/repro/obs/catalog.py"]

    def test_non_seed_changes_pass_through(self):
        assert seeds_in_changed(["src/repro/core/batch.py"]) == []
