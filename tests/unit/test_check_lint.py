"""Determinism-lint tests: every hazard class, suppressions, allowlists,
the report formats, the CLI front end, and the regression fixture for the
historic driver bug."""

from __future__ import annotations

import json

import pytest

from repro.check.lint import (
    RULES,
    AllowEntry,
    lint_paths,
    lint_source,
    load_allowlist,
    render_report,
    report_to_json_dict,
)
from repro.cli import main as cli_main

# One minimal trigger per hazard class; keys must stay in sync with RULES.
HAZARD_SNIPPETS = {
    "wall-clock": "import time\nt = time.time()\n",
    "unseeded-random": "import random\nx = random.random()\n",
    "set-iter": "for x in {1, 2, 3}:\n    print(x)\n",
    "dict-values": "d = {}\nfor v in d.values():\n    print(v)\n",
    "set-in-loop": (
        "def f(faults, work):\n"
        "    out = []\n"
        "    for f_ in faults:\n"
        "        if f_ in set(work):\n"
        "            out.append(f_)\n"
        "    return out\n"
    ),
    "id-sort": "out = sorted([object(), object()], key=id)\n",
    "mutable-default": "def f(acc=[]):\n    return acc\n",
}


def rules_of(findings):
    return {f.rule for f in findings}


def lint_findings(paths, allowlist=()):
    """Findings for ``paths`` after suppressions and ``allowlist``."""
    return lint_paths(paths, allowlist=allowlist).findings


class TestHazardClasses:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_each_rule_fires_on_its_fixture(self, rule):
        findings = lint_source(HAZARD_SNIPPETS[rule], path="fixture.py")
        assert rule in rules_of(findings)

    def test_clean_source_has_no_findings(self):
        src = (
            "def f(items):\n"
            "    wanted = set(items)\n"
            "    return [i for i in sorted(wanted)]\n"
        )
        assert lint_source(src) == []

    def test_wall_clock_variants(self):
        src = (
            "import time\n"
            "from datetime import datetime\n"
            "a = time.perf_counter()\n"
            "b = time.monotonic_ns()\n"
            "c = datetime.now()\n"
        )
        findings = [f for f in lint_source(src) if f.rule == "wall-clock"]
        assert len(findings) == 3

    def test_datetime_now_with_tz_arg_not_flagged(self):
        src = "from datetime import datetime, timezone\nd = datetime.now(timezone.utc)\n"
        assert lint_source(src) == []

    def test_numpy_legacy_random_and_unseeded_default_rng(self):
        src = (
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "g = np.random.default_rng()\n"
        )
        findings = [f for f in lint_source(src) if f.rule == "unseeded-random"]
        assert len(findings) == 2

    def test_seeded_default_rng_not_flagged(self):
        src = "import numpy as np\ng = np.random.default_rng(42)\n"
        assert lint_source(src) == []

    def test_set_iter_catches_comprehension_iterable(self):
        src = "for b in {x // 4 for x in range(10)}:\n    print(b)\n"
        assert "set-iter" in rules_of(lint_source(src))

    def test_sorted_set_not_flagged(self):
        src = "for b in sorted({x // 4 for x in range(10)}):\n    print(b)\n"
        assert lint_source(src) == []

    def test_dict_values_only_fires_on_for_statements(self):
        comp = "d = {}\nout = [v for v in d.values()]\n"
        assert lint_source(comp) == []

    def test_set_in_loop_fires_inside_comprehension(self):
        src = (
            "def f(faults, work):\n"
            "    return [f_ for f_ in faults if f_ in set(work)]\n"
        )
        assert "set-in-loop" in rules_of(lint_source(src))

    def test_hoisted_set_not_flagged(self):
        src = (
            "def f(faults, work):\n"
            "    wanted = set(work)\n"
            "    return [f_ for f_ in faults if f_ in wanted]\n"
        )
        assert lint_source(src) == []

    def test_set_built_outside_loop_not_flagged(self):
        src = "wanted = set(range(4))\nok = 3 in set(range(4))\n"
        assert lint_source(src) == []

    def test_id_sort_lambda(self):
        src = "xs = [object()]\nxs.sort(key=lambda o: id(o))\n"
        assert "id-sort" in rules_of(lint_source(src))

    def test_mutable_default_kwonly_and_call_forms(self):
        src = "def f(a=dict(), *, b=[]):\n    return a, b\n"
        findings = [f for f in lint_source(src) if f.rule == "mutable-default"]
        assert len(findings) == 2

    def test_none_default_not_flagged(self):
        src = "def f(a=None, b=0, c=()):\n    return a, b, c\n"
        assert lint_source(src) == []


class TestDriverRegression:
    """The historic ``driver.py`` bug: the deferred-fault filter rebuilt
    ``set(work.pages)`` for every fault in the batch (fixed in this change
    by hoisting).  The lint must catch the pre-fix form and pass the fix."""

    PRE_FIX = (
        "def defer(outcome, faults, work):\n"
        "    for w in [work]:\n"
        "        outcome.extend(f for f in faults if f.page in set(w.pages))\n"
    )
    POST_FIX = (
        "def defer(outcome, faults, work):\n"
        "    for w in [work]:\n"
        "        block_pages = set(w.pages)\n"
        "        outcome.extend(f for f in faults if f.page in block_pages)\n"
    )

    def test_lint_catches_pre_fix_form(self):
        assert "set-in-loop" in rules_of(lint_source(self.PRE_FIX))

    def test_lint_passes_post_fix_form(self):
        assert lint_source(self.POST_FIX) == []


class TestSuppressions:
    def test_bare_suppression_silences_all_rules(self):
        src = "import time\nt = time.time()  # repro: lint-ok\n"
        assert lint_source(src) == []

    def test_rule_scoped_suppression(self):
        src = "import time\nt = time.time()  # repro: lint-ok[wall-clock]\n"
        assert lint_source(src) == []

    def test_wrong_rule_suppression_does_not_silence(self):
        src = "import time\nt = time.time()  # repro: lint-ok[id-sort]\n"
        assert "wall-clock" in rules_of(lint_source(src))

    def test_multi_rule_suppression(self):
        src = (
            "import time\n"
            "t = time.time()  # repro: lint-ok[id-sort, wall-clock]\n"
        )
        assert lint_source(src) == []


class TestAllowlist:
    def test_load_and_match(self, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text(
            "# comment line\n"
            "\n"
            "pkg/clocky.py: wall-clock  # displays real elapsed time\n"
        )
        entries = load_allowlist(allow)
        assert entries == [
            AllowEntry("pkg/clocky.py", "wall-clock", "displays real elapsed time")
        ]

        target = tmp_path / "pkg" / "clocky.py"
        target.parent.mkdir()
        target.write_text("import time\nt = time.time()\n")
        assert lint_findings([target], allowlist=entries) == []
        assert len(lint_findings([target])) == 1

    def test_allowlist_is_rule_scoped(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nt = time.time()\nxs = sorted([], key=id)\n")
        entries = [AllowEntry("mod.py", "wall-clock", "")]
        remaining = lint_findings([target], allowlist=entries)
        assert rules_of(remaining) == {"id-sort"}

    def test_star_rule_matches_everything(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nt = time.time()\nxs = sorted([], key=id)\n")
        assert lint_findings([target], allowlist=[AllowEntry("mod.py", "*", "")]) == []

    def test_unknown_rule_rejected(self, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text("mod.py: no-such-rule\n")
        with pytest.raises(ValueError, match="unknown rule"):
            load_allowlist(allow)

    def test_malformed_line_rejected(self, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text("just a suffix with no rule\n")
        with pytest.raises(ValueError, match="missing ':'"):
            load_allowlist(allow)


class TestOutputFormats:
    def test_render_and_json(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("import time\nt = time.time()\n")
        report = lint_paths([target])
        text = render_report(report)
        assert "m.py:2" in text and "wall-clock" in text and "1 finding(s)" in text
        payload = json.loads(json.dumps(report_to_json_dict(report)))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "wall-clock"
        assert set(RULES) <= set(payload["rules"])

    def test_render_clean(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("X = 1\n")
        assert "clean" in render_report(lint_paths([target]))


class TestCli:
    def _fixture_file(self, tmp_path):
        target = tmp_path / "hazards.py"
        target.write_text("".join(HAZARD_SNIPPETS.values()))
        return target

    def test_lint_cli_nonzero_on_findings(self, tmp_path, capsys):
        target = self._fixture_file(tmp_path)
        assert cli_main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_lint_cli_json_format(self, tmp_path, capsys):
        target = self._fixture_file(tmp_path)
        assert cli_main(["lint", str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == set(RULES)

    def test_lint_cli_zero_on_clean_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = sorted([3, 1, 2])\n")
        assert cli_main(["lint", str(target)]) == 0
        assert "no determinism hazards" in capsys.readouterr().out

    def test_lint_cli_default_target_is_clean(self, capsys):
        """The shipped simulator must lint clean under its own allowlist —
        the acceptance gate CI enforces."""
        assert cli_main(["lint"]) == 0

    def test_lint_cli_no_allowlist_flag(self, capsys):
        """Without the allowlist the intentional wall-clock reads (CLI
        elapsed display, campaign telemetry) surface — proving the
        allowlist is load-bearing rather than the rules being too lax to
        notice."""
        rc = cli_main(["lint", "--no-allowlist"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "wall-clock" in out
