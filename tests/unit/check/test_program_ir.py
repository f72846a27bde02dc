"""Project-IR tests: package discovery, import resolution, the call graph,
and the whole-package analysis time bound."""

from __future__ import annotations

import time
from pathlib import Path

from repro.check.program import build_project_ir, run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "miniproj"
REPRO_SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


class TestProjectIR:
    def test_package_discovery_and_module_index(self):
        ir = build_project_ir([FIXTURES])
        assert ir.package == "miniproj"
        assert set(ir.modules) == {
            "miniproj",
            "miniproj.clock",
            "miniproj.graph",
            "miniproj.timing",
        }

    def test_functions_and_methods_indexed(self):
        ir = build_project_ir([FIXTURES])
        assert "miniproj.timing.drive_clean" in ir.functions
        assert "miniproj.clock.SimClock.advance" in ir.functions
        method = ir.functions["miniproj.clock.SimClock.advance"]
        assert method.owner_class == "SimClock"
        assert method.params == ["self", "dt_usec"]

    def test_loose_file_indexed_by_stem(self, tmp_path):
        target = tmp_path / "standalone.py"
        target.write_text("def f():\n    return 1\n")
        ir = build_project_ir([target])
        assert "standalone" in ir.modules
        assert "standalone.f" in ir.functions


class TestCallGraphResolution:
    """Every direct intra-package call form in the graph fixture resolves
    to its definition (the acceptance test for call-graph fidelity)."""

    EXPECTED_EDGES = {
        ("miniproj.graph.plain_call", "miniproj.graph.local_helper"),
        ("miniproj.graph.imported_symbol_call",
         "miniproj.clock.SimClock.__init__"),
        ("miniproj.graph.imported_symbol_call",
         "miniproj.timing.drive_clean"),
        ("miniproj.graph.module_attr_call",
         "miniproj.clock.SimClock.__init__"),
        ("miniproj.graph.Stepper._tick", "miniproj.graph.local_helper"),
        ("miniproj.graph.Stepper.step", "miniproj.graph.Stepper._tick"),
        ("miniproj.graph.method_via_instance",
         "miniproj.graph.Stepper.__init__"),
        ("miniproj.graph.Stepper.__init__",
         "miniproj.clock.SimClock.__init__"),
    }

    def test_all_direct_call_forms_resolve(self):
        ir = build_project_ir([FIXTURES])
        edges = {
            (caller, callee)
            for caller, callees in ir.call_graph.items()
            for callee in callees
        }
        missing = self.EXPECTED_EDGES - edges
        assert not missing, f"unresolved direct calls: {sorted(missing)}"

    def test_only_dynamic_calls_stay_unresolved_in_graph_fixture(self):
        ir = build_project_ir([FIXTURES])
        unresolved = [
            site.raw
            for qname, fn in sorted(ir.functions.items())
            if fn.module == "miniproj.graph"
            for site in fn.calls
            if site.callee is None
        ]
        # `Stepper().step()` — a call on a call result — is the one
        # documented out-of-reach form.
        assert unresolved == ["<dynamic>"]

    def test_reachability_walks_the_graph(self):
        ir = build_project_ir([FIXTURES])
        reach, todo = set(), ["miniproj.graph.method_via_instance"]
        while todo:
            for callee in ir.call_graph.get(todo.pop(), ()):
                if callee not in reach:
                    reach.add(callee)
                    todo.append(callee)
        assert "miniproj.graph.Stepper.__init__" in reach
        assert "miniproj.clock.SimClock.__init__" in reach  # via __init__
        assert "miniproj.timing.log_wall_seconds" not in reach

    def test_stats_shape(self):
        stats = build_project_ir([FIXTURES]).stats()
        assert set(stats) == {
            "modules", "functions", "call_sites", "resolved_calls",
            "call_edges",
        }
        assert stats["resolved_calls"] <= stats["call_sites"]


class TestWholePackagePerformance:
    def test_full_repro_analysis_under_time_bound(self):
        """The acceptance bound: whole-program analysis over src/repro in
        well under 30 s (it runs on every CI push)."""
        start = time.monotonic()
        report = run_analysis([REPRO_SRC])
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"analysis took {elapsed:.1f}s"
        assert report.stats["modules"] > 50
        assert report.stats["functions"] > 400
        assert report.stats["call_edges"] > 200
