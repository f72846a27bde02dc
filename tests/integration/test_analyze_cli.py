"""CLI integration for the report engine: ``uvm-repro analyze`` over real
run logs, the A/B diff exit codes, and ``metrics --percentiles``.
"""

import json

import pytest

from repro.cli import main

@pytest.fixture()
def run_log(tmp_path):
    """A real observability NDJSON log from one small run."""
    from repro.api import UvmSystem
    from repro.config import default_config
    from repro.units import MB
    from repro.workloads import WORKLOAD_REGISTRY

    path = tmp_path / "run.ndjson"
    cfg = default_config()
    cfg.gpu.memory_bytes = 32 * MB
    cfg.obs.ndjson_path = str(path)
    system = UvmSystem(cfg)
    WORKLOAD_REGISTRY["stream"]().run(system)
    system.obs.sink.close()
    return path


class TestAnalyzeRecords:
    def test_report_on_real_log(self, run_log, capsys):
        assert main(["analyze", str(run_log)]) == 0
        out = capsys.readouterr().out
        assert "fault latency" in out
        assert "p50" in out and "p99" in out
        assert "phase attribution:" in out
        assert "gpu stall" in out

    def test_json_report(self, run_log, capsys):
        assert main(["analyze", str(run_log), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["batches"] > 0
        assert set(report["detectors"]) == {"overflow_storms", "thrashing"}

    def test_self_diff_identical_exit_0(self, run_log, capsys):
        code = main(["analyze", str(run_log), str(run_log), "--diff"])
        assert code == 0
        assert "reports identical" in capsys.readouterr().out

    def test_diff_against_perturbed_log_exit_1(self, run_log, tmp_path, capsys):
        other = tmp_path / "other.ndjson"
        lines = []
        for line in run_log.read_text().splitlines():
            obj = json.loads(line)
            if obj.get("type") == "batch_record":
                obj["duration"] = obj["duration"] * 3.0
            lines.append(json.dumps(obj))
        other.write_text("\n".join(lines) + "\n")
        code = main(["analyze", str(run_log), str(other), "--diff"])
        assert code == 1
        assert "changes beyond tolerance" in capsys.readouterr().out

    def test_diff_needs_exactly_two_inputs(self, run_log):
        assert main(["analyze", str(run_log), "--diff"]) == 2

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.ndjson")]) == 2


class TestMetricsPercentilesCli:
    def test_percentiles_printed(self, capsys):
        code = main(
            ["metrics", "stream", "--gpu-mb", "32", "--seed", "0",
             "--percentiles"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# histogram percentiles (p50/p95/p99)" in out
        assert "uvm_batch_service_usec" in out
        assert "p50=" in out and "p99=" in out
