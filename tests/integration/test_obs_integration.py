"""End-to-end observability: metrics/trace/sink reconcile with the run.

The metrics registry, the Chrome trace and the NDJSON sink are views of the
same simulated fault path (metrics and the trace are read from the run's
event log and batch log); these tests run real workloads and check the
views agree with the ground truth
(:class:`~repro.core.batch_record.BatchRecord`).  A crash-recovered run
must log each batch once: its NDJSON sink rewinds with the checkpoint, as
the event log does.
"""

from __future__ import annotations

import json

import pytest

from repro.api import UvmSystem
from repro.cli import main as cli_main
from repro.config import default_config
from repro.obs import read_ndjson
from repro.units import MB
from repro.workloads import StreamTriad


def make_system(
    chrome: bool = False,
    ndjson_path=None,
    obs_off: bool = False,
    gpu_mem_mb: int = 32,
) -> UvmSystem:
    cfg = default_config()
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.cost_overrides = {"jitter_frac": 0.0}
    if obs_off:
        cfg.obs = cfg.obs.disabled()
    else:
        cfg.obs.chrome_trace = chrome
        if ndjson_path is not None:
            cfg.obs.ndjson_path = str(ndjson_path)
    return UvmSystem(cfg)


@pytest.fixture(scope="module")
def observed_run():
    system = make_system(chrome=True)
    result = StreamTriad(nbytes=8 * MB).run(system)
    return system, result


class TestSpanReconciliation:
    """A batch's span, ``t_start`` to ``t_end``, is tiled by its phase
    timers."""

    def test_service_time_equals_duration_for_serial_driver(self, observed_run):
        system, _ = observed_run
        for record in system.records:
            assert record.service_time == pytest.approx(record.duration, rel=1e-9)


class TestMetricsReconciliation:
    def test_counters_match_records(self, observed_run):
        system, _ = observed_run
        records = system.records
        snap = system.metrics_snapshot()

        def series_sum(name):
            return sum(s["value"] for s in snap[name]["series"])

        assert series_sum("uvm_batches_total") == len(records)
        faults_raw = next(
            s["value"]
            for s in snap["uvm_faults_total"]["series"]
            if s["labels"]["kind"] == "raw"
        )
        assert faults_raw == sum(r.num_faults_raw for r in records)
        bytes_h2d = next(
            s["value"]
            for s in snap["uvm_ce_bytes_total"]["series"]
            if s["labels"]["dir"] == "h2d"
        )
        assert bytes_h2d == system.engine.device.copy_engine.bytes_h2d > 0

    def test_batch_histogram_counts_every_batch(self, observed_run):
        system, _ = observed_run
        snap = system.metrics_snapshot()
        hist = snap["uvm_batch_service_usec"]["series"][0]["value"]
        assert hist["count"] == len(system.records)
        assert hist["sum"] == pytest.approx(
            sum(r.duration for r in system.records), rel=1e-9
        )

    def test_prometheus_export_runs(self, observed_run):
        system, _ = observed_run
        text = system.prometheus_metrics()
        assert "# TYPE uvm_batches_total counter" in text
        assert "uvm_kernels_total" in text


class TestChromeTraceOutput:
    def test_trace_is_valid_and_multi_track(self, observed_run, tmp_path):
        system, _ = observed_run
        path = system.export_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) >= 100
        real = [e for e in events if e["ph"] != "M"]
        assert len({e["pid"] for e in real}) >= 4
        for e in real:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
        ts = [e["ts"] for e in real]
        assert ts == sorted(ts)

    def test_batch_envelopes_cover_records(self, observed_run):
        system, _ = observed_run
        batch_events = [
            e
            for e in system.obs.chrome.events
            if e.get("ph") == "X" and e["name"].startswith("batch ")
        ]
        fault_records = [r for r in system.records if not r.hinted]
        assert len(batch_events) == len(fault_records)


class TestSinkAndDisabled:
    def test_ndjson_sink_logs_every_batch(self, tmp_path):
        path = tmp_path / "run.ndjson"
        system = make_system(ndjson_path=path)
        StreamTriad(nbytes=4 * MB).run(system)
        system.obs.close()
        rows = read_ndjson(path)
        batch_rows = [r for r in rows if r["type"] == "batch_record"]
        assert len(batch_rows) == len(system.records)
        assert batch_rows[0]["num_faults_raw"] == system.records[0].num_faults_raw

    def test_fully_disabled_obs_records_nothing(self):
        """Disabled obs logs and traces nothing; the metrics are read from
        the run's own counters, so they read the same as with obs on."""
        system = make_system(obs_off=True)
        result = StreamTriad(nbytes=4 * MB).run(system)
        assert result.num_batches > 0
        assert len(system.obs.flight) == 0
        assert len(system.obs.chrome) == 0
        observed = make_system()
        StreamTriad(nbytes=4 * MB).run(observed)
        assert json.dumps(system.metrics_snapshot(), sort_keys=True) == json.dumps(
            observed.metrics_snapshot(), sort_keys=True
        )

    def test_disabled_and_enabled_runs_agree_on_sim_time(self):
        on = make_system(chrome=True)
        off = make_system(obs_off=True)
        r_on = StreamTriad(nbytes=4 * MB).run(on)
        r_off = StreamTriad(nbytes=4 * MB).run(off)
        assert r_on.total_time_usec == pytest.approx(r_off.total_time_usec)
        assert r_on.num_batches == r_off.num_batches


def crashy_run(ndjson_path) -> UvmSystem:
    """A traced run that crashes at batch 12 and recovers from the batch-8
    checkpoint, replaying batches 9-12."""
    cfg = default_config()
    cfg.gpu.memory_bytes = 4 * MB
    cfg.inject.enabled = True
    cfg.inject.profile = "crashy"
    cfg.inject.checkpoint_every = 8
    cfg.obs.ndjson_path = str(ndjson_path)
    system = UvmSystem(cfg, trace=True)
    StreamTriad(nbytes=2 * MB).run(system)
    assert system.engine.injector.summary()["recoveries"] == 1
    return system


class TestCrashRecoveredRun:
    def test_ndjson_sink_logs_the_recovered_run_once(self, tmp_path):
        path = tmp_path / "run.ndjson"
        system = crashy_run(path)
        system.obs.close()
        rows = read_ndjson(path)
        batch_ids = [r["batch_id"] for r in rows if r["type"] == "batch_record"]
        assert batch_ids == [r.batch_id for r in system.records]
        events = [
            {k: v for k, v in r.items() if k != "type"}
            for r in rows
            if r["type"] == "event"
        ]
        assert events == json.loads(json.dumps(system.obs.flight.to_dicts()))


class TestCli:
    def test_trace_subcommand(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main(["trace", "stream", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) > 0
        assert "wrote" in capsys.readouterr().out

    def test_metrics_subcommand(self, capsys):
        assert cli_main(["metrics", "stream"]) == 0
        assert "# TYPE uvm_batches_total counter" in capsys.readouterr().out

    def test_metrics_json_subcommand(self, capsys):
        assert cli_main(["metrics", "stream", "--json", "--seed", "3"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "uvm_batches_total" in snap

    def test_export_trace_flag(self, tmp_path, capsys):
        assert (
            cli_main(
                ["export", "stream", "--out", str(tmp_path), "--trace", "--seed", "1"]
            )
            == 0
        )
        trace = tmp_path / "stream_trace.json"
        assert trace.exists()
        assert json.loads(trace.read_text())["traceEvents"]
