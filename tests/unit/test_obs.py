"""Unit tests for the observability layer (:mod:`repro.obs`)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import ObsConfig
from repro.errors import ConfigError
from repro.obs import (
    ChromeTrace,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_SPAN,
    NdjsonSink,
    Observability,
    PID_DRIVER,
    SpanProfiler,
    read_ndjson,
)
from repro.obs.flight import FlightRecorder
from repro.sim.clock import SimClock


# ---------------------------------------------------------------- metrics


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("batches", "help text")
        c.inc()
        c.inc(4)
        assert c.labels().snapshot() == 5.0

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("pages", labels=("op",))
        fam.labels("h2d").inc(3)
        fam.labels("d2h").inc(1)
        assert fam.labels("h2d").snapshot() == 3.0
        assert fam.labels("d2h").snapshot() == 1.0

    def test_wrong_label_arity_raises(self):
        fam = MetricsRegistry().counter("pages", labels=("op",))
        with pytest.raises(ValueError):
            fam.labels("a", "b")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("resident")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.labels().snapshot() == 7.0


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        h = MetricsRegistry().histogram("t", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        snap = h.labels().snapshot()
        les = [(b["le"], b["count"]) for b in snap["buckets"]]
        assert les == [(10.0, 1), (100.0, 2), (float("inf"), 3)]
        assert snap["sum"] == 555.0
        assert snap["count"] == 3

    def test_boundary_value_falls_in_its_bucket(self):
        # Prometheus `le` is inclusive.
        h = MetricsRegistry().histogram("t", buckets=(10.0, 100.0))
        h.observe(10.0)
        snap = h.labels().snapshot()
        assert snap["buckets"][0]["count"] == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("t", buckets=(10.0, 5.0))


class TestRegistry:
    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x", "first")
        b = reg.counter("x", "second")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_disabled_registry_hands_out_null_instrument(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x", labels=("op",))
        assert c is NULL_INSTRUMENT
        assert c.labels("anything", "arity", "ignored") is c
        c.inc()
        c.set(5)
        c.observe(1.0)
        assert reg.snapshot() == {}

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c", "help", labels=("k",)).labels("v").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(3.0)
        text = json.dumps(reg.snapshot())
        assert "Infinity" in text  # +Inf bucket survives the dump

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("uvm_pages_total", "Pages", labels=("op",)).labels("h2d").inc(3)
        reg.histogram("uvm_usec", "Time", buckets=(10.0,)).observe(4.0)
        text = reg.to_prometheus()
        assert "# HELP uvm_pages_total Pages" in text
        assert "# TYPE uvm_pages_total counter" in text
        assert 'uvm_pages_total{op="h2d"} 3' in text
        assert 'uvm_usec_bucket{le="10"} 1' in text
        assert 'uvm_usec_bucket{le="+Inf"} 1' in text
        assert "uvm_usec_sum 4" in text
        assert "uvm_usec_count 1" in text


# ------------------------------------------------------------------ spans


class TestSpanProfiler:
    def test_span_measures_clock_advance(self):
        clock = SimClock()
        prof = SpanProfiler(clock)
        with prof.span("fetch", batch=7):
            clock.advance(12.5)
        (rec,) = prof.records
        assert rec.name == "fetch"
        assert rec.sim_start == 0.0
        assert rec.sim_dur == 12.5
        assert rec.sim_end == 12.5
        assert rec.wall_dur >= 0.0
        assert rec.args_dict() == {"batch": 7}

    def test_nested_spans_track_depth(self):
        clock = SimClock()
        prof = SpanProfiler(clock)
        with prof.span("outer"):
            clock.advance(1.0)
            with prof.span("inner"):
                clock.advance(2.0)
        inner, outer = prof.records  # inner completes first
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0
        assert outer.sim_dur == 3.0

    def test_disabled_profiler_is_null(self):
        prof = SpanProfiler(SimClock(), enabled=False)
        assert prof.span("x") is NULL_SPAN
        with prof.span("x"):
            pass
        prof.record("y", sim_dur=5.0)
        assert len(prof) == 0

    def test_manual_record_and_totals(self):
        prof = SpanProfiler(SimClock())
        prof.record("vablock", sim_start=10.0, sim_dur=4.0, block=3)
        prof.record("vablock", sim_start=14.0, sim_dur=6.0, block=4)
        assert prof.sim_total("vablock") == 10.0
        totals = prof.totals()
        assert totals["vablock"]["count"] == 2
        assert totals["vablock"]["sim_usec"] == 10.0

    def test_max_spans_drops_overflow(self):
        prof = SpanProfiler(SimClock(), max_spans=1)
        prof.record("a", sim_dur=1.0)
        prof.record("b", sim_dur=1.0)
        assert len(prof) == 1
        assert prof.dropped == 1
        prof.clear()
        assert prof.dropped == 0

    def test_threads_get_independent_stacks(self):
        clock = SimClock()
        prof = SpanProfiler(clock)
        errors = []
        # Hold every worker until all have started, so thread idents are
        # distinct (the OS reuses idents of joined threads).
        barrier = threading.Barrier(4)

        def worker():
            try:
                barrier.wait()
                for _ in range(50):
                    with prof.span("w"):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(prof) == 200
        assert len({r.thread_id for r in prof.records}) == 4


# ----------------------------------------------------------- chrome trace


def render(*events, pid_base=0, label="", num_sms=0, enabled=True):
    """A trace rendered from a hand-written log of ``(t, kind, *args)``."""
    clock = SimClock()
    flight = FlightRecorder(clock, None)
    for t, kind, *args in events:
        clock.advance_to(t)
        flight.record(kind, *args)
    trace = ChromeTrace(enabled=enabled)
    trace.add_source(pid_base, label, flight, num_sms=num_sms)
    return trace


class TestChromeTrace:
    def test_events_have_required_keys_and_sort(self):
        trace = render(
            (5.0, "ce", "h2d", 4096, 1, 1.0),
            (6.0, "fault", 0, 42, 0, 3, 1, 7.0),
            (6.0, "run", 2, 1, 10.0, 1.0),
        )
        doc = json.loads(json.dumps(trace.to_dict()))
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["name"] for e in events] == ["copy h2d", "fault", "run"]
        for e in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
        assert events[0]["ph"] == "X" and events[0]["dur"] == 1.0
        assert events[1]["ph"] == "i" and events[1]["s"] == "t"
        assert events[1]["args"] == {"page": 42, "batch": 0}
        assert doc["displayTimeUnit"] == "ms"

    def test_metadata_events_come_first(self):
        doc = render((0.0, "ce", "d2h", 4096, 1, 1.0)).to_dict()
        phs = [e["ph"] for e in doc["traceEvents"]]
        first_non_meta = phs.index("X")
        assert all(ph == "M" for ph in phs[:first_non_meta])
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert "UVM driver" in names

    def test_scoped_track_labels(self):
        meta = render(pid_base=10, label="GPU1", num_sms=2).to_dict()["traceEvents"]
        by_pid = {e["pid"]: e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert by_pid[10 + PID_DRIVER] == "GPU1 UVM driver"
        threads = {(e["pid"], e["tid"]): e["args"]["name"]
                   for e in meta if e["name"] == "thread_name"}
        assert threads[(13, 1)] == "SM 1"
        assert threads[(13, 2)] == "all SMs (stall)"

    def test_num_tracks_counts_distinct_pids(self):
        trace = render(
            (0.0, "run", 0, 1, 0.0, 1.0),
            (0.0, "run", 5, 2, 0.0, 1.0),
            (0.0, "ce", "h2d", 4096, 1, 1.0),
        )
        assert len(trace) == 3
        assert trace.num_tracks == 2

    def test_block_places_bursts_and_evictions_by_marks(self):
        """The driver applies a block's costs after the block loop, so its
        bursts and evictions are placed by the block's phase marks."""
        marks = [
            ("time_block_base", 1.0),
            ("time_eviction", 2.0),
            ("time_eviction", 0.5),
            ("time_retry_backoff", 4.0),
            ("time_transfer_d2h", 3.0),
            ("time_transfer_h2d", 6.0),
        ]
        trace = render(
            (100.0, "batch.open", 0, "fault"),
            (100.0, "ce", "d2h", 8192, 1, 3.0),
            (100.0, "evict", 0, 7, 0, 1, 2),
            (100.0, "ce", "h2d", 4096, 1, 5.0),
            (100.0, "vablock", 0, 9, 100.0, 16.5, 1, marks),
            (116.5, "batch.close", 0, 1, 16.5),
        )
        by_name = {e["name"]: e for e in trace.events}
        assert by_name["copy d2h"]["ts"] == 107.5
        assert by_name["copy h2d"]["ts"] == 110.5
        evict = by_name["evict block 7"]
        assert (evict["ts"], evict["dur"]) == (101.0, 9.5)
        phases = [e for e in trace.events if e["tid"] == 2 and e["pid"] == PID_DRIVER]
        assert [e["ts"] for e in phases] == [100.0, 101.0, 103.0, 103.5, 107.5, 110.5]

    def test_disabled_builder_records_nothing(self):
        trace = render((0.0, "ce", "h2d", 4096, 1, 1.0), enabled=False)
        assert len(trace) == 0
        assert trace.to_dict()["traceEvents"] == []

    def test_write_creates_parent_dirs(self, tmp_path):
        path = render((0.0, "ce", "h2d", 4096, 1, 1.0)).write(
            tmp_path / "deep" / "trace.json"
        )
        assert json.loads(path.read_text())["traceEvents"]


# ------------------------------------------------------------------ sinks


class TestNdjsonSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.ndjson"
        with NdjsonSink(path) as sink:
            sink.write({"type": "custom", "v": 1})
            sink.write_event((3.5, "fault", (7, 8)))
        rows = read_ndjson(path)
        assert rows[0] == {"type": "custom", "v": 1}
        assert rows[1] == {"type": "event", "t": 3.5, "kind": "fault", "args": [7, 8]}


# ----------------------------------------------------------------- facade


class TestObservabilityFacade:
    def test_scoped_view_shares_instruments_and_offsets_pids(self):
        obs = Observability(ObsConfig(chrome_trace=True), SimClock())
        view = obs.scoped(10, "GPU1")
        assert view.metrics is obs.metrics
        assert view.spans is obs.spans
        assert view.chrome is obs.chrome
        assert view.pid(PID_DRIVER) == 10 + PID_DRIVER
        assert obs.pid(PID_DRIVER) == PID_DRIVER

    def test_any_enabled_reflects_config(self):
        assert Observability(ObsConfig(), SimClock()).any_enabled
        off = Observability(ObsConfig().disabled(), SimClock())
        assert not off.any_enabled

    def test_disabled_config_validate(self):
        cfg = ObsConfig().disabled()
        assert not (cfg.metrics or cfg.spans or cfg.chrome_trace)
        assert cfg.ndjson_path is None
        with pytest.raises(ConfigError):
            ObsConfig(max_spans=-1).validate()


# ------------------------------------------- event trace ring (flight recorder)


class TestEventTraceRing:
    def test_ring_keeps_newest_and_counts_drops(self):
        trace = FlightRecorder(SimClock(), capacity=3)
        for i in range(5):
            trace.record("fault", i)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [e[2][0] for e in trace] == [2, 3, 4]
        assert trace.appended == 5

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(SimClock(), capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(SimClock(), capacity=-1)

    def test_clear_resets_dropped(self):
        trace = FlightRecorder(SimClock(), capacity=1)
        trace.record("a")
        trace.record("a")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_sink_tee(self, tmp_path):
        path = tmp_path / "tee.ndjson"
        sink = NdjsonSink(path)
        trace = FlightRecorder(SimClock(), capacity=4, sink=sink)
        trace.record("evict", 0, 12, 512, 1023, 512)
        sink.close()
        assert read_ndjson(path) == [
            {"type": "event", **trace.to_dicts()[0]},
        ]
