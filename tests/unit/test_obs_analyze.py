"""Unit tests for the analyze report engine (:mod:`repro.obs.analyze`)."""

from __future__ import annotations

import json

import pytest

from repro.core.batch_record import PHASE_FIELDS
from repro.obs.analyze import (
    DEFAULT_TOLERANCE,
    analyze_path,
    build_report,
    detect_overflow_storms,
    detect_thrashing,
    diff_reports,
    exact_percentile,
    load_batch_records,
    render_diff,
    render_report,
)


def _record(batch_id, duration=100.0, **extra):
    """A minimal batch-record dict as the NDJSON sink would emit it."""
    rec = {
        "type": "batch_record",
        "batch_id": batch_id,
        "duration": duration,
        "num_faults_raw": 8,
        "hinted": False,
        "aborted": False,
        "dropped_at_flush": 0,
        "pages_migrated_h2d": 0,
        "pages_evicted": 0,
    }
    for name in PHASE_FIELDS:
        rec[name] = 0.0
    rec.update(extra)
    return rec


# -------------------------------------------------------------- percentiles


class TestExactPercentile:
    def test_empty_is_none(self):
        assert exact_percentile([], 0.5) is None

    def test_single_sample(self):
        assert exact_percentile([7.0], 0.99) == 7.0

    def test_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert exact_percentile(values, 0.0) == 10.0
        assert exact_percentile(values, 1.0) == 40.0
        assert exact_percentile(values, 0.5) == pytest.approx(25.0)

    def test_order_independent(self):
        assert exact_percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            exact_percentile([1.0], 1.5)


# ---------------------------------------------------------------- detectors


class TestDetectors:
    def test_overflow_storm_needs_consecutive_run(self):
        records = [
            _record(0, dropped_at_flush=4),
            _record(1, dropped_at_flush=2),
            _record(2),  # run of 2 < min_batches, no storm
            _record(3, dropped_at_flush=1),
            _record(4, dropped_at_flush=1),
            _record(5, dropped_at_flush=1),
        ]
        storms = detect_overflow_storms(records, min_batches=3)
        assert storms == [
            {
                "start_batch": 3,
                "end_batch": 5,
                "batches": 3,
                "dropped_faults": 3,
            }
        ]

    def test_overflow_storm_run_ending_at_tail(self):
        records = [_record(i, dropped_at_flush=2) for i in range(3)]
        assert len(detect_overflow_storms(records, min_batches=3)) == 1

    def test_clean_records_no_storm(self):
        assert detect_overflow_storms([_record(0), _record(1)]) == []

    def test_thrashing_window(self):
        hot = [
            _record(i, pages_migrated_h2d=32, pages_evicted=30)
            for i in range(4)
        ]
        cool = [_record(4, pages_migrated_h2d=32, pages_evicted=2)]
        windows = detect_thrashing(hot + cool, min_batches=4)
        assert windows == [
            {
                "start_batch": 0,
                "end_batch": 3,
                "batches": 4,
                "pages_migrated": 128,
                "pages_evicted": 120,
            }
        ]

    def test_thrashing_needs_migration(self):
        # Evictions without inbound migration are not thrashing.
        records = [_record(i, pages_evicted=50) for i in range(6)]
        assert detect_thrashing(records) == []


# ------------------------------------------------------------------ reports


class TestBuildReport:
    def test_empty_records(self):
        report = build_report([])
        assert report["batches"] == 0
        assert report["fault_latency_usec"]["p50"] is None
        assert report["fault_latency_usec"]["mean"] is None
        assert report["gpu_stall"]["transfer_frac"] == 0.0

    def test_counts_and_percentiles(self):
        records = [
            _record(0, duration=10.0),
            _record(1, duration=20.0),
            _record(2, duration=30.0, hinted=True),
            _record(3, duration=40.0, aborted=True),
        ]
        report = build_report(records)
        assert report["batches"] == 4
        assert report["hinted"] == 1
        assert report["aborted"] == 1
        assert report["faults"] == 32
        assert report["total_batch_usec"] == 100.0
        assert report["fault_latency_usec"]["p50"] == pytest.approx(25.0)
        assert report["fault_latency_usec"]["max"] == 40.0
        # Hinted batches run before launch; only fault batches stall SMs.
        assert report["gpu_stall"]["stall_usec"] == 70.0

    def test_phase_attribution_sums_to_transfer_frac(self):
        records = [
            _record(
                0,
                duration=100.0,
                time_transfer_h2d=20.0,
                time_transfer_d2h=5.0,
                time_pagetable=60.0,
            )
        ]
        report = build_report(records)
        assert report["phases"]["transfer_h2d"]["frac"] == pytest.approx(0.2)
        assert report["gpu_stall"]["transfer_frac"] == pytest.approx(0.25)
        assert report["gpu_stall"]["management_frac"] == pytest.approx(0.75)
        assert set(report["phases"]) == {n[5:] for n in PHASE_FIELDS}

    def test_detectors_embedded(self):
        records = [_record(i, dropped_at_flush=1) for i in range(5)]
        report = build_report(records)
        assert len(report["detectors"]["overflow_storms"]) == 1
        assert report["detectors"]["thrashing"] == []


class TestLoadRecords:
    def test_filters_non_batch_lines(self, tmp_path):
        path = tmp_path / "log.ndjson"
        lines = [
            json.dumps({"type": "run_header", "kernel": "stream"}),
            json.dumps(_record(0)),
            "",
            json.dumps(_record(1)),
        ]
        path.write_text("\n".join(lines) + "\n")
        records = load_batch_records(path)
        assert [r["batch_id"] for r in records] == [0, 1]

    def test_analyze_path_dispatches_records(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text(json.dumps(_record(0)) + "\n")
        kind, report = analyze_path(path)
        assert kind == "records"
        assert report["batches"] == 1


# --------------------------------------------------------------------- diff


class TestDiffReports:
    def test_identical(self):
        report = build_report([_record(0)])
        diff = diff_reports(report, report)
        assert diff["identical"]
        assert diff["within_tolerance"]
        assert diff["changes"] == []
        assert "identical" in render_diff(diff)

    def test_small_drift_within_tolerance(self):
        a = {"x": 100.0}
        b = {"x": 105.0}
        diff = diff_reports(a, b, tolerance=0.10)
        assert not diff["identical"]
        assert diff["within_tolerance"]

    def test_large_drift_reported(self):
        diff = diff_reports({"x": 100.0}, {"x": 200.0}, tolerance=0.10)
        assert not diff["within_tolerance"]
        assert diff["changes"][0]["key"] == "x"
        assert diff["changes"][0]["delta_rel"] == pytest.approx(1.0)
        assert "+100.0%" in render_diff(diff)

    def test_missing_key_reported(self):
        diff = diff_reports({"x": 1.0, "y": 2.0}, {"x": 1.0})
        assert diff["changes"][0]["only_in"] == "a"
        assert not diff["within_tolerance"]

    def test_lists_compared_by_count(self):
        a = {"detectors": {"storms": [1, 2]}}
        b = {"detectors": {"storms": [1, 2, 3]}}
        diff = diff_reports(a, b, tolerance=0.10)
        assert diff["changes"][0]["key"] == "detectors.storms.count"

    def test_zero_baseline_uses_absolute_delta(self):
        diff = diff_reports({"x": 0.0}, {"x": 0.05}, tolerance=0.10)
        assert diff["within_tolerance"]
        diff = diff_reports({"x": 0.0}, {"x": 5.0}, tolerance=0.10)
        assert not diff["within_tolerance"]

    def test_default_tolerance(self):
        assert DEFAULT_TOLERANCE == 0.10


# ---------------------------------------------------------------- rendering


class TestRendering:
    def test_render_report_smoke(self):
        records = [
            _record(0, duration=50.0, time_pagetable=30.0),
            _record(1, duration=50.0, dropped_at_flush=3),
            _record(2, duration=50.0, dropped_at_flush=3),
            _record(3, duration=50.0, dropped_at_flush=3),
        ]
        text = render_report(build_report(records), title="t")
        assert "== t ==" in text
        assert "fault latency" in text
        assert "overflow storm: batches 1-3 dropped 9 faults" in text

    def test_render_clean_detectors(self):
        text = render_report(build_report([_record(0)]))
        assert "detectors: clean" in text
