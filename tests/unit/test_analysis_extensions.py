"""Unit tests for breakdown, export, and trace capture/replay."""

import csv

import pytest

from repro import UvmSystem, default_config
from repro.analysis.breakdown import (
    COMPONENTS,
    cost_breakdown,
    host_os_share,
    render_breakdown,
    wire_share,
)
from repro.analysis.export import (
    export_batch_timeline,
    export_scatter,
    export_sm_histogram,
    write_csv,
)
from repro.analysis.traces import FaultTrace, TracedFault, capture_trace, replay
from repro.core.batch_record import PHASE_FIELDS, BatchRecord
from repro.units import MB
from repro.workloads import StreamTriad


def record(batch_id=0, **kwargs):
    r = BatchRecord(batch_id=batch_id)
    for k, v in kwargs.items():
        setattr(r, k, v)
    return r


class TestBreakdown:
    def test_components_cover_all_timers(self):
        attrs = [a for a, _ in COMPONENTS]
        timer_fields = {f for f in vars(BatchRecord(batch_id=0)) if f.startswith("time_")}
        assert sorted(attrs) == sorted(PHASE_FIELDS)
        assert set(PHASE_FIELDS) == timer_fields

    def test_shares_sum_to_one(self):
        recs = [record(time_fetch=10.0, time_unmap=30.0, time_dma=60.0)]
        shares = cost_breakdown(recs)
        assert sum(s.fraction for s in shares) == pytest.approx(1.0)

    def test_sorted_by_cost(self):
        recs = [record(time_fetch=10.0, time_unmap=30.0)]
        shares = cost_breakdown(recs)
        assert shares[0].attr == "time_unmap"

    def test_host_os_share(self):
        recs = [record(time_unmap=30.0, time_dma=20.0, time_fetch=50.0)]
        assert host_os_share(recs) == pytest.approx(0.5)

    def test_wire_share(self):
        recs = [record(time_transfer_h2d=25.0, time_fetch=75.0)]
        assert wire_share(recs) == pytest.approx(0.25)

    def test_render_skips_zero_components(self):
        out = render_breakdown([record(time_fetch=10.0)])
        assert "fault-buffer fetch" in out
        assert "unmap_mapping_range" not in out

    def test_empty_records(self):
        assert cost_breakdown([]) == sorted(cost_breakdown([]), key=lambda s: -s.total_usec)

    def test_real_run_host_os_significant(self, system_factory):
        """§6: host OS components are a significant share on real workloads."""
        system = system_factory(prefetch_enabled=False, gpu_mem_mb=64)
        res = StreamTriad(nbytes=8 * MB).run(system)
        assert host_os_share(res.records) > 0.05
        assert wire_share(res.records) < 0.35


class TestExport:
    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3, 4]])
        rows = list(csv.reader(path.open()))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_export_timeline(self, tmp_path, system_factory):
        system = system_factory(prefetch_enabled=False)
        res = StreamTriad(nbytes=2 * MB).run(system)
        path = export_batch_timeline(res.records, tmp_path / "timeline.csv")
        rows = list(csv.reader(path.open()))
        assert len(rows) == len(res.records) + 1
        assert rows[0][0] == "batch_id"

    def test_export_scatter(self, tmp_path):
        recs = [record(bytes_h2d=100, t_start=0.0, t_end=5.0)]
        path = export_scatter(recs, tmp_path / "scatter.csv")
        rows = list(csv.reader(path.open()))
        assert rows[1] == ["100", "5.0"]

    def test_export_sm_histogram(self, tmp_path):
        import numpy as np

        recs = [
            record(sm_fault_counts=np.array([1, 2])),
            record(sm_fault_counts=np.array([3, 0])),
        ]
        path = export_sm_histogram(recs, tmp_path / "sm.csv")
        rows = list(csv.reader(path.open()))
        assert rows[1:] == [["0", "4"], ["1", "2"]]


class TestTraces:
    def traced_run(self, system_factory):
        system = system_factory(prefetch_enabled=False, trace=True)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        pages = list(alloc.pages(0, 128))
        phases = [Phase.of(pages[i : i + 16]) for i in range(0, 128, 16)]
        system.launch(KernelLaunch("t", [WarpProgram(phases)]))
        return system

    def test_capture_requires_tracing(self, system_factory):
        system = system_factory()
        with pytest.raises(ValueError):
            capture_trace(system)

    def test_capture_counts_faults(self, system_factory):
        system = self.traced_run(system_factory)
        trace = capture_trace(system)
        assert trace.num_faults == sum(r.num_faults_raw for r in system.records)
        assert len(trace.windows) == len(system.records)

    def test_jsonl_roundtrip(self, system_factory, tmp_path):
        system = self.traced_run(system_factory)
        trace = capture_trace(system)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        loaded = FaultTrace.from_jsonl(path)
        assert loaded.allocations == trace.allocations
        assert loaded.num_faults == trace.num_faults
        assert loaded.windows[0][0] == trace.windows[0][0]

    def test_replay_same_config_same_unique_pages(self, system_factory):
        system = self.traced_run(system_factory)
        trace = capture_trace(system)
        cfg = system.config.replace()
        log = replay(trace, cfg)
        assert log.total_faults_unique == sum(
            r.num_faults_unique for r in system.records
        )

    def test_replay_bigger_batches_fewer(self, system_factory):
        system = self.traced_run(system_factory)
        trace = capture_trace(system)
        small = replay(trace, system.config.replace())
        big_cfg = system.config.replace()
        big_cfg.driver.batch_size = 4096
        big = replay(trace, big_cfg)
        assert len(big) <= len(small)

    def test_replay_with_prefetch_policy_change(self, system_factory):
        system = self.traced_run(system_factory)
        trace = capture_trace(system)
        pf_cfg = system.config.replace()
        pf_cfg.driver.prefetch_enabled = True
        log = replay(trace, pf_cfg)
        # Prefetching makes later windows' faults hit: fewer serviced batches.
        assert len(log) <= len(system.records)
