"""Unit tests for the copy engine and the aggregate GPU device."""

import pytest

from repro.config import GpuConfig
from repro.errors import SimulationError
from repro.gpu.copy_engine import CopyEngine, contiguous_runs
from repro.gpu.device import ChunkAllocator, GpuDevice
from repro.units import MB, PAGE_SIZE


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs([]) == []

    def test_single(self):
        assert contiguous_runs([5]) == [1]

    def test_one_run(self):
        assert contiguous_runs([1, 2, 3]) == [3]

    def test_multiple_runs(self):
        assert contiguous_runs([4, 5, 6, 9, 10, 20]) == [3, 2, 1]

    def test_all_isolated(self):
        assert contiguous_runs([1, 3, 5]) == [1, 1, 1]


class TestCopyEngine:
    def make(self):
        return CopyEngine(
            bandwidth_bytes_per_usec=12884.9,
            transfer_latency_usec=4.0,
            per_run_overhead_usec=0.4,
        )

    def test_zero_bytes_free(self):
        assert self.make().cost_for_bytes(0) == 0.0

    def test_cost_includes_latency_and_wire(self):
        ce = self.make()
        cost = ce.cost_for_bytes(PAGE_SIZE)
        assert cost == pytest.approx(4.0 + 4096 / 12884.9)

    def test_burst_pays_latency_once(self):
        ce = self.make()
        one = ce.host_to_device([4])
        ce2 = self.make()
        split = ce2.host_to_device([2, 2])
        # Same bytes; split pays one extra per-run overhead, not extra latency.
        assert split == pytest.approx(one + 0.4)

    def test_traffic_accounting(self):
        ce = self.make()
        ce.host_to_device([2, 3])
        assert ce.bytes_h2d == 5 * PAGE_SIZE
        assert ce.transfers_h2d == 2

    def test_d2h_accounting(self):
        ce = self.make()
        ce.device_to_host([4])
        assert ce.bytes_d2h == 4 * PAGE_SIZE
        assert ce.transfers_d2h == 1

    def test_empty_burst_free(self):
        assert self.make().host_to_device([]) == 0.0

    def test_more_bytes_cost_more(self):
        ce = self.make()
        assert ce.cost_for_bytes(2 * PAGE_SIZE) > ce.cost_for_bytes(PAGE_SIZE)


class TestChunkAllocator:
    def test_allocates_all_chunks(self):
        alloc = ChunkAllocator(4)
        chunks = [alloc.allocate() for _ in range(4)]
        assert sorted(chunks) == [0, 1, 2, 3]
        assert alloc.allocate() is None

    def test_free_and_reuse(self):
        alloc = ChunkAllocator(1)
        chunk = alloc.allocate()
        assert alloc.allocate() is None
        alloc.free(chunk)
        assert alloc.allocate() == chunk

    def test_counters(self):
        alloc = ChunkAllocator(2)
        alloc.free(alloc.allocate())
        assert alloc.total_allocs == 1
        assert alloc.total_frees == 1
        assert alloc.free_chunks == 2
        assert alloc.used_chunks == 0

    def test_invalid_free(self):
        with pytest.raises(SimulationError):
            ChunkAllocator(2).free(5)

    def test_double_free_guarded(self):
        alloc = ChunkAllocator(2)
        chunk = alloc.allocate()
        alloc.free(chunk)
        with pytest.raises(SimulationError):
            alloc.free(chunk)


class TestGpuDevice:
    def make(self, num_sms=8, mem_mb=16):
        cfg = GpuConfig(num_sms=num_sms, memory_bytes=mem_mb * MB)
        return GpuDevice(cfg, copy_bandwidth_bytes_per_usec=12884.9, copy_latency_usec=4.0)

    def test_structure(self):
        dev = self.make()
        assert len(dev.sms) == 8
        assert len(dev.utlbs) == 4
        assert dev.chunks.total_chunks == 8  # 16 MiB / 2 MiB

    def test_utlb_for_sm(self):
        dev = self.make()
        assert dev.utlb_for_sm(0) is dev.utlbs[0]
        assert dev.utlb_for_sm(3) is dev.utlbs[1]

    def test_replay_all(self):
        dev = self.make()
        dev.utlbs[0].request(1)
        dev.replay_all()
        assert all(u.outstanding == 0 for u in dev.utlbs)

    def test_replay_all_empties_every_utlb(self):
        dev = self.make()
        checked = []

        class Recorder:
            def on_utlb(self, utlb):
                checked.append(utlb.utlb_id)

        for utlb in dev.utlbs:
            utlb.attach_sanitizer(Recorder())
        for utlb_id, pages in ((0, [1, 2, 2]), (2, [7]), (3, range(10, 66))):
            for page in pages:
                dev.utlbs[utlb_id].request(page)
        checked.clear()
        dev.replay_all()
        assert all(not u.pending_pages and u.outstanding == 0 for u in dev.utlbs)
        # Only the µTLBs that held entries had anything to clear.
        assert checked == [0, 2, 3]
        # Every page misses afresh after the replay.
        assert all(u.request(1) is True for u in dev.utlbs)

    def test_idle_initially(self):
        assert self.make().idle

    def test_reset_scheduling(self):
        from repro.gpu.warp import Phase, WarpProgram

        dev = self.make()
        dev.sms[0].enqueue(WarpProgram([Phase.of([1])]))
        assert not dev.idle
        dev.reset_scheduling()
        assert dev.idle
