"""Unit tests for the fault buffer, GMMU routing, and GPU page table."""

import pytest

from repro.gpu.fault import AccessType, Fault
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.gmmu import Gmmu
from repro.gpu.page_table import GpuPageTable
from tests.property.fault_oracle import write, write_window


def fault(page=1, access=AccessType.READ, sm=0, ts=0.0):
    return Fault(page, access, sm, sm // 2, warp_uid=1, timestamp=ts)


class TestFaultBuffer:
    def test_push_and_len(self):
        buf = FaultBuffer(4)
        assert write(buf, fault(1))
        assert len(buf) == 1

    def test_overflow_drops(self):
        buf = FaultBuffer(2)
        assert write(buf, fault(1))
        assert write(buf, fault(2))
        assert not write(buf, fault(3))
        assert buf.total_overflow_dropped == 1
        assert len(buf) == 2

    def test_overflow_counts_pending_window_entries(self):
        buf = FaultBuffer(2)
        assert write_window(buf, [fault(1), fault(2), fault(3)]) == [True, True, False]
        assert buf.total_overflow_dropped == 1
        assert len(buf) == 2

    def test_fetch_fifo_order(self):
        buf = FaultBuffer(8)
        for p in (10, 11, 12):
            write(buf, fault(p))
        fetched = buf.fetch(2)
        assert [f.page for f in fetched] == [10, 11]
        assert len(buf) == 1

    def test_fetch_more_than_present(self):
        buf = FaultBuffer(8)
        write(buf, fault(1))
        assert len(buf.fetch(100)) == 1

    def test_flush_returns_dropped(self):
        buf = FaultBuffer(8)
        for p in range(3):
            write(buf, fault(p))
        buf.fetch(1)
        dropped = buf.flush()
        assert [f.page for f in dropped] == [1, 2]
        assert buf.total_flush_dropped == 2
        assert len(buf) == 0

    def test_counters(self):
        buf = FaultBuffer(2)
        write(buf, fault(1))
        write(buf, fault(2))
        write(buf, fault(3))  # overflow
        assert buf.total_pushed == 2


class TestGmmu:
    def test_deliver_appends_window_rows(self):
        gmmu = Gmmu(FaultBuffer(8))
        write_window(gmmu, [fault(7, sm=5, ts=1.0), fault(8, sm=1, ts=2.0)])
        assert list(gmmu.buffer.fetch(8)) == [fault(7, sm=5, ts=1.0), fault(8, sm=1, ts=2.0)]

    def test_interrupt_latched_on_first_fault(self):
        gmmu = Gmmu(FaultBuffer(8))
        assert not gmmu.interrupt_pending
        write(gmmu, fault(1, ts=5.0))
        assert gmmu.interrupt_pending
        assert gmmu.first_arrival == 5.0

    def test_first_arrival_not_overwritten(self):
        gmmu = Gmmu(FaultBuffer(8))
        write(gmmu, fault(1, ts=5.0))
        write(gmmu, fault(2, ts=6.0))
        assert gmmu.first_arrival == 5.0

    def test_acknowledge_clears(self):
        gmmu = Gmmu(FaultBuffer(8))
        write(gmmu, fault(1, ts=5.0))
        gmmu.acknowledge()
        assert not gmmu.interrupt_pending
        assert gmmu.first_arrival is None

    def test_full_buffer_returns_none(self):
        gmmu = Gmmu(FaultBuffer(1))
        assert write(gmmu, fault(1))
        assert not write(gmmu, fault(2))

    def test_dropped_window_latches_no_interrupt(self):
        gmmu = Gmmu(FaultBuffer(1))
        write(gmmu.buffer, fault(1))
        assert not write(gmmu, fault(2, ts=3.0))
        assert not gmmu.interrupt_pending


class TestGpuPageTable:
    def test_map_and_query(self):
        pt = GpuPageTable()
        added = pt.map_pages([1, 2, 3])
        assert added == 3
        assert pt.is_resident(2)
        assert not pt.is_resident(4)

    def test_remap_counts_once(self):
        pt = GpuPageTable()
        pt.map_pages([1, 2])
        assert pt.map_pages([2, 3]) == 1
        assert pt.total_mapped == 3

    def test_unmap(self):
        pt = GpuPageTable()
        pt.map_pages([1, 2, 3])
        removed = pt.unmap_pages([2, 99])
        assert removed == 1
        assert not pt.is_resident(2)
        assert len(pt) == 2

    def test_len(self):
        pt = GpuPageTable()
        pt.map_pages(range(10))
        assert len(pt) == 10

    def test_remote_pages_are_mapped_but_not_migrated(self):
        pt = GpuPageTable()
        pt.map_pages([1, 2])
        assert pt.map_remote([3, 4]) == 2
        assert pt.is_resident(3)
        assert pt.remote == {3, 4}
        assert pt.pages_of(0) == [1, 2]
        assert pt.count_of(0) == 2
        assert list(pt.mask_of(0)[:6]) == [False, True, True, True, True, False]

    def test_unmap_drops_remote_mappings(self):
        pt = GpuPageTable()
        pt.map_remote([3, 4])
        assert not pt.has_pages(0)
        assert pt.unmap_pages([3]) == 1
        assert pt.remote == {4}


class TestFaultRecord:
    def test_flags(self):
        f = fault(access=AccessType.PREFETCH)
        assert f.is_prefetch and not f.is_write
        w = fault(access=AccessType.WRITE)
        assert w.is_write and not w.is_prefetch
