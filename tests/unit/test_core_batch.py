"""Unit tests for batch assembly and duplicate classification (§4.2)."""

import pytest

from repro.core.batch import assemble_batch
from repro.gpu.fault import AccessType, Fault, FaultArrays
from repro.units import PAGES_PER_VABLOCK


def fault(page, access=AccessType.READ, sm=0, utlb=None, ts=0.0):
    return Fault(page, access, sm, utlb if utlb is not None else sm // 2, 1, ts)


def assemble(faults):
    return assemble_batch(FaultArrays.from_faults(faults), num_sms=8)


class TestDeduplication:
    def test_unique_faults_counted(self):
        batch = assemble([fault(1), fault(2)])
        assert batch.num_unique == 2
        assert batch.dup_same_utlb == 0
        assert batch.dup_cross_utlb == 0

    def test_same_utlb_duplicate(self):
        batch = assemble([fault(1, sm=0), fault(1, sm=1)])
        # SMs 0 and 1 share µTLB 0.
        assert batch.dup_same_utlb == 1
        assert batch.num_unique == 1

    def test_cross_utlb_duplicate(self):
        batch = assemble([fault(1, sm=0), fault(1, sm=2)])
        assert batch.dup_cross_utlb == 1

    def test_third_fault_same_utlb_after_cross(self):
        faults = [fault(1, sm=0), fault(1, sm=2), fault(1, sm=3)]
        batch = assemble(faults)
        # sm=3 shares µTLB 1 with sm=2 (already seen) → type 1.
        assert batch.dup_cross_utlb == 1
        assert batch.dup_same_utlb == 1

    def test_duplicate_count_property(self):
        faults = [fault(1, sm=0), fault(1, sm=0), fault(1, sm=4)]
        batch = assemble(faults)
        assert batch.dup_same_utlb + batch.dup_cross_utlb == 2


class TestAccessStrength:
    def test_write_marks_page(self):
        batch = assemble([fault(1, AccessType.WRITE)])
        assert 1 in batch.blocks[0].write_pages

    def test_write_upgrade_from_later_duplicate(self):
        faults = [fault(1, AccessType.READ, sm=0), fault(1, AccessType.WRITE, sm=2)]
        batch = assemble(faults)
        assert 1 in batch.blocks[0].write_pages

    def test_prefetch_only_tracking(self):
        batch = assemble([fault(1, AccessType.PREFETCH)])
        assert 1 in batch.blocks[0].prefetch_only_pages

    def test_prefetch_upgraded_by_read(self):
        faults = [fault(1, AccessType.PREFETCH, sm=0), fault(1, AccessType.READ, sm=2)]
        batch = assemble(faults)
        assert 1 not in batch.blocks[0].prefetch_only_pages


class TestBlockGrouping:
    def test_groups_by_vablock(self):
        faults = [fault(1), fault(PAGES_PER_VABLOCK + 1), fault(2)]
        batch = assemble(faults)
        assert batch.num_blocks == 2
        assert batch.blocks[0].pages == [1, 2]
        assert batch.blocks[1].pages == [PAGES_PER_VABLOCK + 1]

    def test_block_order_is_first_fault_order(self):
        faults = [fault(PAGES_PER_VABLOCK), fault(0)]
        batch = assemble(faults)
        assert [w.block_id for w in batch.blocks] == [1, 0]

    def test_raw_faults_per_block_include_dups(self):
        faults = [fault(1, sm=0), fault(1, sm=0), fault(2, sm=0)]
        batch = assemble(faults)
        assert batch.blocks[0].raw_faults == 3

    def test_page_order_within_block_preserved(self):
        faults = [fault(5), fault(3), fault(4)]
        batch = assemble(faults)
        assert batch.blocks[0].pages == [5, 3, 4]


class TestSmCounts:
    def test_sm_fault_counts(self):
        faults = [fault(1, sm=0), fault(2, sm=0), fault(3, sm=5)]
        batch = assemble(faults)
        assert batch.sm_fault_counts[0] == 2
        assert batch.sm_fault_counts[5] == 1
        assert batch.sm_fault_counts.sum() == 3

    def test_counts_include_duplicates(self):
        faults = [fault(1, sm=2), fault(1, sm=2)]
        batch = assemble(faults)
        assert batch.sm_fault_counts[2] == 2


class TestEdgeCases:
    def test_empty_batch(self):
        batch = assemble([])
        assert batch.num_raw == 0
        assert batch.num_unique == 0
        assert batch.num_blocks == 0
        assert batch.arrival_window == 0.0

    def test_arrival_window(self):
        faults = [fault(1, ts=10.0), fault(2, ts=12.5)]
        batch = assemble(faults)
        assert batch.arrival_window == pytest.approx(2.5)
