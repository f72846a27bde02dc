"""Property-based tests for core driver data structures: batch assembly,
LRU eviction, fault buffer, prefetcher, the page table's per-VABlock reads,
and region arithmetic."""

from collections import Counter, OrderedDict

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import assemble_batch
from repro.core.eviction import LruEvictionPolicy
from repro.core.prefetch import DensityPrefetcher
from repro.core.residency import region_upgrade
from repro.gpu.fault import AccessType, Fault, FaultArrays
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.page_table import GpuPageTable
from tests.blocks import make_block, page_table_with
from tests.property.fault_oracle import write
from repro.units import PAGES_PER_REGION, PAGES_PER_VABLOCK

NUM_SMS = 8

fault_st = st.builds(
    Fault,
    page=st.integers(min_value=0, max_value=2000),
    access=st.sampled_from(list(AccessType)),
    sm_id=st.integers(min_value=0, max_value=NUM_SMS - 1),
    utlb_id=st.integers(min_value=0, max_value=NUM_SMS // 2 - 1),
    warp_uid=st.integers(min_value=1, max_value=50),
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


class TestBatchAssemblyProps:
    @given(st.lists(fault_st, max_size=200))
    def test_conservation(self, faults):
        batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
        assert batch.num_raw == len(faults)
        assert (
            batch.num_unique + batch.dup_same_utlb + batch.dup_cross_utlb
            == len(faults)
        )

    @given(st.lists(fault_st, max_size=200))
    def test_unique_equals_distinct_pages(self, faults):
        batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
        assert batch.num_unique == len({f.page for f in faults})

    @given(st.lists(fault_st, max_size=200))
    def test_block_pages_disjoint_and_complete(self, faults):
        batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
        all_pages = [p for w in batch.blocks for p in w.pages]
        assert len(all_pages) == len(set(all_pages))
        assert set(all_pages) == {f.page for f in faults}

    @given(st.lists(fault_st, max_size=200))
    def test_pages_grouped_into_right_blocks(self, faults):
        batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
        for work in batch.blocks:
            for page in work.pages:
                assert page // PAGES_PER_VABLOCK == work.block_id

    @given(st.lists(fault_st, max_size=200))
    def test_sm_counts_total(self, faults):
        batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
        assert batch.sm_fault_counts.sum() == len(faults)
        counts = Counter(f.sm_id for f in faults)
        for sm, n in counts.items():
            assert batch.sm_fault_counts[sm] == n

    @given(st.lists(fault_st, max_size=200))
    def test_write_pages_subset_of_pages(self, faults):
        batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
        for work in batch.blocks:
            assert work.write_pages <= set(work.pages)
            assert not (work.write_pages & work.prefetch_only_pages)


class TestLruProps:
    @given(st.lists(st.integers(0, 20), max_size=60))
    def test_matches_ordered_dict_model(self, ops):
        """Allocation + fault-touch sequence: victim == model's oldest."""
        lru = LruEvictionPolicy()
        model = OrderedDict()
        for block in ops:
            if block in model:
                lru.on_fault_service(block)
                model.move_to_end(block)
            else:
                lru.on_gpu_allocated(block)
                model[block] = None
        if model:
            assert lru.pick_victim(set()) == next(iter(model))
        assert list(lru.lru_order()) == list(model)

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=30),
        st.sets(st.integers(0, 10)),
    )
    def test_victim_never_excluded(self, blocks, exclude):
        lru = LruEvictionPolicy()
        for b in blocks:
            lru.on_gpu_allocated(b)
        victim = lru.pick_victim(exclude)
        if victim is not None:
            assert victim not in exclude
        else:
            assert set(blocks) <= exclude


class TestFaultBufferProps:
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(0, 1000), max_size=200),
    )
    def test_never_exceeds_capacity(self, capacity, pages):
        buf = FaultBuffer(capacity)
        for p in pages:
            write(buf, Fault(p, AccessType.READ, 0, 0, 1, 0.0))
            assert len(buf) <= capacity

    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(0, 1000), max_size=200),
        st.integers(min_value=0, max_value=300),
    )
    def test_accounting_balances(self, capacity, pages, fetch_n):
        buf = FaultBuffer(capacity)
        for p in pages:
            write(buf, Fault(p, AccessType.READ, 0, 0, 1, 0.0))
        fetched = buf.fetch(fetch_n)
        flushed = buf.flush()
        assert buf.total_pushed == len(fetched) + len(flushed)
        assert buf.total_overflow_dropped == len(pages) - buf.total_pushed

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=64))
    def test_fifo_order_preserved(self, pages):
        buf = FaultBuffer(1000)
        for i, p in enumerate(pages):
            write(buf, Fault(p, AccessType.READ, 0, 0, 1, float(i)))
        fetched = buf.fetch(len(pages))
        assert [f.page for f in fetched] == pages


class TestPrefetcherProps:
    @given(
        st.sets(st.integers(0, PAGES_PER_VABLOCK - 1), min_size=1, max_size=64),
        st.sets(st.integers(0, PAGES_PER_VABLOCK - 1), max_size=128),
    )
    @settings(max_examples=50)
    def test_expansion_within_block_and_disjoint(self, fault_offsets, resident_offsets):
        block = make_block()
        faulted = [o for o in fault_offsets]
        page_table = page_table_with(resident_offsets)
        expanded = DensityPrefetcher().expand(block, faulted, page_table)
        assert expanded <= set(block.valid_page_ids())
        assert not (expanded & set(faulted))
        assert not (expanded & page_table.resident)

    @given(st.sets(st.integers(0, PAGES_PER_VABLOCK - 1), min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_expansion_covers_region_upgrade(self, fault_offsets):
        expanded = DensityPrefetcher().expand(
            make_block(), list(fault_offsets), page_table_with()
        )
        upgraded = region_upgrade(fault_offsets) - fault_offsets
        assert upgraded <= expanded

    @given(st.sets(st.integers(0, PAGES_PER_VABLOCK - 1), min_size=1, max_size=32))
    @settings(max_examples=30)
    def test_monotone_in_threshold(self, fault_offsets):
        """A laxer threshold never prefetches less."""
        faulted = list(fault_offsets)
        strict = DensityPrefetcher(threshold=0.9).expand(make_block(), faulted, page_table_with())
        lax = DensityPrefetcher(threshold=0.3).expand(make_block(), faulted, page_table_with())
        assert strict <= lax


#: One page-table operation over the pages of three VABlocks: migrate
#: (``map``), direct-map (``remote``) or ``unmap`` some pages.
page_op_st = st.tuples(
    st.sampled_from(("map", "remote", "unmap")),
    st.lists(st.integers(0, 3 * PAGES_PER_VABLOCK - 1), max_size=40),
)


class TestPageTableReadProps:
    @given(st.lists(page_op_st, max_size=20))
    @settings(max_examples=60)
    def test_block_reads_match_brute_force(self, ops):
        pt = GpuPageTable()
        for op, pages in ops:
            if op == "map":
                pt.map_pages(pages)
            elif op == "remote":
                # The driver direct-maps only pages the device does not map.
                pt.map_remote([p for p in pages if p not in pt.resident])
            else:
                pt.unmap_pages(pages)
        assert pt.remote <= pt.resident
        for block_id in range(3):
            first = block_id * PAGES_PER_VABLOCK
            span = range(first, first + PAGES_PER_VABLOCK)
            mapped = [p for p in span if p in pt.resident]
            migrated = [p for p in mapped if p not in pt.remote]
            assert pt.pages_of(block_id) == migrated
            assert pt.count_of(block_id) == len(migrated)
            assert pt.has_pages(block_id) == bool(migrated)
            mask = pt.mask_of(block_id)
            assert mask.dtype == bool and mask.shape == (PAGES_PER_VABLOCK,)
            assert (first + np.flatnonzero(mask)).tolist() == mapped


class TestRegionUpgradeProps:
    @given(st.sets(st.integers(0, PAGES_PER_VABLOCK - 1), max_size=64))
    def test_region_aligned_and_covering(self, offsets):
        upgraded = region_upgrade(offsets)
        assert set(offsets) <= upgraded or not offsets
        assert len(upgraded) % PAGES_PER_REGION == 0
        for off in upgraded:
            base = off // PAGES_PER_REGION * PAGES_PER_REGION
            assert set(range(base, base + PAGES_PER_REGION)) <= upgraded
