"""Unit tests for VABlock management and the 64 KiB region upgrade."""

import numpy as np
import pytest

from repro.core.residency import region_upgrade
from repro.core.vablock import VABlockManager, VABlockState
from repro.errors import AllocationError
from repro.units import PAGES_PER_REGION, PAGES_PER_VABLOCK


class TestVABlockManager:
    def test_register_single_block(self):
        mgr = VABlockManager()
        created = mgr.register_allocation(0, 100)
        assert len(created) == 1
        assert created[0].block_id == 0
        assert created[0].num_valid_pages == 100

    def test_register_spanning_blocks(self):
        mgr = VABlockManager()
        created = mgr.register_allocation(0, PAGES_PER_VABLOCK + 10)
        assert [b.block_id for b in created] == [0, 1]
        assert created[0].num_valid_pages == PAGES_PER_VABLOCK
        assert created[1].num_valid_pages == 10

    def test_register_unaligned_start(self):
        mgr = VABlockManager()
        created = mgr.register_allocation(PAGES_PER_VABLOCK + 5, 10)
        assert created[0].block_id == 1
        assert created[0].valid_page_ids() == list(range(517, 527))
        assert created[0].valid_pages.dtype == bool
        assert created[0].valid_pages.shape == (PAGES_PER_VABLOCK,)

    def test_zero_pages_rejected(self):
        with pytest.raises(AllocationError):
            VABlockManager().register_allocation(0, 0)

    def test_get_for_page(self):
        mgr = VABlockManager()
        mgr.register_allocation(0, 2 * PAGES_PER_VABLOCK)
        assert mgr.get_for_page(PAGES_PER_VABLOCK).block_id == 1

    def test_contains(self):
        mgr = VABlockManager()
        mgr.register_allocation(0, 10)
        assert 0 in mgr
        assert 1 not in mgr

    def test_stamps_monotonic(self):
        mgr = VABlockManager()
        assert mgr.next_stamp() < mgr.next_stamp()



class TestVABlockState:
    def test_first_page(self):
        state = VABlockState(block_id=3, valid_pages=np.zeros(PAGES_PER_VABLOCK, dtype=bool))
        assert state.first_page == 3 * PAGES_PER_VABLOCK

    def test_page_offset(self):
        state = VABlockState(block_id=1, valid_pages=np.zeros(PAGES_PER_VABLOCK, dtype=bool))
        assert state.page_offset(PAGES_PER_VABLOCK + 7) == 7

    def test_is_gpu_allocated(self):
        state = VABlockState(block_id=0, valid_pages=np.zeros(PAGES_PER_VABLOCK, dtype=bool))
        assert not state.is_gpu_allocated
        state.gpu_chunk = 0
        assert state.is_gpu_allocated


class TestRegionUpgrade:
    def test_single_page_expands_to_region(self):
        upgraded = region_upgrade([0])
        assert upgraded == set(range(PAGES_PER_REGION))

    def test_mid_region_page(self):
        upgraded = region_upgrade([PAGES_PER_REGION + 3])
        assert upgraded == set(range(PAGES_PER_REGION, 2 * PAGES_PER_REGION))

    def test_two_pages_same_region(self):
        assert len(region_upgrade([0, 5])) == PAGES_PER_REGION

    def test_two_pages_distinct_regions(self):
        upgraded = region_upgrade([0, PAGES_PER_REGION])
        assert len(upgraded) == 2 * PAGES_PER_REGION

    def test_empty(self):
        assert region_upgrade([]) == set()

