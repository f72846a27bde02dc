"""Hand-built VABlocks and page tables for unit and property tests."""

from __future__ import annotations

import numpy as np

from repro.core.vablock import VABlockState
from repro.gpu.page_table import GpuPageTable
from repro.units import PAGES_PER_VABLOCK


def make_block(block_id=0, valid_pages=None, **fields) -> VABlockState:
    """A VABlock whose valid-page mask covers the global page ids
    ``valid_pages`` (default: every page of the block)."""
    first = block_id * PAGES_PER_VABLOCK
    mask = np.zeros(PAGES_PER_VABLOCK, dtype=bool)
    if valid_pages is None:
        mask[:] = True
    else:
        mask[np.asarray([p - first for p in valid_pages], dtype=np.int64)] = True
    return VABlockState(block_id=block_id, valid_pages=mask, **fields)


def page_table_with(pages=()) -> GpuPageTable:
    """A page table mapping ``pages`` as migrated pages."""
    page_table = GpuPageTable()
    page_table.map_pages(pages)
    return page_table
