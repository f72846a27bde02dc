"""GPU page table: which managed pages are mapped on the device.

The driver updates the GPU's page tables after migrating data and before
issuing the fault replay (paper §2.1).  This is the simulator's one
residency store: a plain ``set`` of global page ids — the hot structure
warps consult when deciding whether an access faults — plus the subset of
those pages that are direct-mapped (cudaMemAdviseSetAccessedBy) rather
than migrated.  The driver's per-VABlock questions (a block's migrated
pages, their count, whether it has any, its density mask) are answered
here by reading the block's 512 page ids against the set; no VABlock
keeps a copy.
"""

from __future__ import annotations

from typing import Collection, List, Set

import numpy as np

from ..units import PAGES_PER_VABLOCK, first_page_of_vablock


class GpuPageTable:
    """Set-semantics GPU page table with mapping counters."""

    __slots__ = ("resident", "remote", "total_mapped", "total_unmapped")

    def __init__(self) -> None:
        #: Global page ids currently mapped on the device: migrated pages
        #: and remote (accessed-by) mappings alike.
        self.resident: Set[int] = set()
        #: The ``resident`` pages that are direct-mapped over the
        #: interconnect (accessed-by): mapped, but never migrated.
        self.remote: Set[int] = set()
        self.total_mapped = 0
        self.total_unmapped = 0

    def is_resident(self, page: int) -> bool:
        return page in self.resident

    def map_pages(self, pages: Collection[int]) -> int:
        """Install mappings of migrated pages; returns the number of
        newly-mapped pages."""
        before = len(self.resident)
        self.resident.update(pages)
        added = len(self.resident) - before
        self.total_mapped += added
        return added

    def map_remote(self, pages: Collection[int]) -> int:
        """Direct-map unmapped ``pages`` (accessed-by); returns how many."""
        self.remote.update(pages)
        return self.map_pages(pages)

    def unmap_pages(self, pages: Collection[int]) -> int:
        """Remove mappings, migrated or remote; returns pages actually
        removed."""
        before = len(self.resident)
        self.resident.difference_update(pages)
        if self.remote:
            self.remote.difference_update(pages)
        removed = before - len(self.resident)
        self.total_unmapped += removed
        return removed

    # ------------------------------------------------------ per-VABlock reads

    def pages_of(self, block_id: int) -> List[int]:
        """VABlock ``block_id``'s migrated pages, ascending."""
        first = first_page_of_vablock(block_id)
        pages = list(filter(self.resident.__contains__, range(first, first + PAGES_PER_VABLOCK)))
        if self.remote:
            pages = [p for p in pages if p not in self.remote]
        return pages

    def count_of(self, block_id: int) -> int:
        """How many pages of VABlock ``block_id`` are migrated."""
        return len(self.pages_of(block_id))

    def has_pages(self, block_id: int) -> bool:
        """True when VABlock ``block_id`` has a migrated page."""
        first = first_page_of_vablock(block_id)
        span = range(first, first + PAGES_PER_VABLOCK)
        if self.remote:
            return any(p not in self.remote for p in self.resident.intersection(span))
        return not self.resident.isdisjoint(span)

    def mask_of(self, block_id: int) -> np.ndarray:
        """Bool mask over VABlock ``block_id``'s 512 pages: True where the
        device maps the page (migrated or remote), so the prefetcher counts
        it as density and never fetches it."""
        first = first_page_of_vablock(block_id)
        return np.fromiter(
            map(self.resident.__contains__, range(first, first + PAGES_PER_VABLOCK)),
            dtype=bool,
            count=PAGES_PER_VABLOCK,
        )

    def __len__(self) -> int:
        return len(self.resident)
