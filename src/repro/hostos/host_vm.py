"""Host virtual-memory state for managed pages.

UVM is "built on top of the existing virtual memory system in the Linux
kernel" (paper §4.4): when the GPU touches a VABlock that is partially
resident on the CPU, the driver calls ``unmap_mapping_range()`` to unmap all
host-resident pages of that block on the fault path — the single most
surprising cost the paper identifies.

Per managed page we track:

* ``mapped`` — a host PTE exists (the CPU has touched the page since
  allocation, or re-touched it after migration).  Only mapped pages incur
  unmap cost; this is what creates the Fig 13 "levels": a block that was
  evicted from the GPU is *not* remapped on the host unless the CPU accesses
  it, so paging it back in skips the unmap cost.
* ``valid`` — the host copy of the page holds current data (set by CPU
  writes and by evictions; cleared when the GPU takes ownership by writing).
* ``touch_thread`` — the CPU thread that first touched the page, which
  determines TLB-shootdown spread during unmapping (Fig 11).

A per-VABlock count of mapped pages, kept on touch and unmap, answers the
driver's "is this block partially host-resident?" in O(1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Set

from ..units import PAGE_SHIFT, VABLOCK_SHIFT

#: Right-shift turning a page id into its VABlock id.
_BLOCK_SHIFT = VABLOCK_SHIFT - PAGE_SHIFT


@dataclass(frozen=True)
class UnmapStats:
    """What one ``unmap_mapping_range()`` call had to do."""

    pages_unmapped: int
    distinct_threads: int


class HostVm:
    """Host-side page state table."""

    def __init__(self) -> None:
        self.mapped: Set[int] = set()
        self.valid: Set[int] = set()
        self.touch_thread: Dict[int, int] = {}
        #: VABlock id -> its number of ``mapped`` pages (absent when 0).
        self.mapped_per_block: Dict[int, int] = {}
        self.total_unmap_calls = 0
        self.total_pages_unmapped = 0

    # ------------------------------------------------------------ CPU side

    def cpu_touch(self, pages: Iterable[int], thread_of) -> int:
        """CPU accesses ``pages``; ``thread_of(page) -> thread id``.

        Marks pages mapped and valid, recording the first-touch thread.
        Returns the number of pages newly mapped.
        """
        fresh = []
        for page in pages:
            if page not in self.mapped:
                fresh.append(page)
                self.mapped.add(page)
                self.touch_thread[page] = thread_of(page)
            self.valid.add(page)
        self._count_mapped(fresh, 1)
        return len(fresh)

    # --------------------------------------------------------- driver side

    def mapped_pages_of(self, block_id: int) -> int:
        """How many pages of VABlock ``block_id`` the host has mapped."""
        return self.mapped_per_block.get(block_id, 0)

    def unmap_range(self, pages: Iterable[int]) -> UnmapStats:
        """unmap_mapping_range() over a VABlock's pages.

        Clears host mappings (data validity is unaffected; migration is a
        separate copy) and reports the distinct first-touch threads whose
        cores need TLB shootdowns.
        """
        victims = self.mapped.intersection(pages)
        threads = {self.touch_thread[p] for p in victims if p in self.touch_thread}
        self.mapped.difference_update(victims)
        self._count_mapped(victims, -1)
        self.total_unmap_calls += 1
        self.total_pages_unmapped += len(victims)
        return UnmapStats(pages_unmapped=len(victims), distinct_threads=len(threads))

    def _count_mapped(self, pages: Iterable[int], sign: int) -> None:
        """Add ``sign`` per page to its VABlock's mapped-page count."""
        counts = self.mapped_per_block
        for block_id, n in Counter(page >> _BLOCK_SHIFT for page in pages).items():
            left = counts.get(block_id, 0) + sign * n
            if left:
                counts[block_id] = left
            else:
                del counts[block_id]

    def mark_valid(self, pages: Iterable[int]) -> None:
        """Host copy became current (eviction landed data back on host)."""
        self.valid.update(pages)

    def invalidate(self, pages: Iterable[int]) -> None:
        """Host copy went stale (GPU gained write ownership)."""
        self.valid.difference_update(pages)

    def has_valid_data(self, page: int) -> bool:
        return page in self.valid
