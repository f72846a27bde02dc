"""VABlock state: the driver's 2 MiB logical processing unit.

"The driver splits all memory allocations into 2MB logical Virtual Address
Blocks (VABlocks).  These VABlocks serve as logical boundaries; the driver
processes all batch faults within a single VABlock together, and each
VABlock within a batch requires a distinct processing step. ... If eviction
is required, UVM evicts allocations at the VABlock granularity." (paper §2.2)

Each :class:`VABlockState` tracks exactly the per-block facts the paper's
cost analysis turns on:

* ``valid_pages`` — a 512-entry bool mask of the pages a managed
  allocation covers (a tail block may be partial), built at registration.
* ``gpu_chunk`` — the 2 MiB physical chunk backing the block (None when not
  device-resident; set on first fault, cleared by eviction).
* ``dma_initialized`` — whether the compulsory first-access DMA-state burst
  (per-page mappings + radix-tree inserts, §5.2) has been paid.
* ``evict_count`` — how many times the block has been evicted (Fig 12/13
  stratify batches by this).

Which of a block's pages are mapped on the GPU is not block state: the
:class:`~repro.gpu.page_table.GpuPageTable` is the one residency store,
and :func:`phase_of` reads a block's phase from its chunk plus the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import AllocationError
from ..units import (
    PAGES_PER_VABLOCK,
    first_page_of_vablock,
    vablock_of_page,
)


class VABlockPhase(enum.Enum):
    """Observable lifecycle phase of a VABlock (paper §2.2/§5.1).

    The phase is *derived* (:func:`phase_of`) from the block's chunk and
    the GPU page table rather than stored, so it can never drift from the
    state it summarizes:

    * ``REGISTERED`` — known to the driver, no physical chunk, no resident
      pages (fresh allocations, and blocks after eviction);
    * ``ALLOCATED`` — holds a 2 MiB device chunk but no pages are mapped
      yet (mid-service, or after the CPU pulled every page back);
    * ``RESIDENT`` — holds a chunk with one or more migrated pages.
    """

    REGISTERED = "registered"
    ALLOCATED = "allocated"
    RESIDENT = "resident"


#: Legal phase transitions for the sanitizer's state-machine check.
#: Self-transitions are always legal (no observable change).  The one
#: forbidden edge the fault path must never produce is
#: REGISTERED → RESIDENT: pages can only become resident through a block
#: that first obtained a physical chunk (§5.1 fail-allocation ordering).
LEGAL_PHASE_TRANSITIONS: FrozenSet[Tuple[VABlockPhase, VABlockPhase]] = frozenset(
    {
        (VABlockPhase.REGISTERED, VABlockPhase.ALLOCATED),   # chunk granted
        (VABlockPhase.ALLOCATED, VABlockPhase.RESIDENT),     # pages mapped
        (VABlockPhase.ALLOCATED, VABlockPhase.REGISTERED),   # evicted empty
        (VABlockPhase.RESIDENT, VABlockPhase.REGISTERED),    # evicted
        (VABlockPhase.RESIDENT, VABlockPhase.ALLOCATED),     # CPU pulled all pages back
    }
)


def legal_transition(old: VABlockPhase, new: VABlockPhase) -> bool:
    """True when ``old → new`` is a legal VABlock phase transition."""
    return old == new or (old, new) in LEGAL_PHASE_TRANSITIONS


def phase_of(block: "VABlockState", page_table) -> VABlockPhase:
    """``block``'s :class:`VABlockPhase`, from its chunk and ``page_table``."""
    if block.gpu_chunk is None:
        return VABlockPhase.REGISTERED
    if page_table.has_pages(block.block_id):
        return VABlockPhase.RESIDENT
    return VABlockPhase.ALLOCATED


@dataclass(eq=False)
class VABlockState:
    """Driver-side state for one 2 MiB VABlock."""

    block_id: int
    #: Bool mask over the block's 512 pages: True where a managed
    #: allocation covers the page (a tail block may be partial).
    valid_pages: np.ndarray
    #: Physical chunk id on the device, or None.
    gpu_chunk: Optional[int] = None
    #: Compulsory DMA/radix state created (once per block lifetime).
    dma_initialized: bool = False
    #: Number of times this block has been evicted.
    evict_count: int = 0
    #: Monotonic allocation stamp (LRU ordering uses GPU-allocation order).
    alloc_stamp: int = -1
    #: cudaMemAdviseSetReadMostly: migrations *duplicate* instead of moving —
    #: host mappings stay intact and host copies stay valid; a GPU write
    #: collapses the duplication (costing the deferred unmap).
    read_mostly: bool = False

    @property
    def first_page(self) -> int:
        return first_page_of_vablock(self.block_id)

    @property
    def num_valid_pages(self) -> int:
        return int(np.count_nonzero(self.valid_pages))

    def valid_page_ids(self) -> List[int]:
        """The block's valid pages as global page ids, ascending."""
        return (self.first_page + np.flatnonzero(self.valid_pages)).tolist()

    @property
    def is_gpu_allocated(self) -> bool:
        return self.gpu_chunk is not None

    def page_offset(self, page: int) -> int:
        return page - self.first_page


class VABlockManager:
    """Registry of VABlocks for all managed allocations."""

    def __init__(self) -> None:
        self._blocks: Dict[int, VABlockState] = {}
        self._stamp = 0
        #: Bumped by every registration, the only writer of any block's
        #: ``valid_pages`` (checkpoints re-pickle the layout only when it
        #: moved).
        self.version = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def register_allocation(self, start_page: int, num_pages: int) -> List[VABlockState]:
        """Register a managed allocation's pages, creating block states.

        Allocations are VABlock-aligned (the API's address-space allocator
        guarantees this), so a block never spans two allocations.
        """
        if num_pages <= 0:
            raise AllocationError("allocation must contain at least one page")
        created: List[VABlockState] = []
        self.version += 1
        end_page = start_page + num_pages
        page = start_page
        while page < end_page:
            block_id = vablock_of_page(page)
            block_first = first_page_of_vablock(block_id)
            block_end = block_first + PAGES_PER_VABLOCK
            span_end = min(end_page, block_end)
            state = self._blocks.get(block_id)
            if state is None:
                state = VABlockState(
                    block_id=block_id,
                    valid_pages=np.zeros(PAGES_PER_VABLOCK, dtype=bool),
                )
                self._blocks[block_id] = state
                created.append(state)
            state.valid_pages[page - block_first:span_end - block_first] = True
            page = span_end
        return created

    def valid_pages_by_block(self) -> Dict[int, np.ndarray]:
        """Every block's ``valid_pages``, by block id."""
        return {block_id: b.valid_pages for block_id, b in self._blocks.items()}

    def set_valid_pages(self, pages_by_block: Dict[int, np.ndarray]) -> None:
        """Install :meth:`valid_pages_by_block`'s masks on the blocks."""
        for block_id, pages in pages_by_block.items():
            self._blocks[block_id].valid_pages = pages

    def get(self, block_id: int) -> VABlockState:
        return self._blocks[block_id]

    def get_for_page(self, page: int) -> VABlockState:
        return self._blocks[vablock_of_page(page)]

    def blocks(self) -> Iterable[VABlockState]:
        return self._blocks.values()

    def next_stamp(self) -> int:
        """Monotonic stamp for GPU-allocation ordering (LRU)."""
        self._stamp += 1
        return self._stamp
