"""Fault-batch assembly and duplicate classification.

The driver "groups outstanding faults into batches in the host-side cache"
(§2.2) and classifies duplicate faults into two types (§4.2):

* **type 1** — faults to the same address from the *same* µTLB (spatial
  locality within a warp/block, or spurious SM wakeups);
* **type 2** — faults to the same address from *different* µTLBs (data
  sharing among blocks on different SMs).

Both are counted here per batch; unique faults are grouped by VABlock since
"the driver processes all batch faults within a single VABlock together"
(§2.2), preserving first-fault order within each block.

:func:`assemble_batch` is one Python pass over the fetched rows, so a batch
costs time in proportion to its faults; NumPy builds only the per-SM fault
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from ..gpu.fault import AccessType, FaultArrays
from ..units import PAGE_SHIFT, VABLOCK_SHIFT

#: Right-shift turning a page id into its VABlock id (the shift form of
#: :func:`repro.units.vablock_of_page`).
_VABLOCK_PAGE_SHIFT = VABLOCK_SHIFT - PAGE_SHIFT
#: Access codes as plain ints: an enum member lookup costs more than the
#: comparison it feeds.
_READ = int(AccessType.READ)
_WRITE = int(AccessType.WRITE)
_PREFETCH = int(AccessType.PREFETCH)


@dataclass
class BlockWork:
    """Unique faulted pages of one VABlock within a batch."""

    block_id: int
    #: Unique faulted pages in first-arrival order.
    pages: List[int] = field(default_factory=list)
    #: Per page of ``pages``: at least one WRITE fault hit it.
    written: List[bool] = field(default_factory=list)
    #: Per page of ``pages``: only PREFETCH instructions demanded it.
    prefetch_only: List[bool] = field(default_factory=list)
    #: Raw fault count attributed to this block (including duplicates).
    raw_faults: int = 0
    #: True for hint-driven bulk migrations (cudaMemPrefetchAsync): no
    #: per-fault servicing cost, no reactive prefetch expansion.
    hinted: bool = False

    @property
    def write_pages(self) -> Set[int]:
        """Pages with at least one WRITE fault (take GPU write ownership)."""
        return {p for p, w in zip(self.pages, self.written) if w}

    @property
    def prefetch_only_pages(self) -> Set[int]:
        """Pages demanded only by PREFETCH instructions."""
        return {p for p, only in zip(self.pages, self.prefetch_only) if only}


@dataclass
class AssembledBatch:
    """A preprocessed fault batch ready for servicing."""

    #: Raw faults in arrival order, as fetched from the buffer.
    faults: FaultArrays
    #: Per-VABlock work items, in first-fault order.
    blocks: List[BlockWork]
    num_unique: int = 0
    dup_same_utlb: int = 0
    dup_cross_utlb: int = 0
    #: Faults per originating SM (length = num_sms), for Table 2.
    sm_fault_counts: np.ndarray = None

    @property
    def num_raw(self) -> int:
        return len(self.faults)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def arrival_window(self) -> float:
        """Time between first and last fault arrival in the batch (Fig 4)."""
        if not self.faults:
            return 0.0
        return self.faults[-1].timestamp - self.faults[0].timestamp


def assemble_batch(faults: FaultArrays, num_sms: int) -> AssembledBatch:
    """Preprocess fetched faults: dedup, classify, group by VABlock.

    Duplicate semantics follow §4.2: the first fault to a page is unique;
    later faults to the same page are type 1 when some earlier fault to that
    page came from the same µTLB, else type 2.  So a duplicate is type 2
    exactly when its ``(page, µTLB)`` pair is new, and the two counts fall
    out of the number of distinct pairs.  A page's access type is the
    strongest seen (WRITE > READ > PREFETCH) — a write fault anywhere makes
    the page a write target, and a demand fault anywhere clears
    prefetch-only.

    One pass over the rows in arrival order keeps a page → slot dict (the
    page's index in its block's ``pages``) and a block dict: a first fault
    opens the page's slot, and its block's work item on the block's first
    fault, so blocks come out in first-fault order and pages in
    first-arrival order within each block.  Every value is a plain Python
    int or bool.  The output equals the per-fault reference assembler's
    (``tests/property/fault_oracle.assemble_batch_scalar``, property-tested).
    """
    flat = faults.flat
    pages = flat[FaultArrays._PAGE :: 5]
    shift = _VABLOCK_PAGE_SHIFT
    works: Dict[int, BlockWork] = {}
    slot: Dict[int, int] = {}
    for page, access in zip(pages, flat[FaultArrays._ACCESS :: 5]):
        i = slot.get(page)
        if i is None:
            block_id = page >> shift
            work = works.get(block_id)
            if work is None:
                works[block_id] = BlockWork(
                    block_id, [page], [access == _WRITE], [access == _PREFETCH], 1
                )
                slot[page] = 0
                continue
            slot[page] = len(work.pages)
            work.pages.append(page)
            work.written.append(access == _WRITE)
            work.prefetch_only.append(access == _PREFETCH)
        else:
            work = works[page >> shift]
            if access == _WRITE:
                work.written[i] = True
                work.prefetch_only[i] = False
            elif access == _READ:
                work.prefetch_only[i] = False
        work.raw_faults += 1

    num_unique = len(slot)
    num_pairs = len(set(zip(pages, flat[FaultArrays._UTLB :: 5])))
    return AssembledBatch(
        faults=faults,
        blocks=list(works.values()),
        num_unique=num_unique,
        dup_same_utlb=len(pages) - num_pairs,
        dup_cross_utlb=num_pairs - num_unique,
        sm_fault_counts=np.bincount(
            np.asarray(flat[FaultArrays._SM :: 5], dtype=np.intp), minlength=num_sms
        ).astype(np.int32),
    )
