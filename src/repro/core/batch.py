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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

import numpy as np

from ..gpu.fault import AccessType, FaultArrays
from ..units import PAGE_SHIFT, VABLOCK_SHIFT

#: Right-shift turning a page id into its VABlock id (array form of
#: :func:`repro.units.vablock_of_page`).
_VABLOCK_PAGE_SHIFT = VABLOCK_SHIFT - PAGE_SHIFT
#: Access codes as plain ints: an enum member lookup costs more than the
#: array comparison it feeds.
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
    page came from the same µTLB, else type 2.  A page's access type is the
    strongest seen (WRITE > READ > PREFETCH) — a write fault anywhere makes
    the page a write target.

    The bookkeeping is mask algebra over the fault columns:

    * *unique* faults are first occurrences of a page: run heads of the
      page-sorted column, with each page's earliest arrival recovered by
      ``np.minimum.reduceat`` over the (unstable, faster) argsort;
    * §4.2 type-1 vs type-2 duplicates fall out of first occurrences of the
      ``(page, µTLB)`` pair — a duplicate whose pair is fresh crossed µTLBs
      (type 2), a repeated pair stayed within one (type 1);
    * the strongest-access upgrade (WRITE > READ > PREFETCH) is a pair of
      boolean scatters (any WRITE → write page; any demand → not
      prefetch-only);
    * per-VABlock grouping falls out of the sorted unique pages (block run
      heads need no second sort), blocks order by earliest contained
      arrival, and the final replay-target ordering is one quicksort of a
      fused ``block_rank * n + first_arrival`` key — unique keys make the
      unstable sort order-deterministic.

    Output matches a per-fault reference assembler exactly
    (property-tested): plain Python ints everywhere (``tolist()``), blocks
    in first-fault-arrival order, pages in first-arrival order within each
    block.
    """
    n = len(faults)
    if n == 0:
        return AssembledBatch(
            faults=faults,
            blocks=[],
            sm_fault_counts=np.zeros(num_sms, dtype=np.int32),
        )

    pages = faults.pages_array()
    accesses = faults.accesses_array()
    utlb_ids = faults.utlb_ids_array()
    sm_counts = np.bincount(faults.sm_ids_array(), minlength=num_sms).astype(
        np.int32
    )

    # One sort yields the whole page dedup: first occurrences are the run
    # heads of the sorted column.  The sort need not be stable — each page's
    # earliest arrival is recovered as the minimum argsort index per run,
    # and the page-rank scatter below is order-insensitive within a run.
    order = pages.argsort()
    sorted_pages = pages[order]
    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=is_first[1:])
    run_starts = is_first.nonzero()[0]
    uniq_pages = sorted_pages[run_starts]
    first_idx = np.minimum.reduceat(order, run_starts)
    inv = np.empty(n, dtype=np.int64)
    inv[order] = is_first.cumsum() - 1
    num_unique = int(uniq_pages.size)

    # §4.2 duplicate classification via (page, µTLB) pair dedup: a duplicate
    # whose pair is fresh crossed µTLBs (type 2), a repeated pair stayed
    # within one (type 1).
    pair_keys = inv * (int(utlb_ids.max()) + 1) + utlb_ids
    pair_keys.sort()
    num_pairs = 1 + int(np.count_nonzero(pair_keys[1:] != pair_keys[:-1]))
    dup_same = n - num_pairs
    dup_cross = num_pairs - num_unique

    # Strongest access per unique page (WRITE > READ > PREFETCH) as two
    # boolean scatters: a page is a write target iff any WRITE hit it, and
    # prefetch-only iff no demand (READ/WRITE) access ever did.
    page_written = np.zeros(num_unique, dtype=bool)
    page_written[inv[accesses == _WRITE]] = True
    page_demanded = np.zeros(num_unique, dtype=bool)
    page_demanded[inv[accesses != _PREFETCH]] = True

    # Group by VABlock.  ``uniq_pages`` is sorted, so its block column is
    # too: block membership is just run heads — no second sort.  Blocks
    # order by their earliest contained fault arrival, and pages group into
    # (block_rank, first_arrival) order via one quicksort of a fused key
    # (both components < n, so keys are unique and the unstable sort is
    # order-deterministic).
    page_blocks = uniq_pages >> _VABLOCK_PAGE_SHIFT
    is_first_blk = np.empty(num_unique, dtype=bool)
    is_first_blk[0] = True
    np.not_equal(page_blocks[1:], page_blocks[:-1], out=is_first_blk[1:])
    blk_starts = is_first_blk.nonzero()[0]
    uniq_blocks = page_blocks[blk_starts]
    num_blocks = int(uniq_blocks.size)
    blk_inv = is_first_blk.cumsum() - 1
    block_arrival = np.minimum.reduceat(first_idx, blk_starts)
    block_order = block_arrival.argsort()  # unique values: quicksort ok
    block_rank = np.empty(num_blocks, dtype=np.int64)
    block_rank[block_order] = np.arange(num_blocks)
    perm = (block_rank[blk_inv] * n + first_idx).argsort()
    grouped_pages = uniq_pages[perm]
    grouped_written = page_written[perm]
    grouped_prefetch_only = ~page_demanded[perm]
    blk_ends = np.empty(num_blocks, dtype=np.int64)
    blk_ends[:-1] = blk_starts[1:]
    blk_ends[-1] = num_unique
    run_bounds = np.concatenate(([0], np.cumsum((blk_ends - blk_starts)[block_order])))

    # Raw (duplicate-inclusive) fault count per block: every fault's block
    # slot is its unique-page slot's block slot — two fancy-index hops, no
    # binary search.
    raw_counts = np.bincount(blk_inv[inv], minlength=num_blocks)

    # One ``tolist`` per column, then list slices per block.
    page_list = grouped_pages.tolist()
    written_list = grouped_written.tolist()
    prefetch_only_list = grouped_prefetch_only.tolist()
    bounds = run_bounds.tolist()
    blocks = [
        BlockWork(
            block_id, page_list[lo:hi], written_list[lo:hi], prefetch_only_list[lo:hi], raw
        )
        for block_id, raw, lo, hi in zip(
            uniq_blocks[block_order].tolist(),
            raw_counts[block_order].tolist(),
            bounds,
            bounds[1:],
        )
    ]

    return AssembledBatch(
        faults=faults,
        blocks=blocks,
        num_unique=num_unique,
        dup_same_utlb=dup_same,
        dup_cross_utlb=dup_cross,
        sm_fault_counts=sm_counts,
    )
