"""The UVM tree-based density prefetcher.

"The prefetching mechanism is a type of *density prefetching*, sometimes
called *tree-based prefetching* ... The prefetcher's scope is limited to
within a single VABlock and is only reactive; the prefetcher only flags
pages within a VABlock currently being serviced for faults up to the full
VABlock." (paper §5.2)

Algorithm (as described in [2, 14, 21]):

1. Faulted 4 KiB pages are upgraded to their 64 KiB regions (§2.2).
2. A binary tree is (logically) built over the block's 32 regions.  For each
   internal node, bottom-up, if the fraction of the node's pages that are
   resident-or-being-migrated reaches the density threshold (default ½), the
   *entire subtree* is flagged for migration.
3. The root node being dense flags the full 2 MiB VABlock.

The prefetcher never crosses a VABlock boundary — which is why it cannot
eliminate the compulsory DMA-state batches or preempt CPU unmapping in new
blocks (§5.2, §6).  The ``scope_blocks`` ablation (§6 "increasing the
prefetching scope") optionally mirrors a dense block's migration into its
neighbour blocks.
"""

from __future__ import annotations

from typing import Iterable, List, Set

import numpy as np

from ..units import PAGES_PER_REGION, PAGES_PER_VABLOCK
from .residency import region_upgrade
from .vablock import VABlockState


class PrefetcherBase:
    """Interface for within-block prefetch policies.

    ``expand(block, faulted_pages, page_table)`` returns extra *global* page
    ids to migrate along with the faults — always confined to the block's
    valid pages (the UVM prefetcher's hard scope limit, §5.2) and never a
    page ``page_table`` already maps, except through the explicit
    ``scope_blocks`` ablation.
    """

    name = "base"

    def __init__(self, scope_blocks: int = 1) -> None:
        self.scope_blocks = scope_blocks

    def expand(
        self, block: VABlockState, faulted_pages: Iterable[int], page_table
    ) -> Set[int]:
        raise NotImplementedError

    def neighbour_blocks(self, block_id: int) -> List[int]:
        """Blocks covered by an enlarged prefetch scope (ablation only)."""
        if self.scope_blocks <= 1:
            return []
        return [block_id + delta for delta in range(1, self.scope_blocks)]


class DensityPrefetcher(PrefetcherBase):
    """Reactive within-block tree prefetcher (the paper's driver)."""

    name = "density-tree"

    def __init__(self, threshold: float = 0.5, scope_blocks: int = 1) -> None:
        super().__init__(scope_blocks)
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold

    def expand(
        self, block: VABlockState, faulted_pages: Iterable[int], page_table
    ) -> Set[int]:
        """Pages to migrate for ``block`` beyond the faulted set.

        Returns *global* page ids: the 64 KiB upgrades plus every page of
        each subtree whose density crosses the threshold, intersected with
        the block's valid pages and minus the pages ``page_table`` maps and
        the faulted pages themselves.
        """
        first = block.first_page
        faulted = set(faulted_pages)
        if not faulted:
            return set()

        # Density counts migration *evidence*: mapped pages, faulted
        # pages, and their unconditional 64 KiB upgrades (§2.2) — those
        # pages genuinely migrate.  Promoted subtrees do NOT feed back into
        # density: with strictly-greater comparison a promoted child is
        # exactly half its parent, so self-feedback would cascade a single
        # fault in an empty block to the full 2 MiB.
        mapped = page_table.mask_of(block.block_id)
        density_mask = mapped.copy()
        fault_off = np.fromiter(faulted, dtype=np.int64, count=len(faulted)) - first
        # Unconditional 64 KiB upgrade (§2.2), vectorized: every region
        # containing a faulted page contributes all of its pages.
        region_bases = np.unique(fault_off - fault_off % PAGES_PER_REGION)
        density_mask[
            (region_bases[:, None] + np.arange(PAGES_PER_REGION)).ravel()
        ] = True

        # Valid mask (tail blocks are partial).
        valid = block.valid_pages
        density_mask &= valid

        fetch = density_mask.copy()

        # Bottom-up density test over power-of-two page spans:
        # 16 (region) → 32 → 64 → 128 → 256 → 512 pages.
        span = PAGES_PER_REGION
        while span <= PAGES_PER_VABLOCK:
            nodes = PAGES_PER_VABLOCK // span
            occ_nodes = density_mask.reshape(nodes, span)
            valid_nodes = valid.reshape(nodes, span)
            valid_counts = valid_nodes.sum(axis=1)
            occ_counts = (occ_nodes & valid_nodes).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                density = np.where(valid_counts > 0, occ_counts / np.maximum(valid_counts, 1), 0.0)
            dense = density > self.threshold
            # Flag entire dense subtrees for fetching.
            expand_mask = np.repeat(dense, span) & valid
            fetch |= expand_mask
            span *= 2

        # Exclude already-mapped pages and the faulted set itself.
        fetch &= ~mapped
        fetch[fault_off] = False
        return set((first + np.nonzero(fetch)[0]).tolist())


class RegionOnlyPrefetcher(PrefetcherBase):
    """Only the compulsory 4 KiB → 64 KiB upgrade (§2.2), no tree growth.

    Isolates how much of prefetching's win comes from the page-size upgrade
    alone versus the density tree above it.
    """

    name = "region-only"

    def expand(
        self, block: VABlockState, faulted_pages: Iterable[int], page_table
    ) -> Set[int]:
        faulted = set(faulted_pages)
        if not faulted:
            return set()
        first = block.first_page
        upgraded = region_upgrade([p - first for p in faulted])
        out = set()
        for off in upgraded:
            page = first + off
            if (
                block.valid_pages[off]
                and page not in page_table.resident
                and page not in faulted
            ):
                out.add(page)
        return out


class SequentialPrefetcher(PrefetcherBase):
    """Classic next-N sequential prefetch after each faulted page.

    A common CPU-style policy; it has no notion of density, so sparse
    patterns drag in useless pages and dense patterns under-fetch relative
    to the tree (the comparison the ablation bench makes).
    """

    name = "sequential"

    def __init__(self, distance: int = 16, scope_blocks: int = 1) -> None:
        super().__init__(scope_blocks)
        if distance <= 0:
            raise ValueError("distance must be positive")
        self.distance = distance

    def expand(
        self, block: VABlockState, faulted_pages: Iterable[int], page_table
    ) -> Set[int]:
        faulted = set(faulted_pages)
        first = block.first_page
        end = first + PAGES_PER_VABLOCK
        out: Set[int] = set()
        for page in faulted:
            for nxt in range(page + 1, min(page + 1 + self.distance, end)):
                if (
                    block.valid_pages[nxt - first]
                    and nxt not in page_table.resident
                    and nxt not in faulted
                ):
                    out.add(nxt)
        return out


class FullBlockPrefetcher(PrefetcherBase):
    """Any fault pulls the entire VABlock (maximal within-scope policy)."""

    name = "full-block"

    def expand(
        self, block: VABlockState, faulted_pages: Iterable[int], page_table
    ) -> Set[int]:
        faulted = set(faulted_pages)
        if not faulted:
            return set()
        return {
            p
            for p in block.valid_page_ids()
            if p not in page_table.resident and p not in faulted
        }


#: Registry for ``DriverConfig.prefetch_policy``.
PREFETCH_POLICIES = {
    "density-tree": DensityPrefetcher,
    "region-only": RegionOnlyPrefetcher,
    "sequential": SequentialPrefetcher,
    "full-block": FullBlockPrefetcher,
}


def make_prefetcher(name: str, threshold: float = 0.5, scope_blocks: int = 1) -> PrefetcherBase:
    """Instantiate a registered prefetch policy by name."""
    if name not in PREFETCH_POLICIES:
        raise ValueError(
            f"unknown prefetch policy {name!r}; choose from {sorted(PREFETCH_POLICIES)}"
        )
    if name == "density-tree":
        return DensityPrefetcher(threshold=threshold, scope_blocks=scope_blocks)
    return PREFETCH_POLICIES[name](scope_blocks=scope_blocks)
