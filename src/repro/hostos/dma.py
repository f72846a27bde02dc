"""DMA mapping layer backed by the radix tree.

When a VABlock is first touched by the GPU, the driver must "(1) create DMA
mappings for every page in the VABlock to the GPU, so that the GPU can copy
data between the host and GPU within that region, and (2) create reverse DMA
address mappings and store them in a radix tree" (paper §5.2).  These
batches are compulsory per block and cannot be eliminated by prefetching.

:class:`DmaMapper` performs both steps for a set of pages and reports the
numbers the cost model charges: mappings created, radix nodes allocated, and
slab refills crossed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import DmaMapFault
from .cost_model import CostModel
from .radix_tree import RadixTree


@dataclass(frozen=True)
class DmaMapResult:
    """Accounting from one mapping burst."""

    new_mappings: int
    new_nodes: int
    slab_refills: int
    cost_usec: float


class DmaMapper:
    """Creates per-page DMA mappings with reverse lookups in a radix tree."""

    #: Fake IOMMU base so DMA addresses are distinguishable from page ids.
    DMA_BASE = 1 << 40

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self.reverse = RadixTree()
        #: Bumped whenever ``reverse`` changes (checkpoints re-pickle the
        #: tree only when it moved).
        self.version = 0
        self.total_mappings = 0
        self._slab_refills_done = 0
        #: Attached fault injector, or None (the common, zero-cost case).
        self._inj = None
        #: Injected transient mapping failures (chaos testing only).
        self.failed_maps = 0

    def attach_injector(self, injector) -> None:
        """Enable the ``dma.map_fail`` injection site on this mapper."""
        self._inj = injector

    def dma_address_of(self, page: int) -> int:
        """Deterministic DMA address assigned to ``page``."""
        return self.DMA_BASE + (page << 12)

    def is_mapped(self, page: int) -> bool:
        return page in self.reverse

    def map_pages(self, pages: Iterable[int]) -> DmaMapResult:
        """Create mappings for every not-yet-mapped page in ``pages``.

        Under chaos testing the whole burst may fail transiently
        (:class:`repro.errors.DmaMapFault`, the IOMMU/IOVA-exhaustion
        model).  The failure fires *before* the radix tree is touched, so a
        retried call sees untouched state.
        """
        pages = list(pages)
        if self._inj is not None and self._inj.fire("dma.map_fail"):
            self.failed_maps += 1
            raise DmaMapFault(len(pages))
        nodes_before = self.reverse.nodes_allocated
        new_mappings = 0
        for page in pages:
            if self.reverse.insert(page, self.dma_address_of(page)):
                new_mappings += 1
        new_nodes = self.reverse.nodes_allocated - nodes_before
        if new_mappings:
            self.version += 1
        slab_refills = self._consume_slab(new_nodes)
        cost = self.cost_model.dma_cost(new_mappings, new_nodes, slab_refills)
        self.total_mappings += new_mappings
        return DmaMapResult(new_mappings, new_nodes, slab_refills, cost)

    def unmap_pages(self, pages: Iterable[int]) -> int:
        """Destroy mappings (teardown path); returns mappings removed."""
        removed = 0
        for page in pages:
            if self.reverse.delete(page) is not None:
                removed += 1
        if removed:
            self.version += 1
        self.total_mappings -= removed
        return removed

    def _consume_slab(self, new_nodes: int) -> int:
        """Number of slab refills crossed by allocating ``new_nodes``."""
        if new_nodes <= 0:
            return 0
        slab = self.cost_model.radix_slab_size
        before = self.reverse.nodes_allocated - new_nodes
        return (self.reverse.nodes_allocated // slab) - (before // slab)
