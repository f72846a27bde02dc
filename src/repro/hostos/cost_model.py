"""Calibrated microsecond cost model for every fault-path operation.

Every simulated cost lives here, in one documented place, so experiments can
override any constant via ``SystemConfig.cost_overrides`` and ablations can
reason about exactly one knob at a time.

Calibration targets (the paper's *measured shapes*, not absolute numbers):

* **Transfer is a minority cost** — Fig 7: data transfer is at most ~25 % of
  batch time and typically far lower.  Per 4 KiB page, management costs
  (fetch + preprocess + page-table + population + DMA map + amortized unmap)
  sum to several times the ~0.33 µs wire time.
* **Host OS costs dominate first-touch batches** — §4.4/§5.2:
  ``unmap_mapping_range()`` bursts and VABlock DMA-state initialization are
  the largest single components when they occur.
* **Multithreaded first-touch inflates unmapping** — Fig 11: pages mapped by
  many CPU threads require cross-core TLB shootdowns; HPGMG with default
  OpenMP threading is ~2× slower end-to-end than single-threaded.
* **Radix-tree growth causes intermittent spikes** — Fig 14/15: node
  allocations hit a slab-refill slow path periodically.
* **Fault arrival is fast** — Fig 4: faults from a warp arrive within
  fractions of a µs of each other; batch servicing dwarfs generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import GB


@dataclass
class CostModel:
    """All simulated cost constants (µs unless noted)."""

    # ------------------------------------------------------------ driver path
    #: Worker-thread wakeup after an interrupt when it was sleeping (§2.2).
    interrupt_wake_usec: float = 15.0
    #: Fixed cost of starting a fault-buffer fetch: worker dispatch, fault
    #: buffer GET/PUT pointer MMIO reads over the interconnect, VA-space
    #: lock acquisition.
    fetch_base_usec: float = 10.0
    #: Per-fault cost of reading entries out of the GPU fault buffer.
    #: Entries are read in bulk (cache-line-sized MMIO bursts), so the
    #: amortized per-entry cost is small — which is why accepting extra
    #: duplicates in a large batch beats paying another batch's fixed
    #: overhead (§4.2 / Fig 9).
    fetch_per_fault_usec: float = 0.08
    #: Fixed cost of batch preprocessing (sort by address, dedup pass).
    preprocess_base_usec: float = 2.0
    #: Per-fault preprocessing cost.
    preprocess_per_fault_usec: float = 0.02
    #: Per-unique-faulted-page servicing cost: VMA/policy lookup, residency
    #: decision, per-page service bookkeeping (uvm_va_block_service paths).
    #: Pages added by the prefetcher ride along in the block's bulk
    #: operations and skip this — a large part of why prefetching's
    #: batch-elimination wins ~3× end-to-end (Table 4).
    fault_service_per_page_usec: float = 2.0
    #: Per-batch per-VABlock lookup/lock cost (each block in a batch is a
    #: distinct processing step, §2.2: range-tree lookup, block lock, state
    #: machine entry).
    vablock_base_usec: float = 8.0
    #: Pushing the fault replay onto the GPU command push-buffer and waiting
    #: for its fence: a full driver→GPU round trip per batch (§2.1).
    replay_usec: float = 25.0

    # ------------------------------------------------------- memory management
    #: Allocating a 2 MiB physical chunk from the resource manager.
    chunk_alloc_usec: float = 5.0
    #: Zero-filling one newly-allocated GPU page ("page population", §5.1).
    population_per_page_usec: float = 0.15
    #: GPU page-table update per page (map or unmap).
    pagetable_per_page_usec: float = 0.08
    #: Per-page migration staging (driver-side pinning, staging-buffer and
    #: tracking-metadata work before the copy engine runs).  Calibrated so
    #: wire time stays ≤ ~25 % of batch time even for pure-transfer batches
    #: (Fig 7: "at most approximately 25% ... typically far lower").
    migration_prep_per_page_usec: float = 0.6
    #: Failed allocation + block-migration restart overhead on eviction (§5.1).
    evict_restart_usec: float = 15.0
    #: Prefetcher bitmap/tree examination per 64 KiB region (§5.2).
    prefetch_decision_per_region_usec: float = 0.10

    # ---------------------------------------------------------------- host OS
    #: Base cost of one unmap_mapping_range() call on a VABlock (§4.4).
    unmap_base_usec: float = 12.0
    #: Per-CPU-mapped-page unmap cost (PTE clear + local TLB invalidate).
    unmap_per_page_usec: float = 0.12
    #: Extra inflation per additional distinct first-touch thread: remote
    #: cores require IPI-based TLB shootdowns (Fig 11).
    unmap_thread_inflation: float = 0.6
    #: Cap on the counted distinct threads (shootdown batching saturates).
    unmap_thread_cap: int = 32
    #: Creating one DMA mapping (IOMMU/page pinning) per page (§5.2).
    dma_map_per_page_usec: float = 0.40
    #: Inserting one reverse mapping into the kernel radix tree.
    radix_insert_usec: float = 0.05
    #: Allocating one radix-tree node from the slab cache.
    radix_node_alloc_usec: float = 0.90
    #: Every ``radix_slab_size``-th node allocation refills the slab from the
    #: page allocator — the intermittent spike of Fig 14/15.
    radix_slab_size: int = 64
    #: Cost of one slab refill (slow path).
    radix_slab_refill_usec: float = 35.0

    # ------------------------------------------------------------ interconnect
    #: Host↔device bandwidth (PCIe 3.0 x16 effective, ~12 GB/s).
    link_bandwidth_bytes_per_sec: float = 12.0 * GB
    #: Per-copy-engine-operation setup latency.
    transfer_latency_usec: float = 4.0
    #: Device↔device peer bandwidth for multi-GPU migration (PCIe P2P on
    #: the paper's platform; set ~40-50 GB/s to model NVLink instead).
    peer_bandwidth_bytes_per_sec: float = 10.0 * GB
    #: Per-peer-copy setup latency.
    peer_latency_usec: float = 5.0

    # ------------------------------------------------------------- GPU timing
    #: Spacing between consecutive fault insertions into the buffer (Fig 4:
    #: "faults from the same warp happen in rapid succession").
    fault_arrival_interval_usec: float = 0.15
    #: Replay-to-refault latency (µTLB replays the miss, GMMU re-delivers).
    refault_latency_usec: float = 2.0
    #: Effective parallelism divisor for per-SM compute backlog: warps on an
    #: SM overlap, so backlog drains faster than serially.
    gpu_compute_parallelism: float = 8.0
    #: Launch skew between successive thread blocks dispatched to one SM:
    #: blocks do not start in perfect lockstep on real hardware, which
    #: staggers their first fault bursts (one reason application batches sit
    #: below the Table 2 ceiling).
    launch_stagger_usec: float = 1.5

    # ----------------------------------------------------------------- jitter
    #: Multiplicative jitter applied to batch-level costs (deterministic via
    #: the seeded RNG); models scheduling noise without losing reproducibility.
    #: The driver applies it through :class:`repro.sim.rng.JitterStream`.
    jitter_frac: float = 0.05

    # ------------------------------------------------------------ composites

    @property
    def link_bandwidth_bytes_per_usec(self) -> float:
        return self.link_bandwidth_bytes_per_sec / 1e6

    @property
    def peer_bandwidth_bytes_per_usec(self) -> float:
        return self.peer_bandwidth_bytes_per_sec / 1e6

    def fetch_cost(self, num_faults: int) -> float:
        return self.fetch_base_usec + num_faults * self.fetch_per_fault_usec

    def preprocess_cost(self, num_faults: int) -> float:
        return self.preprocess_base_usec + num_faults * self.preprocess_per_fault_usec

    def population_cost(self, num_pages: int) -> float:
        return num_pages * self.population_per_page_usec

    def pagetable_cost(self, num_pages: int) -> float:
        return num_pages * self.pagetable_per_page_usec

    def prefetch_decision_cost(self, num_regions: int) -> float:
        return num_regions * self.prefetch_decision_per_region_usec

    def unmap_cost(self, num_mapped_pages: int, distinct_threads: int) -> float:
        """One unmap_mapping_range() call over a VABlock (§4.4).

        ``distinct_threads`` is the number of distinct CPU threads that
        first-touched the block's mapped pages; more threads spread the PTEs'
        TLB entries across more cores, inflating shootdown cost (Fig 11).
        """
        if num_mapped_pages <= 0:
            return 0.0
        k = min(max(distinct_threads, 1), self.unmap_thread_cap)
        inflation = 1.0 + self.unmap_thread_inflation * (k - 1)
        return self.unmap_base_usec + num_mapped_pages * self.unmap_per_page_usec * inflation

    def dma_cost(self, num_mappings: int, new_nodes: int, slab_refills: int) -> float:
        """VABlock DMA-state initialization (§5.2): per-page mapping creation
        plus radix-tree insertion with node allocations and slab refills."""
        return (
            num_mappings * (self.dma_map_per_page_usec + self.radix_insert_usec)
            + new_nodes * self.radix_node_alloc_usec
            + slab_refills * self.radix_slab_refill_usec
        )

    def apply_overrides(self, overrides: dict) -> "CostModel":
        """Return self after assigning ``{field: value}`` overrides."""
        for key, value in overrides.items():
            if not hasattr(self, key):
                raise AttributeError(f"unknown CostModel field {key!r}")
            setattr(self, key, value)
        return self
