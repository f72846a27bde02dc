"""Per-batch instrumentation record — the paper's modified-driver log line.

The paper instruments the UVM driver "with targeted high-precision timers
and event counters for collecting batch-level data.  Batch data is logged to
the system log at the end of each batch" (§3.1).  :class:`BatchRecord` is the
simulator's equivalent: one frozen record per serviced batch holding every
counter and timer the figures and tables consume.

Field groups map directly onto the paper's analyses:

* size/duplicate counters → Fig 8, Fig 9, Table 2 (via ``sm_fault_counts``);
* VABlock counters → Table 3, Fig 10;
* migration counters → Fig 6, Fig 7;
* component timers → Fig 7, Fig 11, Fig 13-15 (percent-of-batch tones);
* eviction counters → Fig 12, Fig 13, Fig 15b;
* prefetch counters → Fig 14, Fig 15a, Fig 16a/17a.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional

import numpy as np

from ..units import fold_sum

#: The component timers, in fault-path order (Fig 7's stack): the one
#: phase split every report folds.
PHASE_FIELDS = (
    "time_wake",
    "time_fetch",
    "time_preprocess",
    "time_block_base",
    "time_alloc",
    "time_eviction",
    "time_population",
    "time_dma",
    "time_unmap",
    "time_prefetch_decide",
    "time_migrate_prep",
    "time_transfer_h2d",
    "time_transfer_d2h",
    "time_pagetable",
    "time_replay",
    "time_retry_backoff",
)


def phase_totals(records: Iterable["BatchRecord"]) -> Dict[str, float]:
    """Each :data:`PHASE_FIELDS` timer summed over ``records``, left to
    right (sim µs)."""
    totals = dict.fromkeys(PHASE_FIELDS, 0.0)
    for record in records:
        for name in PHASE_FIELDS:
            totals[name] += getattr(record, name)
    return totals


@dataclass
class BatchRecord:
    """All metadata logged for one fault batch."""

    batch_id: int
    #: Simulated time servicing began/ended (µs).
    t_start: float = 0.0
    t_end: float = 0.0
    #: Arrival timestamps of the first/last fault fetched (Fig 4's per-fault
    #: buffer-arrival instrumentation).
    t_first_fault: float = 0.0
    t_last_fault: float = 0.0

    # --- size and duplicates -------------------------------------------------
    num_faults_raw: int = 0
    num_faults_unique: int = 0
    dup_same_utlb: int = 0
    dup_cross_utlb: int = 0
    #: Faults flushed (dropped) from the buffer at the closing replay.
    dropped_at_flush: int = 0
    #: Whether the worker thread slept before this batch (burst window).
    slept_before: bool = False
    #: True for hint-driven migrations (cudaMemPrefetchAsync), which go
    #: through the same per-VABlock servicing path without faults.
    hinted: bool = False

    # --- VABlocks ------------------------------------------------------------
    num_vablocks: int = 0
    #: Blocks whose compulsory DMA state was created in this batch.
    new_dma_blocks: int = 0
    #: Blocks that received a fresh GPU chunk in this batch.
    blocks_allocated: int = 0
    #: Unique faults per VABlock, parallel to first-fault block order.
    vablock_fault_counts: Optional[np.ndarray] = None

    # --- migration -----------------------------------------------------------
    pages_migrated_h2d: int = 0
    bytes_h2d: int = 0
    pages_populated: int = 0
    #: Pages added by the prefetcher beyond the faulted set.
    pages_prefetched: int = 0

    # --- eviction ------------------------------------------------------------
    evictions: int = 0
    pages_evicted: int = 0
    bytes_d2h: int = 0
    #: Evicted blocks that skipped CPU unmapping (already unmapped — the
    #: lower "levels" of Fig 13).
    evictions_unmap_free: int = 0

    # --- resilience (chaos testing, :mod:`repro.inject`) ----------------------
    #: DMA-map attempts that failed transiently and were retried.
    retries_dma: int = 0
    #: Copy-engine bursts that aborted and were retried.
    retries_transfer: int = 0
    #: Host-population ENOMEM events absorbed by reclaim + retry.
    retries_populate: int = 0
    #: Stuck-burst failovers to the sibling copy engine.
    ce_failovers: int = 0
    #: Prefetch transfers that fell back to demand-only paging.
    prefetch_fallbacks: int = 0
    #: VABlocks deferred after retry exhaustion (faults reissue later).
    blocks_deferred: int = 0
    #: Servicing raised mid-batch (fail-fast exhaustion or injected crash):
    #: the record is partial, and UVMSan skips its reconciliation checks.
    aborted: bool = False

    # --- host OS -------------------------------------------------------------
    unmap_calls: int = 0
    pages_unmapped: int = 0
    dma_mappings_created: int = 0
    radix_nodes_allocated: int = 0
    radix_slab_refills: int = 0

    # --- component timers (µs) ------------------------------------------------
    time_wake: float = 0.0
    time_fetch: float = 0.0
    time_preprocess: float = 0.0
    time_block_base: float = 0.0
    time_alloc: float = 0.0
    time_eviction: float = 0.0
    time_population: float = 0.0
    time_dma: float = 0.0
    time_unmap: float = 0.0
    time_prefetch_decide: float = 0.0
    time_migrate_prep: float = 0.0
    time_transfer_h2d: float = 0.0
    time_transfer_d2h: float = 0.0
    time_pagetable: float = 0.0
    time_replay: float = 0.0
    #: Retry overhead: wasted partial transfers, backoff waits, and stuck
    #: deadlines (zero unless :mod:`repro.inject` is active).
    time_retry_backoff: float = 0.0

    # --- per-SM origin (Table 2) ----------------------------------------------
    sm_fault_counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ views

    @property
    def duration(self) -> float:
        """Total batch servicing time (µs)."""
        return self.t_end - self.t_start

    @property
    def service_time(self) -> float:
        """Sum of accounted component timers (== duration for the serial
        driver; < duration only under the parallel-driver ablation where the
        clock advances by the critical path, not total work)."""
        return fold_sum(getattr(self, name) for name in PHASE_FIELDS)

    @property
    def transfer_fraction(self) -> float:
        """Fraction of batch time spent moving data (Fig 7)."""
        if self.duration <= 0:
            return 0.0
        return (self.time_transfer_h2d + self.time_transfer_d2h) / self.duration

    @property
    def unmap_fraction(self) -> float:
        """Fraction of batch time spent in unmap_mapping_range (Fig 11/13)."""
        if self.duration <= 0:
            return 0.0
        return self.time_unmap / self.duration

    @property
    def dma_fraction(self) -> float:
        """Fraction of batch time spent creating DMA state (Fig 14/15d)."""
        if self.duration <= 0:
            return 0.0
        return self.time_dma / self.duration

    @property
    def duplicate_count(self) -> int:
        return self.dup_same_utlb + self.dup_cross_utlb

    def to_dict(self) -> Dict:
        """JSON-serializable dict (arrays become lists)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = value
        out["duration"] = self.duration
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "BatchRecord":
        data = dict(data)
        data.pop("duration", None)
        for key in ("sm_fault_counts", "vablock_fault_counts"):
            if data.get(key) is not None:
                data[key] = np.asarray(data[key], dtype=np.int32)
        return cls(**data)
