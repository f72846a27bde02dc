"""The UVM driver model: fault fetch, batch servicing, replay.

This is the system under study.  One call to :meth:`UvmDriver.service_next_batch`
performs the full fault-handling path of paper §2.2/§4/§5 and emits one
:class:`~repro.core.batch_record.BatchRecord`:

1. (wake) worker-thread wakeup if it was sleeping;
2. fetch up to ``batch_size`` faults from the GPU fault buffer;
3. preprocess: sort/group by VABlock, classify duplicates (§4.2);
4. per VABlock, in first-fault order (§2.2 "each VABlock within a batch
   requires a distinct processing step"):

   a. ensure the block has a physical chunk, evicting LRU victims at
      VABlock granularity when device memory is full (§5.1);
   b. compulsory first-access DMA-state creation: per-page DMA mappings
      plus reverse mappings in the kernel radix tree (§5.2);
   c. reactive tree/density prefetch expansion within the block (§5.2);
   d. ``unmap_mapping_range()`` when the block is partially CPU-resident
      (§4.4) — paid at most once per block unless the CPU re-touches,
      which produces the cost "levels" of Fig 13;
   e. page population (zero-fill) for pages without source data and for
      restarted migrations after eviction (§5.1);
   f. host→device copy of valid pages via the copy engines;
   g. GPU page-table update;

5. replay: flush the fault buffer — dropping every un-fetched fault, which
   the µTLBs will reissue if still needed — and push the replay (§2.1).

Ablations from §6 are built in behind ``DriverConfig`` flags: per-VABlock
service parallelism, asynchronous unmapping, duplicate-adaptive batch
sizing, and enlarged prefetch scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import (
    DmaMapFault,
    InvalidAccess,
    OutOfDeviceMemory,
    RetryExhausted,
    TransferFault,
    TransferStuck,
    UvmError,
)
from ..units import REGIONS_PER_VABLOCK, vablock_of_page
from ..gpu.copy_engine import contiguous_runs
from ..gpu.device import GpuDevice
from ..gpu.fault import Fault, FaultArrays
from ..hostos.cost_model import CostModel
from ..hostos.dma import DmaMapper
from ..hostos.host_vm import HostVm
from ..obs import Observability
from ..obs.chrome_trace import (
    PID_DRIVER,
    PID_EVICTION,
    PID_SM,
    TID_BATCH,
    TID_PHASE,
    TID_VABLOCK,
)
from ..check.sanitizer import NULL_SANITIZER
from ..obs.metrics import DEFAULT_COUNT_BUCKETS
from ..obs.spans import NULL_SPAN
from ..sim.clock import SimClock
from ..sim.trace import EventTrace
from .batch import AssembledBatch, BlockWork, assemble_batch
from .batch_record import BatchRecord
from .eviction import LruEvictionPolicy, make_eviction_policy
from .instrumentation import BatchLog
from .prefetch import DensityPrefetcher, make_prefetcher
from .vablock import VABlockManager, VABlockState


class RetryPolicy:
    """Bounded sim-time exponential backoff for transient fault-path failures.

    Attempt ``n``'s backoff is ``min(base * factor**(n-1), max)``; a burst
    that hangs is charged the per-phase ``deadline_usec`` instead and failed
    over.  ``fail_fast`` (DriverConfig ``failure_mode="fail-fast"``) raises
    :class:`repro.errors.RetryExhausted` when the budget runs out;
    the default degrade mode falls back (defer the VABlock, drop the
    prefetch, skip the speculative neighbour) so the workload still
    completes.
    """

    __slots__ = (
        "max_attempts",
        "base_usec",
        "factor",
        "max_usec",
        "deadline_usec",
        "fail_fast",
    )

    def __init__(self, driver_config) -> None:
        self.max_attempts = driver_config.retry_max_attempts
        self.base_usec = driver_config.retry_backoff_base_usec
        self.factor = driver_config.retry_backoff_factor
        self.max_usec = driver_config.retry_backoff_max_usec
        self.deadline_usec = driver_config.phase_deadline_usec
        self.fail_fast = driver_config.failure_mode == "fail-fast"

    def backoff_usec(self, attempt: int) -> float:
        """Backoff to wait after failed attempt number ``attempt`` (1-based)."""
        return min(self.base_usec * self.factor ** (attempt - 1), self.max_usec)


@dataclass
class ServiceOutcome:
    """What one batch service did, for the engine to apply to the GPU."""

    record: BatchRecord
    #: Pages made (and still) resident — warps waiting on them unblock.
    serviced_pages: List[int] = field(default_factory=list)
    #: Fetched faults whose page is *not* resident at batch end (evicted
    #: within the same batch); their warps must re-demand.
    unserviced_faults: List[Fault] = field(default_factory=list)
    #: Faults dropped by the pre-replay flush; reissued if still needed.
    dropped_faults: FaultArrays = field(default_factory=FaultArrays)
    #: Pages evicted from the device during this batch.
    evicted_pages: List[int] = field(default_factory=list)


class UvmDriver:
    """Host-resident fault servicing engine and managed-memory manager."""

    def __init__(
        self,
        config: SystemConfig,
        device: GpuDevice,
        clock: SimClock,
        host_vm: HostVm,
        dma: DmaMapper,
        cost_model: CostModel,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[EventTrace] = None,
        obs: Optional[Observability] = None,
        sanitizer=None,
        injector=None,
    ) -> None:
        config.validate()
        self.config = config
        self.device = device
        self.clock = clock
        self.host_vm = host_vm
        self.dma = dma
        self.cost = cost_model
        self.rng = rng
        self.trace = trace
        self.obs = obs if obs is not None else Observability(config.obs, clock)
        #: UVMSan invariant checker (no-op null object unless enabled).
        self.san = sanitizer if sanitizer is not None else NULL_SANITIZER
        #: Fault injector (no-op null object unless chaos testing is on).
        if injector is None:
            from ..inject import NULL_INJECTOR

            injector = NULL_INJECTOR
        self.inj = injector
        #: Retry/timeout/backoff policy for transient fault-path failures.
        self.retry = RetryPolicy(config.driver)
        #: Copy engine currently carrying driver transfers (failover target
        #: flips this to the sibling after a stuck burst).
        self._active_ce_id = 0
        self.vablocks = VABlockManager()
        self.prefetcher = make_prefetcher(
            config.driver.prefetch_policy,
            threshold=config.driver.prefetch_threshold,
            scope_blocks=config.driver.prefetch_scope_blocks,
        )
        self.eviction = make_eviction_policy(config.driver.eviction_policy)
        self.log = BatchLog()
        self._batch_id = 0
        self._current_batch_size = config.driver.batch_size
        #: Unmap work deferred off the fault path (async-unmap ablation).
        self.async_unmap_backlog_usec = 0.0
        # Observability: cached metric handles (no-op instruments when the
        # registry is disabled, so the hot path never branches on config).
        metrics = self.obs.metrics
        self._m_batches = metrics.counter(
            "uvm_batches_total", "Batches through the servicing path", labels=("kind",)
        )
        self._m_faults = metrics.counter(
            "uvm_faults_total", "Faults fetched from the HW buffer", labels=("kind",)
        )
        self._m_pages = metrics.counter(
            "uvm_pages_total", "Pages handled on the fault path", labels=("op",)
        )
        self._m_bytes = metrics.counter(
            "uvm_bytes_total", "Bytes migrated over the interconnect", labels=("dir",)
        )
        self._m_hostos = metrics.counter(
            "uvm_hostos_total", "Host-OS operations on the fault path", labels=("op",)
        )
        self._m_batch_usec = metrics.histogram(
            "uvm_batch_service_usec", "Batch servicing time (simulated µs)"
        )
        self._m_batch_faults = metrics.histogram(
            "uvm_batch_faults", "Raw faults per batch", buckets=DEFAULT_COUNT_BUCKETS
        )
        self._m_retries = metrics.counter(
            "uvm_retries_total",
            "Driver retries after transient fault-path failures",
            labels=("site",),
        )
        self._m_degrade = metrics.counter(
            "uvm_degrade_total",
            "Graceful degradations on the fault path",
            labels=("kind",),
        )
        self._m_failovers = metrics.counter(
            "uvm_ce_failovers_total", "Copy-engine failovers after stuck bursts"
        )
        # Labeled children resolved once: ``family.labels(x)`` is a dict
        # lookup plus (first time) child creation, and _finish_record_obs
        # pays it 17 times per batch — hoist every fixed label out of the
        # per-batch path.  Disabled registries hand back the null instrument
        # from .labels(), so the cached handles stay no-ops.
        self._m_batches_fault = self._m_batches.labels("fault")
        self._m_batches_hinted = self._m_batches.labels("hinted")
        self._m_faults_raw = self._m_faults.labels("raw")
        self._m_faults_unique = self._m_faults.labels("unique")
        self._m_faults_duplicate = self._m_faults.labels("duplicate")
        self._m_faults_dropped = self._m_faults.labels("dropped")
        self._m_pages_migrated = self._m_pages.labels("migrated_h2d")
        self._m_pages_populated = self._m_pages.labels("populated")
        self._m_pages_prefetched = self._m_pages.labels("prefetched")
        self._m_pages_unmapped = self._m_pages.labels("unmapped")
        self._m_pages_evicted = self._m_pages.labels("evicted")
        self._m_bytes_h2d = self._m_bytes.labels("h2d")
        self._m_bytes_d2h = self._m_bytes.labels("d2h")
        self._m_hostos_unmap = self._m_hostos.labels("unmap_calls")
        self._m_hostos_dma = self._m_hostos.labels("dma_mappings")
        self._m_hostos_radix = self._m_hostos.labels("radix_nodes")
        self._m_retries_dma = self._m_retries.labels("dma")
        self._m_retries_ce = self._m_retries.labels("ce")
        self._m_retries_populate = self._m_retries.labels("populate")
        self._m_degrade_accessed_by = self._m_degrade.labels("accessed-by-skip")
        self._m_degrade_dma_defer = self._m_degrade.labels("dma-defer")
        self._m_degrade_transfer_defer = self._m_degrade.labels("transfer-defer")
        self._m_degrade_prefetch_fallback = self._m_degrade.labels("prefetch-fallback")
        self._m_degrade_scope_skip = self._m_degrade.labels("scope-skip")
        #: Cached observability flags (fixed per run): the per-batch paths
        #: skip span-context and phase-mark construction entirely when
        #: nothing consumes them.
        self._spans_on = self.obs.spans.enabled
        self._obs_block_on = self._spans_on or self.obs.chrome.enabled
        #: Flight recorder (bounded ring of recent events; null object when
        #: off, so the per-batch paths call it unconditionally).
        self.flight = self.obs.flight
        self.eviction.attach_obs(self.obs)
        #: Simulated timestamp where the current VABlock's service started on
        #: the trace timeline (per-block costs apply to the clock only after
        #: the block loop, so the timeline is laid out from this cursor).
        self._block_cursor = 0.0
        #: Elapsed cost within the current block (kept current by ``spend``).
        self._block_elapsed = 0.0
        #: Per-block (attr, µs) phase marks for trace slices; None = off.
        self._phase_marks: Optional[List[Tuple[str, float]]] = None

    # ----------------------------------------------------------- allocation

    def register_allocation(self, start_page: int, num_pages: int) -> None:
        """Track a new managed allocation's VABlocks."""
        self.vablocks.register_allocation(start_page, num_pages)

    # ---------------------------------------------------------------- hints

    def bulk_migrate(self, pages) -> BatchRecord:
        """cudaMemPrefetchAsync-to-device: migrate ``pages`` through the
        per-VABlock servicing path without any faults.

        Bulk migration pays population/DMA/unmap/transfer exactly like fault
        servicing — it goes through the same VA-block code — but skips the
        fault fetch, the per-fault servicing bookkeeping, and the reactive
        prefetcher, which is why hinted migration approaches explicit-copy
        efficiency (related work [10]).
        """
        record = BatchRecord(batch_id=self._batch_id, hinted=True)
        self._batch_id += 1
        record.t_start = self.clock.now
        try:
            self.flight.record("batch.open", record.batch_id, "migrate")
            self.san.on_batch_start(self, record)
            by_block: Dict[int, List[int]] = {}
            for page in sorted(set(pages)):
                by_block.setdefault(vablock_of_page(page), []).append(page)
            outcome = ServiceOutcome(record=record)
            block_costs: List[float] = []
            pinned: Set[int] = set()
            chrome_on = self.obs.chrome.enabled
            emit_obs = self._obs_block_on
            self._block_cursor = self.clock.now
            for block_id, block_pages in by_block.items():
                pinned.add(block_id)
                work = BlockWork(block_id=block_id, pages=block_pages, hinted=True)
                t_block = self._block_cursor
                self._phase_marks = [] if chrome_on else None
                cost, deferred = self._service_block(work, record, outcome, pinned)
                if emit_obs:
                    self._emit_block_obs(work, t_block, cost, record)
                self._block_cursor = t_block + cost
                block_costs.append(cost)
                if deferred:
                    pinned.discard(block_id)
            record.num_vablocks = len(by_block)
            record.vablock_fault_counts = np.array(
                [len(p) for p in by_block.values()], dtype=np.int32
            )
            self._advance_block_phase(block_costs)
        except UvmError:
            # Fail-fast retry exhaustion (or any servicing failure) must not
            # leave the batch open: close the record on the abort path so
            # the log and UVMSan agree the batch ended.
            self._abort_record(record)
            raise
        record.t_end = self.clock.now
        self.log.append(record)
        self._finish_record_obs(record)
        self.san.on_batch_end(self, record, outcome)
        return record

    def advise_read_mostly(self, pages) -> None:
        """cudaMemAdviseSetReadMostly over ``pages``' VABlocks: migrations
        duplicate rather than move until a GPU write collapses the hint."""
        for block_id in sorted({vablock_of_page(p) for p in pages}):
            if block_id in self.vablocks:
                self.vablocks.get(block_id).read_mostly = True

    def advise_accessed_by(self, pages) -> BatchRecord:
        """cudaMemAdviseSetAccessedBy (device): direct-map ``pages`` so the
        GPU accesses them remotely over the interconnect — no faults, no
        migration, no device memory consumed.  Pays DMA-mapping setup."""
        record = BatchRecord(batch_id=self._batch_id, hinted=True)
        self._batch_id += 1
        record.t_start = self.clock.now
        try:
            self.flight.record("batch.open", record.batch_id, "advise")
            self.san.on_batch_start(self, record)
            self._advise_accessed_by(record, pages)
        except UvmError:
            # Fail-fast DMA exhaustion raises out of the hinted batch; close
            # the record on the abort path so the log and UVMSan agree.
            self._abort_record(record)
            raise
        record.t_end = self.clock.now
        self.log.append(record)
        self._finish_record_obs(record)
        self.san.on_batch_end(self, record)
        return record

    def _advise_accessed_by(self, record: BatchRecord, pages) -> None:
        is_resident = self.device.page_table.is_resident
        new_pages = [p for p in sorted(set(pages)) if not is_resident(p)]
        if not new_pages:
            return
        result = None
        attempt = 1
        while result is None:
            try:
                result = self.dma.map_pages(new_pages)
            except DmaMapFault as exc:
                record.retries_dma += 1
                self._m_retries_dma.inc()
                self.flight.record("retry", "dma", attempt, record.batch_id)
                if attempt >= self.retry.max_attempts:
                    if self.retry.fail_fast:
                        raise RetryExhausted("dma.map_fail", attempt, exc)
                    break
                backoff = self.retry.backoff_usec(attempt)
                self.clock.advance(backoff)
                record.time_retry_backoff += backoff
                attempt += 1
        if result is None:
            # Degrade: leave the pages unmapped — the hint is advisory,
            # so the GPU simply demand-faults them later.
            self._m_degrade_accessed_by.inc()
            return
        self.clock.advance(result.cost_usec)
        record.time_dma = result.cost_usec
        record.dma_mappings_created += result.new_mappings
        record.radix_nodes_allocated += result.new_nodes
        pt_cost = self.cost.pagetable_cost(len(new_pages))
        self.clock.advance(pt_cost)
        record.time_pagetable = pt_cost
        self.device.page_table.map_pages(new_pages)
        # One grouping pass (new_pages is sorted, so blocks come out in
        # ascending order) instead of a per-block rescan of every page.
        by_block: Dict[int, List[int]] = {}
        for page in new_pages:
            by_block.setdefault(vablock_of_page(page), []).append(page)
        for block_id, block_pages in by_block.items():
            if block_id in self.vablocks:
                self.vablocks.get(block_id).remote_pages.update(block_pages)

    def is_remote_mapped(self, page: int) -> bool:
        """True when ``page`` is direct-mapped (accessed-by), not migrated."""
        block_id = vablock_of_page(page)
        if block_id not in self.vablocks:
            return False
        return page in self.vablocks.get(block_id).remote_pages

    # -------------------------------------------------------------- policy

    @property
    def effective_batch_size(self) -> int:
        """Current fetch limit (fixed, or duplicate-adaptive under ablation)."""
        return self._current_batch_size

    def _update_adaptive(self, record: BatchRecord) -> None:
        if not self.config.driver.adaptive_batch or record.num_faults_raw == 0:
            return
        dup_rate = record.duplicate_count / record.num_faults_raw
        lo = self.config.driver.adaptive_batch_min
        hi = self.config.driver.batch_size
        if dup_rate > 0.5:
            self._current_batch_size = max(lo, self._current_batch_size // 2)
        else:
            self._current_batch_size = min(hi, self._current_batch_size * 2)

    # ------------------------------------------------------------- service

    def service_next_batch(self, slept: bool) -> ServiceOutcome:
        """Service one fault batch from the GPU buffer (must be non-empty)."""
        record = BatchRecord(batch_id=self._batch_id, slept_before=slept)
        self._batch_id += 1
        record.t_start = self.clock.now
        try:
            self.flight.record("batch.open", record.batch_id, "fault")
            self.san.on_batch_start(self, record)
            outcome = self._service_batch_body(record, slept)
        except UvmError:
            # Fail-fast retry exhaustion (or any mid-service failure) must
            # not leave the batch open: close the record on the abort path
            # so the log and UVMSan agree the batch ended.
            self._abort_record(record)
            raise
        record.t_end = self.clock.now
        self.log.append(record)
        if self.trace is not None:
            self.trace.emit(record.t_end, "batch", record.batch_id, record.num_faults_raw)
        self._finish_record_obs(record)
        self.san.on_batch_end(self, record, outcome)
        self._update_adaptive(record)
        return outcome

    def _service_batch_body(self, record: BatchRecord, slept: bool) -> ServiceOutcome:
        spans = self.obs.spans
        spans_on = self._spans_on
        chrome = self.obs.chrome
        chrome_on = chrome.enabled

        # 1. Wake + interrupt acknowledge.
        if slept:
            with spans.span("driver.wake", batch=record.batch_id) if spans_on else NULL_SPAN:
                record.time_wake = self._spend(self.cost.interrupt_wake_usec)
        self.device.gmmu.acknowledge()

        # 2. Fetch.
        with spans.span("driver.fetch", batch=record.batch_id) if spans_on else NULL_SPAN:
            faults = self.device.fault_buffer.fetch(self.effective_batch_size)
            record.time_fetch = self._spend(self.cost.fetch_cost(len(faults)))

        if self.trace is not None:
            # Per-fault instrumentation (the paper's first driver variant):
            # origin SM, address, access type, arrival time.  Enables trace
            # capture + open-loop replay (repro.analysis.traces).
            for f in faults:
                self.trace.emit(
                    f.timestamp,
                    "fault",
                    record.batch_id,
                    f.page,
                    int(f.access),
                    f.sm_id,
                    f.warp_uid,
                )
        if chrome_on:
            # Fault instants on the issuing SM's trace row, at buffer-arrival
            # time (the paper's per-fault arrival instrumentation, Fig 4).
            pid_sm = self.obs.pid(PID_SM)
            for f in faults:
                chrome.instant(
                    "fault",
                    "fault",
                    ts=f.timestamp,
                    pid=pid_sm,
                    tid=f.sm_id,
                    args={"page": f.page, "batch": record.batch_id},
                )

        # 3. Preprocess / dedup.
        with spans.span("driver.preprocess", batch=record.batch_id) if spans_on else NULL_SPAN:
            batch = assemble_batch(faults, self.device.config.num_sms)
            record.time_preprocess = self._spend(self.cost.preprocess_cost(len(faults)))
        if faults:
            record.t_first_fault = faults[0].timestamp
            record.t_last_fault = faults[-1].timestamp
        record.num_faults_raw = batch.num_raw
        record.num_faults_unique = batch.num_unique
        record.dup_same_utlb = batch.dup_same_utlb
        record.dup_cross_utlb = batch.dup_cross_utlb
        record.sm_fault_counts = batch.sm_fault_counts
        record.num_vablocks = batch.num_blocks
        record.vablock_fault_counts = np.array(
            [len(w.pages) for w in batch.blocks], dtype=np.int32
        )

        # 4. Per-VABlock processing.  Blocks already serviced in this batch
        # stay pinned (their block locks are held until the replay): a later
        # block's eviction must not undo this batch's own migrations, or a
        # working set spanning more blocks than device chunks would thrash
        # without ever making progress.  A block that cannot obtain memory
        # because everything is pinned is deferred — its faults drop at the
        # flush and reissue (the driver's fault-retry path).
        outcome = ServiceOutcome(record=record)
        block_costs: List[float] = []
        pinned: set = set()
        emit_obs = self._obs_block_on
        self._block_cursor = self.clock.now
        for work in batch.blocks:
            pinned.add(work.block_id)
            t_block = self._block_cursor
            self._phase_marks = [] if chrome_on else None
            cost, deferred = self._service_block(work, record, outcome, pinned)
            if emit_obs:
                self._emit_block_obs(work, t_block, cost, record)
            self._block_cursor = t_block + cost
            block_costs.append(cost)
            if deferred:
                pinned.discard(work.block_id)
                outcome.unserviced_faults.extend(faults.rows_for_pages(work.pages))
        self._advance_block_phase(block_costs)

        # 5. Replay: flush buffer (drop), clear µTLB waiting, push replay.
        with spans.span("driver.replay", batch=record.batch_id) if spans_on else NULL_SPAN:
            outcome.dropped_faults = self.device.fault_buffer.flush()
            record.dropped_at_flush = len(outcome.dropped_faults)
            record.time_replay = self._spend(self.cost.replay_usec)
            self.device.replay_all()
        if chrome_on:
            chrome.instant(
                "replay",
                "replay",
                ts=self.clock.now,
                pid=self.obs.pid(PID_DRIVER),
                tid=TID_BATCH,
                args={"batch": record.batch_id, "dropped": record.dropped_at_flush},
            )

        # Pages evicted by later blocks of this batch are not serviced.
        resident = self.device.page_table.resident
        still = [p for p in outcome.serviced_pages if p in resident]
        if len(still) != len(outcome.serviced_pages):
            gone = set(outcome.serviced_pages) - set(still)
            outcome.serviced_pages = still
            outcome.unserviced_faults = faults.rows_for_pages(gone)
        return outcome

    def _abort_record(self, record: BatchRecord) -> None:
        """Close a batch whose servicing raised.

        The record is marked :attr:`~BatchRecord.aborted` and appended so
        the log never loses a started batch; UVMSan's abort hook checks the
        envelope but skips the reconciliation identities (the counters and
        timers stopped wherever the exception unwound).
        """
        record.aborted = True
        record.t_end = self.clock.now
        self.log.append(record)
        self._finish_record_obs(record)
        self.san.on_batch_abort(self, record)

    # ------------------------------------------------------ retry/failover

    def _dma_map_with_retry(self, pages: List[int], record: BatchRecord, spend):
        """DMA-map ``pages`` with bounded exponential backoff.

        Returns the :class:`~repro.hostos.dma.DmaMapResult`, or None when
        the retry budget ran out in degrade mode (the caller defers or
        skips).  Fail-fast mode raises :class:`RetryExhausted` instead.
        """
        attempt = 1
        while True:
            try:
                return self.dma.map_pages(pages)
            except DmaMapFault as exc:
                record.retries_dma += 1
                self._m_retries_dma.inc()
                self.flight.record("retry", "dma", attempt, record.batch_id)
                if attempt >= self.retry.max_attempts:
                    if self.retry.fail_fast:
                        raise RetryExhausted("dma.map_fail", attempt, exc)
                    return None
                spend(self.retry.backoff_usec(attempt), "time_retry_backoff")
                attempt += 1

    def _transfer_with_retry(
        self,
        direction: str,
        runs: List[int],
        record: BatchRecord,
        spend,
        allow_degrade: bool = True,
    ) -> bool:
        """Run one copy-engine burst under the retry/failover policy.

        Transient aborts charge the wasted partial transfer plus backoff and
        re-issue; a stuck burst charges the phase deadline and fails over to
        the sibling engine.  Returns True on completion; False when the
        budget ran out in degrade mode (never for ``allow_degrade=False``
        paths like eviction write-back, where losing the data is not an
        option — those raise :class:`RetryExhausted` in either failure
        mode).
        """
        ce = self.device.copy_engines[self._active_ce_id]
        attempt = 1
        while True:
            try:
                ce.ts_hint = self._block_cursor + self._block_elapsed
                if direction == "h2d":
                    cost = ce.host_to_device(runs)
                else:
                    cost = ce.device_to_host(runs)
                spend(cost, "time_transfer_" + direction)
                return True
            except TransferFault as exc:
                spend(exc.wasted_usec, "time_retry_backoff")
                record.retries_transfer += 1
                self._m_retries_ce.inc()
                self.flight.record("retry", "ce", attempt, record.batch_id)
                if attempt >= self.retry.max_attempts:
                    if self.retry.fail_fast or not allow_degrade:
                        raise RetryExhausted("ce.transfer_fault", attempt, exc)
                    return False
                spend(self.retry.backoff_usec(attempt), "time_retry_backoff")
            except TransferStuck as exc:
                spend(self.retry.deadline_usec, "time_retry_backoff")
                record.ce_failovers += 1
                self._m_failovers.inc()
                self.flight.record("failover", "ce", attempt, record.batch_id)
                if attempt >= self.retry.max_attempts:
                    if self.retry.fail_fast or not allow_degrade:
                        raise RetryExhausted("ce.stuck", attempt, exc)
                    return False
                self._active_ce_id = 1 - ce.engine_id
                ce = self.device.copy_engines[self._active_ce_id]
            attempt += 1

    # ---------------------------------------------------------- block path

    def _service_block(
        self,
        work: BlockWork,
        record: BatchRecord,
        outcome: ServiceOutcome,
        pinned: Set[int],
    ) -> Tuple[float, bool]:
        """Service one VABlock's faults.

        Returns ``(cost, deferred)``; ``deferred`` is True when the block
        could not obtain device memory because every resident block is
        pinned by this batch — its faults must retry in a later batch.
        """
        try:
            block = self.vablocks.get(work.block_id)
        except KeyError:
            raise InvalidAccess(
                f"faults target VABlock {work.block_id} outside any managed allocation"
            )
        total = 0.0
        marks = self._phase_marks
        self._block_elapsed = 0.0

        def spend(usec: float, attr: str) -> float:
            nonlocal total
            jittered = self.cost.jitter(self.rng, usec)
            setattr(record, attr, getattr(record, attr) + jittered)
            total += jittered
            self._block_elapsed = total
            if marks is not None:
                marks.append((attr, jittered))
            return jittered

        spend(self.cost.vablock_base_usec, "time_block_base")

        faulted = [p for p in work.pages if p not in block.resident_pages]
        if not work.hinted:
            # Per-unique-page fault servicing (VMA/policy/service
            # bookkeeping); prefetched pages ride along in bulk and skip
            # this cost, as do hint-driven migrations.
            spend(
                len(faulted) * self.cost.fault_service_per_page_usec,
                "time_block_base",
            )

        # (a) physical chunk, evicting if necessary.
        allocated_now = False
        if not block.is_gpu_allocated:
            chunk = self.device.chunks.allocate()
            while chunk is None:
                if not self.config.driver.eviction_enabled:
                    raise OutOfDeviceMemory(
                        "device memory exhausted with eviction disabled"
                    )
                if self.eviction.pick_victim(pinned) is None:
                    # Everything resident is pinned by this batch: defer.
                    return total, True
                self._evict_one(pinned, record, outcome, spend)
                chunk = self.device.chunks.allocate()
            block.gpu_chunk = chunk
            block.alloc_stamp = self.vablocks.next_stamp()
            allocated_now = True
            record.blocks_allocated += 1
            spend(self.cost.chunk_alloc_usec, "time_alloc")
            self.eviction.on_gpu_allocated(block.block_id)
            self.san.on_block_allocated(block)
        else:
            self.eviction.on_fault_service(block.block_id)

        # (b) compulsory DMA state (once per block lifetime).
        if not block.dma_initialized:
            result = self._dma_map_with_retry(sorted(block.valid_pages), record, spend)
            if result is None:
                # Degrade: DMA state could not be created this batch.  Defer
                # the block — its faults drop at the flush and reissue, and
                # a later batch retries from untouched radix-tree state.
                record.blocks_deferred += 1
                self._m_degrade_dma_defer.inc()
                return total, True
            spend(result.cost_usec, "time_dma")
            block.dma_initialized = True
            record.new_dma_blocks += 1
            record.dma_mappings_created += result.new_mappings
            record.radix_nodes_allocated += result.new_nodes
            record.radix_slab_refills += result.slab_refills

        # (c) prefetch expansion (reactive only: hints specify exact ranges).
        prefetched: Set[int] = set()
        if self.config.driver.prefetch_enabled and faulted and not work.hinted:
            prefetched = self.prefetcher.expand(block, faulted)
            spend(
                self.cost.prefetch_decision_cost(REGIONS_PER_VABLOCK),
                "time_prefetch_decide",
            )
            if self.prefetcher.scope_blocks > 1:
                self._scope_expansion(block, faulted, prefetched, record, outcome, spend)

        # ``faulted`` is already unique (deduped batch pages / hint lists),
        # so the set union + rebuild is only needed when a prefetch actually
        # expanded the page set — the common no-prefetch case just sorts.
        target = sorted(set(faulted) | prefetched) if prefetched else sorted(faulted)
        if not target:
            return total, False

        # (d) CPU unmapping when the block is partially host-resident (§4.4).
        # Read-mostly blocks *duplicate* instead of migrating: the host
        # mappings stay intact — unless this batch carries GPU writes, which
        # collapse the duplication and pay the deferred unmap now.
        collapse = block.read_mostly and bool(work.write_pages)
        if collapse:
            block.read_mostly = False
        mapped = self.host_vm.mapped_pages_of(block.valid_pages)
        if mapped and (not block.read_mostly or collapse):
            stats = self.host_vm.unmap_range(block.valid_pages)
            unmap_usec = self.cost.unmap_cost(stats.pages_unmapped, stats.distinct_threads)
            if self.config.driver.async_unmap:
                # Ablation: charge off the fault path.
                jit = self.cost.jitter(self.rng, unmap_usec)
                record.time_unmap += jit
                self.async_unmap_backlog_usec += jit
            else:
                spend(unmap_usec, "time_unmap")
            record.unmap_calls += 1
            record.pages_unmapped += stats.pages_unmapped

        # (e) population + (f) transfer.
        transfer_pages = [p for p in target if self.host_vm.has_valid_data(p)]
        populate_pages = len(target) - len(transfer_pages)
        if allocated_now and block.evict_count > 0:
            # Restarted migration re-populates the whole target (§5.1).
            populate_pages = len(target)
        if populate_pages and self.inj.fire("host.populate_enomem"):
            # Injected host ENOMEM: reclaim device memory (evict a victim,
            # releasing its staged buffers — §5.1's pressure path), back
            # off, then retry the population.
            record.retries_populate += 1
            self._m_retries_populate.inc()
            self.flight.record("retry", "populate", 1, record.batch_id)
            if (
                self.config.driver.eviction_enabled
                and self.eviction.pick_victim(pinned) is not None
            ):
                self._evict_one(pinned, record, outcome, spend)
            spend(self.retry.backoff_usec(1), "time_retry_backoff")
        spend(self.cost.population_cost(populate_pages), "time_population")
        record.pages_populated += populate_pages
        if transfer_pages:
            spend(
                len(transfer_pages) * self.cost.migration_prep_per_page_usec,
                "time_migrate_prep",
            )
            # The CE trace slice is placed where this block's work actually
            # sits on the timeline (the retry wrapper sets ts_hint per
            # attempt; the clock itself advances after the loop).
            ok = self._transfer_with_retry(
                "h2d", contiguous_runs(transfer_pages), record, spend
            )
            if not ok and prefetched:
                # Graceful degradation: drop the speculative prefetch and
                # fall back to demand paging — retry with only the pages
                # that actually faulted.
                record.prefetch_fallbacks += 1
                self._m_degrade_prefetch_fallback.inc()
                prefetched = set()
                target = sorted(faulted)
                transfer_pages = [p for p in target if self.host_vm.has_valid_data(p)]
                ok = not transfer_pages or self._transfer_with_retry(
                    "h2d", contiguous_runs(transfer_pages), record, spend
                )
            if not ok:
                # Transfer impossible this batch: defer the block entirely;
                # its faults drop at the flush and reissue later.
                record.blocks_deferred += 1
                self._m_degrade_transfer_defer.inc()
                return total, True
            record.pages_migrated_h2d += len(transfer_pages)
            record.bytes_h2d += len(transfer_pages) * 4096

        # (g) page-table update.
        spend(self.cost.pagetable_cost(len(target)), "time_pagetable")
        self.device.page_table.map_pages(target)
        block.resident_pages.update(target)
        if not block.read_mostly:
            # GPU takes ownership: host copies go stale and eviction must
            # copy back.  Read-mostly blocks keep valid host duplicates.
            self.host_vm.invalidate(target)

        record.pages_prefetched += len(prefetched)
        outcome.serviced_pages.extend(target)
        if self.trace is not None and target:
            # Fig 16c/17c fault-behaviour data: page extent migrated into
            # this block during this batch.
            self.trace.emit(
                self.clock.now,
                "migrate",
                record.batch_id,
                block.block_id,
                target[0],
                target[-1],
                len(target),
            )
        return total, False

    def _evict_one(self, exclude: Set[int], record, outcome, spend) -> None:
        """Evict the LRU VABlock (paper §5.1: fail-alloc, migrate back,
        restart)."""
        victim_id = self.eviction.require_victim(exclude)
        victim = self.vablocks.get(victim_id)
        pages = sorted(victim.resident_pages)
        evict_t0 = self._block_cursor + self._block_elapsed
        evict_usec = spend(self.cost.evict_restart_usec, "time_eviction")
        evict_usec += spend(self.cost.pagetable_cost(len(pages)), "time_eviction")
        if pages:
            elapsed_before = self._block_elapsed
            # Write-back must complete — losing the only copy of the data is
            # not a degradation option — so retry exhaustion raises even in
            # degrade mode (allow_degrade=False).
            self._transfer_with_retry(
                "d2h", contiguous_runs(pages), record, spend, allow_degrade=False
            )
            evict_usec += self._block_elapsed - elapsed_before
            record.bytes_d2h += len(pages) * 4096
            self.host_vm.mark_valid(pages)
            self.device.page_table.unmap_pages(pages)
        # Evicted data lands on the host *unmapped*: paging it back in later
        # skips unmap_mapping_range (the lower levels of Fig 13).
        if not self.host_vm.mapped_pages_of(victim.valid_pages):
            record.evictions_unmap_free += 1
        self.device.chunks.free(victim.gpu_chunk)
        victim.gpu_chunk = None
        victim.resident_pages = set()
        victim.evict_count += 1
        self.eviction.on_evicted(victim_id)
        self.san.on_block_evicted(victim)
        record.evictions += 1
        record.pages_evicted += len(pages)
        outcome.evicted_pages.extend(pages)
        self._m_pages_evicted.inc(len(pages))
        self.flight.record("evict", victim_id, len(pages), record.batch_id)
        if self.obs.chrome.enabled:
            self.obs.chrome.duration(
                f"evict block {victim_id}",
                "evict",
                ts=evict_t0,
                dur=evict_usec,
                pid=self.obs.pid(PID_EVICTION),
                tid=0,
                args={"pages": len(pages), "batch": record.batch_id},
            )
        if self.trace is not None:
            first = pages[0] if pages else victim.first_page
            last = pages[-1] if pages else victim.first_page
            self.trace.emit(
                self.clock.now,
                "evict",
                record.batch_id,
                victim_id,
                first,
                last,
                len(pages),
            )

    def _scope_expansion(
        self,
        block: VABlockState,
        faulted: List[int],
        prefetched: Set[int],
        record: BatchRecord,
        outcome: ServiceOutcome,
        spend,
    ) -> None:
        """Enlarged prefetch scope (§6 ablation): when a block goes fully
        dense, mirror the fetch into already-GPU-allocated neighbour blocks
        (each neighbour pays its own population/transfer/page-table costs)."""
        covered = len(faulted) + len(prefetched) + len(block.resident_pages)
        if covered < block.num_valid_pages:
            return
        for nbr_id in self.prefetcher.neighbour_blocks(block.block_id):
            if nbr_id not in self.vablocks:
                continue
            nbr = self.vablocks.get(nbr_id)
            if not nbr.is_gpu_allocated:
                # Allocate the neighbour only from free memory: a speculative
                # cross-block prefetch must not trigger evictions.
                chunk = self.device.chunks.allocate()
                if chunk is None:
                    continue
                nbr.gpu_chunk = chunk
                nbr.alloc_stamp = self.vablocks.next_stamp()
                record.blocks_allocated += 1
                spend(self.cost.chunk_alloc_usec, "time_alloc")
                self.eviction.on_gpu_allocated(nbr_id)
                self.san.on_block_allocated(nbr)
                if not nbr.dma_initialized:
                    result = self._dma_map_with_retry(
                        sorted(nbr.valid_pages), record, spend
                    )
                    if result is None:
                        # Speculative neighbour: just skip it this batch.
                        self._m_degrade_scope_skip.inc()
                        continue
                    spend(result.cost_usec, "time_dma")
                    nbr.dma_initialized = True
                    record.new_dma_blocks += 1
                    record.dma_mappings_created += result.new_mappings
                    record.radix_nodes_allocated += result.new_nodes
                    record.radix_slab_refills += result.slab_refills
            target = sorted(p for p in nbr.valid_pages if p not in nbr.resident_pages)
            if not target:
                continue
            mapped = self.host_vm.mapped_pages_of(nbr.valid_pages)
            if mapped:
                stats = self.host_vm.unmap_range(nbr.valid_pages)
                spend(
                    self.cost.unmap_cost(stats.pages_unmapped, stats.distinct_threads),
                    "time_unmap",
                )
                record.unmap_calls += 1
                record.pages_unmapped += stats.pages_unmapped
            transfer = [p for p in target if self.host_vm.has_valid_data(p)]
            spend(self.cost.population_cost(len(target) - len(transfer)), "time_population")
            record.pages_populated += len(target) - len(transfer)
            if transfer:
                spend(
                    len(transfer) * self.cost.migration_prep_per_page_usec,
                    "time_migrate_prep",
                )
                if not self._transfer_with_retry(
                    "h2d", contiguous_runs(transfer), record, spend
                ):
                    # Speculative neighbour transfer: skip it this batch.
                    self._m_degrade_scope_skip.inc()
                    continue
                record.pages_migrated_h2d += len(transfer)
                record.bytes_h2d += len(transfer) * 4096
            spend(self.cost.pagetable_cost(len(target)), "time_pagetable")
            self.device.page_table.map_pages(target)
            nbr.resident_pages.update(target)
            self.host_vm.invalidate(target)
            record.pages_prefetched += len(target)
            outcome.serviced_pages.extend(target)

    # -------------------------------------------------------- observability

    def _emit_block_obs(self, work: BlockWork, t_block: float, cost: float, record: BatchRecord) -> None:
        """Log one serviced VABlock as a span plus trace slices.

        Blocks are laid out serially from the clock time at the start of the
        block loop (exactly the serial driver's timeline; under the
        parallel-driver ablation the visualization shows total work, while
        the clock advances by the critical path).
        """
        obs = self.obs
        if obs.spans.enabled and cost > 0.0:
            obs.spans.record(
                "driver.vablock",
                "driver",
                sim_start=t_block,
                sim_dur=cost,
                depth=1,
                block=work.block_id,
                batch=record.batch_id,
            )
        marks = self._phase_marks
        if marks is None:
            return
        self._phase_marks = None
        if not marks:
            return
        chrome = obs.chrome
        pid = obs.pid(PID_DRIVER)
        chrome.duration(
            f"vablock {work.block_id}",
            "driver",
            ts=t_block,
            dur=cost,
            pid=pid,
            tid=TID_VABLOCK,
            args={"batch": record.batch_id, "faults": len(work.pages)},
        )
        offset = t_block
        for attr, usec in marks:
            name = attr[5:] if attr.startswith("time_") else attr
            chrome.duration(name, "driver", ts=offset, dur=usec, pid=pid, tid=TID_PHASE)
            offset += usec

    def _finish_record_obs(self, record: BatchRecord) -> None:
        """Fold one finished batch into metrics, spans, trace, and sink."""
        obs = self.obs
        self.flight.record(
            "batch.abort" if record.aborted else "batch.close",
            record.batch_id,
            record.num_faults_raw,
            record.duration,
        )
        (self._m_batches_hinted if record.hinted else self._m_batches_fault).inc()
        self._m_faults_raw.inc(record.num_faults_raw)
        self._m_faults_unique.inc(record.num_faults_unique)
        self._m_faults_duplicate.inc(record.duplicate_count)
        self._m_faults_dropped.inc(record.dropped_at_flush)
        self._m_pages_migrated.inc(record.pages_migrated_h2d)
        self._m_pages_populated.inc(record.pages_populated)
        self._m_pages_prefetched.inc(record.pages_prefetched)
        self._m_pages_unmapped.inc(record.pages_unmapped)
        self._m_bytes_h2d.inc(record.bytes_h2d)
        self._m_bytes_d2h.inc(record.bytes_d2h)
        self._m_hostos_unmap.inc(record.unmap_calls)
        self._m_hostos_dma.inc(record.dma_mappings_created)
        self._m_hostos_radix.inc(record.radix_nodes_allocated)
        self._m_batch_usec.observe(record.duration)
        self._m_batch_faults.observe(record.num_faults_raw)
        if obs.spans.enabled:
            # The batch envelope as a manual span: reconciles against
            # ``BatchRecord.duration``/``service_time`` in tests.
            obs.spans.record(
                "driver.batch",
                "driver",
                sim_start=record.t_start,
                sim_dur=record.duration,
                batch=record.batch_id,
                hinted=record.hinted,
            )
        if obs.chrome.enabled:
            kind = "hinted migration" if record.hinted else "batch"
            obs.chrome.duration(
                f"{kind} {record.batch_id}",
                "driver",
                ts=record.t_start,
                dur=record.duration,
                pid=obs.pid(PID_DRIVER),
                tid=TID_BATCH,
                args={
                    "faults_raw": record.num_faults_raw,
                    "faults_unique": record.num_faults_unique,
                    "vablocks": record.num_vablocks,
                    "pages_h2d": record.pages_migrated_h2d,
                    "evictions": record.evictions,
                },
            )
            if not record.hinted:
                # The GPU is stalled while the driver services (§6): one
                # aggregate stall slice on the SM process' summary row.
                obs.chrome.duration(
                    "stall (driver servicing)",
                    "stall",
                    ts=record.t_start,
                    dur=record.duration,
                    pid=obs.pid(PID_SM),
                    tid=self.device.config.num_sms,
                    args={"batch": record.batch_id},
                )
        if obs.sink is not None:
            obs.sink.write_batch_record(record)

    # ------------------------------------------------------------ internals

    def _spend(self, usec: float) -> float:
        """Advance the clock by a jittered cost; returns the jittered value."""
        jittered = self.cost.jitter(self.rng, usec)
        self.clock.advance(jittered)
        return jittered

    def _advance_block_phase(self, block_costs: List[float]) -> None:
        """Advance the clock for the per-block work.

        The serial driver pays the sum.  Under the parallel-driver ablation
        (§6) blocks are assigned round-robin to ``service_threads`` bins and
        the clock advances by the largest bin — the imbalance the paper
        predicts shows up as a weak speedup.
        """
        if not block_costs:
            return
        threads = self.config.driver.service_threads
        if threads <= 1:
            self.clock.advance(sum(block_costs))
            return
        bins = [0.0] * threads
        for i, cost in enumerate(block_costs):
            bins[i % threads] += cost
        self.clock.advance(max(bins))
