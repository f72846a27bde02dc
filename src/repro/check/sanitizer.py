"""UVMSan: runtime invariant sanitizer for the simulated fault path.

The reproduction replaces the paper's instrumented driver with a
deterministic simulator, so its trustworthiness rests on the simulated
invariants actually holding on every run: the 56-outstanding-fault µTLB cap
(§3.2, Fig 3), fault-buffer drop-on-overflow accounting (§2.1, footnote 1),
the VABlock allocate/evict state machine (§2.2/§5.1), residency agreement
between driver state and the GPU page table, copy-engine byte conservation,
and exact reconciliation of each :class:`BatchRecord`'s component timers
against the simulated clock (§3.1's per-batch timers).  UVMSan asserts all
of them *while the simulation runs*, so a refactor that silently breaks
reproduction fidelity fails loudly instead of producing plausible numbers.

Enablement comes from :class:`~repro.config.CheckConfig` (default off).
When disabled the engine installs :data:`NULL_SANITIZER`, whose hooks are
no-op methods — mirroring the ``obs`` layer's null instruments — and the
per-fault hot paths guard their hook calls on an attached-sanitizer ``None``
check, so a regular run pays nothing.  The sanitizer only ever *reads*
simulator state: the simulated timeline is bit-identical with it on or off.

The VABlock rules cost what a batch changed: the driver reports every
block whose chunk or page sets it changes, a batch end checks only those
blocks, and a :class:`BlockLedger` carries the global identities (chunks in
use, pages in the page table) from one batch to the next.  A full scan of
every block runs every :data:`FULL_SCAN_EVERY` batches, at the end of each
launch and after a checkpoint restore.

Violations raise :class:`repro.errors.InvariantViolation` with clock/batch
context ("raise" mode) or accumulate on :attr:`Sanitizer.violations`
("report" mode, used by ``repro validate``), and always increment the
``uvm_san_violations_total`` metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import InvariantViolation
from ..units import PAGE_SIZE
from ..core.vablock import VABlockPhase, VABlockState, legal_transition

#: Absolute + relative float tolerance for timer reconciliation: component
#: costs are summed in a different order by the clock than by
#: ``BatchRecord.service_time``, so allow double-rounding slack only.
_ABS_TOL = 1e-6
_REL_TOL = 1e-9

#: Batch ends between two full VABlock scans.  In between, a batch end
#: checks only the blocks the batch touched (see :meth:`Sanitizer.on_batch_end`).
FULL_SCAN_EVERY = 64

#: One failed block rule: ``(rule, detail, block id or None)``.
Finding = Tuple[str, str, Optional[int]]


class BlockLedger:
    """Running chunk and page accounting over one driver's VABlocks.

    :meth:`check` runs the per-block rules on some blocks and re-accounts
    each: the chunk it holds (and the chunk → block map the shared-chunk
    rule needs) and how many of its tracked pages — resident or
    remote-mapped — the GPU page table maps.  :meth:`identities` then
    compares the running totals against the chunk allocator and the page
    table.  Re-checking only the blocks that changed therefore keeps both
    global identities exact without walking every block.
    """

    __slots__ = ("chunk_of", "owner_of", "mapped_of", "mapped_total")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        #: Block id → the chunk it held when last checked.
        self.chunk_of: Dict[int, int] = {}
        #: Chunk → the block id first seen holding it.
        self.owner_of: Dict[int, int] = {}
        #: Block id → its tracked pages the page table maps.
        self.mapped_of: Dict[int, int] = {}
        self.mapped_total = 0

    def check(self, blocks, pt_resident, phases=None) -> List[Finding]:
        """Per-block rules for ``blocks``, re-accounting each.  ``phases``
        (block id → last phase seen) adds the transition rule and is
        updated."""
        chunk_of = self.chunk_of
        owner_of = self.owner_of
        # Release every old chunk first: a chunk freed by one of these
        # blocks may have been granted to another of them.
        for block in blocks:
            old_chunk = chunk_of.pop(block.block_id, None)
            if old_chunk is not None and owner_of.get(old_chunk) == block.block_id:
                del owner_of[old_chunk]
        findings: List[Finding] = []
        for block in blocks:
            self._check_block(block, pt_resident, phases, findings)
        return findings

    def _check_block(self, block, pt_resident, phases, findings) -> None:
        block_id = block.block_id
        resident = block.resident_pages
        remote = block.remote_pages
        chunk = block.gpu_chunk
        if phases is not None:
            phase = block.phase
            old = phases.get(block_id, VABlockPhase.REGISTERED)
            if not legal_transition(old, phase):
                findings.append((
                    "vablock-state",
                    f"block {block_id} jumped {old.value} -> {phase.value} "
                    "without passing the allocation path",
                    block_id,
                ))
            phases[block_id] = phase
        if not resident <= block.valid_pages:
            stray = next(iter(resident - block.valid_pages))
            findings.append((
                "residency",
                f"block {block_id} has resident page {stray} outside its "
                "valid range",
                block_id,
            ))
        if chunk is None and resident:
            findings.append((
                "vablock-state",
                f"block {block_id} has {len(resident)} resident pages but no "
                "physical chunk",
                block_id,
            ))
        if chunk is not None:
            self.chunk_of[block_id] = chunk
            owner = self.owner_of.setdefault(chunk, block_id)
            if owner != block_id:
                findings.append((
                    "memory",
                    f"blocks {owner} and {block_id} share physical chunk "
                    f"{chunk}",
                    block_id,
                ))
        mapped = 0
        for pages in (resident, remote):
            if pages <= pt_resident:
                mapped += len(pages)
                continue
            missing = pages - pt_resident
            mapped += len(pages) - len(missing)
            findings.append((
                "residency",
                f"page {next(iter(missing))} tracked as resident by block "
                f"{block_id} but absent from the GPU page table "
                f"({len(missing)} total)",
                block_id,
            ))
        if remote:
            double = resident & remote
            if double:
                mapped -= len(double & pt_resident)
                findings.append((
                    "residency",
                    f"block {block_id} page {next(iter(double))} is both "
                    "migrated and remote-mapped",
                    block_id,
                ))
        self.mapped_total += mapped - self.mapped_of.get(block_id, 0)
        self.mapped_of[block_id] = mapped

    def identities(self, device) -> List[Finding]:
        """Allocated blocks against chunks in use, and mapped tracked pages
        against the page table."""
        findings: List[Finding] = []
        used = device.chunks.used_chunks
        if len(self.chunk_of) != used:
            findings.append((
                "memory",
                f"{len(self.chunk_of)} GPU-allocated blocks vs {used} chunks "
                "in use",
                None,
            ))
        gap = len(device.page_table.resident) - self.mapped_total
        if gap > 0:
            findings.append((
                "residency",
                f"{gap} pages mapped in the GPU page table but tracked by no "
                "VABlock",
                None,
            ))
        elif gap < 0:
            findings.append((
                "residency",
                f"{-gap} pages tracked by VABlocks left the GPU page table "
                "since their blocks were last checked",
                None,
            ))
        return findings


def scan_blocks(
    driver, phases=None, ledger: Optional[BlockLedger] = None
) -> List[Finding]:
    """Full VABlock scan: the per-block rules on every block, then the
    global identities.  ``ledger`` (a fresh one by default) is rebuilt from
    scratch; ``phases`` is as for :meth:`BlockLedger.check`."""
    if ledger is None:
        ledger = BlockLedger()
    ledger.clear()
    findings = ledger.check(
        driver.vablocks.blocks(), driver.device.page_table.resident, phases
    )
    findings.extend(ledger.identities(driver.device))
    return findings


class NullSanitizer:
    """Disabled sanitizer: every hook is a no-op (the ``CheckConfig`` off
    path).  Kept attribute-compatible with :class:`Sanitizer` so call sites
    never branch on configuration."""

    enabled = False
    violations: List[InvariantViolation] = []
    total_violations = 0

    def on_batch_start(self, driver, record) -> None:
        pass

    def on_batch_end(self, driver, record, outcome=None) -> None:
        pass

    def on_batch_abort(self, driver, record) -> None:
        pass

    def on_block_allocated(self, block) -> None:
        pass

    def on_block_evicted(self, block) -> None:
        pass

    def on_block_touched(self, block) -> None:
        pass

    def on_utlb(self, utlb) -> None:
        pass

    def on_fault_buffer(self, buffer) -> None:
        pass

    def on_ce_burst(self, direction, run_lengths, nbytes, cost) -> None:
        pass

    def on_round(self, engine) -> None:
        pass

    def check_system(self, engine) -> None:
        pass

    def resync(self, engine) -> None:
        pass

    def summary(self) -> dict:
        return {
            "enabled": False,
            "violations": 0,
            "by_rule": {},
            "full_scans": 0,
            "blocks_checked": 0,
        }


NULL_SANITIZER = NullSanitizer()


class Sanitizer:
    """Active UVMSan checker (see module docstring for the invariant set)."""

    enabled = True

    def __init__(self, config, clock, obs=None) -> None:
        """``config`` is a :class:`~repro.config.CheckConfig` with
        ``enabled=True``; ``clock`` the system's :class:`SimClock`; ``obs``
        an optional :class:`~repro.obs.Observability` for the violation
        counter."""
        self.config = config
        self.clock = clock
        self.mode = config.mode
        self.violations: List[InvariantViolation] = []
        self.total_violations = 0
        if obs is not None:
            self._m_violations = obs.metrics.counter(
                "uvm_san_violations_total",
                "UVMSan invariant violations detected",
                labels=("rule",),
            )
        else:  # standalone use (tests driving the sanitizer directly)
            from ..obs.metrics import MetricsRegistry

            self._m_violations = MetricsRegistry(enabled=False).counter(
                "uvm_san_violations_total", "", labels=("rule",)
            )
        from ..obs.flight import NULL_FLIGHT

        #: Flight recorder: violations land in the crash-bundle ring too.
        self._flight = obs.flight if obs is not None else NULL_FLIGHT
        #: Monotonicity watermark for the shared simulated clock.
        self._last_clock = clock.now
        #: Context: batch currently being serviced (None between batches).
        self._batch_id: Optional[int] = None
        self._last_batch_id = -1
        #: Copy-engine byte counters snapshotted at batch start.
        self._ce_h2d0 = 0
        self._ce_d2h0 = 0
        #: Last phase observed per block — transitions that bypass the
        #: allocate/evict hooks (illegal REGISTERED→RESIDENT jumps) show up
        #: as illegal edges when the block is next checked.
        self._phases: Dict[int, VABlockPhase] = {}
        #: Highest allocation stamp seen (stamps must be strictly monotonic).
        self._max_stamp = 0
        #: Blocks whose chunk or page sets changed since they were last
        #: checked, by id in hook order.
        self._touched: Dict[int, VABlockState] = {}
        #: Running chunk/page accounting behind the global identities.
        self._ledger = BlockLedger()
        self._batches_since_scan = 0
        #: Full scans run, and blocks checked by the per-batch path.
        self.full_scans = 0
        self.blocks_checked = 0

    # ------------------------------------------------------------ reporting

    def _violate(self, rule: str, detail: str, **context) -> None:
        violation = InvariantViolation(
            rule,
            detail,
            clock_usec=self.clock.now,
            batch_id=self._batch_id,
            context=context,
        )
        self._m_violations.labels(rule).inc()
        self._flight.record("san.violation", rule, self._batch_id)
        self.total_violations += 1
        if self.mode == "raise":
            raise violation
        if len(self.violations) < self.config.max_violations:
            self.violations.append(violation)

    def summary(self) -> dict:
        """Violation roll-up for ``repro validate`` output."""
        by_rule: Dict[str, int] = {}
        for v in self.violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return {
            "enabled": True,
            "mode": self.mode,
            "violations": self.total_violations,
            "by_rule": by_rule,
            "full_scans": self.full_scans,
            "blocks_checked": self.blocks_checked,
        }

    # ----------------------------------------------------------- primitives

    def _check_clock(self) -> None:
        now = self.clock.now
        if now < self._last_clock:
            self._violate(
                "clock",
                f"simulated clock moved backwards: {now:.6f} < "
                f"{self._last_clock:.6f}",
            )
        self._last_clock = max(self._last_clock, now)

    def on_utlb(self, utlb) -> None:
        """Per-µTLB cap and bookkeeping agreement (paper §3.2, Fig 3)."""
        if utlb.outstanding < 0 or utlb.outstanding > utlb.limit:
            self._violate(
                "utlb-cap",
                f"uTLB {utlb.utlb_id} outstanding={utlb.outstanding} outside "
                f"[0, {utlb.limit}]",
                utlb=utlb.utlb_id,
            )
        if utlb.outstanding != len(utlb.pending_pages):
            self._violate(
                "utlb-cap",
                f"uTLB {utlb.utlb_id} outstanding={utlb.outstanding} != "
                f"{len(utlb.pending_pages)} pending pages",
                utlb=utlb.utlb_id,
            )

    def on_fault_buffer(self, buffer) -> None:
        """Occupancy bound and push/fetch/flush conservation (§2.1).

        Under chaos testing (:mod:`repro.inject`) the identity gains two
        terms: entries the injector fabricated (``total_injected``, spurious
        duplicates) enter on the left, and arrivals an injected overflow
        storm swallowed (``total_injector_dropped``) leave on the right.
        Both are zero when injection is off, reducing to the plain identity.
        """
        occupancy = len(buffer)
        if occupancy > buffer.capacity:
            self._violate(
                "fault-buffer",
                f"buffer occupancy {occupancy} exceeds capacity "
                f"{buffer.capacity}",
            )
        pushed = buffer.total_pushed + buffer.total_injected
        balance = (
            buffer.total_fetched
            + buffer.total_flush_dropped
            + buffer.total_injector_dropped
            + occupancy
        )
        if pushed != balance:
            self._violate(
                "fault-buffer",
                f"fault conservation broken: pushed {buffer.total_pushed} + "
                f"injected {buffer.total_injected} != fetched "
                f"{buffer.total_fetched} + flushed "
                f"{buffer.total_flush_dropped} + injector-dropped "
                f"{buffer.total_injector_dropped} + residual {occupancy}",
            )

    def on_ce_burst(self, direction, run_lengths, nbytes, cost) -> None:
        """Copy-engine burst sanity: page/byte agreement, non-negative cost."""
        expected = sum(n for n in run_lengths if n > 0) * PAGE_SIZE
        if nbytes != expected:
            self._violate(
                "ce-bytes",
                f"{direction} burst accounted {nbytes} bytes but runs total "
                f"{expected}",
                direction=direction,
            )
        if cost < 0.0 or (nbytes > 0 and cost <= 0.0):
            self._violate(
                "ce-bytes",
                f"{direction} burst of {nbytes} bytes has non-positive cost "
                f"{cost}",
                direction=direction,
            )

    # ---------------------------------------------------------- block events

    def on_block_allocated(self, block) -> None:
        """A VABlock just received a physical chunk (§5.1 allocate edge)."""
        old = self._phases.get(block.block_id, VABlockPhase.REGISTERED)
        if old is not VABlockPhase.REGISTERED:
            # Unlike the generic scan, the allocate hook permits no
            # self-transition: granting a fresh chunk to a block already in
            # phase `old` is a double allocation (or an eviction the
            # sanitizer never saw).
            self._violate(
                "vablock-state",
                f"block {block.block_id} illegal transition {old.value} -> "
                "allocated",
                block=block.block_id,
            )
        if block.gpu_chunk is None:
            self._violate(
                "vablock-state",
                f"block {block.block_id} reported allocated without a chunk",
                block=block.block_id,
            )
        if block.resident_pages:
            self._violate(
                "vablock-state",
                f"block {block.block_id} allocated a fresh chunk while "
                f"{len(block.resident_pages)} pages were already resident",
                block=block.block_id,
            )
        if block.alloc_stamp <= self._max_stamp:
            # Stamps come from VABlockManager.next_stamp and must strictly
            # increase across allocations (LRU ordering depends on it).
            self._violate(
                "vablock-state",
                f"block {block.block_id} allocation stamp "
                f"{block.alloc_stamp} not monotonic (last {self._max_stamp})",
                block=block.block_id,
            )
        self._max_stamp = max(self._max_stamp, block.alloc_stamp)
        self._phases[block.block_id] = VABlockPhase.ALLOCATED
        self._touched[block.block_id] = block

    def on_block_evicted(self, block) -> None:
        """A VABlock just lost its chunk (§5.1 evict edge)."""
        if block.gpu_chunk is not None:
            self._violate(
                "vablock-state",
                f"block {block.block_id} evicted but still holds chunk "
                f"{block.gpu_chunk}",
                block=block.block_id,
            )
        if block.resident_pages:
            self._violate(
                "vablock-state",
                f"block {block.block_id} evicted with "
                f"{len(block.resident_pages)} pages still resident",
                block=block.block_id,
            )
        if block.evict_count < 1:
            self._violate(
                "vablock-state",
                f"block {block.block_id} evicted but evict_count is "
                f"{block.evict_count}",
                block=block.block_id,
            )
        self._phases[block.block_id] = VABlockPhase.REGISTERED
        self._touched[block.block_id] = block

    def on_block_touched(self, block) -> None:
        """``block``'s resident or remote-mapped pages changed; it is
        checked at the next batch end."""
        self._touched[block.block_id] = block

    # --------------------------------------------------------- batch bounds

    def on_batch_start(self, driver, record) -> None:
        self._check_clock()
        self._batch_id = record.batch_id
        if record.batch_id <= self._last_batch_id:
            self._violate(
                "batch-record",
                f"batch id {record.batch_id} not monotonic (last "
                f"{self._last_batch_id})",
            )
        self._last_batch_id = max(self._last_batch_id, record.batch_id)
        # Sum over the copy-engine pair: a mid-batch stuck-burst failover
        # moves traffic to the sibling, but byte conservation holds for the
        # pair as a whole.
        self._ce_h2d0 = sum(ce.bytes_h2d for ce in driver.device.copy_engines)
        self._ce_d2h0 = sum(ce.bytes_d2h for ce in driver.device.copy_engines)

    def on_batch_end(self, driver, record, outcome=None) -> None:
        self._check_clock()
        self._check_record(driver, record, outcome)
        self._check_ce_reconciliation(driver, record)
        self._check_retry_bounds(driver, record)
        self.on_fault_buffer(driver.device.fault_buffer)
        for utlb in driver.device.utlbs:
            self.on_utlb(utlb)
        self._batches_since_scan += 1
        if self._batches_since_scan >= FULL_SCAN_EVERY:
            self._scan_blocks(driver)
        else:
            self._check_touched(driver)
        self._batch_id = None

    def on_batch_abort(self, driver, record) -> None:
        """A batch raised mid-service (fail-fast exhaustion, injected fault).

        The record is partial — component timers stopped wherever the
        exception unwound, counters cover only the work that happened — so
        the reconciliation identities of :meth:`on_batch_end` do not apply.
        Only the envelope and the abort marking are checkable.
        """
        self._check_clock()
        if not record.aborted:
            self._violate(
                "batch-record",
                f"batch {record.batch_id} closed via the abort path without "
                "being marked aborted",
            )
        if record.t_end < record.t_start:
            self._violate(
                "batch-record",
                f"aborted batch {record.batch_id} ends ({record.t_end:.6f}) "
                f"before it starts ({record.t_start:.6f})",
            )
        self._batch_id = None

    def _check_record(self, driver, record, outcome) -> None:
        """Counter identities and timer reconciliation for one record."""
        if record.t_end < record.t_start:
            self._violate(
                "batch-record",
                f"batch {record.batch_id} ends ({record.t_end:.6f}) before "
                f"it starts ({record.t_start:.6f})",
            )
        if record.num_faults_unique > record.num_faults_raw:
            self._violate(
                "batch-record",
                f"batch {record.batch_id}: {record.num_faults_unique} unique "
                f"faults exceed {record.num_faults_raw} raw",
            )
        if record.num_faults_raw > 0:
            if (
                record.num_faults_unique + record.duplicate_count
                != record.num_faults_raw
            ):
                self._violate(
                    "batch-record",
                    f"batch {record.batch_id}: unique "
                    f"{record.num_faults_unique} + duplicates "
                    f"{record.duplicate_count} != raw {record.num_faults_raw}",
                )
            if record.t_first_fault > record.t_last_fault:
                self._violate(
                    "batch-record",
                    f"batch {record.batch_id}: first fault arrives after the "
                    "last",
                )
            if record.vablock_fault_counts is not None and not record.hinted:
                total = int(record.vablock_fault_counts.sum())
                if total != record.num_faults_unique:
                    self._violate(
                        "batch-record",
                        f"batch {record.batch_id}: per-block fault counts sum "
                        f"to {total}, not {record.num_faults_unique}",
                    )
        if record.bytes_h2d != record.pages_migrated_h2d * PAGE_SIZE:
            self._violate(
                "batch-record",
                f"batch {record.batch_id}: {record.bytes_h2d} h2d bytes vs "
                f"{record.pages_migrated_h2d} pages",
            )
        if outcome is not None and record.dropped_at_flush != len(
            outcome.dropped_faults
        ):
            self._violate(
                "batch-record",
                f"batch {record.batch_id}: dropped_at_flush "
                f"{record.dropped_at_flush} != {len(outcome.dropped_faults)} "
                "flushed faults",
            )
        # Exact timer reconciliation (§3.1): for the serial driver with
        # synchronous unmapping, the component timers must tile the batch
        # envelope exactly.  The parallel-driver and async-unmap ablations
        # account work the clock does not serialize, so the sum may only
        # exceed the envelope.
        duration = record.duration
        service = record.service_time
        tol = _ABS_TOL + _REL_TOL * max(abs(duration), abs(service))
        serial = (
            driver.config.driver.service_threads == 1
            and not driver.config.driver.async_unmap
        )
        if serial and abs(service - duration) > tol:
            self._violate(
                "time-reconcile",
                f"batch {record.batch_id}: component timers sum to "
                f"{service:.6f}us but the batch envelope is "
                f"{duration:.6f}us",
            )
        elif not serial and service < duration - tol:
            self._violate(
                "time-reconcile",
                f"batch {record.batch_id}: component timers ({service:.6f}us) "
                f"cover less than the batch envelope ({duration:.6f}us)",
            )

    def _check_retry_bounds(self, driver, record) -> None:
        """Resilience counters must respect the configured retry policy.

        With injection off every resilience counter (and the retry-backoff
        timer) must be exactly zero — a non-zero value means the retry path
        ran without a fault source, i.e. phantom failures.  With injection
        on, each retry loop counts at most ``max_attempts`` failures per
        invocation; the number of loop invocations in one batch
        is bounded by the serviced VABlocks, evictions, and the prefetch
        scope fan-out, so a generous structural ceiling catches unbounded
        retry loops without false positives.
        """
        counters = (
            ("retries_dma", record.retries_dma),
            ("retries_transfer", record.retries_transfer),
            ("retries_populate", record.retries_populate),
            ("ce_failovers", record.ce_failovers),
            ("prefetch_fallbacks", record.prefetch_fallbacks),
            ("blocks_deferred", record.blocks_deferred),
        )
        if not driver.inj.enabled:
            for name, value in counters:
                if value != 0:
                    self._violate(
                        "retry-bounds",
                        f"batch {record.batch_id}: {name}={value} with fault "
                        "injection disabled",
                    )
            if record.time_retry_backoff != 0.0:
                self._violate(
                    "retry-bounds",
                    f"batch {record.batch_id}: time_retry_backoff="
                    f"{record.time_retry_backoff} with fault injection "
                    "disabled",
                )
            return
        cfg = driver.config.driver
        scope = cfg.prefetch_scope_blocks
        # Retry-loop invocations: one DMA map + one transfer per serviced
        # block, one d2h per eviction, one DMA + transfer per speculative
        # scope neighbour, plus slack for hinted/advise paths.
        loops = (record.num_vablocks + record.evictions + 2) * (2 * scope + 2)
        bound = cfg.retry_max_attempts * max(loops, 1)
        for name, value in counters[:4]:
            if value > bound:
                self._violate(
                    "retry-bounds",
                    f"batch {record.batch_id}: {name}={value} exceeds the "
                    f"structural retry ceiling {bound} "
                    f"(max_attempts={cfg.retry_max_attempts})",
                )
        if record.retries_populate > max(record.num_vablocks, 1):
            self._violate(
                "retry-bounds",
                f"batch {record.batch_id}: retries_populate="
                f"{record.retries_populate} exceeds one ENOMEM per serviced "
                f"VABlock ({record.num_vablocks})",
            )

    def _check_ce_reconciliation(self, driver, record) -> None:
        """Bytes the copy engines moved during the batch must equal the
        record's migration accounting (byte conservation)."""
        ces = driver.device.copy_engines
        h2d_delta = sum(ce.bytes_h2d for ce in ces) - self._ce_h2d0
        d2h_delta = sum(ce.bytes_d2h for ce in ces) - self._ce_d2h0
        if h2d_delta != record.bytes_h2d:
            self._violate(
                "ce-bytes",
                f"batch {record.batch_id}: copy engine moved {h2d_delta} h2d "
                f"bytes but the record accounts {record.bytes_h2d}",
            )
        if d2h_delta != record.bytes_d2h:
            self._violate(
                "ce-bytes",
                f"batch {record.batch_id}: copy engine moved {d2h_delta} d2h "
                f"bytes but the record accounts {record.bytes_d2h}",
            )

    # --------------------------------------------------------- global scans

    def _report(self, findings: List[Finding]) -> None:
        for rule, detail, block_id in findings:
            if block_id is None:
                self._violate(rule, detail)
            else:
                self._violate(rule, detail, block=block_id)

    def _check_touched(self, driver) -> None:
        """Per-block rules on the blocks touched since the last check, then
        the global identities from the running ledger."""
        touched = self._touched
        if touched:
            self._report(self._ledger.check(
                touched.values(), driver.device.page_table.resident, self._phases
            ))
            self.blocks_checked += len(touched)
            touched.clear()
        self._report(self._ledger.identities(driver.device))

    def _scan_blocks(self, driver) -> None:
        """Full scan: every block, with the ledger rebuilt from scratch."""
        self.full_scans += 1
        self._batches_since_scan = 0
        self._touched.clear()
        self._report(scan_blocks(driver, self._phases, self._ledger))

    # ------------------------------------------------------------ engine

    def on_round(self, engine) -> None:
        """Per-round check after each serviced batch: the clock.  Every
        µTLB mutation already runs :meth:`on_utlb`, and every buffer
        append, fetch and flush runs :meth:`on_fault_buffer`."""
        self._check_clock()

    def check_system(self, engine) -> None:
        """Full consistency sweep (end of launch / on demand)."""
        self._check_clock()
        for utlb in engine.device.utlbs:
            self.on_utlb(utlb)
        self.on_fault_buffer(engine.device.fault_buffer)
        self._scan_blocks(engine.driver)
        self._check_engine_counters(engine)

    def _check_engine_counters(self, engine) -> None:
        """Engine-side resilience counters obey the no-phantom-failure rule.

        Same contract as the per-batch retry-bounds check: with injection
        off, the CPU-touch D2H retry path must never have fired.
        """
        counters = getattr(engine, "counters", None)
        if counters is None or engine.injector.enabled:
            return
        for name, value in counters.as_dict().items():
            if value != 0:
                self._violate(
                    "retry-bounds",
                    f"engine counter {name}={value} with fault injection "
                    "disabled",
                )

    def resync(self, engine) -> None:
        """Re-baseline internal watermarks after a checkpoint restore.

        A restore legitimately rewinds the simulated clock, batch ids, block
        phases, and allocation stamps; without a resync the monotonicity
        checks would flag the rewind itself.  Violations already recorded
        stay recorded — restore never launders a real violation.
        """
        driver = engine.driver
        self._last_clock = engine.clock.now
        self._batch_id = None
        self._last_batch_id = driver._batch_id - 1
        self._phases = {
            block.block_id: block.phase for block in driver.vablocks.blocks()
        }
        self._max_stamp = driver.vablocks._stamp
        self._ce_h2d0 = sum(ce.bytes_h2d for ce in driver.device.copy_engines)
        self._ce_d2h0 = sum(ce.bytes_d2h for ce in driver.device.copy_engines)
        # The restored blocks are new objects: rebuild the ledger over them.
        self._scan_blocks(driver)


def make_sanitizer(config, clock, obs=None):
    """Build the configured sanitizer: active, or the shared null object."""
    if config is None or not config.enabled:
        return NULL_SANITIZER
    # Arm the copy-engine run-builder's sortedness assertion alongside the
    # sanitizer (sticky for the process: a cheap precondition check, and
    # other engines in the process may share the copy-engine module).
    from ..gpu.copy_engine import enable_sortedness_checks

    enable_sortedness_checks(True)
    return Sanitizer(config, clock, obs=obs)
