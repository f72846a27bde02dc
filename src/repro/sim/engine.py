"""The GPU↔driver orchestration loop.

The paper observes (§6 "Driver Serialization") that "the GPU is generally
stalled during driver fault processing, leading to highly synchronous
behavior between the CPU and GPU with little overlap".  The engine models
that faithfully as an alternation:

* **GPU round** — SMs activate queued warps, advance runnable warps
  (accruing compute time), and issue faults into the hardware buffer subject
  to the µTLB outstanding cap and the per-SM rate throttle.  Faults arrive
  in rapid succession with round-robin interleaving across SMs (Fig 4,
  Table 2's "SMs are served relatively fairly").
* **Driver phase** — the worker fetches *one* batch (up to ``batch_size``),
  services it, then flushes the buffer and issues the replay (§4.2: the
  buffer is flushed before every replay; dropped faults reissue).

The throttle window depends on whether the worker was sleeping: a sleeping
driver leaves a long generation window (interrupt + wake), letting SMs fill
their µTLBs (the 56-fault first batch of Fig 3); a busy driver turns batches
around fast, capping each SM at ``sm_fault_rate_limit`` per window (the
small later batches, and the ~500-unique-fault generation ceiling behind
Fig 9's diminishing returns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..check.sanitizer import make_sanitizer
from ..config import SystemConfig
from ..core.batch_record import BatchRecord
from ..core.driver import ServiceOutcome, UvmDriver
from ..errors import (
    DeadlockError,
    InjectedCrash,
    RetryExhausted,
    SimulationError,
    TransferFault,
    TransferStuck,
    UvmError,
)
from ..gpu.copy_engine import contiguous_runs
from ..inject import make_injector
from ..gpu.device import GpuDevice
from ..gpu.fault import AccessType, FaultArrays
from ..gpu.sm import StreamingMultiprocessor
from ..gpu.warp import KernelLaunch, WarpProgram, WarpState, wake
from ..hostos.cost_model import CostModel
from ..hostos.cpu import HostCpu
from ..hostos.dma import DmaMapper
from ..hostos.host_vm import HostVm
from ..obs import Observability
from ..obs.metrics import DEFAULT_COUNT_BUCKETS
from ..units import fold_sum, vablock_of_page
from .checkpoint import EngineCheckpoint
from .clock import SimClock
from .rng import spawn_rng


@dataclass
class LaunchResult:
    """Summary of one kernel launch."""

    name: str
    #: Simulated kernel wall time (µs), launch to last warp retired.
    kernel_time_usec: float
    #: Batch records produced during this launch.
    records: List[BatchRecord] = field(default_factory=list)
    #: GPU compute time accrued by warp phases (µs).
    compute_time_usec: float = 0.0
    num_warps: int = 0
    total_faults: int = 0

    @property
    def batch_time_usec(self) -> float:
        """Aggregate batch servicing time (Table 4's "Batch" column)."""
        return fold_sum(r.duration for r in self.records)

    @property
    def num_batches(self) -> int:
        return len(self.records)


@dataclass
class LaunchProgress:
    """Mutable state of an in-flight kernel launch.

    Lives on the engine (not in :meth:`Engine._launch` locals) so a
    checkpoint captures it and a restored engine can :meth:`Engine.resume`
    the launch mid-flight.
    """

    name: str
    num_warps: int
    #: Clock time the launch began (kernel wall time baseline).
    start_time: float
    #: Index into the driver's batch log where this launch's records start.
    first_record: int
    compute_total: float = 0.0
    driver_slept: bool = True
    guard_rounds: int = 0
    done: bool = False


@dataclass
class EngineCounters:
    """The engine's own accounting: launches, rounds, crash bundles, and
    resilience on the engine-side (non-batch) fault path.

    The CPU-touch D2H migration burst retries outside any driver batch, so
    its retries/failovers have no :class:`BatchRecord` to land in.  They
    accumulate here instead and surface through the chaos report and the
    ``uvm_retries_total``/``uvm_ce_failovers_total`` metric families
    (:meth:`Engine._fold_metrics` adds them to the batch log's totals).
    Instrumentation, not simulation state: deliberately excluded from
    checkpoints (it never rewinds on crash recovery).
    """

    d2h_retries: int = 0
    d2h_failovers: int = 0
    d2h_backoff_usec: float = 0.0
    #: Simulated wall time (µs) of each kernel launch that finished.
    kernel_usec: List[float] = field(default_factory=list)
    #: GPU fault-generation rounds of the launches that finished.
    rounds: int = 0
    #: Crash bundles written.
    bundles: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "engine_d2h_retries": self.d2h_retries,
            "engine_d2h_failovers": self.d2h_failovers,
            "engine_d2h_backoff_usec": self.d2h_backoff_usec,
        }


class Engine:
    """Owns the full simulated stack and runs kernels against it."""

    def __init__(
        self,
        config: SystemConfig,
        trace: bool = False,
        clock: Optional[SimClock] = None,
        host_vm: Optional[HostVm] = None,
        dma: Optional[DmaMapper] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        """``clock``/``host_vm``/``dma``/``obs`` may be shared across
        engines — the multi-GPU coordinator passes one host-side state (and
        one observability layer, with per-device scoped trace tracks) to
        every device's engine (one host OS, many GPUs, as in real UVM).
        ``trace`` builds the engine's own observability layer with a
        tracing flight recorder (see :mod:`repro.obs.flight`)."""
        config.validate()
        self.config = config
        self.cost = CostModel().apply_overrides(config.cost_overrides)
        self.clock = clock if clock is not None else SimClock()
        if obs is None:
            obs = Observability(config.obs, self.clock, trace=trace)
        self.obs = obs
        self.device = GpuDevice(
            config.gpu,
            copy_bandwidth_bytes_per_usec=self.cost.link_bandwidth_bytes_per_usec,
            copy_latency_usec=self.cost.transfer_latency_usec,
        )
        self.host_vm = host_vm if host_vm is not None else HostVm()
        self.host_cpu = HostCpu(config.host)
        self.dma = dma if dma is not None else DmaMapper(self.cost)
        self.rng = spawn_rng(config.seed, "engine")
        #: UVMSan runtime invariant checker (null object when disabled, so
        #: the hot paths below pay a single attribute read at most).
        self.sanitizer = make_sanitizer(config.check, self.clock, self.obs)
        if self.sanitizer.enabled:
            self.device.fault_buffer.attach_sanitizer(self.sanitizer)
            for ce in self.device.copy_engines:
                ce.attach_sanitizer(self.sanitizer)
            for utlb in self.device.utlbs:
                utlb.attach_sanitizer(self.sanitizer)
        #: Fault injector (null object when chaos testing is off).  Real
        #: injectors are attached to each component so the disabled hot
        #: paths stay branch-free (``_inj is None`` guards, like UVMSan).
        self.injector = make_injector(config.inject, config.seed, self.clock)
        self._inject_on = self.injector.enabled
        if self._inject_on:
            self.device.fault_buffer.attach_injector(self.injector)
            for ce in self.device.copy_engines:
                ce.attach_injector(self.injector)
            self.dma.attach_injector(self.injector)
        #: Flight recorder (black box): a null object when off, so hooks on
        #: the paths below cost one no-op call at most.
        self.flight = self.obs.flight
        if self.flight.enabled:
            for ce in self.device.copy_engines:
                ce.attach_flight(self.flight)
        #: Tracing recorder: also log every warp's compute slice.
        self._tracing = self.flight.tracing
        #: Where the latest crash bundle landed (None until a crash writes
        #: one; see :meth:`_capture_bundle`).
        self.last_bundle = None
        self.counters = EngineCounters()
        self.obs.metrics.add_fold(self._fold_metrics)
        self.driver = UvmDriver(
            config=config,
            device=self.device,
            clock=self.clock,
            host_vm=self.host_vm,
            dma=self.dma,
            cost_model=self.cost,
            rng=spawn_rng(config.seed, "driver-jitter"),
            obs=self.obs,
            sanitizer=self.sanitizer,
            injector=self.injector,
        )
        self.obs.chrome.add_source(
            self.obs.pid_base, self.obs.label, self.flight, self.driver.log,
            config.gpu.num_sms,
        )
        #: page → warps blocked on it.
        self._waiters: Dict[int, List[WarpState]] = {}
        #: uid → live (activated, not yet retired) warp.
        self._warps: Dict[int, WarpState] = {}
        #: The current launch's warp programs, in launch order.
        self._programs: Tuple[WarpProgram, ...] = ()
        #: What the checkpoint layer's next capture reuses: the program
        #: table of ``_programs`` and the last capture's part pickles.
        self._pickles = None
        self._prefetch_queue: List[Tuple[int, int]] = []  # (sm_id, page)
        #: Prefetch pages one warp advance emits (always left empty).
        self._emitted: List[int] = []
        #: SMs a round visits (see :meth:`_busy`); None rebuilds the list.
        self._busy_sms: Optional[List[StreamingMultiprocessor]] = None
        self._uid = 0
        self._last_retire_at = 0.0
        self._window_start = 0.0
        #: Hit-aware eviction policies need warps to report in-memory hits.
        self._hit_aware_eviction = config.driver.eviction_policy == "access-counter"
        #: In-flight launch state (checkpointable); None outside a launch.
        self._progress: Optional[LaunchProgress] = None
        #: Latest auto-checkpoint (crash-recovery restore target).
        self._auto_checkpoint = None
        #: Test/tooling hooks called as ``hook(engine, batch_id)`` after
        #: every serviced batch (checkpoint property tests attach here).
        self._batch_hooks: List[Callable[["Engine", int], None]] = []


    # -------------------------------------------------------------- helpers

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    # ---------------------------------------------------------- host phases

    def host_touch(
        self,
        pages: Iterable[int],
        thread_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        """A CPU phase touches managed ``pages`` (global page ids).

        Device-resident pages migrate back (CPU-side faulting), and the
        pages become host-mapped — arming the next GPU touch of their blocks
        with an ``unmap_mapping_range()`` cost (§4.4).  ``thread_of`` maps a
        global page id to the touching CPU thread (default: thread 0).
        """
        pages = list(pages)
        if not pages:
            return
        if thread_of is None:
            thread_of = lambda page: 0
        try:
            page_table = self.device.page_table
            resident = [
                p
                for p in pages
                if p in page_table.resident and p not in page_table.remote
            ]
            if resident:
                resident.sort()
                self.clock.advance(self._d2h_with_retry(contiguous_runs(resident)))
                page_table.unmap_pages(resident)
                self.host_vm.mark_valid(resident)
            self.host_vm.cpu_touch(pages, thread_of)
            self.clock.advance(self.host_cpu.touch_cost_usec(len(pages)))
        except UvmError as exc:
            self._capture_bundle(exc)
            raise

    def _d2h_with_retry(self, run_lengths) -> float:
        """CPU-side fault migration burst with the driver's retry policy.

        The data must come back (the CPU touch reads it), so exhaustion
        raises :class:`repro.errors.RetryExhausted` in both failure modes;
        stuck bursts fail over to the sibling engine like the driver does.
        Retry overhead is charged straight to the clock and accounted in
        :attr:`counters` (there is no batch record on this path), which the
        ``uvm_retries_total{site="ce"}``/``uvm_ce_failovers_total`` families
        read, mirroring the driver's convention (transient fault → retry,
        stuck → failover only).
        """
        ce = self.device.copy_engines[self.driver._active_ce_id]
        retry = self.driver.retry
        counters = self.counters
        attempt = 1
        while True:
            try:
                return ce.device_to_host(run_lengths)
            except TransferFault as exc:
                self.clock.advance(exc.wasted_usec)
                counters.d2h_backoff_usec += exc.wasted_usec
                counters.d2h_retries += 1
                self.flight.record("retry", "ce", attempt)
                if attempt >= retry.max_attempts:
                    raise RetryExhausted("ce.transfer_fault", attempt, exc)
                backoff = retry.backoff_usec(attempt)
                self.clock.advance(backoff)
                counters.d2h_backoff_usec += backoff
            except TransferStuck as exc:
                self.clock.advance(retry.deadline_usec)
                counters.d2h_backoff_usec += retry.deadline_usec
                counters.d2h_failovers += 1
                self.flight.record("failover", "ce", attempt)
                if attempt >= retry.max_attempts:
                    raise RetryExhausted("ce.stuck", attempt, exc)
                ce = self.device.sibling_of(ce)
            attempt += 1

    # -------------------------------------------------------------- launch

    def launch(self, kernel: KernelLaunch) -> LaunchResult:
        """Run a kernel to completion; returns its launch summary.

        A launch that dies with a :class:`~repro.errors.UvmError` (retry
        exhaustion, raise-mode invariant violation, unrecovered injected
        crash, deadlock) writes a crash bundle on the way out when
        ``config.obs.bundle_dir`` is set; the exception then propagates
        unchanged.
        """
        self.flight.record("launch", kernel.name, len(kernel.programs))
        try:
            result = self._launch(kernel)
        except UvmError as exc:
            self._capture_bundle(exc)
            raise
        self.flight.record("launch.done", kernel.name, result.num_batches)
        self.counters.kernel_usec.append(result.kernel_time_usec)
        return result

    def _launch(self, kernel: KernelLaunch) -> LaunchResult:
        device = self.device
        device.reset_scheduling()
        self._waiters.clear()
        self._prefetch_queue.clear()

        occupancy = kernel.occupancy or self.config.gpu.max_warps_per_sm
        for sm in device.sms:
            sm.occupancy_limit = min(occupancy, self.config.gpu.max_warps_per_sm)
        self._programs = tuple(kernel.programs)
        for i, program in enumerate(self._programs):
            device.sms[i % len(device.sms)].enqueue(program)
        self._busy_sms = None

        self._progress = LaunchProgress(
            name=kernel.name,
            num_warps=len(kernel.programs),
            start_time=self.clock.now,
            first_record=len(self.driver.log),
        )
        self._last_retire_at = self.clock.now
        if self._inject_on:
            # Baseline recovery point: an injected crash before the first
            # periodic checkpoint restores to the launch start.
            self._auto_checkpoint = EngineCheckpoint.capture(self)
        return self._run_loop()

    def resume(self) -> LaunchResult:
        """Continue an in-flight launch after a checkpoint restore.

        The restored :class:`LaunchProgress` carries everything the loop
        needs; the returned result covers the *whole* launch, exactly as if
        it had never been interrupted.
        """
        if self._progress is None or self._progress.done:
            raise SimulationError("no in-flight launch to resume")
        self.flight.record("resume", self._progress.name)
        try:
            return self._run_loop()
        except UvmError as exc:
            self._capture_bundle(exc)
            raise

    def _run_loop(self) -> LaunchResult:
        device = self.device
        max_rounds = 1_000_000
        while True:
            # Re-read each iteration: a crash recovery inside _after_batch
            # replaces self._progress with the checkpointed instance.
            p = self._progress
            p.guard_rounds += 1
            if p.guard_rounds > max_rounds:  # pragma: no cover - safety net
                raise DeadlockError("engine exceeded round limit")
            progressed, compute, stalled = self._gpu_round(burst=p.driver_slept)
            p.compute_total += compute
            if len(device.fault_buffer) == 0:
                if device.idle:
                    break
                if not progressed:
                    # Warps may all be mid-compute: jump to the earliest
                    # phase completion (the driver sleeps meanwhile, §2.2).
                    next_ready = self._next_ready_time()
                    if next_ready is not None and next_ready > self.clock.now:
                        self.clock.advance_to(next_ready)
                    elif not stalled:
                        raise DeadlockError(
                            "no faults outstanding and no warp can progress"
                        )
                    # An injected µTLB stall lasts one replay window: the
                    # stalled warps issue in the next round.
                # Worker found no new faults and went to sleep (§2.2).
                p.driver_slept = True
                continue
            outcome = self.driver.service_next_batch(slept=p.driver_slept)
            p.driver_slept = False
            self._apply_outcome(outcome)
            self.sanitizer.on_round(self)
            self._after_batch(outcome.record.batch_id)

        # Wait out trailing compute of the last-retired warps.
        p = self._progress
        p.done = True
        self.clock.advance_to(self._last_retire_at)
        self.sanitizer.check_system(self)
        self.counters.rounds += p.guard_rounds
        records = self.driver.log.records[p.first_record:]
        return LaunchResult(
            name=p.name,
            kernel_time_usec=self.clock.now - p.start_time,
            records=records,
            compute_time_usec=p.compute_total,
            num_warps=p.num_warps,
            total_faults=sum(r.num_faults_raw for r in records),
        )

    # -------------------------------------------------------------- metrics

    def _fold_metrics(self, metrics) -> None:
        """Build this engine's metric families from the batch log and the
        counters of the components where the events happen.  The registry
        runs this at every read, so a family rewinds with a crash recovery
        exactly when what it reads is checkpointed state (not so
        :attr:`counters`, the injector's crash and recovery counts, and the
        sanitizer's violations)."""
        records = self.driver.log.records
        batches = metrics.counter("uvm_batches_total", labels=("kind",))
        hinted = sum(1 for r in records if r.hinted)
        batches.labels("fault").inc(len(records) - hinted)
        batches.labels("hinted").inc(hinted)
        faults = metrics.counter("uvm_faults_total", labels=("kind",))
        faults.labels("raw").inc(sum(r.num_faults_raw for r in records))
        faults.labels("unique").inc(sum(r.num_faults_unique for r in records))
        faults.labels("duplicate").inc(sum(r.duplicate_count for r in records))
        faults.labels("dropped").inc(sum(r.dropped_at_flush for r in records))
        pages = metrics.counter("uvm_pages_total", labels=("op",))
        pages.labels("migrated_h2d").inc(sum(r.pages_migrated_h2d for r in records))
        pages.labels("populated").inc(sum(r.pages_populated for r in records))
        pages.labels("prefetched").inc(sum(r.pages_prefetched for r in records))
        pages.labels("unmapped").inc(sum(r.pages_unmapped for r in records))
        pages.labels("evicted").inc(sum(r.pages_evicted for r in records))
        metrics.counter("uvm_evictions_total", labels=("policy",)).labels(
            self.driver.eviction.name
        ).inc(sum(r.evictions for r in records))
        moved = metrics.counter("uvm_bytes_total", labels=("dir",))
        moved.labels("h2d").inc(sum(r.bytes_h2d for r in records))
        moved.labels("d2h").inc(sum(r.bytes_d2h for r in records))
        hostos = metrics.counter("uvm_hostos_total", labels=("op",))
        hostos.labels("unmap_calls").inc(sum(r.unmap_calls for r in records))
        hostos.labels("dma_mappings").inc(sum(r.dma_mappings_created for r in records))
        hostos.labels("radix_nodes").inc(sum(r.radix_nodes_allocated for r in records))
        batch_usec = metrics.histogram("uvm_batch_service_usec")
        batch_faults = metrics.histogram("uvm_batch_faults", buckets=DEFAULT_COUNT_BUCKETS)
        for r in records:
            batch_usec.observe(r.duration)
            batch_faults.observe(r.num_faults_raw)
        retries = metrics.counter("uvm_retries_total", labels=("site",))
        retries.labels("dma").inc(sum(r.retries_dma for r in records))
        retries.labels("populate").inc(sum(r.retries_populate for r in records))
        # The ce site counts in-batch transfer retries and CPU-touch D2H ones.
        retries.labels("ce").inc(
            sum(r.retries_transfer for r in records) + self.counters.d2h_retries
        )
        counters = self.counters

        def total(name: str, count: int) -> None:
            # A label-less counter's one series appears with its first event.
            family = metrics.counter(name)
            if count:
                family.inc(count)

        total(
            "uvm_ce_failovers_total",
            sum(r.ce_failovers for r in records) + counters.d2h_failovers,
        )
        total("uvm_kernels_total", len(counters.kernel_usec))
        total("uvm_engine_rounds_total", counters.rounds)
        total("uvm_bundles_written_total", counters.bundles)
        kernel_usec = metrics.histogram("uvm_kernel_time_usec")
        for usec in counters.kernel_usec:
            kernel_usec.observe(usec)
        ce_bytes = metrics.counter("uvm_ce_bytes_total", labels=("dir",))
        ce_bursts = metrics.counter("uvm_ce_bursts_total", labels=("dir",))
        for ce in self.device.copy_engines:
            for direction, bursts, nbytes in (
                ("h2d", ce.bursts_h2d, ce.bytes_h2d),
                ("d2h", ce.bursts_d2h, ce.bytes_d2h),
            ):
                if bursts:
                    ce_bursts.labels(direction).inc(bursts)
                    ce_bytes.labels(direction).inc(nbytes)
        degrade = metrics.counter("uvm_degrade_total", labels=("kind",))
        degrade.labels("prefetch-fallback").inc(sum(r.prefetch_fallbacks for r in records))
        for kind, count in self.driver.degradations.items():
            degrade.labels(kind).inc(count)
        metrics.gauge("uvm_resident_vablocks").inc(len(self.driver.eviction))
        if self.injector.enabled:
            injected = metrics.counter("uvm_injected_total", labels=("site",))
            for site, count in sorted(self.injector.fired_by_site().items()):
                injected.labels(site).inc(count)
            total("uvm_crash_recoveries_total", self.injector.recoveries)
        if self.sanitizer.enabled:
            violations = metrics.counter("uvm_san_violations_total", labels=("rule",))
            for rule, count in self.sanitizer.violations_by_rule.items():
                violations.labels(rule).inc(count)

    # ------------------------------------------------- checkpoint and crash

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the full simulation state (see :mod:`.checkpoint`)."""
        return EngineCheckpoint.capture(self)

    def _capture_bundle(self, exc: BaseException) -> None:
        """Write a crash bundle for ``exc`` when ``obs.bundle_dir`` is set.

        Best-effort by contract: a bundle-write failure must never mask the
        original exception, so filesystem errors are swallowed (the bundle
        simply does not exist).  The written path lands in
        :attr:`last_bundle` for callers (CLI, campaign workers) to surface.
        """
        bundle_root = self.config.obs.bundle_dir
        if bundle_root is None:
            return
        from ..obs.bundle import unique_bundle_dir, write_bundle

        name = f"crash-{type(exc).__name__.lower()}"
        try:
            self.last_bundle = write_bundle(
                unique_bundle_dir(bundle_root, name), self, exc
            )
            self.counters.bundles += 1
        except OSError:
            self.last_bundle = None

    def _after_batch(self, batch_id: int) -> None:
        """Batch-boundary hooks: test callbacks, periodic auto-checkpoints,
        and the one-shot injected crash + recovery."""
        for hook in list(self._batch_hooks):
            hook(self, batch_id)
        if not self._inject_on:
            return
        every = self.config.inject.checkpoint_every
        if every > 0 and batch_id % every == 0:
            # Recorded first so a restore's rewind of the flight recorder
            # keeps the event.
            self.flight.record("checkpoint", batch_id)
            self._auto_checkpoint = EngineCheckpoint.capture(self)
        if self.injector.crash_due(batch_id):
            self.injector.record_crash()
            if self.config.inject.crash_recovery and self._auto_checkpoint is not None:
                # Rewind to the latest checkpoint and replay from there.
                # Recovery charges no simulated time: the simulated world
                # itself rolls back, and determinism of the replayed
                # timeline is the property under test.  The restore rewinds
                # the flight recorder too, so the crash seam is recorded
                # after it.
                self._auto_checkpoint.restore_into(self)
                self.injector.record_recovery()
                self.flight.record("crash.injected", batch_id)
                self.flight.record("crash.recovered", batch_id)
            else:
                self.flight.record("crash.injected", batch_id)
                raise InjectedCrash(batch_id, self.clock.now)

    # ------------------------------------------------------------ GPU round

    def _busy(self) -> List[StreamingMultiprocessor]:
        """SMs with active or queued warps or undrained compute, in
        ``sm_id`` order.

        Within a launch an idle SM never gets work again, so a round only
        prunes the list (an SM leaves once its last warp has retired and
        its compute has drained).  A launch resets it, and the next round
        rebuilds it from the SMs.
        """
        busy = self._busy_sms
        if busy is None:
            busy = self._busy_sms = [
                sm
                for sm in self.device.sms
                if sm.active or sm.queued or sm.compute_backlog_usec
            ]
        return busy

    def _gpu_round(self, burst: bool) -> Tuple[bool, float, bool]:
        """One fault-generation window; returns ``(progressed, compute_usec,
        stalled)``, where ``stalled`` says an injected µTLB stall kept some
        SM with issuable warps from issuing.

        Only busy SMs (see :meth:`_busy`) take part: an idle SM issues
        nothing and accrues no compute, and its window fields are set when
        a launch next makes it busy.
        """
        device = self.device
        cfg = self.config.gpu
        resident = device.page_table.resident
        progressed = False
        busy = self._busy()

        # Throttle windows: the per-SM quota is the fault *rate* times the
        # window length — the time since the previous window (≈ the last
        # batch's service time, or the wake latency after a sleep).  A
        # sleeping driver leaves a long window (burst up to the µTLB cap).
        window_usec = max(0.0, self.clock.now - self._window_start)
        self._window_start = self.clock.now
        rate_quota = int(
            cfg.sm_fault_rate_limit
            * max(1.0, window_usec / cfg.fault_window_unit_usec)
        )
        if burst:
            rate_quota = cfg.utlb_outstanding_limit
        quota = max(1, min(rate_quota, cfg.utlb_outstanding_limit))

        # Activate queued programs and advance newly-activated warps.
        # Successive blocks start with a small launch skew (per-SM wave):
        # blocks do not begin in perfect lockstep on real hardware.
        #
        # Compute accounting: warps run their phases concurrently; their
        # busy intervals are tracked per warp via ready_at, so the round's
        # wall time only needs the fault-arrival span (below).  Each SM's
        # compute backlog is final once its warps are activated, since
        # issuing adds none.  A warp that retired while the last batch was
        # applied may have left compute on an SM that is idle now: it drains
        # here, and the SM leaves the busy list after.
        stagger = self.cost.launch_stagger_usec
        num_sms = len(device.sms)
        compute = 0.0
        idle = 0
        for sm in busy:
            # A burst's quota is the µTLB cap, so the budget is the quota.
            sm.rate_limit = sm.budget = quota
            if sm.queued and len(sm.active) < sm.occupancy_limit:
                for i, warp in enumerate(sm.activate_pending(self._next_uid)):
                    self._warps[warp.uid] = warp
                    progressed = True
                    skew = (i * num_sms + sm.sm_id) * stagger
                    warp.ready_at = self.clock.now + skew
                    self._advance_warp(warp)
            compute += sm.compute_backlog_usec
            sm.compute_backlog_usec = 0.0
            if not (sm.active or sm.queued):
                idle += 1
        if idle:
            busy = self._busy_sms = [sm for sm in busy if sm.active or sm.queued]

        # Prefetch-instruction faults: bypass scoreboard, µTLB cap, throttle.
        # The buffer admits every GMMU write of the round as it issues and
        # records it into one window, appended when the round ends.
        t = self.clock.now + self.cost.refault_latency_usec
        interval = self.cost.fault_arrival_interval_usec
        admit = device.fault_buffer.admit
        window = FaultArrays()
        if self._prefetch_queue:
            for sm_id, page in self._prefetch_queue:
                if page in resident:
                    continue
                utlb_id = device.sms[sm_id].utlb_id
                if admit(window, page, AccessType.PREFETCH, sm_id, utlb_id, 0, t):
                    t += interval
                    progressed = True
            self._prefetch_queue.clear()

        # Throttled round-robin issuance across SMs (fair buffer order).
        # Warps still computing a completed phase (ready_at in the future)
        # issue nothing this window — the desynchronization that keeps
        # application batches below the synthetic ceiling (Table 2).  Every
        # SM starts with a positive budget and rejoins a pass only with
        # budget left, so a pass never finds it spent.
        now = self.clock.now
        inj = self.injector if self._inject_on else None
        stalled = False
        utlbs = device.utlbs
        issuers: List[list] = []
        for sm in busy:
            warps = []
            for warp in sm.active:
                if warp.ready_at <= now and warp.has_issuable:
                    warps.append(warp)
            if warps:
                if inj is not None and inj.fire("utlb.stall"):
                    # Injected µTLB issue-port stall: this SM issues no
                    # translation faults for one replay window.
                    stalled = True
                    continue
                utlb = utlbs[sm.utlb_id]
                issuers.append([sm, utlb, utlb.pending_pages, utlb.limit, warps, 0])
        while issuers:
            next_issuers = []
            for entry in issuers:
                sm, utlb, pending, limit, warps, cursor = entry
                num_warps = len(warps)
                # One fault per SM per pass → round-robin interleaving.
                while cursor < num_warps:
                    warp = warps[cursor]
                    occ = warp.issue_next(pending, len(pending) >= limit)
                    if occ is None:
                        if warp.has_issuable:
                            break  # the full µTLB blocks this SM's pass
                        cursor += 1
                        continue
                    page, access = occ
                    # A same-page miss merges into the existing µTLB entry
                    # (occasionally a spurious duplicate is emitted).
                    merged = page in pending
                    if utlb.request(page):
                        sm.budget -= 1
                        if admit(window, page, access, sm.sm_id, sm.utlb_id, warp.uid, t):
                            t += interval
                        elif not merged:
                            # HW buffer full: roll back the µTLB entry so the
                            # re-demand does not merge against a phantom.  The
                            # requeue is progress — without it, an injected
                            # overflow storm dropping a round's only fault
                            # while the buffer is empty would trip the
                            # deadlock check (real hardware drops imply a
                            # non-empty buffer, so this path never decides
                            # liveness when injection is off).
                            utlb.cancel(page)
                            warp.requeue(page, access)
                            sm.budget = 0
                    progressed = True
                    # Warps past the cursor still hold issuable occurrences
                    # (the pass has not reached them since they were
                    # picked); warps before it have none left.
                    if (
                        sm.budget > 0
                        and len(pending) < limit
                        and (cursor + 1 < num_warps or warp.has_issuable)
                    ):
                        entry[5] = cursor
                        next_issuers.append(entry)
                    break
            issuers = next_issuers
        device.gmmu.deliver(window)

        # Injected early cancellation: drop one outstanding µTLB entry per
        # fired µTLB.  The buffered fault stays serviceable; a later miss on
        # the page re-requests a fresh entry instead of merging.
        if inj is not None and inj.active("utlb.early_cancel"):
            for utlb in utlbs:
                if utlb.pending_pages and inj.fire("utlb.early_cancel"):
                    utlb.early_cancel(min(utlb.pending_pages))

        # The round's wall time is its fault-arrival span.  Only advance
        # when faults were actually delivered — otherwise the idle round
        # must not skip past warps' ready times.
        if len(device.fault_buffer) > 0:
            self.clock.advance_to(t)
        return progressed, compute, stalled

    def _next_ready_time(self) -> Optional[float]:
        """Earliest future phase-completion among active warps."""
        best: Optional[float] = None
        now = self.clock.now
        for sm in self._busy():
            for warp in sm.active:
                if warp.ready_at > now and (best is None or warp.ready_at < best):
                    best = warp.ready_at
        return best

    def _advance_warp(self, warp: WarpState) -> None:
        """Advance a runnable warp; register waits and prefetch demands."""
        emitted = self._emitted
        hits = set() if self._hit_aware_eviction else None
        compute = warp.advance(self.device.page_table.resident, emitted, hits)
        if hits:
            # Access-counter eviction policies observe in-memory hits.
            eviction = self.driver.eviction
            for block_id in sorted({vablock_of_page(p) for p in hits}):
                eviction.on_access_hit(block_id)
        if compute > 0.0:
            # The warp is busy computing the phases it just completed; its
            # next faults only issue once the compute retires.
            self.device.sms[warp.sm_id].compute_backlog_usec += compute
            run_start = max(warp.ready_at, self.clock.now)
            warp.ready_at = run_start + compute
            if self._tracing:
                self.flight.record("run", warp.sm_id, warp.uid, run_start, compute)
        if emitted:
            self._prefetch_queue.extend([(warp.sm_id, page) for page in emitted])
            emitted.clear()
        if warp.finished:
            # Trailing compute of the final phases still occupies the GPU.
            self._last_retire_at = max(self._last_retire_at, warp.ready_at)
            self.device.sms[warp.sm_id].retire(warp)
            del self._warps[warp.uid]
            return
        waiters = self._waiters
        for page in warp.missing:
            waiters.setdefault(page, []).append(warp)

    # -------------------------------------------------------- batch results

    def _apply_outcome(self, outcome: ServiceOutcome) -> None:
        """Apply a batch's effects to blocked warps."""
        for warp in wake(self._waiters, outcome.serviced_pages):
            self._advance_warp(warp)
        # Flushed/unserviced faults: the µTLB replays still-needed misses.
        for fault in outcome.dropped_faults:
            self._requeue_fault(fault)
        for fault in outcome.unserviced_faults:
            self._requeue_fault(fault)

    def _requeue_fault(self, fault) -> None:
        warp = self._warps.get(fault.warp_uid)
        if warp is not None and not warp.finished:
            warp.requeue(fault.page, fault.access)
