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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

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
from ..gpu.warp import KernelLaunch, WarpState
from ..hostos.cost_model import CostModel
from ..hostos.cpu import HostCpu
from ..hostos.dma import DmaMapper
from ..hostos.host_vm import HostVm
from ..obs import Observability
from ..obs.chrome_trace import PID_SM
from ..units import vablock_of_page
from .checkpoint import EngineCheckpoint
from .clock import SimClock
from .rng import spawn_rng
from .trace import EventTrace


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
        return sum(r.duration for r in self.records)

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
    """Resilience accounting for engine-side (non-batch) fault paths.

    The CPU-touch D2H migration burst retries outside any driver batch, so
    its retries/failovers have no :class:`BatchRecord` to land in.  They
    accumulate here instead and surface through the chaos report and the
    shared ``uvm_retries_total``/``uvm_ce_failovers_total`` metric families.
    Instrumentation, not simulation state: deliberately excluded from
    checkpoints (like metrics, it never rewinds on crash recovery).
    """

    d2h_retries: int = 0
    d2h_failovers: int = 0
    d2h_backoff_usec: float = 0.0

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
        trace: Optional[EventTrace] = None,
        clock: Optional[SimClock] = None,
        host_vm: Optional[HostVm] = None,
        dma: Optional[DmaMapper] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        """``clock``/``host_vm``/``dma``/``obs`` may be shared across
        engines — the multi-GPU coordinator passes one host-side state (and
        one observability layer, with per-device scoped trace tracks) to
        every device's engine (one host OS, many GPUs, as in real UVM)."""
        config.validate()
        self.config = config
        self.cost = CostModel().apply_overrides(config.cost_overrides)
        self.clock = clock if clock is not None else SimClock()
        self.trace = trace if trace is not None else EventTrace(enabled=False)
        self.obs = obs if obs is not None else Observability(config.obs, self.clock)
        self.device = GpuDevice(
            config.gpu,
            copy_bandwidth_bytes_per_usec=self.cost.link_bandwidth_bytes_per_usec,
            copy_latency_usec=self.cost.transfer_latency_usec,
        )
        self.host_vm = host_vm if host_vm is not None else HostVm()
        self.host_cpu = HostCpu(config.host)
        self.dma = dma if dma is not None else DmaMapper(self.cost)
        self.rng = spawn_rng(config.seed, "engine")
        if self.obs.any_enabled:
            for ce in self.device.copy_engines:
                ce.attach_obs(self.obs, self.clock)
        if self.obs.sink is not None and self.trace.sink is None:
            self.trace.sink = self.obs.sink
        #: Cached flag so the per-warp hot path never touches the builder.
        self._chrome_on = self.obs.chrome.enabled
        self._pid_sm = self.obs.pid(PID_SM)
        if self._chrome_on:
            for sm_id in range(config.gpu.num_sms):
                self.obs.chrome.set_thread_name(self._pid_sm, sm_id, f"SM {sm_id}")
            self.obs.chrome.set_thread_name(
                self._pid_sm, config.gpu.num_sms, "all SMs (stall)"
            )
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
        self.injector = make_injector(config.inject, config.seed, self.clock, self.obs)
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
        #: Where the latest crash bundle landed (None until a crash writes
        #: one; see :meth:`_capture_bundle`).
        self.last_bundle = None  # snapshot: skip — diagnostics, not sim state
        metrics = self.obs.metrics
        self._m_kernels = metrics.counter("uvm_kernels_total", "Kernel launches run")
        self._m_kernel_usec = metrics.histogram(
            "uvm_kernel_time_usec", "Kernel wall time (simulated µs)"
        )
        self._m_rounds = metrics.counter(
            "uvm_engine_rounds_total", "GPU fault-generation rounds"
        )
        self._m_bundles = metrics.counter(
            "uvm_bundles_written_total", "Crash bundles written"
        )
        #: Engine-side resilience counters (no BatchRecord on these paths).
        self.counters = EngineCounters()
        # Shared with the driver's families (same name + help → the registry
        # returns the same family object to both).
        self._m_retries_ce = metrics.counter(
            "uvm_retries_total",
            "Driver retries after transient fault-path failures",
            labels=("site",),
        ).labels("ce")
        self._m_failovers = metrics.counter(
            "uvm_ce_failovers_total", "Copy-engine failovers after stuck bursts"
        )
        self.driver = UvmDriver(
            config=config,
            device=self.device,
            clock=self.clock,
            host_vm=self.host_vm,
            dma=self.dma,
            cost_model=self.cost,
            rng=spawn_rng(config.seed, "driver-jitter"),
            trace=self.trace,
            obs=self.obs,
            sanitizer=self.sanitizer,
            injector=self.injector,
        )
        #: page → warps blocked on it.
        self._waiters: Dict[int, List[WarpState]] = {}
        self._warps: Dict[int, WarpState] = {}
        self._prefetch_queue: List[Tuple[int, int]] = []  # (sm_id, page)
        self._uid = 0
        self._last_retire_at = 0.0
        self._window_start = 0.0
        #: Hit-aware eviction policies need warps to report in-memory hits.
        self._hit_aware_eviction = config.driver.eviction_policy == "access-counter"
        #: In-flight launch state (checkpointable); None outside a launch.
        self._progress: Optional[LaunchProgress] = None
        #: Latest auto-checkpoint (crash-recovery restore target).
        self._auto_checkpoint = None  # snapshot: skip — the checkpoint itself
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
            with self.obs.span("engine.host_touch", "engine", pages=len(pages)):
                is_remote = self.driver.is_remote_mapped
                resident = [
                    p
                    for p in pages
                    if self.device.page_table.is_resident(p) and not is_remote(p)
                ]
                if resident:
                    resident.sort()
                    self.clock.advance(self._d2h_with_retry(contiguous_runs(resident)))
                    self.device.page_table.unmap_pages(resident)
                    for page in resident:
                        block = self.driver.vablocks.get_for_page(page)
                        block.resident_pages.discard(page)
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
        :attr:`counters` (there is no batch record on this path); the shared
        ``uvm_retries_total{site="ce"}``/``uvm_ce_failovers_total`` families
        tick too, mirroring the driver's convention (transient fault →
        retry, stuck → failover only).
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
                self._m_retries_ce.inc()
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
                self._m_failovers.inc()
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
        t0 = self.clock.now
        self.flight.record("launch", kernel.name, len(kernel.programs))
        try:
            with self.obs.span("engine.launch", "engine", kernel=kernel.name):
                result = self._launch(kernel)
        except UvmError as exc:
            self._capture_bundle(exc)
            raise
        self.flight.record("launch.done", kernel.name, result.num_batches)
        self._m_kernels.inc()
        self._m_kernel_usec.observe(result.kernel_time_usec)
        if self._chrome_on:
            from ..obs.chrome_trace import PID_KERNEL

            self.obs.chrome.duration(
                kernel.name or "kernel",
                "kernel",
                ts=t0,
                dur=self.clock.now - t0,
                pid=self.obs.pid(PID_KERNEL),
                tid=0,
                args={
                    "faults": result.total_faults,
                    "batches": result.num_batches,
                },
            )
        return result

    def _launch(self, kernel: KernelLaunch) -> LaunchResult:
        device = self.device
        device.reset_scheduling()
        self._waiters.clear()
        self._prefetch_queue.clear()

        occupancy = kernel.occupancy or self.config.gpu.max_warps_per_sm
        for sm in device.sms:
            sm.occupancy_limit = min(occupancy, self.config.gpu.max_warps_per_sm)
        for i, program in enumerate(kernel.programs):
            device.sms[i % len(device.sms)].enqueue(program)

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
            with self.obs.span("engine.resume", "engine", kernel=self._progress.name):
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
        self._m_rounds.inc(p.guard_rounds)
        records = self.driver.log.records[p.first_record:]
        return LaunchResult(
            name=p.name,
            kernel_time_usec=self.clock.now - p.start_time,
            records=records,
            compute_time_usec=p.compute_total,
            num_warps=p.num_warps,
            total_faults=sum(r.num_faults_raw for r in records),
        )

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
            self._m_bundles.inc()
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
            self._auto_checkpoint = EngineCheckpoint.capture(self)
            self.flight.record("checkpoint", batch_id)
        if self.injector.crash_due(batch_id):
            self.injector.record_crash()
            if self.config.inject.crash_recovery and self._auto_checkpoint is not None:
                # Rewind to the latest checkpoint and replay from there.
                # Recovery charges no simulated time: the simulated world
                # itself rolls back, and determinism of the replayed
                # timeline is the property under test.
                self.flight.record("crash.injected", batch_id)
                self._auto_checkpoint.restore_into(self)
                self.injector.record_recovery()
                self.flight.record("crash.recovered", batch_id)
            else:
                self.flight.record("crash.injected", batch_id)
                raise InjectedCrash(batch_id, self.clock.now)

    # ------------------------------------------------------------ GPU round

    def _gpu_round(self, burst: bool) -> Tuple[bool, float, bool]:
        """One fault-generation window; returns ``(progressed, compute_usec,
        stalled)``, where ``stalled`` says an injected µTLB stall kept some
        SM with issuable warps from issuing."""
        device = self.device
        cfg = self.config.gpu
        resident = device.page_table.resident
        progressed = False

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
        for sm in device.sms:
            sm.rate_limit = quota
            sm.new_window(burst, cfg.utlb_outstanding_limit)

        # Activate queued programs and advance newly-activated warps.
        # Successive blocks start with a small launch skew (per-SM wave):
        # blocks do not begin in perfect lockstep on real hardware.
        stagger = self.cost.launch_stagger_usec
        track_hits = self._hit_aware_eviction
        for sm in device.sms:
            activated = sm.activate_pending(self._next_uid)
            for i, warp in enumerate(activated):
                self._warps[warp.uid] = warp
                warp.track_hits = track_hits
                progressed = True
                skew = (i * len(device.sms) + sm.sm_id) * stagger
                warp.ready_at = self.clock.now + skew
                self._advance_warp(warp)

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
        # application batches below the synthetic ceiling (Table 2).
        now = self.clock.now
        inj = self.injector if self._inject_on else None
        stalled = False
        issuers: List[Tuple] = []
        for sm in device.sms:
            warps = [w for w in sm.active if w.has_issuable and w.ready_at <= now]
            if warps and sm.budget > 0:
                if inj is not None and inj.fire("utlb.stall"):
                    # Injected µTLB issue-port stall: this SM issues no
                    # translation faults for one replay window.
                    stalled = True
                    continue
                issuers.append((sm, device.utlbs[sm.utlb_id], warps, [0]))
        while issuers:
            next_issuers = []
            for sm, utlb, warps, cursor in issuers:
                issued_here = False
                # One fault per SM per pass → round-robin interleaving.
                while cursor[0] < len(warps):
                    warp = warps[cursor[0]]
                    if not warp.has_issuable:
                        cursor[0] += 1
                        continue
                    if sm.budget <= 0:
                        break
                    merged_ahead = warp.peek_page() in utlb.pending_pages
                    if not merged_ahead and utlb.available <= 0:
                        break
                    occs = warp.take_issuable(1)
                    if not occs:
                        cursor[0] += 1
                        continue
                    page, access = occs[0]
                    # A same-page miss merges into the existing µTLB entry
                    # (occasionally a spurious duplicate is emitted).
                    merged = page in utlb.pending_pages
                    if utlb.request(page):
                        sm.consume_budget(1)
                        if admit(
                            window, page, access, sm.sm_id, sm.utlb_id, warp.uid, t
                        ):
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
                    issued_here = True
                    break
                if (
                    issued_here
                    and sm.budget > 0
                    and utlb.available > 0
                    and any(w.has_issuable for w in warps)
                ):
                    next_issuers.append((sm, utlb, warps, cursor))
            issuers = next_issuers
        device.gmmu.deliver(window)

        # Injected early cancellation: drop one outstanding µTLB entry per
        # fired µTLB.  The buffered fault stays serviceable; a later miss on
        # the page re-requests a fresh entry instead of merging.
        if inj is not None and inj.active("utlb.early_cancel"):
            for utlb in device.utlbs:
                if utlb.pending_pages and inj.fire("utlb.early_cancel"):
                    utlb.early_cancel(min(utlb.pending_pages))

        # Compute accounting: warps run their phases concurrently; their
        # busy intervals are tracked per warp via ready_at, so the round's
        # wall time only needs the fault-arrival span here.  Only advance
        # when faults were actually delivered — otherwise the idle round
        # must not skip past warps' ready times.
        compute = 0.0
        for sm in device.sms:
            compute += sm.compute_backlog_usec
            sm.compute_backlog_usec = 0.0
        if len(device.fault_buffer) > 0:
            self.clock.advance_to(t)
        return progressed, compute, stalled

    def _next_ready_time(self) -> Optional[float]:
        """Earliest future phase-completion among active warps."""
        best: Optional[float] = None
        now = self.clock.now
        for sm in self.device.sms:
            for warp in sm.active:
                if warp.ready_at > now and (best is None or warp.ready_at < best):
                    best = warp.ready_at
        return best

    def _advance_warp(self, warp: WarpState) -> None:
        """Advance a runnable warp; register waits and prefetch demands."""
        sm = self.device.sms[warp.sm_id]
        result = warp.advance(self.device.page_table.resident)
        sm.compute_backlog_usec += result.compute_usec
        if result.hit_pages:
            # Access-counter eviction policies observe in-memory hits.
            eviction = self.driver.eviction
            for block_id in sorted({vablock_of_page(p) for p in result.hit_pages}):
                eviction.on_access_hit(block_id)
        if result.compute_usec > 0.0:
            # The warp is busy computing the phases it just completed; its
            # next faults only issue once the compute retires.
            run_start = max(warp.ready_at, self.clock.now)
            warp.ready_at = run_start + result.compute_usec
            if self._chrome_on:
                self.obs.chrome.duration(
                    "run",
                    "sm",
                    ts=run_start,
                    dur=result.compute_usec,
                    pid=self._pid_sm,
                    tid=warp.sm_id,
                    args={"warp": warp.uid},
                )
        for page in result.prefetches:
            self._prefetch_queue.append((warp.sm_id, page))
        if result.finished:
            # Trailing compute of the final phases still occupies the GPU.
            self._last_retire_at = max(self._last_retire_at, warp.ready_at)
            sm.retire(warp)
            return
        for page in result.new_waits:
            self._waiters.setdefault(page, []).append(warp)

    # -------------------------------------------------------- batch results

    def _apply_outcome(self, outcome: ServiceOutcome) -> None:
        """Apply a batch's effects to blocked warps."""
        unblocked: List[WarpState] = []
        seen: Set[int] = set()
        waiters = self._waiters
        for page in outcome.serviced_pages:
            blocked = waiters.pop(page, None)
            if not blocked:
                continue
            for warp in blocked:
                if warp.finished:
                    continue
                if warp.on_pages_resident((page,)) and warp.uid not in seen:
                    seen.add(warp.uid)
                    unblocked.append(warp)
        for warp in unblocked:
            if not warp.blocked and not warp.finished:
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
