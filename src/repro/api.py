"""Public API: managed allocations and the simulated UVM system.

Typical use::

    from repro import UvmSystem, default_config

    system = UvmSystem(default_config(prefetch_enabled=True))
    a = system.managed_alloc(8 << 20, name="a")
    system.host_touch(a)                     # CPU first-touch init
    result = system.launch(my_kernel)        # run a KernelLaunch
    print(result.batch_time_usec, len(result.records))

``UvmSystem`` wires the full stack together: the GPU device model, the host
OS model, and the UVM driver, all driven by the deterministic engine.
Managed allocations are VABlock-aligned ranges of one flat virtual address
space, exactly as ``cudaMallocManaged`` hands out 2 MiB-aligned ranges that
the driver splits into VABlocks (paper §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from .config import SystemConfig, default_config
from .core.batch_record import BatchRecord
from .core.instrumentation import BatchLog
from .errors import AllocationError
from .gpu.warp import KernelLaunch
from .hostos.cpu import static_first_touch
from .sim.engine import Engine, LaunchResult
from .units import PAGE_SIZE, VABLOCK_SIZE, align_up, fold_sum


@dataclass(frozen=True)
class ManagedAllocation:
    """A VABlock-aligned managed memory range."""

    name: str
    start_page: int
    num_pages: int

    @property
    def nbytes(self) -> int:
        return self.num_pages * PAGE_SIZE

    @property
    def end_page(self) -> int:
        return self.start_page + self.num_pages

    def page(self, offset: int) -> int:
        """Global page id for page ``offset`` of this allocation."""
        if not 0 <= offset < self.num_pages:
            raise IndexError(
                f"page offset {offset} out of range for {self.name!r} "
                f"({self.num_pages} pages)"
            )
        return self.start_page + offset

    def pages(self, start: int = 0, stop: Optional[int] = None) -> range:
        """Global page ids for offsets ``[start, stop)``."""
        if stop is None:
            stop = self.num_pages
        if not (0 <= start <= stop <= self.num_pages):
            raise IndexError(f"page range [{start}, {stop}) invalid for {self.name!r}")
        return range(self.start_page + start, self.start_page + stop)

    def page_of_byte(self, byte_offset: int) -> int:
        """Global page id containing byte ``byte_offset`` of the allocation."""
        return self.page(byte_offset // PAGE_SIZE)


@dataclass
class RunResult:
    """Aggregate outcome of a workload run (possibly several kernels)."""

    workload: str
    launches: List[LaunchResult] = field(default_factory=list)
    total_time_usec: float = 0.0

    @property
    def records(self) -> List[BatchRecord]:
        out: List[BatchRecord] = []
        for launch in self.launches:
            out.extend(launch.records)
        return out

    @property
    def kernel_time_usec(self) -> float:
        """Aggregate kernel wall time (Table 4's "Kernel" column)."""
        return fold_sum(l.kernel_time_usec for l in self.launches)

    @property
    def batch_time_usec(self) -> float:
        """Aggregate batch servicing time (Table 4's "Batch" column)."""
        return fold_sum(l.batch_time_usec for l in self.launches)

    @property
    def num_batches(self) -> int:
        return sum(l.num_batches for l in self.launches)

    @property
    def total_faults(self) -> int:
        return sum(l.total_faults for l in self.launches)

    def batch_log(self) -> BatchLog:
        return BatchLog.from_records(self.records)


class UvmSystem:
    """Facade over the simulated CPU+GPU system with UVM."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        trace: bool = False,
    ) -> None:
        """``trace`` keeps every flight-recorder event, per-fault and
        per-migration ones included (see :mod:`repro.obs.flight`)."""
        self.config = config if config is not None else default_config()
        self.config.validate()
        self.engine = Engine(self.config, trace=trace)
        self._next_page = 0
        self._allocations: List[ManagedAllocation] = []

    # ------------------------------------------------------------ accessors

    @property
    def clock(self):
        return self.engine.clock

    @property
    def driver(self):
        return self.engine.driver

    @property
    def obs(self):
        """The engine's :class:`~repro.obs.Observability` facade."""
        return self.engine.obs

    @property
    def metrics(self):
        """The run's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.engine.obs.metrics

    @property
    def sanitizer(self):
        """The run's UVMSan checker (a null object unless
        ``config.check.enabled`` — see :mod:`repro.check.sanitizer`)."""
        return self.engine.sanitizer

    @property
    def injector(self):
        """The run's fault injector (a null object unless
        ``config.inject.enabled`` — see :mod:`repro.inject`)."""
        return self.engine.injector

    def checkpoint(self):
        """Snapshot the engine's full simulation state for a later restore
        (see :mod:`repro.sim.checkpoint`)."""
        return self.engine.checkpoint()

    def metrics_snapshot(self) -> dict:
        """Current metric values as a plain nested dict."""
        return self.engine.obs.metrics.snapshot()

    def prometheus_metrics(self) -> str:
        """Current metric values in Prometheus text exposition format."""
        return self.engine.obs.metrics.to_prometheus()

    def export_chrome_trace(self, path):
        """Write the accumulated Chrome trace JSON to ``path``.

        Requires ``config.obs.chrome_trace = True`` before any work runs;
        load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.
        """
        return self.engine.obs.chrome.write(path)

    @property
    def records(self) -> List[BatchRecord]:
        """Every batch record logged so far."""
        return self.engine.driver.log.records

    @property
    def allocations(self) -> List[ManagedAllocation]:
        return list(self._allocations)

    # ----------------------------------------------------------- allocation

    def managed_alloc(self, nbytes: int, name: str = "") -> ManagedAllocation:
        """Allocate a managed range (``cudaMallocManaged`` equivalent).

        Ranges are 2 MiB-aligned so one VABlock never spans allocations.
        """
        if nbytes <= 0:
            raise AllocationError("allocation size must be positive")
        num_pages = align_up(nbytes, PAGE_SIZE) // PAGE_SIZE
        start_page = self._next_page
        alloc = ManagedAllocation(
            name=name or f"alloc{len(self._allocations)}",
            start_page=start_page,
            num_pages=num_pages,
        )
        span_pages = align_up(num_pages * PAGE_SIZE, VABLOCK_SIZE) // PAGE_SIZE
        self._next_page += span_pages
        self._allocations.append(alloc)
        self.engine.driver.register_allocation(start_page, num_pages)
        return alloc

    # ---------------------------------------------------------- host phases

    def host_touch(
        self,
        alloc: ManagedAllocation,
        start: int = 0,
        stop: Optional[int] = None,
        num_threads: Optional[int] = None,
        interleaved: bool = False,
    ) -> None:
        """CPU touches pages ``[start, stop)`` of ``alloc`` (e.g. OpenMP init).

        ``num_threads`` defaults to the host config; the thread→page layout
        follows OpenMP static scheduling (or round-robin when
        ``interleaved``), which determines later unmap shootdown cost
        (Fig 11).
        """
        if stop is None:
            stop = alloc.num_pages
        pages = list(alloc.pages(start, stop))
        threads = num_threads if num_threads is not None else self.config.host.num_threads
        if interleaved:
            from .hostos.cpu import interleaved_first_touch

            offset_fn = interleaved_first_touch(threads)
        else:
            offset_fn = static_first_touch(stop - start, threads)
        base = alloc.start_page + start
        self.engine.host_touch(pages, thread_of=lambda page: offset_fn(page - base))

    def host_touch_pages(
        self,
        pages: Iterable[int],
        thread_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        """Low-level host touch of arbitrary global page ids."""
        self.engine.host_touch(pages, thread_of=thread_of)

    # ---------------------------------------------------------------- hints

    def mem_prefetch(
        self,
        alloc: ManagedAllocation,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> BatchRecord:
        """``cudaMemPrefetchAsync`` to the device: bulk-migrate pages
        ``[start, stop)`` of ``alloc`` through the driver's VABlock path,
        with no faults, no per-fault servicing, and no reactive prefetcher.
        Returns the hinted migration's batch record."""
        if stop is None:
            stop = alloc.num_pages
        return self.engine.driver.bulk_migrate(alloc.pages(start, stop))

    def mem_advise_read_mostly(
        self,
        alloc: ManagedAllocation,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        """``cudaMemAdviseSetReadMostly``: GPU migrations of the covered
        VABlocks *duplicate* the data — host mappings and copies stay valid —
        until a GPU write collapses the duplication."""
        if stop is None:
            stop = alloc.num_pages
        self.engine.driver.advise_read_mostly(alloc.pages(start, stop))

    def mem_advise_accessed_by(
        self,
        alloc: ManagedAllocation,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> BatchRecord:
        """``cudaMemAdviseSetAccessedBy`` (the device): establish direct
        mappings so GPU accesses go over the interconnect without faulting
        or migrating (zero-copy).  Pays the DMA-mapping setup once."""
        if stop is None:
            stop = alloc.num_pages
        return self.engine.driver.advise_accessed_by(alloc.pages(start, stop))

    # -------------------------------------------------------------- kernels

    def launch(self, kernel: KernelLaunch) -> LaunchResult:
        """Run one kernel to completion."""
        return self.engine.launch(kernel)

    def run(self, steps: Sequence, name: str = "run") -> RunResult:
        """Run a sequence of steps: ``KernelLaunch`` objects are launched,
        callables are invoked with this system (host phases)."""
        result = RunResult(workload=name)
        t0 = self.clock.now
        for step in steps:
            if isinstance(step, KernelLaunch):
                result.launches.append(self.launch(step))
            elif callable(step):
                step(self)
            else:
                raise TypeError(f"unsupported step {step!r}")
        result.total_time_usec = self.clock.now - t0
        return result

    # --------------------------------------------------------------- sizing

    def oversubscription_bytes(self, ratio: float) -> int:
        """Problem bytes equal to ``ratio`` × device memory (Fig 12-17 use
        ratios like 1.16 and 1.25)."""
        return int(self.config.gpu.memory_bytes * ratio)
