"""Multi-GPU coordinator: several devices over one host OS.

Model (mirroring how real multi-GPU UVM deployments behave for phase-
structured applications):

* every device runs the full single-GPU stack (its own fault buffer, µTLBs,
  driver servicing loop, VABlock residency, LRU eviction);
* host-side state is shared: one simulated clock, one host page table, one
  DMA-mapping radix tree — the components §4.4/§5.2 identify as common
  costs;
* a page is *owned* by at most one device at a time (no read-duplication
  across devices here; use the read-mostly hint for that on one device).
  When a kernel on device B is about to touch pages resident on device A,
  the coordinator migrates them before the launch — peer-to-peer over the
  interconnect when ``peer_enabled`` (PCIe P2P / NVLink), otherwise bounced
  through host memory (two copies, the pre-P2P behaviour);
* ``host_touch`` pulls pages back from whichever device owns them.

Kernels launch on one device at a time (phase-structured multi-GPU: domain
decomposition with halo exchange between phases), which keeps the shared
clock meaningful; the ``parallel_launch`` helper models concurrent
single-kernel-per-device execution by charging the makespan instead of the
sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..api import ManagedAllocation
from ..config import SystemConfig, default_config
from ..errors import AllocationError, ConfigError
from ..gpu.copy_engine import contiguous_runs
from ..gpu.warp import KernelLaunch
from ..hostos.dma import DmaMapper
from ..hostos.host_vm import HostVm
from ..obs import Observability
from ..sim.clock import SimClock
from ..sim.engine import Engine, LaunchResult
from ..units import PAGE_SIZE, VABLOCK_SIZE, align_up


@dataclass
class PeerTransferStats:
    """Cross-device migration accounting."""

    peer_transfers: int = 0
    peer_pages: int = 0
    peer_usec: float = 0.0
    bounce_transfers: int = 0
    bounce_pages: int = 0
    bounce_usec: float = 0.0

    @property
    def total_pages(self) -> int:
        return self.peer_pages + self.bounce_pages


@dataclass
class DeviceHandle:
    """One device's engine plus its id."""

    device_id: int
    engine: Engine

    @property
    def driver(self):
        return self.engine.driver


class MultiGpuSystem:
    """N simulated GPUs sharing one host OS and managed address space."""

    def __init__(
        self,
        num_devices: int = 2,
        config: Optional[SystemConfig] = None,
        peer_enabled: bool = True,
    ) -> None:
        if num_devices < 1:
            raise ConfigError("need at least one device")
        self.config = config if config is not None else default_config()
        self.config.validate()
        self.peer_enabled = peer_enabled
        self.clock = SimClock()
        self.host_vm = HostVm()
        #: One observability layer on the shared clock; each device gets a
        #: scoped view so its trace tracks land on distinct pids.  This
        #: layer's own log carries the peer migrations.
        self.obs = Observability(self.config.obs, self.clock)
        self.obs.chrome.add_source(0, "", self.obs.flight)
        self.obs.metrics.add_fold(self._fold_metrics)
        self.devices: List[DeviceHandle] = []
        for device_id in range(num_devices):
            cfg = self.config.replace(seed=self.config.seed + device_id)
            engine = Engine(
                cfg,
                clock=self.clock,
                host_vm=self.host_vm,
                dma=None,  # DMA/IOMMU mapping tables are per device
                obs=self.obs.scoped(device_id * 10, f"GPU{device_id}"),
            )
            self.devices.append(DeviceHandle(device_id, engine))
        self.cost = self.devices[0].engine.cost
        #: page → owning device id (absent = host-owned or untouched).
        self._owner: Dict[int, int] = {}
        self.peer_stats = PeerTransferStats()
        self._next_page = 0
        self._allocations: List[ManagedAllocation] = []

    # ----------------------------------------------------------- allocation

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def allocations(self) -> List[ManagedAllocation]:
        return list(self._allocations)

    def managed_alloc(self, nbytes: int, name: str = "") -> ManagedAllocation:
        """One managed range visible to every device (a single VA space)."""
        if nbytes <= 0:
            raise AllocationError("allocation size must be positive")
        num_pages = align_up(nbytes, PAGE_SIZE) // PAGE_SIZE
        alloc = ManagedAllocation(
            name=name or f"alloc{len(self._allocations)}",
            start_page=self._next_page,
            num_pages=num_pages,
        )
        self._next_page += align_up(num_pages * PAGE_SIZE, VABLOCK_SIZE) // PAGE_SIZE
        self._allocations.append(alloc)
        for handle in self.devices:
            handle.driver.register_allocation(alloc.start_page, num_pages)
        return alloc

    # ---------------------------------------------------------- host phases

    def host_touch(self, alloc: ManagedAllocation, start: int = 0, stop: Optional[int] = None) -> None:
        """CPU touches pages, reclaiming them from whichever device owns
        them (cross-device CPU faulting goes through the same host VM)."""
        if stop is None:
            stop = alloc.num_pages
        pages = list(alloc.pages(start, stop))
        by_device = self._group_by_owner(pages)
        for device_id, owned in by_device.items():
            self._release_from_device(device_id, owned)
        self.host_vm.cpu_touch(pages, thread_of=lambda p: 0)
        for page in pages:
            self._owner.pop(page, None)
        self.clock.advance(self.devices[0].engine.host_cpu.touch_cost_usec(len(pages)))

    # -------------------------------------------------------------- kernels

    def launch(self, device_id: int, kernel: KernelLaunch) -> LaunchResult:
        """Run ``kernel`` on one device, first migrating any of its pages
        that another device owns (the cross-device cost this module adds)."""
        handle = self.devices[device_id]
        touched = kernel.touched_pages
        foreign = self._group_by_owner(touched, exclude=device_id)
        for src_id, pages in foreign.items():
            self._migrate_between(src_id, device_id, sorted(pages))
        result = handle.engine.launch(kernel)
        for page in touched:
            if handle.engine.device.page_table.is_resident(page):
                self._owner[page] = device_id
        return result

    def parallel_launch(self, launches: Sequence) -> List[LaunchResult]:
        """Launch ``(device_id, kernel)`` pairs "concurrently": each runs on
        its own device; the shared clock advances by the makespan (devices
        overlap) rather than the sum."""
        start = self.clock.now
        results = []
        end_times = []
        for device_id, kernel in launches:
            # Rewind-free concurrency: run each launch from the common start
            # by tracking only its duration, then set the clock to the max.
            before = self.clock.now
            result = self.launch(device_id, kernel)
            end_times.append(self.clock.now)
            # Model overlap: reset to start for the next device's run.
            self.clock._now = start  # noqa: SLF001 - coordinated rewind
            results.append(result)
        self.clock.advance_to(max(end_times) if end_times else start)
        return results

    # ------------------------------------------------------------ internals

    def _group_by_owner(self, pages: Iterable[int], exclude: Optional[int] = None) -> Dict[int, Set[int]]:
        grouped: Dict[int, Set[int]] = {}
        for page in pages:
            owner = self._owner.get(page)
            if owner is None or owner == exclude:
                continue
            grouped.setdefault(owner, set()).add(page)
        return grouped

    def _release_from_device(self, device_id: int, pages: Set[int]) -> None:
        """Migrate device-resident pages back to host memory."""
        engine = self.devices[device_id].engine
        resident = sorted(
            p for p in pages if engine.device.page_table.is_resident(p)
        )
        if not resident:
            return
        self.clock.advance(engine._d2h_with_retry(contiguous_runs(resident)))
        engine.device.page_table.unmap_pages(resident)
        self.host_vm.mark_valid(resident)

    def _migrate_between(self, src_id: int, dst_id: int, pages: List[int]) -> None:
        """Move page ownership src→dst.

        Peer-enabled: one direct device-to-device copy over the peer link,
        installed straight into the destination's residency.  Otherwise:
        bounce through host memory — a D2H copy on the source link plus the
        destination's bulk page-in (two traversals of the interconnect, the
        pre-P2P behaviour).
        """
        src = self.devices[src_id].engine
        dst = self.devices[dst_id]
        resident = sorted(p for p in pages if src.device.page_table.is_resident(p))
        if not resident:
            for page in pages:
                self._owner.pop(page, None)
            return
        runs = contiguous_runs(resident)
        nbytes = len(resident) * PAGE_SIZE

        # Release the source side's page table.
        src.device.page_table.unmap_pages(resident)
        self.host_vm.mark_valid(resident)

        t_migrate = self.clock.now
        if self.peer_enabled:
            # Direct D2D: charge the peer wire time, then install on the
            # destination with the host→device transfer replaced by it (the
            # destination's bulk path would otherwise re-copy from host).
            t0 = self.clock.now
            record = dst.driver.bulk_migrate(resident)
            install = self.clock.now - t0
            peer_wire = (
                self.cost.peer_latency_usec * max(1, len(runs))
                + nbytes / self.cost.peer_bandwidth_bytes_per_usec
            )
            # Swap wire costs: remove the H2D time the bulk path charged,
            # add the peer link's.
            delta = peer_wire - record.time_transfer_h2d
            if delta > 0:
                self.clock.advance(delta)
            mode = "peer"
            self.peer_stats.peer_transfers += len(runs)
            self.peer_stats.peer_pages += len(resident)
            self.peer_stats.peer_usec += install + max(0.0, delta)
        else:
            # Bounce: D2H on the source link, then the destination's bulk
            # page-in (its own H2D copy).
            usec = src._d2h_with_retry(runs)
            self.clock.advance(usec)
            t0 = self.clock.now
            dst.driver.bulk_migrate(resident)
            mode = "bounce"
            self.peer_stats.bounce_transfers += len(runs)
            self.peer_stats.bounce_pages += len(resident)
            self.peer_stats.bounce_usec += usec + (self.clock.now - t0)
        if self.obs.flight.tracing:
            self.obs.flight.record("peer", src_id, dst_id, mode, t_migrate,
                                   len(resident), nbytes)
        for page in resident:
            self._owner[page] = dst_id

    # ------------------------------------------------------------ reporting

    def total_records(self) -> List:
        """All devices' batch records, ordered by service start time."""
        records = []
        for handle in self.devices:
            records.extend(handle.driver.log.records)
        return sorted(records, key=lambda r: r.t_start)

    def _fold_metrics(self, metrics) -> None:
        """The ``uvm_peer_*`` families, read from :attr:`peer_stats` (each
        device's engine folds its own families into the shared registry)."""
        stats = self.peer_stats
        pages = metrics.counter("uvm_peer_pages_total", labels=("mode",))
        usec = metrics.counter("uvm_peer_time_usec_total", labels=("mode",))
        for mode, num_pages, mode_usec in (
            ("peer", stats.peer_pages, stats.peer_usec),
            ("bounce", stats.bounce_pages, stats.bounce_usec),
        ):
            if num_pages:
                pages.labels(mode).inc(num_pages)
                usec.labels(mode).inc(mode_usec)

    def metrics_snapshot(self) -> dict:
        """Merged metrics across every device (they share one registry)."""
        return self.obs.metrics.snapshot()

    def export_chrome_trace(self, path):
        """Write the combined multi-device Chrome trace JSON to ``path``."""
        return self.obs.chrome.write(path)
