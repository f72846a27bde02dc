"""Aggregate GPU device: SMs, µTLBs, fault path, memory chunks.

Bundles every device-side component behind one object, including the
physical-memory chunk allocator: UVM "tracks all physical GPU memory
allocations from the nvidia resource manager" and both allocates and evicts
at the 2 MiB VABlock granularity (paper §2.2), so device memory is modelled
as a pool of 2 MiB chunks.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import GpuConfig
from ..errors import SimulationError
from ..units import VABLOCK_SIZE
from .copy_engine import CopyEngine
from .fault_buffer import FaultBuffer
from .gmmu import Gmmu
from .page_table import GpuPageTable
from .sm import StreamingMultiprocessor
from .utlb import UTlb


class ChunkAllocator:
    """Fixed pool of 2 MiB physical chunks backing VABlocks."""

    __slots__ = ("total_chunks", "_free", "total_allocs", "total_frees")

    def __init__(self, total_chunks: int) -> None:
        self.total_chunks = total_chunks
        self._free: List[int] = list(range(total_chunks - 1, -1, -1))
        self.total_allocs = 0
        self.total_frees = 0

    @property
    def free_chunks(self) -> int:
        return len(self._free)

    @property
    def used_chunks(self) -> int:
        return self.total_chunks - len(self._free)

    def allocate(self) -> Optional[int]:
        """Take a free chunk id, or None when memory is fully allocated."""
        if not self._free:
            return None
        self.total_allocs += 1
        return self._free.pop()

    def free(self, chunk: int) -> None:
        if not 0 <= chunk < self.total_chunks:
            raise SimulationError(f"freeing invalid chunk id {chunk}")
        if chunk in self._free:  # pragma: no cover - internal guard
            raise SimulationError(f"double free of chunk {chunk}")
        self._free.append(chunk)
        self.total_frees += 1


class GpuDevice:
    """The simulated GPU (paper testbed: Titan V, 80 SMs, 12 GB HBM2)."""

    def __init__(
        self,
        config: GpuConfig,
        copy_bandwidth_bytes_per_usec: float,
        copy_latency_usec: float,
    ) -> None:
        config.validate()
        self.config = config
        self.utlbs = [
            UTlb(i, config.utlb_outstanding_limit) for i in range(config.num_utlbs)
        ]
        self.sms = [
            StreamingMultiprocessor(
                sm_id=i,
                utlb_id=config.utlb_of_sm(i),
                rate_limit=config.sm_fault_rate_limit,
                occupancy_limit=config.max_warps_per_sm,
            )
            for i in range(config.num_sms)
        ]
        self.fault_buffer = FaultBuffer(config.fault_buffer_entries)
        self.gmmu = Gmmu(self.fault_buffer)
        self.page_table = GpuPageTable()
        #: The device ships a pair of copy engines; the driver uses the
        #: primary (``copy_engine``) and fails over to the sibling when a
        #: burst hangs past the phase deadline (chaos testing's ``ce.stuck``).
        self.copy_engines = [
            CopyEngine(
                copy_bandwidth_bytes_per_usec, copy_latency_usec, engine_id=i
            )
            for i in range(2)
        ]
        self.copy_engine = self.copy_engines[0]
        self.chunks = ChunkAllocator(config.memory_bytes // VABLOCK_SIZE)

    def sibling_of(self, ce: CopyEngine) -> CopyEngine:
        """The other copy engine of the failover pair."""
        return self.copy_engines[1 - ce.engine_id]

    def utlb_for_sm(self, sm_id: int) -> UTlb:
        return self.utlbs[self.config.utlb_of_sm(sm_id)]

    def replay_all(self) -> None:
        """Fault replay broadcast: clear waiting state on every µTLB (only
        the µTLBs holding entries have any to clear)."""
        for utlb in self.utlbs:
            if utlb.pending_pages:
                utlb.replay()

    @property
    def idle(self) -> bool:
        """No warp active or queued on any SM."""
        return all(sm.idle for sm in self.sms)

    def reset_scheduling(self) -> None:
        """Drop all warp state (between kernel launches)."""
        for sm in self.sms:
            sm.active.clear()
            sm.queued.clear()
            sm.budget = sm.rate_limit
            sm.compute_backlog_usec = 0.0
