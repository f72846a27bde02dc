"""Per-fault reference models of the fault pipeline, and buffer drivers.

The simulator's fault buffer decides GMMU writes one at a time but lands
them a window at a time, and its batch assembler is vectorized mask
algebra.  The oracles here do the same work the plain way — a deque that
takes one fault per push, and a dict-of-sets assembler — so property tests
can hold the production pipeline to them.  :func:`write_window` and
:func:`write` drive the production buffer the way the engine's issuance
round does.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set

import numpy as np

from repro.core.batch import AssembledBatch, BlockWork
from repro.gpu.fault import AccessType, Fault, FaultArrays
from repro.gpu.gmmu import Gmmu
from repro.units import vablock_of_page


def write_window(target, faults: Iterable[Fault]) -> List[bool]:
    """Issue ``faults`` as one GMMU window into ``target`` (a
    :class:`~repro.gpu.fault_buffer.FaultBuffer` or a :class:`Gmmu`):
    admission per fault, one append at the end.  Returns whether each fault
    was admitted."""
    buffer = target.buffer if isinstance(target, Gmmu) else target
    window = FaultArrays()
    admitted = [buffer.admit(window, *fault) for fault in faults]
    if isinstance(target, Gmmu):
        target.deliver(window)
    else:
        target.append(window)
    return admitted


def write(target, fault: Fault) -> bool:
    """One GMMU write of a single fault; False when it was dropped."""
    return write_window(target, [fault])[0]


class ScalarFaultBuffer:
    """Reference buffer: a deque taking one fault per :meth:`push`, with the
    production buffer's capacity rule, injection sites and counters."""

    def __init__(self, capacity: int, injector=None) -> None:
        self.capacity = capacity
        self.entries: deque = deque()
        self.inj = injector
        self.total_pushed = 0
        self.total_fetched = 0
        self.total_overflow_dropped = 0
        self.total_flush_dropped = 0
        self.total_injected = 0
        self.total_injector_dropped = 0

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, fault: Fault) -> bool:
        if len(self.entries) >= self.capacity:
            self.total_overflow_dropped += 1
            return False
        self.total_pushed += 1
        if self.inj is not None and self.inj.fire("fault_buffer.overflow"):
            self.total_injector_dropped += 1
            return False
        self.entries.append(fault)
        if (
            self.inj is not None
            and len(self.entries) < self.capacity
            and self.inj.fire("fault_buffer.duplicate")
        ):
            self.entries.append(fault)
            self.total_injected += 1
        return True

    def fetch(self, max_n: int) -> List[Fault]:
        n = min(max_n, len(self.entries))
        self.total_fetched += n
        return [self.entries.popleft() for _ in range(n)]

    def flush(self) -> List[Fault]:
        dropped = list(self.entries)
        self.entries.clear()
        self.total_flush_dropped += len(dropped)
        return dropped


def assemble_batch_scalar(faults: Iterable[Fault], num_sms: int) -> AssembledBatch:
    """Reference assembler: one pass over the faults with dict-of-sets
    bookkeeping (§4.2 semantics, see :func:`repro.core.batch.assemble_batch`).
    """
    faults = list(faults)
    batch = AssembledBatch(faults=faults, blocks=[])
    sm_counts = np.zeros(num_sms, dtype=np.int32)
    block_index: Dict[int, BlockWork] = {}
    seen_utlbs: Dict[int, Set[int]] = {}

    for fault in faults:
        sm_counts[fault.sm_id] += 1
        page = fault.page
        block_id = vablock_of_page(page)
        work = block_index.get(block_id)
        if work is None:
            work = BlockWork(block_id=block_id)
            block_index[block_id] = work
            batch.blocks.append(work)
        work.raw_faults += 1

        utlbs = seen_utlbs.get(page)
        if utlbs is None:
            # First fault for this page in the batch: unique.
            seen_utlbs[page] = {fault.utlb_id}
            batch.num_unique += 1
            work.pages.append(page)
            if fault.access == AccessType.WRITE:
                work.write_pages.add(page)
            elif fault.access == AccessType.PREFETCH:
                work.prefetch_only_pages.add(page)
        else:
            if fault.utlb_id in utlbs:
                batch.dup_same_utlb += 1
            else:
                batch.dup_cross_utlb += 1
                utlbs.add(fault.utlb_id)
            # Upgrade access strength for the page.
            if fault.access == AccessType.WRITE:
                work.write_pages.add(page)
                work.prefetch_only_pages.discard(page)
            elif fault.access == AccessType.READ:
                work.prefetch_only_pages.discard(page)

    batch.sm_fault_counts = sm_counts
    return batch
