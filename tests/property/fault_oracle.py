"""Per-fault reference models of the fault pipeline, and buffer drivers.

The simulator's fault buffer decides GMMU writes one at a time but lands
them a window at a time, its batch assembler is vectorized mask algebra,
and its issuance round visits only busy SMs with a fused warp issue step.
The oracles here do the same work the plain way — a deque that takes one
fault per push, a dict-of-sets assembler, and an issuance round that walks
every SM with a separate look-ahead and take per fault — so property tests
can hold the production pipeline to them.  :func:`write_window` and
:func:`write` drive the production buffer the way the engine's issuance
round does.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
    #: Page -> its slot in its block's ``pages``.
    slot: Dict[int, int] = {}

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
            slot[page] = len(work.pages)
            work.pages.append(page)
            work.written.append(fault.access == AccessType.WRITE)
            work.prefetch_only.append(fault.access == AccessType.PREFETCH)
        else:
            if fault.utlb_id in utlbs:
                batch.dup_same_utlb += 1
            else:
                batch.dup_cross_utlb += 1
                utlbs.add(fault.utlb_id)
            # Upgrade access strength for the page.
            if fault.access == AccessType.WRITE:
                work.written[slot[page]] = True
            if fault.access != AccessType.PREFETCH:
                work.prefetch_only[slot[page]] = False

    batch.sm_fault_counts = sm_counts
    return batch


# ------------------------------------------------------------ issuance


def peek_page(warp) -> Optional[int]:
    """Page of the warp's next still-missing occurrence, or None (pure)."""
    missing = warp.missing
    for i in range(warp._unissued_head, len(warp._unissued)):
        page = warp._unissued[i][0]
        if page in missing:
            return page
    return None


def take_one(warp) -> List[Tuple[int, AccessType]]:
    """Pop the next still-missing occurrence (skipping satisfied ones);
    the queue is dropped once consumed to its end."""
    taken = []
    unissued = warp._unissued
    head = warp._unissued_head
    while head < len(unissued) and not taken:
        occ = unissued[head]
        head += 1
        if occ[0] in warp.missing:
            taken.append(occ)
    warp._unissued_head = head
    if head >= len(unissued):
        warp._unissued = []
        warp._unissued_head = 0
    warp.faults_issued += len(taken)
    return taken


def reference_round(engine, burst: bool) -> Tuple[bool, float, bool]:
    """One GPU round of ``engine``, the plain way: every SM opens the
    window, activates, issues and drains, and each fault costs a look-ahead
    then a take.  Same contract as ``Engine._gpu_round``."""
    device = engine.device
    cfg = engine.config.gpu
    resident = device.page_table.resident
    progressed = False

    window_usec = max(0.0, engine.clock.now - engine._window_start)
    engine._window_start = engine.clock.now
    rate_quota = int(
        cfg.sm_fault_rate_limit * max(1.0, window_usec / cfg.fault_window_unit_usec)
    )
    if burst:
        rate_quota = cfg.utlb_outstanding_limit
    quota = max(1, min(rate_quota, cfg.utlb_outstanding_limit))
    for sm in device.sms:
        sm.rate_limit = quota
        sm.budget = cfg.utlb_outstanding_limit if burst else sm.rate_limit

    stagger = engine.cost.launch_stagger_usec
    for sm in device.sms:
        for i, warp in enumerate(sm.activate_pending(engine._next_uid)):
            engine._warps[warp.uid] = warp
            warp.track_hits = engine._hit_aware_eviction
            progressed = True
            warp.ready_at = engine.clock.now + (i * len(device.sms) + sm.sm_id) * stagger
            engine._advance_warp(warp)

    t = engine.clock.now + engine.cost.refault_latency_usec
    interval = engine.cost.fault_arrival_interval_usec
    admit = device.fault_buffer.admit
    window = FaultArrays()
    for sm_id, page in engine._prefetch_queue:
        if page in resident:
            continue
        if admit(window, page, AccessType.PREFETCH, sm_id, device.sms[sm_id].utlb_id, 0, t):
            t += interval
            progressed = True
    engine._prefetch_queue.clear()

    now = engine.clock.now
    inj = engine.injector if engine._inject_on else None
    stalled = False
    issuers = []
    for sm in device.sms:
        warps = [w for w in sm.active if w.has_issuable and w.ready_at <= now]
        if warps and sm.budget > 0:
            if inj is not None and inj.fire("utlb.stall"):
                stalled = True
                continue
            issuers.append((sm, device.utlbs[sm.utlb_id], warps, [0]))
    while issuers:
        next_issuers = []
        for sm, utlb, warps, cursor in issuers:
            issued_here = False
            while cursor[0] < len(warps):
                warp = warps[cursor[0]]
                if not warp.has_issuable:
                    cursor[0] += 1
                    continue
                if sm.budget <= 0:
                    break
                merged_ahead = peek_page(warp) in utlb.pending_pages
                if not merged_ahead and utlb.outstanding >= utlb.limit:
                    break
                occs = take_one(warp)
                if not occs:
                    cursor[0] += 1
                    continue
                page, access = occs[0]
                merged = page in utlb.pending_pages
                if utlb.request(page):
                    granted = min(1, sm.budget)
                    sm.budget -= granted
                    sm.total_faults += granted
                    if admit(window, page, access, sm.sm_id, sm.utlb_id, warp.uid, t):
                        t += interval
                    elif not merged:
                        utlb.cancel(page)
                        warp.requeue(page, access)
                        sm.budget = 0
                progressed = True
                issued_here = True
                break
            if (
                issued_here
                and sm.budget > 0
                and utlb.outstanding < utlb.limit
                and any(w.has_issuable for w in warps)
            ):
                next_issuers.append((sm, utlb, warps, cursor))
        issuers = next_issuers
    device.gmmu.deliver(window)

    if inj is not None and inj.active("utlb.early_cancel"):
        for utlb in device.utlbs:
            if utlb.pending_pages and inj.fire("utlb.early_cancel"):
                utlb.early_cancel(min(utlb.pending_pages))

    compute = 0.0
    for sm in device.sms:
        compute += sm.compute_backlog_usec
        sm.compute_backlog_usec = 0.0
    if len(device.fault_buffer) > 0:
        engine.clock.advance_to(t)
    return progressed, compute, stalled
