"""Fault-trace capture and open-loop replay.

The paper's artifact (uvm-eval) separates *collection* — the instrumented
driver logging every fault — from *evaluation* — offline analysis and
what-if studies.  This module provides the same workflow for the simulator:

1. run a workload with tracing enabled and :func:`capture_trace` the exact
   fault stream (page, access, SM, arrival window);
2. persist it (:meth:`FaultTrace.to_jsonl`);
3. :func:`replay` it through a *fresh driver with a different
   configuration* — batch size, prefetch policy, eviction policy, cost
   overrides — without re-simulating the GPU side.

Replay is open-loop: the recorded arrival windows are preserved, so driver-
policy changes show their effect on batching and servicing, while the
fault *generation* stays as recorded.  (A closed-loop change — e.g. a
policy that alters which pages fault at all — needs a full re-simulation.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from ..api import UvmSystem
from ..config import SystemConfig
from ..core.instrumentation import BatchLog
from ..gpu.fault import AccessType, FaultArrays


@dataclass(frozen=True)
class TracedFault:
    """One recorded fault."""

    page: int
    access: int
    sm_id: int
    warp_uid: int


@dataclass
class FaultTrace:
    """A recorded fault stream, grouped into arrival windows.

    Each window holds the faults fetched together by one original batch —
    the granularity at which the hardware buffer was drained.
    """

    #: (start_page, num_pages) of every managed allocation, in order.
    allocations: List[Tuple[int, int]] = field(default_factory=list)
    #: Fault windows in service order.
    windows: List[List[TracedFault]] = field(default_factory=list)

    @property
    def num_faults(self) -> int:
        return sum(len(w) for w in self.windows)

    # --------------------------------------------------------- persistence

    def to_jsonl(self, path: Union[str, Path]) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"allocations": self.allocations}) + "\n")
            for window in self.windows:
                fh.write(
                    json.dumps(
                        [[f.page, f.access, f.sm_id, f.warp_uid] for f in window]
                    )
                    + "\n"
                )

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "FaultTrace":
        trace = cls()
        with Path(path).open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            trace.allocations = [tuple(a) for a in header["allocations"]]
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                trace.windows.append(
                    [TracedFault(*entry) for entry in json.loads(line)]
                )
        return trace


def capture_trace(system: UvmSystem) -> FaultTrace:
    """Build a :class:`FaultTrace` from a traced run's "fault" events.

    ``system`` must have been constructed with ``trace=True``, which turns
    on the flight recorder's per-fault events.
    """
    events = system.obs.flight.select("fault")
    if not events:
        raise ValueError(
            "no fault events recorded — construct UvmSystem(trace=True) "
            "before running the workload"
        )
    trace = FaultTrace(
        allocations=[(a.start_page, a.num_pages) for a in system.allocations]
    )
    current_batch = None
    for _t, _kind, (batch_id, page, access, sm_id, warp_uid, _arrival) in events:
        if batch_id != current_batch:
            trace.windows.append([])
            current_batch = batch_id
        trace.windows[-1].append(TracedFault(page, access, sm_id, warp_uid))
    return trace


def replay(trace: FaultTrace, config: SystemConfig) -> BatchLog:
    """Replay a recorded fault stream through a fresh driver.

    Windows are injected in order; after each injection the driver services
    until its buffer drains (with a larger ``batch_size`` several recorded
    windows may coalesce into one batch when they queue up; with a smaller
    one a window splits).  Returns the new driver's batch log.
    """
    system = UvmSystem(config)
    for start_page, num_pages in trace.allocations:
        system.engine.driver.register_allocation(start_page, num_pages)
    driver = system.engine.driver
    device = system.engine.device
    interval = system.engine.cost.fault_arrival_interval_usec
    slept = True
    for window in trace.windows:
        t = system.clock.now
        faults = FaultArrays()
        for f in window:
            if device.page_table.is_resident(f.page):
                continue  # already brought in by an earlier window's prefetch
            if device.fault_buffer.admit(
                faults,
                f.page,
                AccessType(f.access),
                f.sm_id,
                device.config.utlb_of_sm(f.sm_id),
                f.warp_uid,
                t,
            ):
                t += interval
        if not faults:
            continue
        device.gmmu.deliver(faults)
        system.clock.advance_to(t)
        while len(system.engine.device.fault_buffer) > 0:
            driver.service_next_batch(slept=slept)
            slept = False
    return driver.log
