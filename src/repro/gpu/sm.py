"""Streaming multiprocessor: warp scheduling and the fault-rate throttle.

Section 3.2 infers "an additional fault rate throttling mechanism [that]
prevents a single SM from creating too many faults": several vecadd batches
contain far fewer than 56 faults despite no data dependency blocking
issuance, consistent with the far-fault proposal of Zheng et al. [39].

We model the throttle as a per-SM, per-replay-window token budget:

* when the driver *was asleep* before the window (kernel start, or the fault
  buffer drained), the interrupt + wakeup latency gives warps a long window
  and the SM can fill its µTLB's capacity — reproducing the 56-fault first
  batch of Fig 3;
* in steady state the driver turns batches around quickly, so each SM only
  lands ``sm_fault_rate_limit`` faults per window — reproducing the small
  later batches of Fig 3 and the ~``batch_size / num_sms`` per-SM ceiling of
  Table 2.

Prefetch-instruction faults bypass the throttle entirely (Fig 5).

The SM also schedules warps: at most ``occupancy`` programs are resident at
once; queued programs activate as residents finish (block scheduling).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .warp import WarpProgram, WarpState


class StreamingMultiprocessor:
    """One SM: resident warps, a launch queue, and throttle accounting."""

    __slots__ = (
        "sm_id",
        "utlb_id",
        "rate_limit",
        "occupancy_limit",
        "active",
        "queued",
        "budget",
        "compute_backlog_usec",
    )

    def __init__(
        self,
        sm_id: int,
        utlb_id: int,
        rate_limit: int,
        occupancy_limit: int,
    ) -> None:
        self.sm_id = sm_id
        self.utlb_id = utlb_id
        #: Faults this SM may issue per replay window.  The engine sets this
        #: and :attr:`budget` when a window opens with the SM busy.
        self.rate_limit = rate_limit
        #: Maximum concurrently-resident warp programs.
        self.occupancy_limit = occupancy_limit
        self.active: List[WarpState] = []
        self.queued: Deque[WarpProgram] = deque()
        #: Remaining fault budget for the current window.
        self.budget = rate_limit
        #: GPU compute time accrued by completed phases (drained per round).
        self.compute_backlog_usec = 0.0

    # --------------------------------------------------------------- warps

    def enqueue(self, program: WarpProgram) -> None:
        self.queued.append(program)

    def activate_pending(self, next_uid) -> List[WarpState]:
        """Move queued programs into the active set up to the occupancy limit.

        ``next_uid`` is a callable returning a fresh warp uid.  Returns the
        newly activated warp states (the engine must `advance` them).
        """
        activated: List[WarpState] = []
        while self.queued and len(self.active) < self.occupancy_limit:
            program = self.queued.popleft()
            warp = WarpState(program, next_uid(), self.sm_id)
            self.active.append(warp)
            activated.append(warp)
        return activated

    def retire(self, warp: WarpState) -> None:
        """Remove a finished warp from the active set."""
        self.active.remove(warp)

    @property
    def idle(self) -> bool:
        return not self.active and not self.queued

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SM(id={self.sm_id}, active={len(self.active)}, "
            f"queued={len(self.queued)}, budget={self.budget})"
        )
