"""GPU memory management unit: fault routing and host interrupt.

The GMMU receives misses from the µTLBs, writes the fault information into
the GPU fault buffer, and sends a hardware interrupt over the interconnect to
alert the host UVM driver (paper §2.1-2.2).  Batching lets the driver ignore
most interrupts, so the model only tracks a level-triggered pending flag.
"""

from __future__ import annotations

from typing import Optional

from .fault import FaultArrays
from .fault_buffer import FaultBuffer


class Gmmu:
    """Writes fault windows into the buffer and latches the host interrupt."""

    __slots__ = ("buffer", "interrupt_pending", "first_arrival")

    def __init__(self, buffer: FaultBuffer) -> None:
        self.buffer = buffer
        self.interrupt_pending = False
        #: Arrival time of the oldest un-fetched fault (drives wake latency).
        self.first_arrival: Optional[float] = None

    def deliver(self, window: FaultArrays) -> None:
        """Write a window of faults the buffer admitted (see
        :meth:`FaultBuffer.admit`) and latch the interrupt at its first
        arrival."""
        self.buffer.append(window)
        if window.timestamps and not self.interrupt_pending:
            self.interrupt_pending = True
            self.first_arrival = window.timestamps[0]

    def acknowledge(self) -> None:
        """Host acknowledged the interrupt (fault fetch started)."""
        self.interrupt_pending = False
        self.first_arrival = None
