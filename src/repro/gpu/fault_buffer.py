"""The hardware GPU fault buffer.

The GMMU writes fault information into a circular array on the device,
configured and managed by the UVM driver (paper §2.1).  The driver fetches
entries host-side in batches; a *replay* is preceded by a buffer flush that
drops every un-fetched entry — "only faults that still need to be serviced
will be reissued" (§4.2).  Faults arriving while the buffer is full are
dropped by hardware and likewise reissue after the next replay.
"""

from __future__ import annotations

from .fault import AccessType, FaultArrays


class FaultBuffer:
    """Bounded FIFO of fault rows with drop-on-overflow.

    The GMMU writes in issuance windows: :meth:`admit` decides each fault as
    it is issued and records the admitted ones into the window, and
    :meth:`append` lands the whole window in one go.  Entries live in a
    :class:`FaultArrays`, so the driver's :meth:`fetch` hands whole columns
    to the vectorized batch assembler.

    The lifetime counters satisfy the conservation identity UVMSan checks
    after every append, fetch and flush::

        total_pushed + total_injected ==
            total_fetched + total_flush_dropped
            + total_injector_dropped + len(buffer)

    Hardware overflow drops never enter the buffer, so they appear in no
    term.  The two injection terms exist only under chaos testing
    (:mod:`repro.inject`): ``total_injector_dropped`` counts arrivals the
    injector discarded as if the buffer were full (they *are* counted in
    ``total_pushed`` — the GMMU wrote them, the injected storm ate them),
    and ``total_injected`` counts spurious duplicate entries the injector
    appended that no GMMU write produced.
    """

    __slots__ = (
        "capacity",
        "_entries",
        "total_pushed",
        "total_fetched",
        "total_overflow_dropped",
        "total_flush_dropped",
        "total_injected",
        "total_injector_dropped",
        "_san",
        "_inj",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries = FaultArrays()
        self.total_pushed = 0
        self.total_fetched = 0
        self.total_overflow_dropped = 0
        self.total_flush_dropped = 0
        self.total_injected = 0
        self.total_injector_dropped = 0
        #: Attached UVMSan checker, or None (the common, zero-cost case).
        self._san = None
        #: Attached fault injector, or None (the common, zero-cost case).
        self._inj = None

    def __len__(self) -> int:
        return len(self._entries.timestamps)

    def attach_sanitizer(self, sanitizer) -> None:
        """Check occupancy/conservation invariants after every operation."""
        self._san = sanitizer

    def attach_injector(self, injector) -> None:
        """Enable the ``fault_buffer.*`` injection sites on this buffer."""
        self._inj = injector

    def admit(
        self,
        window: FaultArrays,
        page: int,
        access: AccessType,
        sm_id: int,
        utlb_id: int,
        warp_uid: int,
        timestamp: float,
    ) -> bool:
        """Decide one GMMU write; an admitted fault is recorded into
        ``window``, whose entries count toward the buffer's occupancy until
        :meth:`append` lands them.

        False means dropped: hardware overflow, or a forced
        ``fault_buffer.overflow`` storm (the caller observes exactly a
        hardware drop and re-demands after the next replay).  A fired
        ``fault_buffer.duplicate`` records the fault twice (§4.2's wakeup
        duplicates, forced).
        """
        stamps = window.timestamps
        occupancy = len(self._entries.timestamps) + len(stamps)
        if occupancy >= self.capacity:
            self.total_overflow_dropped += 1
            return False
        self.total_pushed += 1
        inj = self._inj
        if inj is None:
            window.flat.extend((sm_id, utlb_id, page, access, warp_uid))
            stamps.append(timestamp)
            return True
        if inj.fire("fault_buffer.overflow"):
            self.total_injector_dropped += 1
            return False
        record = (sm_id, utlb_id, page, access, warp_uid)
        window.flat.extend(record)
        stamps.append(timestamp)
        if occupancy + 1 < self.capacity and inj.fire("fault_buffer.duplicate"):
            window.flat.extend(record)
            stamps.append(timestamp)
            self.total_injected += 1
        return True

    def append(self, window: FaultArrays) -> None:
        """Land a window recorded by :meth:`admit`."""
        entries = self._entries
        entries.flat.extend(window.flat)
        entries.timestamps.extend(window.timestamps)
        if self._san is not None:
            self._san.on_fault_buffer(self)

    def fetch(self, max_n: int) -> FaultArrays:
        """Driver-side read of up to ``max_n`` oldest entries (consumed)."""
        n = min(max_n, len(self))
        fetched = self._entries.take_front(n)
        self.total_fetched += n
        if self._san is not None:
            self._san.on_fault_buffer(self)
        return fetched

    def flush(self) -> FaultArrays:
        """Drop every remaining entry (pre-replay flush); returns them so the
        engine can re-demand non-prefetch accesses."""
        dropped = self._entries.drain()
        self.total_flush_dropped += len(dropped)
        if self._san is not None:
            self._san.on_fault_buffer(self)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultBuffer({len(self)}/{self.capacity})"


class SoaFaultBuffer(FaultBuffer):
    """Never instantiated.  ``perfbench/layertrace.py`` hooks ``fetch`` and
    ``flush`` on this name through ``vars(cls)``; rebinding them here keeps
    that lookup working without wrapping :class:`FaultBuffer`'s methods
    twice."""

    __slots__ = ()
    fetch = FaultBuffer.fetch
    flush = FaultBuffer.flush
