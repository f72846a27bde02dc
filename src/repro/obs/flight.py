"""The run's one event log: a ring of ``(sim_time, kind, args)`` events.

Chaos runs used to die with a stack trace and nothing else — the batch log
shows *completed* batches, the metrics registry shows totals, but neither
says what the system was doing in the moments before it fell over.  The
flight recorder is the black box: a ring (:class:`collections.deque`) of
small ``(sim_time, kind, args)`` tuples fed by the engine, driver, copy
engines, and sanitizer at their interesting transitions — batch
open/close/abort, retries and failovers, evictions, checkpoints, injected
crashes, invariant violations (``docs/diagnostics.md`` lists every kind).
A *tracing* recorder (``UvmSystem(trace=True)``) keeps every event, adds
the per-fault ``fault`` and per-block ``migrate`` kinds of the paper's
fine-grain instrumentation (§3.1), and tees events into the NDJSON sink.

Design contract (same as every :mod:`repro.obs` instrument):

* **timeline-neutral** — the recorder only *observes*; it never advances the
  :class:`~repro.sim.clock.SimClock` or draws RNG, so the simulated timeline
  is bit-identical with it on or off (and its contents are deterministic:
  equal seeds produce byte-identical event dumps);
* **near-zero cost** — one tuple build plus one deque append per event when
  on; the shared :data:`NULL_FLIGHT` null object when off, so call sites
  never branch;
* **bounded** — unless tracing, the ring keeps the newest :attr:`capacity`
  events and counts overwrites in :attr:`dropped`, so a week-long soak
  costs the same memory as a smoke test;
* **rewound on restore** — a checkpoint stores :attr:`appended` and a
  restore calls :meth:`rewind` with it, so a recovered run logs the clean
  run's events plus the crash seam.

Crash bundles (:mod:`repro.obs.bundle`) dump the ring on the way down; the
``uvm-repro analyze`` report engine replays it to name the failing batch.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Optional, Tuple

#: One recorded event: (simulated time µs, event kind, kind-specific args).
FlightEvent = Tuple[float, str, Tuple]


class FlightRecorder:
    """Ring of recent structured events (the run's black box)."""

    __slots__ = ("clock", "capacity", "sink", "appended", "_ring")

    enabled = True

    def __init__(self, clock, capacity: Optional[int] = 512, sink=None) -> None:
        """``capacity`` None makes a tracing recorder, which keeps every
        event; ``sink`` (an NDJSON sink) receives every event."""
        if capacity is not None and capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self.sink = sink
        #: Events recorded since creation/clear (overwritten ones included).
        self.appended = 0
        self._ring: deque = deque(maxlen=capacity)

    # ------------------------------------------------------------ recording

    def record(self, kind: str, *args) -> None:
        """Append one event stamped with the current simulated time."""
        event = (self.clock.now, kind, args)
        self._ring.append(event)
        self.appended += 1
        if self.sink is not None:
            self.sink.write_event(event)

    def fresh(self) -> "FlightRecorder":
        """An empty recorder of this one's kind: a ring of the same
        capacity, or a tracing recorder teeing into the same sink (a
        multi-GPU device's log, see :meth:`repro.obs.Observability.scoped`)."""
        return FlightRecorder(self.clock, self.capacity, sink=self.sink)

    def rewind(self, appended: int) -> None:
        """Drop the events recorded since :attr:`appended` read ``appended``
        (those still in the ring); a checkpoint restore calls this."""
        extra = self.appended - appended
        if extra <= 0:
            return
        for _ in range(min(extra, len(self._ring))):
            self._ring.pop()
        self.appended = appended

    # -------------------------------------------------------------- queries

    @property
    def tracing(self) -> bool:
        """Whether the fine-grain kinds (``fault``, ``migrate``) are on."""
        return self.capacity is None

    @property
    def dropped(self) -> int:
        """Events the bounded ring overwrote (or a rewind could not keep)."""
        return self.appended - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self._ring)

    def events(self) -> List[FlightEvent]:
        return list(self._ring)

    def tail(self, n: int) -> List[FlightEvent]:
        """The newest ``n`` events, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def select(self, kind: str) -> List[FlightEvent]:
        return [e for e in self._ring if e[1] == kind]

    def last(self, kind: str) -> Optional[FlightEvent]:
        """Newest event of ``kind`` (None when the ring holds none)."""
        for event in reversed(self._ring):
            if event[1] == kind:
                return event
        return None

    def clear(self) -> None:
        self._ring.clear()
        self.appended = 0

    # --------------------------------------------------------- serialization

    def to_dicts(self) -> List[dict]:
        """The ring as JSON-ready dicts, oldest first (the bundle format)."""
        return [event_dict(event) for event in self._ring]


def event_dict(event: FlightEvent) -> dict:
    """One event in its JSON form: ``{"t", "kind", "args"}``."""
    time, kind, args = event
    return {"t": time, "kind": kind, "args": list(args)}


class _NullFlightRecorder:
    """Shared no-op stand-in when the flight recorder is off."""

    __slots__ = ()

    enabled = False
    tracing = False
    capacity = 0
    appended = 0
    dropped = 0

    def record(self, kind: str, *args) -> None:
        pass

    def fresh(self) -> "_NullFlightRecorder":
        return self

    def rewind(self, appended: int) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def events(self) -> List[FlightEvent]:
        return []

    def tail(self, n: int) -> List[FlightEvent]:
        return []

    def select(self, kind: str) -> List[FlightEvent]:
        return []

    def last(self, kind: str) -> Optional[FlightEvent]:
        return None

    def clear(self) -> None:
        pass

    def to_dicts(self) -> List[dict]:
        return []


NULL_FLIGHT = _NullFlightRecorder()
