"""Context-manager span profiler: simulated *and* wall-clock phase timing.

The paper wraps driver routines in "targeted high-precision timers" (§3.1).
:class:`SpanProfiler` is the structured version: a ``with`` block per phase
records how much *simulated* time the phase advanced the
:class:`~repro.sim.clock.SimClock` and how much *host wall-clock* time the
simulator itself spent there (``time.perf_counter``), so one profile answers
both "where does the modeled fault path spend its time" and "where does the
simulation spend mine".

Spans nest (depth is tracked per thread) and the profiler is thread-safe by
construction: each thread gets its own span stack via ``threading.local``
and completed spans are appended under a lock, so engines running in worker
threads never share mutable span state.

Driver phases whose cost is accumulated first and applied to the clock later
(the per-VABlock path) use :meth:`SpanProfiler.record` to log manual spans
with explicit start/duration.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    #: Coarse grouping used for Chrome-trace track routing ("driver",
    #: "engine", "ce", ...).
    category: str
    #: Simulated start time (µs) and duration (µs).
    sim_start: float
    sim_dur: float
    #: Host wall-clock duration (µs) spent inside the span, 0 for manual
    #: spans replayed from accumulated costs.
    wall_dur: float
    #: Nesting depth at completion (0 = top level).
    depth: int
    #: ``threading.get_ident()`` of the recording thread.
    thread_id: int
    #: Free-form attributes (batch id, block id, ...).
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def sim_end(self) -> float:
        return self.sim_start + self.sim_dur

    def args_dict(self) -> Dict[str, object]:
        return dict(self.args)


class _NullSpan:
    """No-op context manager returned by a disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """Live context-manager span; becomes a :class:`SpanRecord` on exit."""

    __slots__ = ("_profiler", "name", "category", "args", "_sim_start", "_wall_start")

    def __init__(self, profiler: "SpanProfiler", name: str, category: str, args) -> None:
        self._profiler = profiler
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_Span":
        stack = self._profiler._stack()
        stack.append(self)
        self._sim_start = self._profiler.clock.now
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        profiler = self._profiler
        wall_dur = (time.perf_counter() - self._wall_start) * 1e6
        stack = profiler._stack()
        stack.pop()
        profiler._append(
            SpanRecord(
                name=self.name,
                category=self.category,
                sim_start=self._sim_start,
                sim_dur=profiler.clock.now - self._sim_start,
                wall_dur=wall_dur,
                depth=len(stack),
                thread_id=threading.get_ident(),
                args=self.args,
            )
        )


class SpanProfiler:
    """Collects :class:`SpanRecord` from clock-advancing ``with`` blocks and
    manual ``record`` calls."""

    def __init__(
        self,
        clock,
        enabled: bool = True,
        max_spans: Optional[int] = None,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            if self.max_spans is not None and len(self._records) >= self.max_spans:
                self.dropped += 1
                return
            self._records.append(record)

    def span(self, name: str, category: str = "driver", **args):
        """A context manager timing the enclosed block (no-op when disabled).

        >>> from repro.sim.clock import SimClock
        >>> clock = SimClock(); profiler = SpanProfiler(clock)
        >>> with profiler.span("fetch"):
        ...     _ = clock.advance(3.0)
        >>> profiler.records[0].sim_dur
        3.0
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, category, tuple(args.items()))

    def record(
        self,
        name: str,
        category: str = "driver",
        sim_start: float = 0.0,
        sim_dur: float = 0.0,
        wall_dur: float = 0.0,
        depth: int = 0,
        **args,
    ) -> None:
        """Log a manual span with explicit timing (for phases whose cost is
        accumulated before the clock advances, e.g. per-VABlock service)."""
        if not self.enabled:
            return
        self._append(
            SpanRecord(
                name=name,
                category=category,
                sim_start=sim_start,
                sim_dur=sim_dur,
                wall_dur=wall_dur,
                depth=depth,
                thread_id=threading.get_ident(),
                args=tuple(args.items()),
            )
        )

    # -------------------------------------------------------------- queries

    @property
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def select(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: span count, simulated µs, wall-clock µs."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            agg = out.setdefault(
                record.name, {"count": 0, "sim_usec": 0.0, "wall_usec": 0.0}
            )
            agg["count"] += 1
            agg["sim_usec"] += record.sim_dur
            agg["wall_usec"] += record.wall_dur
        return out

    def sim_total(self, name: str) -> float:
        """Total simulated time across all spans named ``name``."""
        return sum(r.sim_dur for r in self.records if r.name == name)

    def truncate(self, count: int) -> None:
        """Drop the spans recorded after the first ``count`` (a checkpoint
        restore calls this, as :meth:`FlightRecorder.rewind`)."""
        with self._lock:
            del self._records[count:]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0
