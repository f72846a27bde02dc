"""Simulated wall clock.

All timing in the reproduction is *simulated*: costs come from
:class:`repro.hostos.cost_model.CostModel` and advance this clock
deterministically, which makes every figure and table exactly reproducible —
the paper's results are all relative (fractions of batch time, speedup
factors, orderings), so determinism loses nothing while removing host noise.

Time is kept in microseconds as a float; the paper's instrumented driver uses
nanosecond-resolution timers, and float64 microseconds retain sub-nanosecond
precision over any realistic run length.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated clock with a section-timing helper.

    >>> clock = SimClock()
    >>> _ = clock.advance(3.5)
    >>> clock.now
    3.5
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def advance(self, usec: float) -> float:
        """Advance by ``usec`` (must be non-negative); returns the new time."""
        if usec < 0:
            raise ValueError(f"cannot advance clock by negative time {usec}")
        self._now += usec
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance to ``deadline`` if it is in the future; never rewinds."""
        if deadline > self._now:
            self._now = deadline
        return self._now

    def restore(self, now: float) -> None:
        """Set the clock to an absolute time — checkpoint restore only.

        The only sanctioned rewind: :class:`repro.sim.checkpoint` rolls the
        whole engine (and the sanitizer's monotonicity watermark) back
        together, so causality within the restored timeline is preserved.
        """
        self._now = float(now)

    def section(self) -> "ClockSection":
        """Start a timed section; ``section.elapsed`` after more advances."""
        return ClockSection(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.3f}us)"


class ClockSection:
    """Measures simulated time elapsed since construction.

    Mirrors the paper's targeted high-precision timers around driver
    routines: wrap the routine, then read :attr:`elapsed`.
    """

    __slots__ = ("_clock", "_start")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now

    @property
    def start(self) -> float:
        return self._start

    @property
    def elapsed(self) -> float:
        return self._clock.now - self._start
