"""Unified observability layer: metrics, event log, and its views.

One :class:`Observability` object per simulated system bundles the
instruments the fault-path analysis needs:

* :class:`~repro.obs.flight.FlightRecorder` — the run's one event log, a
  ring of ``(t, kind, args)`` events (unbounded when tracing);
* :class:`~repro.obs.metrics.MetricsRegistry` — run-level counters, gauges,
  and histograms with labeled series (snapshot dict / Prometheus text);
  families the batch log already holds are folded from it at read time;
* :class:`~repro.obs.chrome_trace.ChromeTrace` — the run as a
  Perfetto/``chrome://tracing`` timeline, rendered from the event log and
  the batch log whenever it is read;
* :class:`~repro.obs.sinks.NdjsonSink` — structured per-batch / per-event
  log lines (the paper's "system log", machine-readable).

Enablement comes from :class:`~repro.config.ObsConfig`; every instrument is
independently switchable and near-zero-cost when off.  A checkpoint stores
:meth:`Observability.mark` and a restore calls :meth:`Observability.rewind`,
so the event log and the sink both forget the batches a recovery replays.
Multi-GPU systems share one ``Observability`` across engines and give each
device a scoped view (:meth:`Observability.scoped`) so its trace tracks
land in a separate process group.

The sim-time phase split is no instrument of its own: every
:class:`~repro.core.batch_record.BatchRecord` carries its ``time_*`` timers
(:data:`~repro.core.batch_record.PHASE_FIELDS`), which
:mod:`repro.obs.analyze` and :mod:`repro.analysis.breakdown` fold at read
time.  Host wall time per simulator layer is measured outside the
simulator, by ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .catalog import (
    METRIC_CATALOG,
    declared_label_keys,
    metric_declaration,
    validate_registry,
)
from .chrome_trace import (
    ChromeTrace,
    PID_COPY_ENGINE,
    PID_DRIVER,
    PID_EVICTION,
    PID_KERNEL,
    PID_PEER,
    PID_SM,
    TID_BATCH,
    TID_PHASE,
    TID_VABLOCK,
)
from .flight import NULL_FLIGHT, FlightRecorder
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS_USEC,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NULL_INSTRUMENT,
)
from .sinks import NdjsonSink, read_ndjson


class Observability:
    """Facade bundling one system's metrics, traces, and logs."""

    def __init__(self, config, clock, pid_base: int = 0, label: str = "",
                 trace: bool = False) -> None:
        """``config`` is an :class:`~repro.config.ObsConfig`; ``clock`` the
        system's shared :class:`~repro.sim.clock.SimClock`; ``trace`` (or
        ``config.chrome_trace``) makes the flight recorder a tracing one
        (see :mod:`repro.obs.flight`)."""
        self.config = config
        self.clock = clock
        self.pid_base = pid_base
        self.label = label
        self.metrics = MetricsRegistry(enabled=config.metrics)
        self.chrome = ChromeTrace(enabled=config.chrome_trace)
        self.sink: Optional[NdjsonSink] = (
            NdjsonSink(config.ndjson_path) if config.ndjson_path else None
        )
        if trace or config.chrome_trace:
            # The Chrome trace is rendered from the log, so it keeps every
            # event; only a traced run tees them into the sink.
            self.flight = FlightRecorder(clock, None, sink=self.sink if trace else None)
        elif config.flight_recorder:
            self.flight = FlightRecorder(clock, config.flight_cap)
        else:
            self.flight = NULL_FLIGHT

    # ------------------------------------------------------------- scoping

    def scoped(self, pid_base: int, label: str) -> "Observability":
        """A per-device view sharing every instrument but with offset trace
        pids, so multi-GPU devices render as separate process groups.  A
        tracing recorder is per device, so the trace renders each device's
        events on its own tracks."""
        view = object.__new__(Observability)
        view.config = self.config
        view.clock = self.clock
        view.pid_base = pid_base
        view.label = label
        view.metrics = self.metrics
        view.chrome = self.chrome
        view.sink = self.sink
        view.flight = (
            FlightRecorder(self.clock, None, sink=self.flight.sink)
            if self.flight.tracing
            else self.flight
        )
        return view

    def pid(self, subsystem_pid: int) -> int:
        """Trace pid for a subsystem constant, offset for this device."""
        return self.pid_base + subsystem_pid

    @property
    def any_enabled(self) -> bool:
        return self.metrics.enabled or self.chrome.enabled or self.sink is not None

    # ------------------------------------------------------------ rewinding

    def mark(self) -> Tuple[int, Optional[int]]:
        """Where the event log and the sink stand (a checkpoint stores
        this)."""
        return (self.flight.appended, None if self.sink is None else self.sink.tell())

    def rewind(self, mark: Tuple[int, Optional[int]]) -> None:
        """Forget everything logged since :meth:`mark` returned ``mark``."""
        appended, offset = mark
        self.flight.rewind(appended)
        if self.sink is not None:
            self.sink.truncate(offset)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Flush and close the NDJSON sink (other instruments are in-memory)."""
        if self.sink is not None:
            self.sink.close()


__all__ = [
    "Observability",
    "METRIC_CATALOG",
    "declared_label_keys",
    "metric_declaration",
    "validate_registry",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_INSTRUMENT",
    "DEFAULT_TIME_BUCKETS_USEC",
    "DEFAULT_COUNT_BUCKETS",
    "FlightRecorder",
    "NULL_FLIGHT",
    "ChromeTrace",
    "NdjsonSink",
    "read_ndjson",
    "PID_DRIVER",
    "PID_COPY_ENGINE",
    "PID_SM",
    "PID_EVICTION",
    "PID_PEER",
    "PID_KERNEL",
    "TID_BATCH",
    "TID_VABLOCK",
    "TID_PHASE",
]
