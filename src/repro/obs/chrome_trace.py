"""Chrome trace-event export: the fault path on a Perfetto timeline.

The trace is a read-time view of the run's one log (the paper's method is
one instrumented driver log read in different ways, §3.1).  Nothing feeds
it while the simulation runs: :class:`ChromeTrace` renders the Trace Event
Format JSON consumed by Perfetto and ``chrome://tracing`` from each
device's flight-recorder events and batch log whenever it is read.  A
Chrome-traced run (``ObsConfig.chrome_trace``) makes the flight recorder a
tracing one, which keeps every event; a checkpoint restore rewinds the log,
so a recovered run renders the crash-free run's trace.

Track layout (one "process" per subsystem):

* **UVM driver** (pid 1) — batch envelopes on one row, per-VABlock service
  slices on a second, intra-block phases (alloc/DMA/unmap/transfer/...) on a
  third; replay instants ride on the batch row;
* **Copy engine** (pid 2) — one duration slice per copy-engine burst,
  labeled with direction, bytes, and run count;
* **SMs** (pid 3) — per-SM warp-compute ("run") slices, per-fault instant
  events on the issuing SM's row, and an aggregate "stall" row covering
  driver servicing windows (§6: the GPU is stalled while the driver works);
* **Eviction** (pid 4) — one slice per VABlock eviction;
* **Peer** (pid 5) — multi-GPU peer/bounce migrations;
* **Kernels** (pid 6) — one envelope slice per kernel launch.

Where each slice comes from: batch envelopes, stall slices and replay
instants from the :class:`~repro.core.instrumentation.BatchLog`; fault
instants from the tracing ``fault`` events; kernels from ``launch`` /
``launch.done``; evictions from ``evict``; the rest from the tracing-only
``run``, ``ce``, ``vablock`` and ``peer`` events (``docs/diagnostics.md``
lists their fields).  The driver settles a batch's per-VABlock costs only
after its block loop, and logs each block's ``vablock`` event then, after
every burst and eviction of the loop.  The blocks take the batch's bursts
and evictions in order and place them by their ``(attr, µs)`` phase marks:
each ``time_transfer_*`` mark is one copy-engine burst, and each eviction
is its two ``time_eviction`` marks plus, when it wrote pages back,
everything up to its ``time_transfer_d2h``.

Timestamps are simulated microseconds, which is exactly the unit the trace
format expects, so simulated time maps 1:1 onto the viewer's timeline.
Multi-GPU systems offset each device's pids by ``pid_base`` so devices show
as separate process groups.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

#: Subsystem process ids (offset by the device's ``pid_base`` in multi-GPU).
PID_DRIVER = 1
PID_COPY_ENGINE = 2
PID_SM = 3
PID_EVICTION = 4
PID_PEER = 5
PID_KERNEL = 6

PROCESS_NAMES = {
    PID_KERNEL: "Kernels",
    PID_DRIVER: "UVM driver",
    PID_COPY_ENGINE: "Copy engine",
    PID_SM: "SMs",
    PID_EVICTION: "Eviction",
    PID_PEER: "Peer transfers",
}

#: Driver-process rows.
TID_BATCH = 0
TID_VABLOCK = 1
TID_PHASE = 2

DRIVER_THREAD_NAMES = {
    TID_BATCH: "batches",
    TID_VABLOCK: "vablocks",
    TID_PHASE: "phases",
}


class TraceSource(NamedTuple):
    """One device's share of the log: its flight recorder and batch log
    (None for the multi-GPU coordinator, which logs only peer
    migrations), its SM count, and where its tracks go."""

    pid_base: int
    label: str
    flight: object
    log: object = None
    num_sms: int = 0


def _slice(name: str, cat: str, ts: float, dur: float, pid: int, tid: int,
           args: Optional[dict] = None) -> dict:
    """A complete duration event (``ph: "X"``)."""
    event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def _instant(name: str, ts: float, pid: int, tid: int, args: dict) -> dict:
    """A thread-scoped instant event (``ph: "i"``)."""
    return {"name": name, "cat": name, "ph": "i", "s": "t", "ts": ts,
            "pid": pid, "tid": tid, "args": args}


class _Renderer:
    """Renders one :class:`TraceSource` into a list of trace events."""

    def __init__(self, source: TraceSource, out: List[dict]) -> None:
        self.source = source
        self.out = out
        self.pid_driver = source.pid_base + PID_DRIVER
        self.pid_sm = source.pid_base + PID_SM

    def burst(self, ts: float, args: Tuple) -> None:
        direction, nbytes, runs, cost = args
        if nbytes:
            self.out.append(_slice(
                f"copy {direction}", "ce", ts, cost,
                self.source.pid_base + PID_COPY_ENGINE,
                0 if direction == "h2d" else 1, {"bytes": nbytes, "runs": runs},
            ))

    def block(self, args: Tuple, bursts: deque, evicts: deque) -> None:
        """One VABlock: its slice, its phase slices, and the bursts and
        evictions it made, taken from the front of the batch's ``bursts``
        and ``evicts`` and placed by its marks."""
        batch, block_id, t_block, cost, faults, marks = args
        out = self.out
        out.append(_slice(f"vablock {block_id}", "driver", t_block, cost,
                          self.pid_driver, TID_VABLOCK,
                          {"batch": batch, "faults": faults}))
        # The in-block cost after each mark, summed as the driver sums it.
        ends = list(accumulate(usec for _, usec in marks))
        starts = [0.0] + ends[:-1]
        offset = t_block
        for (attr, usec), start in zip(marks, starts):
            if attr.startswith("time_transfer_"):
                self.burst(t_block + start, bursts.popleft())
            out.append(_slice(attr[5:], "driver", offset, usec,
                              self.pid_driver, TID_PHASE))
            offset += usec
        # An eviction spends two time_eviction marks, then writes its pages
        # back, ending at a time_transfer_d2h mark.
        firsts = [i for i, (attr, _) in enumerate(marks) if attr == "time_eviction"]
        for i in firsts[::2]:
            evict = evicts.popleft()
            end = i + 1
            if evict[4]:
                end = next(k for k in range(end, len(marks))
                           if marks[k][0] == "time_transfer_d2h")
            dur = marks[i][1] + marks[i + 1][1] + (ends[end] - ends[i + 1])
            out.append(_slice(
                f"evict block {evict[1]}", "evict", t_block + starts[i], dur,
                self.source.pid_base + PID_EVICTION, 0,
                {"pages": evict[4], "batch": evict[0]},
            ))

    def run(self) -> None:
        src = self.source
        out = self.out
        #: Bursts and evictions of the batch not yet placed in a block.
        bursts: deque = deque()
        evicts: deque = deque()
        in_batch = False
        launch = None
        launch_faults = 0
        for t, kind, args in src.flight:
            if kind == "fault":
                batch, page, _access, sm_id, _warp, arrival = args
                out.append(_instant("fault", arrival, self.pid_sm, sm_id,
                                    {"page": page, "batch": batch}))
            elif kind == "run":
                sm_id, warp, start, usec = args
                out.append(_slice("run", "sm", start, usec, self.pid_sm, sm_id,
                                  {"warp": warp}))
            elif kind == "ce":
                if in_batch:
                    bursts.append(args)
                else:
                    self.burst(t, args)
            elif kind == "evict":
                evicts.append(args)
            elif kind == "vablock":
                self.block(args, bursts, evicts)
            elif kind == "batch.open":
                in_batch = True
            elif kind in ("batch.close", "batch.abort"):
                # A block that raised logged no vablock event: like its
                # slice, its bursts and evictions stay out of the trace.
                bursts.clear()
                evicts.clear()
                in_batch = False
                launch_faults += args[1]
            elif kind == "launch":
                launch = (t, args[0])
                launch_faults = 0
            elif kind == "launch.done" and launch is not None:
                t0, name = launch
                out.append(_slice(name or "kernel", "kernel", t0, t - t0,
                                  src.pid_base + PID_KERNEL, 0,
                                  {"faults": launch_faults, "batches": args[1]}))
                launch = None
            elif kind == "peer":
                src_id, dst_id, mode, t0, pages, nbytes = args
                out.append(_slice(
                    f"migrate GPU{src_id}→GPU{dst_id} ({mode})", "peer", t0,
                    t - t0, src.pid_base + PID_PEER, 0,
                    {"pages": pages, "bytes": nbytes, "mode": mode},
                ))
        if src.log is not None:
            self.batches(src.log.records)

    def batches(self, records) -> None:
        """Batch envelopes, stall slices and replay instants."""
        out = self.out
        for record in records:
            kind = "hinted migration" if record.hinted else "batch"
            out.append(_slice(
                f"{kind} {record.batch_id}", "driver", record.t_start,
                record.duration, self.pid_driver, TID_BATCH,
                {
                    "faults_raw": record.num_faults_raw,
                    "faults_unique": record.num_faults_unique,
                    "vablocks": record.num_vablocks,
                    "pages_h2d": record.pages_migrated_h2d,
                    "evictions": record.evictions,
                },
            ))
            if record.hinted:
                continue
            # The GPU is stalled while the driver services (§6): one
            # aggregate stall slice on the SM process' summary row.
            out.append(_slice("stall (driver servicing)", "stall",
                              record.t_start, record.duration, self.pid_sm,
                              self.source.num_sms, {"batch": record.batch_id}))
            if not record.aborted:
                out.append(_instant("replay", record.t_end, self.pid_driver,
                                    TID_BATCH, {"batch": record.batch_id,
                                                "dropped": record.dropped_at_flush}))


class ChromeTrace:
    """The run's Chrome trace, rendered from its log on every read."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.sources: List[TraceSource] = []

    def add_source(self, pid_base: int, label: str, flight, log=None,
                   num_sms: int = 0) -> None:
        """Render ``flight`` (and ``log``'s batch records) onto the tracks
        at ``pid_base``, named with ``label``."""
        self.sources.append(TraceSource(pid_base, label, flight, log, num_sms))

    # ------------------------------------------------------------- reading

    @property
    def events(self) -> List[dict]:
        """Every non-metadata event, in log order per source."""
        out: List[dict] = []
        if self.enabled:
            for source in self.sources:
                _Renderer(source, out).run()
        return out

    def __len__(self) -> int:
        return len(self.events)

    @property
    def num_tracks(self) -> int:
        """Distinct processes that actually carry events."""
        return len({e["pid"] for e in self.events})

    def _metadata_events(self) -> List[dict]:
        processes: Dict[int, str] = {}
        threads: Dict[Tuple[int, int], str] = {}
        for src in self.sources:
            prefix = f"{src.label} " if src.label else ""
            for pid, name in PROCESS_NAMES.items():
                processes[src.pid_base + pid] = prefix + name
            for tid, name in DRIVER_THREAD_NAMES.items():
                threads[(src.pid_base + PID_DRIVER, tid)] = name
            if src.num_sms:
                pid_sm = src.pid_base + PID_SM
                for sm_id in range(src.num_sms):
                    threads[(pid_sm, sm_id)] = f"SM {sm_id}"
                threads[(pid_sm, src.num_sms)] = "all SMs (stall)"
        out = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": name}}
            for pid, name in sorted(processes.items())
        ]
        out.extend(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
            for (pid, tid), name in sorted(threads.items())
        )
        return out

    def to_dict(self) -> dict:
        """The trace as a JSON-ready dict: metadata first, events by time."""
        events = self._metadata_events() if self.enabled else []
        events.extend(sorted(self.events, key=lambda e: (e["ts"], e["pid"], e["tid"])))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"source": "uvm-repro"},
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize to ``path``; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path
