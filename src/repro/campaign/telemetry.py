"""Live campaign telemetry: worker heartbeats, job lifecycle, progress view.

Campaigns used to be a black box between "spawned the pool" and "merged the
rows": a wedged worker looked exactly like a slow one.  This module adds a
side-channel — workers emit small lifecycle events (``job.start``,
``heartbeat``, ``job.done``, ``job.failed``) onto a shared queue; the parent
drains it into an NDJSON telemetry file and a live progress state that
``uvm-repro campaign --watch`` renders between refreshes.  The fleet
coordinator (:mod:`repro.campaign.fleet`) additionally *acts* on the same
stream: heartbeat silence past the stall timeout escalates to SIGTERM then
SIGKILL, and checkpoint/resume events land in the run ledger.

The channel is strictly *observational*: telemetry rides next to the result
path, never through it, so the merged campaign NDJSON stays byte-identical
with telemetry on or off, for any worker count.  Workers receive the queue
proxy inside their payload dict (no module globals, no pool initializer
state, neither of which a ``spawn`` child inherits), and every event is a
plain picklable dict, so the channel works under both the ``fork`` and
``spawn`` start methods.

Two host clocks are deliberately kept apart.  NDJSON arrival stamps (the
``t`` field) are *wall-clock* seconds since campaign start — they are a
persistent artifact people correlate with logs and dashboards.  Liveness
bookkeeping (``started_at``/``last_seen``, the stall detector, rates and
ETA) runs on ``time.monotonic()``: an NTP step or a laptop suspend must not
spuriously flag a healthy worker as stalled — or worse, hide a genuinely
wedged one by jumping the wall clock backwards.  The simulator itself never
sees either clock.
"""

from __future__ import annotations

import json
import queue as queue_mod
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Seconds between worker heartbeats while a job simulates.
HEARTBEAT_INTERVAL_SEC = 1.0

#: Event types a campaign emits (the telemetry NDJSON vocabulary).  The
#: ``job.checkpoint``/``job.resume``/``job.retry``/``job.kill`` and
#: ``worker.*`` events exist only under the fleet coordinator; a plain
#: serial run emits the original six.
EVENT_TYPES = (
    "campaign.start",
    "campaign.resume",
    "job.start",
    "heartbeat",
    "job.checkpoint",
    "job.resume",
    "job.retry",
    "job.kill",
    "job.done",
    "job.failed",
    "worker.spawn",
    "worker.exit",
    "campaign.done",
)


# --------------------------------------------------------------- worker side


def emit(channel, event: dict) -> None:
    """Put one event on the telemetry channel (no-op when channel is None).

    Never raises: a dead manager process (parent torn down mid-run) must not
    turn a finished simulation into a failure.
    """
    if channel is None:
        return
    try:
        channel.put(event)
    except Exception:
        pass


class HeartbeatThread:
    """Daemon thread beating a job's batch progress onto the channel.

    ``progress_fn`` is sampled on each beat — typically
    ``lambda: len(system.driver.log)`` — so the parent can distinguish a
    slow-but-moving job from a wedged one.
    """

    def __init__(
        self,
        channel,
        index: int,
        progress_fn: Callable[[], int],
        interval_sec: float = HEARTBEAT_INTERVAL_SEC,
    ) -> None:
        self._channel = channel
        self._index = index
        self._progress_fn = progress_fn
        self._interval = interval_sec
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"uvm-heartbeat-{index}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                batches = int(self._progress_fn())
            except Exception:
                break
            emit(
                self._channel,
                {"type": "heartbeat", "index": self._index, "batches": batches},
            )

    def stop(self) -> None:
        """Stop beating *now* — the fleet's kill harness calls this before a
        self-inflicted SIGKILL so the thread cannot die mid-``put`` and
        strand a queue lock."""
        self._stop.set()

    def __enter__(self) -> "HeartbeatThread":
        if self._channel is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()


# --------------------------------------------------------------- parent side


@dataclass
class JobState:
    """What the parent knows about one in-flight job.

    ``started_at``/``last_seen`` are ``time.monotonic()`` readings — liveness
    bookkeeping, never serialized into the telemetry file.
    """

    index: int
    workload: str
    config: str
    seed: int
    batches: int = 0
    started_at: float = 0.0
    last_seen: float = 0.0


@dataclass
class CampaignProgress:
    """Aggregated live view of a running campaign (pure data — the renderer
    and the stall detector are functions of this plus a clock reading)."""

    total: int
    cached: int = 0
    done: int = 0
    failed: int = 0
    retried: int = 0
    batches_done: int = 0
    started_at: float = 0.0
    running: Dict[int, JobState] = field(default_factory=dict)

    @property
    def finished(self) -> int:
        """Cells accounted for: cache hits + completed + failed."""
        return self.cached + self.done + self.failed

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.finished)


def apply_event(progress: CampaignProgress, event: dict, now: float) -> None:
    """Fold one telemetry event into the progress state.

    ``now`` is a ``time.monotonic()`` reading (anything comparable works for
    the pure-function tests) — it feeds liveness state only.
    """
    etype = event.get("type")
    index = event.get("index")
    if etype in ("campaign.start", "campaign.resume"):
        progress.started_at = now
        progress.cached = int(event.get("cached", 0))
    elif etype == "job.start":
        progress.running[index] = JobState(
            index=index,
            workload=str(event.get("workload", "?")),
            config=str(event.get("config", "?")),
            seed=int(event.get("seed", 0)),
            started_at=now,
            last_seen=now,
        )
    elif etype in ("heartbeat", "job.checkpoint", "job.resume"):
        job = progress.running.get(index)
        if job is not None:
            job.batches = int(event.get("batches", job.batches))
            job.last_seen = now
    elif etype == "job.done":
        job = progress.running.pop(index, None)
        progress.done += 1
        progress.batches_done += int(
            event.get("batches", job.batches if job else 0)
        )
    elif etype == "job.retry":
        # The attempt died but the job is not finally failed: it leaves the
        # running set and will come back with a fresh job.start.
        progress.running.pop(index, None)
        progress.retried += 1
    elif etype == "job.failed":
        progress.running.pop(index, None)
        progress.failed += 1


def stalled_jobs(
    progress: CampaignProgress, now: float, timeout_sec: float
) -> List[JobState]:
    """Running jobs silent for longer than ``timeout_sec`` (oldest first)."""
    stalled = [
        job
        for job in progress.running.values()
        if now - job.last_seen > timeout_sec
    ]
    stalled.sort(key=lambda job: job.last_seen)
    return stalled


def render_progress(
    progress: CampaignProgress,
    now: float,
    stall_timeout_sec: Optional[float] = None,
) -> str:
    """The ``--watch`` progress view as a plain multi-line string.

    Pure function of (progress, now): the renderer snapshot test feeds it a
    hand-built state and pins the exact output.
    """
    elapsed = max(0.0, now - progress.started_at)
    rate = progress.batches_done / elapsed if elapsed > 0 else 0.0
    hit_rate = progress.cached / progress.total if progress.total else 0.0
    retries = f", {progress.retried} retried" if progress.retried else ""
    lines = [
        f"campaign: {progress.finished}/{progress.total} cells "
        f"({progress.done} run, {progress.cached} cached, "
        f"{progress.failed} failed{retries}) | {len(progress.running)} running",
        f"  batches/sec {rate:.1f} | cache hit rate {hit_rate:.0%} "
        f"| elapsed {elapsed:.0f}s | eta {format_eta(progress, now)}",
    ]
    stalled = (
        {job.index for job in stalled_jobs(progress, now, stall_timeout_sec)}
        if stall_timeout_sec is not None
        else set()
    )
    for index in sorted(progress.running):
        job = progress.running[index]
        flag = "  [STALLED]" if index in stalled else ""
        lines.append(
            f"  #{job.index} {job.workload}/{job.config} seed={job.seed} "
            f"batches={job.batches}{flag}"
        )
    return "\n".join(lines)


def format_eta(progress: CampaignProgress, now: float) -> str:
    """Naive remaining-time estimate from the completed-cell rate."""
    completed = progress.done + progress.failed
    elapsed = max(0.0, now - progress.started_at)
    if completed == 0 or elapsed <= 0:
        return "?"
    per_cell = elapsed / completed
    eta = per_cell * progress.remaining
    if eta >= 90:
        return f"{eta / 60:.1f}m"
    return f"{eta:.0f}s"


class CampaignMonitor:
    """Parent-side telemetry endpoint: queue owner, NDJSON writer, progress.

    One monitor per campaign run.  ``poll()`` drains every queued event,
    stamps it with arrival time (wall seconds since campaign start, so
    telemetry files diff cleanly), appends it to the NDJSON file, and folds
    it into :attr:`progress` using the monotonic clock.  The runner calls
    ``poll()`` between waits; the CLI additionally renders
    :func:`render_progress` after each poll.

    ``mp_safe`` forces a process-shareable queue even for one worker (the
    fleet coordinator always talks to real child processes); ``queue``
    plugs in an externally owned channel instead — the monitor then never
    creates or shuts down a manager of its own.
    """

    def __init__(
        self,
        total_cells: int,
        jobs: int = 1,
        path=None,
        stall_timeout_sec: Optional[float] = None,
        watch: bool = False,
        stream=None,
        mp_safe: Optional[bool] = None,
        queue=None,
    ) -> None:
        self.progress = CampaignProgress(total=total_cells)
        self.stall_timeout_sec = stall_timeout_sec
        self.watch = watch
        self._stream = stream if stream is not None else sys.stderr
        self._last_view = ""
        self._path = path
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self._manager = None
        if queue is not None:
            self.queue = queue
        elif mp_safe or (mp_safe is None and jobs > 1):
            import multiprocessing

            self._manager = multiprocessing.Manager()
            self.queue = self._manager.Queue()
        else:
            self.queue = queue_mod.Queue()
        self._t0_wall = time.time()
        self._t0_mono = time.monotonic()

    # ------------------------------------------------------------- ingestion

    def poll(self) -> List[dict]:
        """Drain all pending events; returns them (stamped) in order."""
        drained: List[dict] = []
        while True:
            try:
                event = self.queue.get_nowait()
            except queue_mod.Empty:
                break
            except (EOFError, OSError, ConnectionError):
                break
            event = dict(event)
            event["t"] = round(time.time() - self._t0_wall, 3)
            apply_event(self.progress, event, time.monotonic())
            if self._fh is not None:
                self._fh.write(
                    json.dumps(event, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
            drained.append(event)
        if drained and self._fh is not None:
            self._fh.flush()
        if self.watch and drained:
            view = self.render()
            if view != self._last_view:
                self._last_view = view
                print(view, file=self._stream)
        return drained

    def render(self) -> str:
        return render_progress(
            self.progress, time.monotonic(), self.stall_timeout_sec
        )

    def stalled(self) -> List[JobState]:
        if self.stall_timeout_sec is None:
            return []
        return stalled_jobs(
            self.progress, time.monotonic(), self.stall_timeout_sec
        )

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Final drain, then release the file and the manager process —
        also when the drain raises (e.g. a full disk under the file)."""
        try:
            self.poll()
        finally:
            try:
                if self._fh is not None:
                    self._fh.close()
                    self._fh = None
            finally:
                if self._manager is not None:
                    self._manager.shutdown()
                    self._manager = None

    def __enter__(self) -> "CampaignMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_telemetry(path) -> List[dict]:
    """Parse a telemetry NDJSON file back into event dicts (round-trip)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
