"""Supervised campaign fleet: coordinator-owned workers, liveness enforcement.

The PR 4 campaign runner fanned cells across ``multiprocessing.Pool`` — fine
until a worker wedged (the whole sweep stalled behind ``map_async``), died
(the pool raised away every finished row), or the user hit Ctrl-C (leaked
children, lost results).  This module replaces the pool with an explicit
coordinator/worker design, the same shape as the orchestrator postmortems in
the related Headless-Wan2GP repo recommend after meeting those failure modes
in production:

* the coordinator spawns worker *processes* directly and owns their whole
  lifecycle — dispatch, liveness, replacement, shutdown;
* workers stream the PR 6 telemetry heartbeats; the coordinator *enforces*
  them — heartbeat silence past the stall timeout escalates SIGTERM →
  (grace) → SIGKILL, and the dead worker is replaced;
* every failure is classified (``crash``, ``hang``, ``oom``, ``injected``,
  ``interrupt``, ``error``) and fed to a bounded :class:`FleetRetryPolicy`
  — the PR 3 driver backoff semantics lifted to wall-clock scale — before a
  row is finally marked ``status: failed``;
* attempts after the first resume from the cell's latest engine checkpoint
  (:mod:`repro.campaign.worker`) instead of rerunning from scratch, and
  every state transition lands in the :mod:`repro.campaign.ledger`.

Channel safety note: worker→coordinator channels (telemetry, results) are
*manager* queues, not shared-lock ``multiprocessing.Queue``s, deliberately —
a worker SIGKILLed or SIGSTOPped mid-``put`` on a shared-lock queue can
strand the lock and silence every other worker's heartbeats, which the
coordinator would misread as a mass stall.  Manager proxies give each
client its own connection, so one frozen worker cannot jam the channel.
Per-worker task queues are plain queues: the coordinator is their only
producer and is never killed mid-put.

The merged-row contract is unchanged from the pool: rows are a pure
function of the spec, so the NDJSON is byte-identical for any worker
count, kill pattern, or resume path.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import UvmError
from ..obs.metrics import MetricsRegistry
from .ledger import RunLedger
from .spec import CampaignCell
from .telemetry import HEARTBEAT_INTERVAL_SEC, CampaignMonitor, emit
from .worker import (
    DEFAULT_CHECKPOINT_EVERY,
    checkpoint_path,
    classify_error_type,
    discard_cell_checkpoint,
    execute_cell,
    make_row,
)


class CampaignInterrupted(UvmError):
    """Ctrl-C (or SIGINT) stopped the campaign before every cell resolved.

    Carries the partial row list (``None`` holes for unresolved cells); by
    the time this is raised, finished rows are in the ledger, in-flight jobs
    are marked failed with class ``interrupt``, and every worker process has
    been terminated — nothing leaks.
    """

    def __init__(self, rows: List[Optional[dict]]) -> None:
        self.rows = rows
        done = sum(1 for row in rows if row is not None)
        super().__init__(
            f"campaign interrupted: {done}/{len(rows)} cells resolved"
        )


@dataclass(frozen=True)
class FleetRetryPolicy:
    """Bounded wall-clock exponential backoff for failed campaign jobs.

    Same backoff law as the PR 3 driver :class:`~repro.core.driver
    .RetryPolicy` (``min(base * factor**(n-1), max)``), but in host seconds
    between *attempts of a whole job* rather than simulated microseconds
    between fault-path retries.  ``retry_on`` names the failure classes
    worth retrying: process deaths and OOM-like failures are plausibly
    transient; deterministic simulation errors (``injected``, ``error``)
    would fail identically every attempt, and ``interrupt`` means the user
    asked to stop.
    """

    max_attempts: int = 3
    backoff_base_sec: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_sec: float = 10.0
    retry_on: frozenset = frozenset({"crash", "hang", "oom"})

    def backoff_sec(self, attempt: int) -> float:
        """Backoff after failed attempt number ``attempt`` (1-based)."""
        return min(
            self.backoff_base_sec * self.backoff_factor ** (attempt - 1),
            self.backoff_max_sec,
        )

    def should_retry(self, failure_class: str, attempts: int) -> bool:
        return failure_class in self.retry_on and attempts < self.max_attempts


@dataclass
class FleetChaos:
    """The fleet's own fault-injection harness: worker-process failures.

    ``kill_at[i] = b`` SIGKILLs the worker running cell ``i`` when it
    completes batch ``b``; ``hang_at[i] = b`` SIGSTOPs it there instead so
    the stall detector has a real hang to escalate against.  One-shot by
    construction: the harness arms only a job's *first* attempt, mirroring
    the PR 3 injector's one-shot engine crashes.
    """

    kill_at: Dict[int, int] = field(default_factory=dict)
    hang_at: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def parse(cls, kill_specs=(), hang_specs=()) -> "FleetChaos":
        """Build from CLI ``INDEX:BATCH`` strings (raises ValueError)."""

        def parse_all(specs) -> Dict[int, int]:
            out: Dict[int, int] = {}
            for text in specs:
                idx, sep, batch = str(text).partition(":")
                if not sep:
                    raise ValueError(
                        f"chaos spec {text!r} is not INDEX:BATCH"
                    )
                out[int(idx)] = int(batch)
            return out

        return cls(kill_at=parse_all(kill_specs), hang_at=parse_all(hang_specs))

    @property
    def empty(self) -> bool:
        return not self.kill_at and not self.hang_at


@dataclass
class FleetConfig:
    """Coordinator knobs (CLI flags map onto these one-to-one)."""

    retry: FleetRetryPolicy = field(default_factory=FleetRetryPolicy)
    #: Heartbeat silence before escalation starts; None disables enforcement.
    stall_timeout_sec: Optional[float] = 30.0
    #: SIGTERM → SIGKILL escalation grace.
    term_grace_sec: float = 5.0
    heartbeat_sec: float = HEARTBEAT_INTERVAL_SEC
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    checkpoint_dir: Optional[str] = None
    chaos: Optional[FleetChaos] = None
    poll_interval_sec: float = 0.05


# ----------------------------------------------------------- worker process


def _worker_main(wid: int, task_q, result_q, telemetry_q) -> None:
    """Worker loop: pull payloads until the ``None`` sentinel.

    SIGINT is ignored — a terminal Ctrl-C hits the whole process group, and
    shutdown authority belongs to the coordinator alone (it TERMs workers
    after draining, instead of every child dying mid-write on its own).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if payload is None:
            return
        payload = dict(payload)
        payload["telemetry"] = telemetry_q
        index = payload["index"]
        summary = execute_cell(payload)
        try:
            result_q.put({"worker": wid, "index": index, "summary": summary})
        except Exception:
            return


class _WorkerHandle:
    """Coordinator-side view of one worker process."""

    def __init__(self, wid: int, ctx, result_q, telemetry_q) -> None:
        self.wid = wid
        self.task_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(wid, self.task_q, result_q, telemetry_q),
            name=f"uvm-fleet-{wid}",
            daemon=True,
        )
        self.process.start()
        #: Index of the job this worker is running (None = idle).
        self.job: Optional[int] = None
        self.dispatched_at: float = 0.0
        self.termed_at: Optional[float] = None
        self.kill_reason: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, payload: dict) -> None:
        self.job = payload["index"]
        self.dispatched_at = time.monotonic()
        self.termed_at = None
        self.kill_reason = None
        self.task_q.put(payload)

    def signal(self, sig: int) -> bool:
        try:
            os.kill(self.process.pid, sig)
            return True
        except (ProcessLookupError, OSError):
            return False

    def shutdown(self, grace_sec: float = 1.0) -> None:
        """Sentinel, then escalate; always reaps the process."""
        try:
            if self.alive:
                self.task_q.put(None)
        except Exception:
            pass
        self.process.join(grace_sec)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(0.5)
        try:
            self.task_q.close()
            self.task_q.cancel_join_thread()
        except Exception:
            pass


# ------------------------------------------------------------- coordinator


@dataclass
class _JobSlot:
    """Coordinator-side scheduling state for one unresolved cell."""

    cell: CampaignCell
    cache_key: Optional[str]
    run_attempts: int = 0
    base_attempts: int = 0
    next_eligible: float = 0.0

    @property
    def attempt_no(self) -> int:
        """Ledger-visible attempt number (cumulative across coordinators)."""
        return self.base_attempts + self.run_attempts


#: The fleet's metric families: event kind -> (name, label names).
_FLEET_METRICS = {
    "retries": ("uvm_fleet_retries_total", ("class",)),
    "kills": ("uvm_fleet_kills_total", ("signal",)),
    "resumes": ("uvm_fleet_resumes_total", ()),
    "ledger_writes": ("uvm_fleet_ledger_writes_total", ()),
}


class FleetCoordinator:
    """Runs pending campaign cells across supervised worker processes."""

    def __init__(
        self,
        pending: List[Tuple[CampaignCell, Optional[str]]],
        rows: List[Optional[dict]],
        jobs: int,
        config: FleetConfig,
        cache=None,
        bundle_dir: Optional[str] = None,
        monitor: Optional[CampaignMonitor] = None,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        self.config = config
        self.rows = rows
        self.cache = cache
        self.bundle_dir = bundle_dir
        self.monitor = monitor
        self.ledger = ledger
        self.jobs = max(1, jobs)
        self.slots: Dict[int, _JobSlot] = {
            cell.index: _JobSlot(cell=cell, cache_key=key)
            for cell, key in pending
        }
        if ledger is not None:
            for info in ledger.jobs():
                if info.index in self.slots:
                    self.slots[info.index].base_attempts = info.attempts
        self._unresolved = set(self.slots)
        self._ready: List[int] = sorted(self.slots)
        self._busy: Dict[int, _WorkerHandle] = {}
        self._workers: List[_WorkerHandle] = []
        self._next_wid = 0
        self._ctx = multiprocessing.get_context()
        self._manager = self._ctx.Manager()
        self._result_q = self._manager.Queue()
        self._telemetry_q = self._manager.Queue()
        #: Fleet events counted by ``(kind, label values)``: :meth:`run`'s
        #: report totals and the ``uvm_fleet_*`` metric families both read it.
        self.counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self.metrics = MetricsRegistry()
        self.metrics.add_fold(self._fold_metrics)

    @property
    def report(self) -> Dict[str, int]:
        """The fleet report's totals, one per event kind."""
        totals = {"retries": 0, "kills": 0, "resumes": 0, "worker_deaths": 0}
        for (kind, _), count in self.counts.items():
            if kind in totals:
                totals[kind] += count
        return totals

    def _fold_metrics(self, metrics) -> None:
        """The ``uvm_fleet_*`` families (declared, with units, in
        :mod:`repro.obs.catalog`), read from :attr:`counts`."""
        families = {
            kind: metrics.counter(name, labels=labels)
            for kind, (name, labels) in _FLEET_METRICS.items()
        }
        for (kind, labels), count in sorted(self.counts.items()):
            if kind in families:
                families[kind].labels(*labels).inc(count)

    def _count(self, kind: str, *labels: str) -> None:
        key = (kind, labels)
        self.counts[key] = self.counts.get(key, 0) + 1

    # ------------------------------------------------------------- plumbing

    def _ledger_write(self, method: str, *args) -> None:
        if self.ledger is None:
            return
        getattr(self.ledger, method)(*args)
        self._count("ledger_writes")

    def _emit(self, event: dict) -> None:
        if self.monitor is not None:
            emit(self.monitor.queue, event)

    def _checkpoint_file(self, index: int) -> Optional[str]:
        if self.config.checkpoint_dir is None:
            return None
        return checkpoint_path(self.config.checkpoint_dir, index)

    # ------------------------------------------------------------ main loop

    def run(self) -> dict:
        """Drive every pending cell to a row; returns the fleet report."""
        try:
            self._spawn_target()
            while self._unresolved:
                self._pump_telemetry()
                self._reap_results()
                self._reap_deaths()
                self._enforce_liveness()
                self._dispatch()
                if self._unresolved:
                    time.sleep(self.config.poll_interval_sec)
        except KeyboardInterrupt:
            self._interrupt()
            raise CampaignInterrupted(self.rows)
        finally:
            self._shutdown()
        return self.report

    # ----------------------------------------------------------- scheduling

    def _spawn_worker(self) -> _WorkerHandle:
        handle = _WorkerHandle(
            self._next_wid, self._ctx, self._result_q, self._telemetry_q
        )
        self._next_wid += 1
        self._workers.append(handle)
        self._emit({"type": "worker.spawn", "worker": handle.wid,
                    "pid": handle.process.pid})
        return handle

    def _spawn_target(self) -> None:
        target = min(self.jobs, len(self._unresolved))
        while sum(1 for w in self._workers if w.alive) < target:
            self._spawn_worker()

    def _dispatch(self) -> None:
        now = time.monotonic()
        idle = [w for w in self._workers if w.alive and w.job is None]
        for index in list(self._ready):
            slot = self.slots[index]
            if slot.next_eligible > now:
                continue
            if not idle:
                alive = sum(1 for w in self._workers if w.alive)
                if alive < min(self.jobs, len(self._unresolved)):
                    idle.append(self._spawn_worker())
                else:
                    break
            worker = idle.pop(0)
            self._ready.remove(index)
            slot.run_attempts += 1
            payload = self._build_payload(slot)
            self._ledger_write(
                "job_started", index, slot.attempt_no, bool(payload["resume"])
            )
            self._busy[index] = worker
            worker.send(payload)

    def _build_payload(self, slot: _JobSlot) -> dict:
        cell = slot.cell
        ckpt = self._checkpoint_file(cell.index)
        payload = {
            "index": cell.index,
            "workload": cell.workload,
            "config_label": cell.config_label,
            "seed": cell.seed,
            "overrides": cell.overrides,
            "attempt": slot.attempt_no,
            "bundle_dir": os.path.join(self.bundle_dir, f"cell-{cell.index}")
            if self.bundle_dir is not None
            else None,
            "checkpoint_path": ckpt,
            "checkpoint_every": self.config.checkpoint_every,
            "heartbeat_sec": self.config.heartbeat_sec,
            "resume": ckpt is not None and os.path.exists(ckpt),
            "kill_at_batch": None,
            "hang_at_batch": None,
        }
        chaos = self.config.chaos
        if chaos is not None and slot.run_attempts == 1:
            payload["kill_at_batch"] = chaos.kill_at.get(cell.index)
            payload["hang_at_batch"] = chaos.hang_at.get(cell.index)
        return payload

    # ------------------------------------------------------------ ingestion

    def _pump_telemetry(self) -> None:
        """Forward worker events into the monitor, then act on the drain."""
        if self.monitor is None:
            return
        import queue as queue_mod

        while True:
            try:
                event = self._telemetry_q.get_nowait()
            except queue_mod.Empty:
                break
            except (EOFError, OSError, ConnectionError):
                break
            self.monitor.queue.put(event)
        for event in self.monitor.poll():
            index = event.get("index")
            slot = self.slots.get(index)
            if slot is None:
                continue
            if event["type"] == "job.checkpoint":
                self._ledger_write(
                    "job_checkpoint",
                    index,
                    slot.attempt_no,
                    event.get("path", ""),
                    int(event.get("batches", 0)),
                )
            elif event["type"] == "job.resume":
                self._count("resumes")
                self._ledger_write(
                    "job_resumed",
                    index,
                    slot.attempt_no,
                    int(event.get("batches", 0)),
                )

    def _reap_results(self) -> None:
        import queue as queue_mod

        while True:
            try:
                result = self._result_q.get_nowait()
            except queue_mod.Empty:
                break
            except (EOFError, OSError, ConnectionError):
                break
            index = result["index"]
            worker = self._busy.pop(index, None)
            if worker is not None and worker.job == index:
                worker.job = None
            if index not in self._unresolved:
                continue
            summary = result["summary"]
            if summary.get("failed"):
                self._resolve_failure(
                    index,
                    classify_error_type(summary["error_type"]),
                    summary,
                )
            else:
                self._resolve_done(index, summary)

    def _reap_deaths(self) -> None:
        for worker in self._workers:
            if worker.job is None or worker.alive:
                continue
            index = worker.job
            worker.job = None
            self._busy.pop(index, None)
            self._count("worker_deaths")
            exitcode = worker.process.exitcode
            self._emit({"type": "worker.exit", "worker": worker.wid,
                        "exitcode": exitcode, "index": index})
            if index not in self._unresolved:
                continue
            if worker.kill_reason is not None:
                failure_class, error_type = worker.kill_reason, "WorkerHang"
                detail = (
                    f"stalled past {self.config.stall_timeout_sec}s; "
                    f"escalated (exitcode {exitcode})"
                )
            else:
                failure_class, error_type = "crash", "WorkerCrash"
                detail = f"worker process died (exitcode {exitcode})"
            self._resolve_failure(
                index,
                failure_class,
                {
                    "failed": True,
                    "error_type": error_type,
                    "error": detail,
                    "bundle": None,
                },
            )

    def _enforce_liveness(self) -> None:
        timeout = self.config.stall_timeout_sec
        if timeout is None or self.monitor is None:
            return
        now = time.monotonic()
        for index, worker in list(self._busy.items()):
            if not worker.alive:
                continue
            job_state = self.monitor.progress.running.get(index)
            last_seen = (
                job_state.last_seen if job_state is not None
                else worker.dispatched_at
            )
            if worker.termed_at is not None:
                if now - worker.termed_at >= self.config.term_grace_sec:
                    if worker.signal(signal.SIGKILL):
                        self._count("kills", "SIGKILL")
                        self._emit({"type": "job.kill", "index": index,
                                    "signal": "SIGKILL"})
                        self._ledger_write(
                            "job_killed",
                            index,
                            self.slots[index].attempt_no,
                            "SIGKILL",
                        )
            elif now - last_seen > timeout:
                worker.kill_reason = "hang"
                worker.termed_at = now
                if worker.signal(signal.SIGTERM):
                    self._count("kills", "SIGTERM")
                    self._emit({"type": "job.kill", "index": index,
                                "signal": "SIGTERM"})
                    self._ledger_write(
                        "job_killed",
                        index,
                        self.slots[index].attempt_no,
                        "SIGTERM",
                    )

    # ------------------------------------------------------------ resolution

    def _resolve_done(self, index: int, summary: dict) -> None:
        slot = self.slots[index]
        row = make_row(slot.cell, summary)
        self.rows[index] = row
        self._unresolved.discard(index)
        if self.cache is not None and slot.cache_key is not None:
            self.cache.put(slot.cache_key, {"result": summary})
        self._ledger_write("job_done", index, slot.attempt_no, row)
        discard_cell_checkpoint(self._checkpoint_file(index))

    def _resolve_failure(
        self, index: int, failure_class: str, summary: dict
    ) -> None:
        slot = self.slots[index]
        detail = summary.get("error", "")
        if self.config.retry.should_retry(failure_class, slot.run_attempts):
            backoff = self.config.retry.backoff_sec(slot.run_attempts)
            slot.next_eligible = time.monotonic() + backoff
            self._ready.append(index)
            self._ready.sort()
            self._count("retries", failure_class)
            self._emit({
                "type": "job.retry",
                "index": index,
                "class": failure_class,
                "attempt": slot.attempt_no,
                "error": summary.get("error_type"),
            })
            self._ledger_write(
                "job_retry",
                index,
                slot.attempt_no,
                failure_class,
                detail,
                backoff,
            )
            return
        row = make_row(slot.cell, summary)
        self.rows[index] = row
        self._unresolved.discard(index)
        self._emit({
            "type": "job.failed",
            "index": index,
            "error": summary.get("error_type"),
            "class": failure_class,
            "bundle": summary.get("bundle"),
        })
        self._ledger_write(
            "job_failed", index, slot.attempt_no, failure_class, row, detail
        )

    # ------------------------------------------------------------- shutdown

    def _interrupt(self) -> None:
        """Ctrl-C: persist what finished, mark in-flight, kill children."""
        for index, worker in list(self._busy.items()):
            self._ledger_write(
                "job_failed",
                index,
                self.slots[index].attempt_no,
                "interrupt",
                None,
                "coordinator interrupted",
            )
            worker.signal(signal.SIGTERM)
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.signal(signal.SIGKILL)
        if self.monitor is not None:
            self._pump_telemetry()

    def _shutdown(self) -> None:
        for worker in self._workers:
            worker.shutdown()
        try:
            self._pump_telemetry()
        except Exception:
            pass
        try:
            self._manager.shutdown()
        except Exception:
            pass
