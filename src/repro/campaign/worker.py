"""Resumable campaign-cell execution: checkpoint files, restore, harnesses.

One campaign cell is a pure function of (workload, config, seed), which is
what makes CRUM-style resume possible at all: a worker that dies mid-cell
leaves behind an *engine checkpoint file* — the PR 3
:class:`~repro.sim.checkpoint.EngineCheckpoint` blob plus the little bit of
workload-harness state around it — and any later attempt, in any process,
can rebuild the same deterministic world, restore the blob, and replay the
tail.  The resumed cell's summary is byte-identical to an uninterrupted
run's, so checkpoint resume never shows up in merged campaign output.

The cell checkpoint rides *outside* the engine blob:

* ``next_step`` / ``in_launch`` — where the workload harness was in its
  step list (host phases and kernel launches), since
  :class:`~repro.sim.checkpoint.EngineCheckpoint` deliberately knows
  nothing about the workload driving the engine;
* completed :class:`~repro.sim.engine.LaunchResult` s — records of earlier
  kernels in the same cell;
* engine resilience counters — instrumentation the engine checkpoint
  excludes by design (they must not rewind on *in-process* crash recovery),
  but which a *cross-process* resume must carry or the resumed summary
  would under-count;
* the cell key — a resumed attempt refuses a checkpoint written for a
  different (workload, config, seed).

Rebuilding the world on resume leans on one property: ``workload.steps()``
only allocates and builds programs — registration side effects are
overwritten wholesale by ``restore_into`` — so calling it again on a fresh
system is safe and cheap.

The kill/hang harnesses at the bottom are the fleet's own fault-injection
suite (the worker-process analogue of the PR 3 injector's one-shot engine
crashes): ``kill_at_batch`` SIGKILLs the worker at a batch boundary,
``hang_at_batch`` SIGSTOPs it so heartbeats go silent and the coordinator's
stall escalation has something real to escalate against.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import List, Optional

from .spec import CampaignCell
from .telemetry import HEARTBEAT_INTERVAL_SEC, HeartbeatThread, emit

#: Cell-checkpoint file format version (bump on layout change; a mismatched
#: or unreadable file is ignored and the cell reruns from scratch).
CHECKPOINT_VERSION = 10

#: Default auto-checkpoint cadence in serviced batches.
DEFAULT_CHECKPOINT_EVERY = 8


def cell_key(payload: dict) -> str:
    """Identity of a cell for checkpoint-file validation."""
    return (
        f"{payload['workload']}/{payload['config_label']}"
        f"/seed={payload['seed']}/v{CHECKPOINT_VERSION}"
    )


def checkpoint_path(checkpoint_dir: str, index: int) -> str:
    """Deterministic checkpoint file location for cell ``index`` — survives
    coordinator death even if the ledger write raced the crash."""
    return os.path.join(checkpoint_dir, f"cell-{index}.ckpt")


def write_cell_checkpoint(path: str, state: dict) -> None:
    """Atomically persist one cell checkpoint (tmp + rename): a worker
    killed mid-write must never leave a truncated file a resume would
    trip over."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_cell_checkpoint(path: str, key: str) -> Optional[dict]:
    """The checkpoint at ``path`` if it exists, parses, matches ``key`` and
    holds an engine blob that decodes; the decoded
    :class:`~repro.sim.checkpoint.EngineCheckpoint` is under ``"engine"``.

    Any corruption or identity mismatch silently degrades to a from-scratch
    rerun — a bad checkpoint file must never fail a resumable job.
    """
    from ..sim.checkpoint import EngineCheckpoint

    try:
        with open(path, "rb") as fh:
            state = pickle.load(fh)
        if not isinstance(state, dict) or state.get("version") != CHECKPOINT_VERSION:
            return None
        if state.get("cell_key") != key:
            return None
        state["engine"] = EngineCheckpoint.from_bytes(state["engine_blob"])
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, KeyError, TypeError, ValueError):
        return None
    return state


def discard_cell_checkpoint(path: Optional[str]) -> None:
    """Best-effort removal of a finished cell's checkpoint file."""
    if path is None:
        return
    try:
        os.remove(path)
    except OSError:
        pass


# ----------------------------------------------- failure taxonomy & rows

#: The fleet's failure vocabulary (see docs/fleet.md).  Only the first
#: three are plausibly transient and therefore worth a retry budget.
FAILURE_CLASSES = ("crash", "hang", "oom", "injected", "interrupt", "error")

#: OOM-like failures: host memory pressure or device exhaustion — the
#: paper's oversubscription sweeps brush against both on purpose.
_OOM_TYPES = frozenset({"MemoryError", "OutOfDeviceMemory", "AllocationError"})


def _injected_type_names() -> frozenset:
    """Every :class:`~repro.errors.InjectedFault` subclass, by name — the
    classifier works on exception type *names* because a worker death can
    only report a string across the process boundary."""
    from ..errors import InjectedFault

    names = set()
    stack = [InjectedFault]
    while stack:
        cls = stack.pop()
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return frozenset(names)


def classify_error_type(error_type: str) -> str:
    """Map an exception type name onto the fleet failure taxonomy.

    Deterministic and total: unknown types fall into ``error``.  Injected
    faults win over OOM-likes (``PopulateEnomem`` is both) because an
    injected fault replays identically — retrying it burns the budget for
    nothing, whereas real OOM-like pressure is plausibly transient.
    """
    if error_type in ("WorkerCrash",):
        return "crash"
    if error_type in ("WorkerHang",):
        return "hang"
    if error_type in ("KeyboardInterrupt", "SystemExit"):
        return "interrupt"
    if error_type in _injected_type_names():
        return "injected"
    if error_type in _OOM_TYPES:
        return "oom"
    return "error"


def make_row(cell: CampaignCell, summary: dict) -> dict:
    """Merge-ready row for one resolved cell (ok or failed).

    Row bytes are a pure function of (cell, summary) — the classifier is
    deterministic — so serial, fleet, cached, and resumed paths all emit
    identical rows for identical cells.
    """
    row = {
        "index": cell.index,
        "workload": cell.workload,
        "config": cell.config_label,
        "seed": cell.seed,
    }
    if summary.get("failed"):
        row["status"] = "failed"
        row["error"] = {
            "class": classify_error_type(summary["error_type"]),
            "message": summary["error"],
            "type": summary["error_type"],
        }
        row["bundle"] = summary.get("bundle")
    else:
        row["status"] = "ok"
        row["result"] = summary
    return row


# ----------------------------------------------------------- chaos harness


class WorkerChaosHarness:
    """Self-inflicted worker failures at exact batch boundaries.

    The coordinator arms the harness through the payload (first attempt
    only), which keeps the fault injection deterministic: "worker running
    cell 3 dies at batch 10" reproduces exactly, like every other injected
    fault in this codebase.
    """

    def __init__(
        self,
        kill_at_batch: Optional[int] = None,
        hang_at_batch: Optional[int] = None,
        heartbeat: Optional[HeartbeatThread] = None,
    ) -> None:
        self.kill_at_batch = kill_at_batch
        self.hang_at_batch = hang_at_batch
        self._heartbeat = heartbeat

    def on_batch(self, batch_id: int) -> None:
        if self.kill_at_batch is not None and batch_id == self.kill_at_batch:
            # Quiesce the heartbeat thread first so SIGKILL cannot land
            # mid-put and strand a shared queue lock on the channel.
            if self._heartbeat is not None:
                self._heartbeat.stop()
            os.kill(os.getpid(), signal.SIGKILL)
        if self.hang_at_batch is not None and batch_id == self.hang_at_batch:
            if self._heartbeat is not None:
                self._heartbeat.stop()
            # A stopped process is the truest hang: no heartbeats, no
            # progress, SIGTERM queues undelivered — only SIGKILL works.
            os.kill(os.getpid(), signal.SIGSTOP)


# ------------------------------------------------------------- execution


def _engine_counter_state(engine) -> dict:
    return dict(vars(engine.counters))


def _restore_engine_counters(engine, state: dict) -> None:
    for name, value in state.items():
        setattr(engine.counters, name, value)


def run_cell(
    payload: dict,
    telemetry=None,
    harness: Optional[WorkerChaosHarness] = None,
) -> dict:
    """Simulate one campaign cell — possibly resuming a checkpoint — and
    return its deterministic summary dict.

    Payload keys beyond the :class:`~repro.campaign.spec.CampaignCell`
    fields: ``bundle_dir`` (crash forensics), ``checkpoint_path`` +
    ``checkpoint_every`` (periodic cell checkpoints), ``resume`` (attempt a
    checkpoint restore first), ``heartbeat_sec``, and the harness knobs
    ``kill_at_batch``/``hang_at_batch``.  Raises on failure — the callers
    (:func:`execute_cell` and the fleet worker loop) turn exceptions into
    failure summaries.
    """
    from ..api import RunResult, UvmSystem
    from ..gpu.warp import KernelLaunch
    from ..sim.checkpoint import EngineCheckpoint
    from ..workloads import WORKLOAD_REGISTRY
    from .runner import summarize_run

    cell = CampaignCell(
        index=payload["index"],
        workload=payload["workload"],
        config_label=payload["config_label"],
        seed=payload["seed"],
        overrides=payload.get("overrides", {}),
    )
    ckpt_path = payload.get("checkpoint_path")
    ckpt_every = payload.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)
    heartbeat_sec = payload.get("heartbeat_sec", HEARTBEAT_INTERVAL_SEC)
    key = cell_key(payload)

    cfg = cell.build_config()
    if payload.get("bundle_dir") is not None:
        cfg.obs.bundle_dir = payload["bundle_dir"]
    cfg.obs = cfg.obs.disabled()
    system = UvmSystem(cfg)
    workload = WORKLOAD_REGISTRY[cell.workload]()
    steps = list(workload.steps(system))

    result = RunResult(workload=workload.name)
    t0 = system.clock.now
    start_step = 0
    restored = None
    if payload.get("resume") and ckpt_path is not None:
        restored = load_cell_checkpoint(ckpt_path, key)
    if restored is not None:
        restored["engine"].restore_into(system.engine)
        _restore_engine_counters(system.engine, restored["counters"])
        result.launches = pickle.loads(restored["launches"])
        t0 = restored["t0_usec"]
        start_step = restored["next_step"]
        emit(
            telemetry,
            {
                "type": "job.resume",
                "index": cell.index,
                "batches": len(system.driver.log),
                "step": start_step,
                "in_launch": restored["in_launch"],
            },
        )

    beat = HeartbeatThread(
        telemetry,
        cell.index,
        lambda: len(system.driver.log),
        interval_sec=heartbeat_sec,
    )
    if harness is None and (
        payload.get("kill_at_batch") is not None
        or payload.get("hang_at_batch") is not None
    ):
        harness = WorkerChaosHarness(
            payload.get("kill_at_batch"), payload.get("hang_at_batch"), beat
        )

    def snapshot(next_step: int, in_launch: bool) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "cell_key": key,
            "cell_index": cell.index,
            "next_step": next_step,
            "in_launch": in_launch,
            "engine_blob": EngineCheckpoint.capture(system.engine).to_bytes(),
            "launches": pickle.dumps(
                result.launches, protocol=pickle.HIGHEST_PROTOCOL
            ),
            "counters": _engine_counter_state(system.engine),
            "t0_usec": t0,
            "batches": len(system.driver.log),
        }

    def make_batch_hook(step_index: int):
        def hook(engine, batch_id):
            if (
                ckpt_path is not None
                and ckpt_every > 0
                and batch_id % ckpt_every == 0
            ):
                write_cell_checkpoint(ckpt_path, snapshot(step_index, True))
                emit(
                    telemetry,
                    {
                        "type": "job.checkpoint",
                        "index": cell.index,
                        "batches": len(system.driver.log),
                        "path": ckpt_path,
                    },
                )
            if harness is not None:
                harness.on_batch(batch_id)

        return hook

    def run_launch_step(step_index: int, launch_fn) -> None:
        hook = make_batch_hook(step_index)
        system.engine._batch_hooks.append(hook)
        try:
            result.launches.append(launch_fn())
        finally:
            system.engine._batch_hooks.remove(hook)

    try:
        with beat:
            if restored is not None and restored["in_launch"]:
                # The checkpointed step is a kernel launch frozen mid-flight;
                # the restored LaunchProgress carries everything the engine
                # loop needs and the returned result spans the whole launch.
                run_launch_step(start_step, system.engine.resume)
                start_step += 1
            for i in range(start_step, len(steps)):
                step = steps[i]
                if isinstance(step, KernelLaunch):
                    run_launch_step(i, lambda s=step: system.launch(s))
                elif callable(step):
                    step(system)
                else:
                    raise TypeError(f"unsupported step {step!r}")
                if ckpt_path is not None:
                    write_cell_checkpoint(ckpt_path, snapshot(i + 1, False))
    except Exception as exc:
        # Ride the dead system on the exception so callers can surface the
        # crash bundle the engine just wrote (same idiom as the chaos CLI).
        exc.uvm_system = system
        raise

    result.total_time_usec = system.clock.now - t0
    summary = summarize_run(system, result)
    return summary


def execute_cell(payload: dict) -> dict:
    """Fleet/serial worker entry point: run one cell, never raise.

    A failing cell returns a *failure summary* — deterministic data (error
    type + message + bundle path) — so one bad point cannot abort a sweep
    and merged output stays byte-identical across worker counts.  Unlike
    the PR 6 pool worker, this variant does **not** emit ``job.failed``
    itself: the fleet coordinator owns the failure verdict (it may retry),
    so workers report outcomes and the coordinator narrates them.
    """
    telemetry = payload.pop("telemetry", None)
    emit(
        telemetry,
        {
            "type": "job.start",
            "index": payload["index"],
            "workload": payload["workload"],
            "config": payload["config_label"],
            "seed": payload["seed"],
            "attempt": payload.get("attempt", 1),
        },
    )
    try:
        summary = run_cell(payload, telemetry=telemetry)
    except Exception as exc:
        bundle = _last_bundle_of(exc)
        return {
            "failed": True,
            "error_type": type(exc).__name__,
            "error": str(exc),
            "bundle": bundle,
        }
    emit(
        telemetry,
        {
            "type": "job.done",
            "index": payload["index"],
            "batches": summary["batches"],
            "clock_usec": summary["clock_usec"],
        },
    )
    return summary


def _last_bundle_of(exc: BaseException) -> Optional[str]:
    """Crash-bundle path riding on the exception's system, if any."""
    system = getattr(exc, "uvm_system", None)
    if system is None:
        return None
    bundle = getattr(system.engine, "last_bundle", None)
    return str(bundle) if bundle else None
