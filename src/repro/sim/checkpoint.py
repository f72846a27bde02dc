"""Engine checkpoint/restore for crash-recovery chaos testing.

:class:`EngineCheckpoint` snapshots the *pure simulation state* of one
:class:`~repro.sim.engine.Engine` — clock, RNG streams (the driver's jitter
stream as its block's generator state plus a cursor), fault buffer, µTLBs,
SM/warp scheduling state, page table, chunk allocator, copy-engine counters,
host VM/DMA state, the driver's VABlock manager and batch log, and the
in-flight launch progress.  A checkpoint is two pickles and a list:

* the **program pickle** — the current launch's warp programs
  (``Engine._programs``).  Programs are immutable, so it is made once per
  launch, cached on the engine, and shared by every capture in the launch;
* the **state pickle** — everything mutable, made on each capture.  It
  names a launch program by its index in the program table (through the
  pickler's ``dispatch_table``), so a capture's cost tracks the live
  state, not the size of the kernel.  A program outside the table (one
  enqueued by hand) is pickled by value;
* the **batch log** — ``list(driver.log.records)``, held by reference.  A
  :class:`~repro.core.batch_record.BatchRecord` is closed once
  :meth:`~repro.core.instrumentation.BatchLog.append` takes it, and nothing
  writes a closed record, so copying the list's pointers is a faithful
  snapshot and a capture costs nothing per batch already logged.  A restore
  installs a copy of the list as the driver's log.

Only live state is captured: a warp leaves the engine's registry when it
retires, so retired warps and their programs are not in the state pickle.
The pickle memo plays the role deepcopy's memo used to: shared references
(the same :class:`WarpState` appearing in ``sm.active`` and the engine's
waiter lists) survive the round trip with identity intact, while costing
one serialize pass instead of a recursive Python-level copy.
:meth:`~EngineCheckpoint.to_bytes` wraps both pickles and the pickled log
into one self-contained blob, so crash bundles and campaign cell files
restore in a fresh process.

Attachments are deliberately excluded: observability handles, the sanitizer,
the injector object, and config/cost-model references stay with the live
engine, so a restore rewinds the *simulated* world without disturbing the
instrumentation around it; engine-side resilience counters never rewind.
The metric families folded from the batch log and the Chrome trace rendered
from the logs rewind with it, and the flight recorder, the span profiler
and the NDJSON sink drop what they logged since the capture
(:meth:`~repro.obs.Observability.mark`).  The injector
contributes its own
:meth:`~repro.inject.FaultInjector.snapshot` (RNG stream states + counters),
and the sanitizer is :meth:`~repro.check.sanitizer.Sanitizer.resync`'d after
restore so the monotonicity watermarks accept the rewound clock.

Restores are repeatable: every :meth:`restore_into` unpickles a fresh object
graph from the stored pickles, so one checkpoint can seed many resumed
timelines (the checkpoint/restore determinism property tests rely on this).
"""

from __future__ import annotations

import copyreg
import functools
import io
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.batch_record import BatchRecord
from ..gpu.warp import WarpProgram

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Attribute names that are wiring, not simulation state, on any component.
#: ``_flight`` is the flight recorder: the checkpoint stores its append
#: count instead (in ``obs_mark``), and a restore rewinds the ring to it,
#: so a recovered run's events equal a clean run's plus the crash seam.
_SKIP_COMMON = frozenset({"_san", "_inj", "_obs", "config", "cost_model", "_flight"})
#: Per-kind extra exclusions (references into other captured components).
_SKIP_EXTRA: Dict[str, frozenset] = {
    "gmmu": frozenset({"buffer"}),
}


def _skipped(name: str, extra_skip: frozenset) -> bool:
    return name in _SKIP_COMMON or name in extra_skip or name.startswith("_m_")


@functools.lru_cache(maxsize=None)
def _slot_names(klass: type, extra_skip: frozenset) -> Tuple[str, ...]:
    """``klass``'s capturable slot names in MRO order (walked once per
    class)."""
    names: List[str] = []
    for base in klass.__mro__:
        for name in getattr(base, "__slots__", ()):
            if name not in names and not _skipped(name, extra_skip):
                names.append(name)
    return tuple(names)


def _attr_names(obj, extra_skip: frozenset = frozenset()) -> List[str]:
    """Capturable attribute names of ``obj``: slots (MRO order) + instance
    dict, minus wiring attributes and cached metric handles (``_m_*``)."""
    slots = _slot_names(type(obj), extra_skip)
    names = [name for name in slots if hasattr(obj, name)]
    for name in getattr(obj, "__dict__", ()):
        if name not in slots and not _skipped(name, extra_skip):
            names.append(name)
    return names


def _capture_obj(obj, extra_skip: frozenset = frozenset()) -> Dict[str, object]:
    return {name: getattr(obj, name) for name in _attr_names(obj, extra_skip)}


def _restore_obj(obj, state: Dict[str, object]) -> None:
    for name in state:
        setattr(obj, name, state[name])


#: Driver attributes that are simulation state (the rest is wiring).
_DRIVER_ATTRS = (
    "_batch_id",
    "_current_batch_size",
    "async_unmap_backlog_usec",
    "_active_ce_id",
)

#: Engine attributes captured verbatim.
_ENGINE_ATTRS = (
    "_waiters",
    "_warps",
    "_prefetch_queue",
    "_uid",
    "_last_retire_at",
    "_window_start",
    "_progress",
)


def _build_state(engine) -> dict:
    """The engine's simulation state as a dict of *live references* —
    callers must serialize it before the simulation moves again."""
    driver = engine.driver
    device = engine.device
    return {
        "clock_now": engine.clock.now,
        "engine_rng": engine.rng.bit_generator.state,
        "driver_jitter": driver.jitter.state(),
        "engine": {name: getattr(engine, name) for name in _ENGINE_ATTRS},
        "fault_buffer": _capture_obj(device.fault_buffer),
        "gmmu": _capture_obj(device.gmmu, _SKIP_EXTRA["gmmu"]),
        "utlbs": [_capture_obj(u) for u in device.utlbs],
        "sms": [_capture_obj(sm) for sm in device.sms],
        # The engine's busy-SM list, by SM id (the SMs are captured above).
        "busy_sm_ids": (
            None
            if engine._busy_sms is None
            else [sm.sm_id for sm in engine._busy_sms]
        ),
        "page_table": _capture_obj(device.page_table),
        "chunks": _capture_obj(device.chunks),
        "copy_engines": [_capture_obj(ce) for ce in device.copy_engines],
        "host_vm": _capture_obj(engine.host_vm),
        "dma": _capture_obj(engine.dma),
        "obs_mark": engine.obs.mark(),
        "vablocks": driver.vablocks,
        "driver": {name: getattr(driver, name) for name in _DRIVER_ATTRS},
        "eviction": _capture_obj(driver.eviction),
        "prefetcher": _capture_obj(driver.prefetcher),
        "injector": engine.injector.snapshot(),
    }


def _program_at(index: int) -> WarpProgram:
    """The name a state pickle gives the launch's ``index``-th program.

    :class:`_StateUnpickler` resolves the name to the restored program, so
    this body runs only when a state pickle is loaded without its table."""
    raise pickle.UnpicklingError(
        f"program {index} of a checkpoint state loads only with its program table"
    )


class _ProgramTable:
    """One launch's warp programs, pickled once, plus the pickler
    ``dispatch_table`` that names each of them by index in a state pickle."""

    __slots__ = ("programs", "blob", "dispatch_table")

    def __init__(
        self, programs: Tuple[WarpProgram, ...], blob: Optional[bytes] = None
    ) -> None:
        self.programs = programs
        self.blob = pickle.dumps(programs, protocol=_PROTOCOL) if blob is None else blob
        index = {id(program): i for i, program in enumerate(programs)}

        def reduce_program(program):
            i = index.get(id(program))
            if i is None:
                return program.__reduce_ex__(_PROTOCOL)
            return _program_at, (i,)

        self.dispatch_table = {**copyreg.dispatch_table, WarpProgram: reduce_program}

    @classmethod
    def of(cls, engine) -> "_ProgramTable":
        """The engine's table for its current launch, pickled on first use."""
        table = engine._program_pickle
        if table is None or table.programs is not engine._programs:
            table = engine._program_pickle = cls(engine._programs)
        return table

    def dumps(self, state: dict) -> bytes:
        out = io.BytesIO()
        pickler = pickle.Pickler(out, protocol=_PROTOCOL)
        pickler.dispatch_table = self.dispatch_table
        pickler.dump(state)
        return out.getvalue()


class _StateUnpickler(pickle.Unpickler):
    """Loads a state pickle, resolving program indices against ``programs``."""

    def __init__(self, blob: bytes, programs: Sequence[WarpProgram]) -> None:
        super().__init__(io.BytesIO(blob))
        self._programs = programs

    def find_class(self, module: str, name: str):
        if module == __name__ and name == _program_at.__name__:
            return self._programs.__getitem__
        return super().find_class(module, name)


def _load(programs_blob: bytes, blob: bytes) -> Tuple[_ProgramTable, dict]:
    """Fresh copies of a checkpoint's program table and state."""
    table = _ProgramTable(pickle.loads(programs_blob), programs_blob)
    return table, _StateUnpickler(blob, table.programs).load()


class EngineCheckpoint:
    """One restorable snapshot of an engine's simulation state."""

    def __init__(
        self,
        programs_blob: bytes,
        blob: bytes,
        clock_now: float,
        records: List[BatchRecord],
    ) -> None:
        self._programs_blob = programs_blob
        self._blob = blob
        self._clock_now = clock_now
        #: The batch log at the capture (closed records, by reference).
        self._records = records

    # ------------------------------------------------------------- capture

    @classmethod
    def capture(cls, engine) -> "EngineCheckpoint":
        """Snapshot ``engine`` without perturbing it (no RNG draws, no
        clock advances) — safe to call at any batch boundary."""
        table = _ProgramTable.of(engine)
        state = _build_state(engine)
        blob = table.dumps(state)
        records = list(engine.driver.log.records)
        return cls(table.blob, blob, state["clock_now"], records)

    # ------------------------------------------------------------- restore

    def restore_into(self, engine) -> None:
        """Rewind ``engine`` to this snapshot (repeatable: every restore
        unpickles pristine copies from the stored pickles)."""
        table, state = _load(self._programs_blob, self._blob)
        driver = engine.driver
        device = engine.device
        engine.clock.restore(state["clock_now"])
        engine.rng.bit_generator.state = state["engine_rng"]
        driver.jitter.restore(state["driver_jitter"])
        engine._programs = table.programs
        engine._program_pickle = table
        for name in _ENGINE_ATTRS:
            setattr(engine, name, state["engine"][name])
        _restore_obj(device.fault_buffer, state["fault_buffer"])
        _restore_obj(device.gmmu, state["gmmu"])
        for utlb, u_state in zip(device.utlbs, state["utlbs"]):
            _restore_obj(utlb, u_state)
        for sm, sm_state in zip(device.sms, state["sms"]):
            _restore_obj(sm, sm_state)
        busy = state["busy_sm_ids"]
        engine._busy_sms = None if busy is None else [device.sms[i] for i in busy]
        _restore_obj(device.page_table, state["page_table"])
        _restore_obj(device.chunks, state["chunks"])
        for ce, ce_state in zip(device.copy_engines, state["copy_engines"]):
            _restore_obj(ce, ce_state)
        _restore_obj(engine.host_vm, state["host_vm"])
        _restore_obj(engine.dma, state["dma"])
        engine.obs.rewind(state["obs_mark"])
        driver.vablocks = state["vablocks"]
        driver.log.records[:] = self._records
        for name in _DRIVER_ATTRS:
            setattr(driver, name, state["driver"][name])
        _restore_obj(driver.eviction, state["eviction"])
        _restore_obj(driver.prefetcher, state["prefetcher"])
        if state["injector"] is not None:
            engine.injector.restore_state(state["injector"])
        engine.sanitizer.resync(engine)

    # -------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """One self-contained blob holding both pickles and the batch log
        (pure data: plain containers, numpy arrays, warp/fault/record
        dataclasses)."""
        return pickle.dumps(
            (self._programs_blob, self._blob, self._records), protocol=_PROTOCOL
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EngineCheckpoint":
        """Take back a :meth:`to_bytes` blob; raises if it does not decode
        (a blob of the older two-pickle layout included)."""
        programs_blob, state_blob, records = pickle.loads(blob)
        _, state = _load(programs_blob, state_blob)
        return cls(programs_blob, state_blob, state["clock_now"], records)

    def summary(self) -> dict:
        """Identifying facts about the snapshot (same dict idiom as the
        injector's and sanitizer's ``summary()``)."""
        return {
            "clock_usec": self._clock_now,
            "batches": len(self._records),
        }
