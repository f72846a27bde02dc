"""Engine checkpoint/restore for crash-recovery chaos testing.

:class:`EngineCheckpoint` snapshots the *pure simulation state* of one
:class:`~repro.sim.engine.Engine` — clock, RNG streams (the driver's jitter
stream as its block's generator state plus a cursor), fault buffer, µTLBs,
SM/warp scheduling state, page table, chunk allocator, copy-engine counters,
host VM/DMA state, the driver's VABlock manager and batch log, and the
in-flight launch progress.  A capture costs what changed since the one
before it.  A checkpoint holds:

* the **programs** of the current launch (``Engine._programs``), by
  reference.  Programs are immutable, so every capture of a launch shares
  them, and so does each launch that submits the same program objects
  again (HPGMG's V-cycles do).  They are pickled once per program set, and
  only for :meth:`~EngineCheckpoint.to_bytes`;
* the **part pickles** — state that is large and rarely written, each
  pickled on its own (:data:`_PARTS`): the DMA reverse radix tree, the host
  VM's first-touch map, every VABlock's valid pages, and the density
  prefetcher's mask cache.  Each part's owner bumps a ``version`` counter
  on every write to it, and a capture reuses the previous capture's bytes
  for each part whose version held;
* the **state pickle** — everything else, made on each capture.  It names
  a launch program by its index in the program table (through the
  pickler's ``dispatch_table``), so a capture's cost tracks the live
  state, not the size of the kernel; a program outside the table (one
  enqueued by hand) is pickled by value.  It holds none of the parts;
* the **batch log** — ``list(driver.log.records)``, held by reference.  A
  :class:`~repro.core.batch_record.BatchRecord` is closed once
  :meth:`~repro.core.instrumentation.BatchLog.append` takes it, and nothing
  writes a closed record, so copying the list's pointers is a faithful
  snapshot and a capture costs nothing per batch already logged.  A restore
  installs a copy of the list as the driver's log.

What a capture reuses lives on the engine (``Engine._pickles``).  A capture
with nothing cached pickles everything; there is no other capture path.  A
restore rewinds each part's version with its owner, so it replaces the
cache with the restored checkpoint's own table and parts: no bytes cached
after that capture can match a version the rewound run reaches again.

Only live state is captured: a warp leaves the engine's registry when it
retires, so retired warps and their programs are not in the state pickle.
The pickle memo plays the role deepcopy's memo used to: shared references
(the same :class:`WarpState` appearing in ``sm.active`` and the engine's
waiter lists) survive the round trip with identity intact, while costing
one serialize pass instead of a recursive Python-level copy.  The parts
share no object with the state or with each other.
:meth:`~EngineCheckpoint.to_bytes` wraps the program pickle, the state and
part pickles and the pickled log into one self-contained blob, so crash
bundles and campaign cell files restore in a fresh process.

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
graph from the stored state and part pickles, so one checkpoint can seed
many resumed timelines (the checkpoint/restore determinism property tests
rely on this).
"""

from __future__ import annotations

import copyreg
import functools
import io
import operator
import pickle
from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.batch_record import BatchRecord
from ..core.vablock import VABlockState
from ..gpu.warp import WarpProgram

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Attribute names that are wiring, not simulation state, on any component.
#: ``_flight`` is the flight recorder: the checkpoint stores its append
#: count instead (in ``obs_mark``), and a restore rewinds the ring to it,
#: so a recovered run's events equal a clean run's plus the crash seam.
_SKIP_COMMON = frozenset({"_san", "_inj", "_obs", "config", "cost_model", "_flight"})
#: Per-kind extra exclusions: references into other captured components,
#: and the attributes :data:`_PARTS` pickles apart.
_SKIP_EXTRA: Dict[str, frozenset] = {
    "gmmu": frozenset({"buffer"}),
    "dma": frozenset({"reverse"}),
    "host_vm": frozenset({"touch_thread"}),
    "prefetcher": frozenset({"_valid_masks"}),
}


def _skipped(name: str, extra_skip: frozenset) -> bool:
    return name in _SKIP_COMMON or name in extra_skip or name.startswith("_m_")


@functools.lru_cache(maxsize=None)
def _slot_getter(
    klass: type, extra_skip: frozenset
) -> Tuple[Tuple[str, ...], Callable[[object], tuple]]:
    """``klass``'s capturable slot names in MRO order, and one call that
    reads them all off an instance (built once per class)."""
    names: List[str] = []
    for base in klass.__mro__:
        for name in getattr(base, "__slots__", ()):
            if name not in names and not _skipped(name, extra_skip):
                names.append(name)
    if len(names) > 1:
        return tuple(names), operator.attrgetter(*names)
    return tuple(names), lambda obj: tuple(getattr(obj, name) for name in names)


def _capture_obj(obj, extra_skip: frozenset = frozenset()) -> Tuple[tuple, tuple]:
    """``obj``'s capturable attributes as ``(names, values)``: slots (MRO
    order) + instance dict, minus wiring attributes and cached metric
    handles (``_m_*``).  Objects of one slotted class share one ``names``
    tuple, which a pickle writes once."""
    names, get = _slot_getter(type(obj), extra_skip)
    try:
        values = get(obj)
    except AttributeError:  # a slot never assigned
        names = tuple(name for name in names if hasattr(obj, name))
        values = tuple(getattr(obj, name) for name in names)
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        kept = [(k, v) for k, v in attrs.items() if not _skipped(k, extra_skip)]
        names += tuple(k for k, _ in kept)
        values += tuple(v for _, v in kept)
    return names, values


def _restore_obj(obj, state: Tuple[tuple, tuple]) -> None:
    for name, value in zip(*state):
        setattr(obj, name, value)


def _capture_many(objs: Sequence) -> Tuple[tuple, List[tuple]]:
    """Objects of one slotted class (the SMs, µTLBs and copy engines) as
    their capturable slot names and one values tuple per object."""
    names, get = _slot_getter(type(objs[0]), frozenset())
    return names, list(map(get, objs))


def _restore_many(objs: Sequence, state: Tuple[tuple, List[tuple]]) -> None:
    names, rows = state
    for obj, values in zip(objs, rows):
        _restore_obj(obj, (names, values))


class _Part(NamedTuple):
    """Component state that is large and rarely changes, pickled on its own.

    ``owner(engine)`` is the component holding it, or None when the engine's
    component has no such state; the owner's ``version`` counter is bumped
    by every write to the part, so a capture re-pickles the part only when
    the version moved since the previous capture."""

    owner: Callable[[object], object]
    get: Callable[[object], object]
    put: Callable[[object, object], None]


def _attr_part(owner: Callable[[object], object], name: str) -> _Part:
    return _Part(
        owner,
        operator.attrgetter(name),
        lambda component, value: setattr(component, name, value),
    )


def _density_prefetcher(engine):
    prefetcher = engine.driver.prefetcher
    return prefetcher if hasattr(prefetcher, "_valid_masks") else None


#: The parts a checkpoint pickles apart from its state pickle, by name.
#: Each shares no object with the state or with another part.
_PARTS: Dict[str, _Part] = {
    # DMA reverse radix tree: written by map_pages/unmap_pages.
    "dma.reverse": _attr_part(operator.attrgetter("dma"), "reverse"),
    # First-touch thread of each host page: written by fresh CPU touches.
    "host_vm.touch_thread": _attr_part(operator.attrgetter("host_vm"), "touch_thread"),
    # Every VABlock's valid pages: written by allocation registration.
    "vablocks.valid_pages": _Part(
        operator.attrgetter("driver.vablocks"),
        lambda vablocks: vablocks.valid_pages_by_block(),
        lambda vablocks, pages: vablocks.set_valid_pages(pages),
    ),
    # The density prefetcher's valid-page mask cache: written on a miss.
    "prefetcher.valid_masks": _attr_part(_density_prefetcher, "_valid_masks"),
}

#: A part's name -> (its owner's version at the pickle, the pickle).
PartPickles = Dict[str, Tuple[int, bytes]]


def _pickle_parts(engine, previous: PartPickles) -> PartPickles:
    """Every part of ``engine``, reusing ``previous``'s bytes for each part
    whose version has not moved."""
    parts: PartPickles = {}
    for name, part in _PARTS.items():
        owner = part.owner(engine)
        if owner is None:
            continue
        entry = previous.get(name)
        if entry is None or entry[0] != owner.version:
            entry = (owner.version, pickle.dumps(part.get(owner), protocol=_PROTOCOL))
        parts[name] = entry
    return parts


def _reduce_block(block: VABlockState):
    """A VABlock in the state pickle: ``valid_pages`` is None there, and the
    ``vablocks.valid_pages`` part fills it in on restore."""
    state = dict(block.__dict__)
    state["valid_pages"] = None
    return copyreg.__newobj__, (VABlockState,), state


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
        "utlbs": _capture_many(device.utlbs),
        "sms": _capture_many(device.sms),
        # The engine's busy-SM list, by SM id (the SMs are captured above).
        "busy_sm_ids": (
            None
            if engine._busy_sms is None
            else [sm.sm_id for sm in engine._busy_sms]
        ),
        "page_table": _capture_obj(device.page_table),
        "chunks": _capture_obj(device.chunks),
        "copy_engines": _capture_many(device.copy_engines),
        "host_vm": _capture_obj(engine.host_vm, _SKIP_EXTRA["host_vm"]),
        "dma": _capture_obj(engine.dma, _SKIP_EXTRA["dma"]),
        "obs_mark": engine.obs.mark(),
        "vablocks": driver.vablocks,
        "driver": {name: getattr(driver, name) for name in _DRIVER_ATTRS},
        "eviction": _capture_obj(driver.eviction),
        "prefetcher": _capture_obj(driver.prefetcher, _SKIP_EXTRA["prefetcher"]),
        "injector": engine.injector.snapshot(),
    }


def _program_at(index: int) -> WarpProgram:
    """The name a state pickle gives the launch's ``index``-th program.

    :class:`_StateUnpickler` resolves the name to the restored program, so
    this body runs only when a state pickle is loaded without its table."""
    raise pickle.UnpicklingError(
        f"program {index} of a checkpoint state loads only with its program table"
    )


def _reduce_deque(queue: deque):
    """A deque by its items: the default reduction looks up the slot names
    of ``deque`` in Python on every call, as a builtin type cannot cache
    them."""
    return deque, ((), queue.maxlen), None, iter(queue)


class _ProgramTable:
    """One launch's warp programs, plus the pickler ``dispatch_table`` that
    names each of them by index in a state pickle (and leaves each VABlock's
    ``valid_pages`` to its part).  Programs are immutable, so checkpoints
    share them by reference; they are pickled, once, only for
    :meth:`EngineCheckpoint.to_bytes`."""

    __slots__ = ("programs", "_blob", "dispatch_table")

    def __init__(
        self, programs: Tuple[WarpProgram, ...], blob: Optional[bytes] = None
    ) -> None:
        self.programs = programs
        self._blob = blob
        index = {id(program): i for i, program in enumerate(programs)}

        def reduce_program(program):
            i = index.get(id(program))
            if i is None:
                return program.__reduce_ex__(_PROTOCOL)
            return _program_at, (i,)

        self.dispatch_table = {
            **copyreg.dispatch_table,
            WarpProgram: reduce_program,
            VABlockState: _reduce_block,
            deque: _reduce_deque,
        }

    @property
    def blob(self) -> bytes:
        """The pickle of :attr:`programs` (made on first use)."""
        if self._blob is None:
            self._blob = pickle.dumps(self.programs, protocol=_PROTOCOL)
        return self._blob

    def holds(self, programs: Sequence[WarpProgram]) -> bool:
        """True when ``programs`` are this table's program objects, in order
        (a launch that resubmits the same programs reuses the table)."""
        return programs is self.programs or (
            len(programs) == len(self.programs)
            and all(map(operator.is_, programs, self.programs))
        )

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


class EngineCheckpoint:
    """One restorable snapshot of an engine's simulation state."""

    def __init__(
        self,
        table: _ProgramTable,
        blob: bytes,
        parts: PartPickles,
        clock_now: float,
        records: List[BatchRecord],
    ) -> None:
        #: The launch's programs (by reference) that ``blob`` names.
        self._table = table
        self._blob = blob
        #: The part pickles (see :data:`_PARTS`), with their versions.
        self._parts = parts
        self._clock_now = clock_now
        #: The batch log at the capture (closed records, by reference).
        self._records = records

    # ------------------------------------------------------------- capture

    @classmethod
    def capture(cls, engine) -> "EngineCheckpoint":
        """Snapshot ``engine`` without perturbing it (no RNG draws, no
        clock advances) — safe to call at any batch boundary."""
        table, parts = engine._pickles or (None, {})
        if table is None or not table.holds(engine._programs):
            table = _ProgramTable(engine._programs)
        parts = _pickle_parts(engine, parts)
        engine._pickles = (table, parts)
        state = _build_state(engine)
        blob = table.dumps(state)
        records = list(engine.driver.log.records)
        return cls(table, blob, parts, state["clock_now"], records)

    # ------------------------------------------------------------- restore

    def restore_into(self, engine) -> None:
        """Rewind ``engine`` to this snapshot (repeatable: every restore
        unpickles pristine copies from the stored pickles; the immutable
        programs are shared).  The engine's pickle cache becomes this
        checkpoint's table and parts, whose versions the restored components
        carry."""
        table = self._table
        state = _StateUnpickler(self._blob, table.programs).load()
        driver = engine.driver
        device = engine.device
        engine.clock.restore(state["clock_now"])
        engine.rng.bit_generator.state = state["engine_rng"]
        driver.jitter.restore(state["driver_jitter"])
        engine._programs = table.programs
        engine._pickles = (table, self._parts)
        for name in _ENGINE_ATTRS:
            setattr(engine, name, state["engine"][name])
        _restore_obj(device.fault_buffer, state["fault_buffer"])
        _restore_obj(device.gmmu, state["gmmu"])
        _restore_many(device.utlbs, state["utlbs"])
        _restore_many(device.sms, state["sms"])
        busy = state["busy_sm_ids"]
        engine._busy_sms = None if busy is None else [device.sms[i] for i in busy]
        _restore_obj(device.page_table, state["page_table"])
        _restore_obj(device.chunks, state["chunks"])
        _restore_many(device.copy_engines, state["copy_engines"])
        _restore_obj(engine.host_vm, state["host_vm"])
        _restore_obj(engine.dma, state["dma"])
        engine.obs.rewind(state["obs_mark"])
        driver.vablocks = state["vablocks"]
        driver.log.records[:] = self._records
        for name in _DRIVER_ATTRS:
            setattr(driver, name, state["driver"][name])
        _restore_obj(driver.eviction, state["eviction"])
        _restore_obj(driver.prefetcher, state["prefetcher"])
        for name, (_, blob) in self._parts.items():
            part = _PARTS[name]
            part.put(part.owner(engine), pickle.loads(blob))
        if state["injector"] is not None:
            engine.injector.restore_state(state["injector"])
        engine.sanitizer.resync(engine)

    # -------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """One self-contained blob holding the pickles and the batch log
        (pure data: plain containers, numpy arrays, warp/fault/record
        dataclasses)."""
        return pickle.dumps(
            (self._table.blob, self._blob, self._parts, self._records),
            protocol=_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EngineCheckpoint":
        """Take back a :meth:`to_bytes` blob; raises if it does not decode
        (a blob of an older layout included)."""
        programs_blob, state_blob, parts, records = pickle.loads(blob)
        table = _ProgramTable(pickle.loads(programs_blob), programs_blob)
        state = _StateUnpickler(state_blob, table.programs).load()
        return cls(table, state_blob, parts, state["clock_now"], records)

    def summary(self) -> dict:
        """Identifying facts about the snapshot (same dict idiom as the
        injector's and sanitizer's ``summary()``)."""
        return {
            "clock_usec": self._clock_now,
            "batches": len(self._records),
        }
