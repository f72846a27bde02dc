"""Declarative protocol catalog for the lifecycle / snapshot passes.

The simulator's hand-maintained contracts live here as *data* so the two
protocol passes stay generic:

* :data:`PROTOCOLS` — linear resources the :class:`~.lifecycle.LifecyclePass`
  tracks: how each is acquired, what discharges the close obligation, and
  which module names are in scope.
* :data:`SNAPSHOT` — how ``repro/sim/checkpoint.py`` is shaped (skip-set and
  verbatim attr-list globals, component classes captured by ``_capture_obj``)
  so the :class:`~.snapshot.SnapshotCoveragePass` can diff the engine's
  mutable-attribute set against what a checkpoint actually captures.

Names are matched by *dotted suffix* (``"log.append"`` matches
``self.log.append``; a callee pattern ``"BatchRecord"`` matches the resolved
``repro.core.batch_record.BatchRecord``), so the catalog works unchanged on
the real tree and on the test fixture projects.

This module is an **analysis seed**: editing it changes what the passes
report in *other* files, so ``lint --changed-only`` widens to a full run
whenever a seed is in the diff (see ``engine.SEED_SUFFIXES``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Tuple


def suffix_match(dotted: str, pattern: str) -> bool:
    """True when the trailing dotted components of ``dotted`` equal
    ``pattern`` (``suffix_match("self.log.append", "log.append")``)."""
    have = dotted.split(".")
    want = pattern.split(".")
    return len(have) >= len(want) and have[-len(want):] == want


def matches_any(dotted: str, patterns: Tuple[str, ...]) -> bool:
    return any(suffix_match(dotted, p) for p in patterns)


# --------------------------------------------------------------- lifecycle


@dataclass(frozen=True)
class ResourceProtocol:
    """One linear resource: acquire forms, release forms, tracking scope."""

    name: str
    description: str
    #: Module-name last components where acquisition is tracked; empty
    #: means every analyzed module.
    scope: Tuple[str, ...] = ()
    #: Resolved callee qname suffixes (class / function names; a class
    #: pattern matches its ``__init__`` edge) whose call acquires.
    acquire_callees: Tuple[str, ...] = ()
    #: Raw dotted-call suffixes for dynamically-dispatched acquires
    #: (``spans.span`` — the receiver's type is not statically known).
    acquire_raw: Tuple[str, ...] = ()
    #: An assignment whose RHS embeds this fragment in a string literal
    #: acquires the bound name (atomic-write temp paths).
    acquire_str_fragment: str = ""
    #: ``x.mkdir(...)`` style: calling one of these methods on a plain
    #: local name acquires that *receiver*.
    acquire_receiver_methods: Tuple[str, ...] = ()
    #: Method names on the resource that release it (``conn.close()``).
    release_methods: Tuple[str, ...] = ()
    #: Call suffixes (raw or resolved) that release a resource passed to
    #: them as an argument (``os.replace(tmp, path)``).  Callees inside the
    #: analyzed project additionally release via interprocedural summary:
    #: a call discharges the obligation when the callee provably releases
    #: that parameter on all of *its* paths.
    release_arg_calls: Tuple[str, ...] = ()
    #: ``with acquire() as x:`` discharges the obligation via ``__exit__``.
    with_releases: bool = True
    #: Returning the resource transfers ownership to the caller.
    escape_returns: bool = True
    #: Storing the resource (attribute, container element) transfers
    #: ownership to the holding object.
    escape_stores: bool = True


PROTOCOLS: Tuple[ResourceProtocol, ...] = (
    ResourceProtocol(
        name="batch-record",
        description=(
            "a BatchRecord opened by the driver must reach the batch log "
            "(log.append) or be aborted (_abort_record) on every path, "
            "exceptions included — an unclosed record corrupts the batch "
            "log and the UVMSan batch phase machine"
        ),
        scope=("driver",),
        acquire_callees=("BatchRecord",),
        release_arg_calls=("log.append",),
        with_releases=False,
    ),
    ResourceProtocol(
        name="span",
        description=(
            "a profiler span must be entered as a context manager; a span "
            "bound outside `with` never records its exit edge"
        ),
        acquire_raw=("spans.span", "obs.span", "profiler.span"),
    ),
    ResourceProtocol(
        name="run-ledger",
        description=(
            "a RunLedger owns a SQLite connection and must be close()d on "
            "every path, or campaign resume can read a hot journal"
        ),
        scope=("runner", "fleet", "cli", "worker"),
        acquire_callees=("RunLedger",),
        release_methods=("close",),
    ),
    ResourceProtocol(
        name="campaign-monitor",
        description=(
            "a CampaignMonitor owns a telemetry queue (and its feeder "
            "thread under mp) and must be close()d on every path"
        ),
        scope=("runner", "fleet", "cli", "worker"),
        acquire_callees=("CampaignMonitor",),
        release_methods=("close",),
    ),
    ResourceProtocol(
        name="sqlite-conn",
        description=(
            "a raw sqlite3.connect() handle must be close()d or handed to "
            "an owner that closes it"
        ),
        scope=("ledger",),
        acquire_raw=("sqlite3.connect",),
        release_methods=("close",),
    ),
    ResourceProtocol(
        name="atomic-temp",
        description=(
            "an atomic-write temp path (a literal containing '.tmp') must "
            "reach os.replace or be unlinked on every path — a leaked temp "
            "file survives as clutter and can shadow the next writer"
        ),
        scope=("worker", "cache", "bundle", "checkpoint", "ledger"),
        acquire_str_fragment=".tmp",
        release_arg_calls=(
            "os.replace",
            "os.rename",
            "os.unlink",
            "os.remove",
            "unlink",
        ),
    ),
    ResourceProtocol(
        name="bundle-dir",
        description=(
            "a crash-bundle directory created by mkdir must either be "
            "finalized (manifest written last) or torn down — a partial "
            "bundle must never be left looking valid"
        ),
        scope=("bundle",),
        acquire_receiver_methods=("mkdir",),
        release_arg_calls=("_finalize_bundle", "shutil.rmtree", "rmtree"),
    ),
)


# ---------------------------------------------------------------- snapshot

#: Marks a deliberately-uncaptured attribute assignment:
#: ``self.last_bundle = None  # snapshot: skip``.
SNAPSHOT_SKIP_RE = re.compile(r"#\s*snapshot:\s*skip\b")
#: A line that *mentions* the vocabulary at all (to flag typos like
#: ``# snapshot:skip-this``)—kept loose on purpose.
SNAPSHOT_MARK = "# snapshot:"


@dataclass(frozen=True)
class SnapshotSpec:
    """Shape of the checkpoint module the coverage pass interprets."""

    #: Module-name last component; the pass activates only when a module
    #: with this name defines ``skip_common_global``.
    checkpoint_module: str = "checkpoint"
    skip_common_global: str = "_SKIP_COMMON"
    skip_extra_global: str = "_SKIP_EXTRA"
    #: Verbatim attr-list global → local name of the class it captures.
    attr_lists: Mapping[str, str] = field(
        default_factory=lambda: {
            "_ENGINE_ATTRS": "Engine",
            "_DRIVER_ATTRS": "UvmDriver",
        }
    )
    #: Classes captured generically by ``_capture_obj``/``_attr_names``
    #: (every non-skip attribute is pickled): a ``# snapshot: skip``
    #: annotation in one of these must be backed by an actual exclusion.
    component_classes: Tuple[str, ...] = (
        "FaultBuffer",
        "Gmmu",
        "UTlb",
        "StreamingMultiprocessor",
        "GpuPageTable",
        "ChunkAllocator",
        "CopyEngine",
        "EventTrace",
    )
    #: Cached metric-handle prefix ``_attr_names`` drops unconditionally.
    metric_prefix: str = "_m_"


SNAPSHOT = SnapshotSpec()
