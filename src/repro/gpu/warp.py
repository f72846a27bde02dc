"""Warp execution model with register-scoreboard semantics.

The paper (§3.2, Listings 1-2) reverse-engineers three fault-generation
behaviours that this module encodes:

1. **Loads are non-blocking.**  A warp can issue one or more reads that fault
   without stalling — the exact behaviour of non-faulting CUDA accesses.
2. **The register scoreboard serializes dependent stores.**  The SASS of
   ``c[i] = a[i] + b[i]`` stalls at the ``FADD`` on the two load registers, so
   *no write can execute until its prerequisite reads are fulfilled*, even
   though the store address is known upfront.  A faulting warp therefore
   needs at least two full fault rounds per statement.
3. **Prefetch instructions escape both limits.**  ``prefetch.global.L2``
   does not use the scoreboard, so it bypasses the µTLB outstanding cap and
   the SM fault-rate throttle; a single warp can fill an entire 256-fault
   batch (Fig 5).  Dropped prefetch faults are never reissued (hints).

A workload is compiled into :class:`WarpProgram` s — ordered lists of
:class:`Phase` s, each a (reads, writes, prefetches) triple of page ids plus
a compute cost.  :class:`WarpState` executes a program against the evolving
GPU residency: within a phase all reads issue concurrently, writes wait for
the phase's reads, and the warp only advances to the next phase when the
current phase's pages are resident.

One ``WarpProgram`` models one *faulting context* (a warp, or a thread block
whose warps fault in lockstep); the paper's per-SM and per-µTLB statistics
only depend on that granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .fault import AccessType

_STAGE_READS = 0
_STAGE_WRITES = 1


@dataclass(frozen=True)
class Phase:
    """One dependency-separated group of memory operations.

    ``reads`` may contain duplicate page ids: distinct lanes touching the
    same page issue distinct faults (the paper's type-1 duplicates, §4.2).
    """

    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    prefetches: Tuple[int, ...] = ()
    #: GPU compute time (µs) charged when the phase completes.
    compute_usec: float = 0.0

    @staticmethod
    def of(
        reads: Iterable[int] = (),
        writes: Iterable[int] = (),
        prefetches: Iterable[int] = (),
        compute_usec: float = 0.0,
    ) -> "Phase":
        return Phase(tuple(reads), tuple(writes), tuple(prefetches), compute_usec)

    @cached_property
    def pages(self) -> FrozenSet[int]:
        """All distinct pages the phase touches (excluding prefetch hints).

        Cached: ``Phase`` is frozen, so the set is computed once instead of
        being rebuilt on every property access in the engine's hot loops
        (``cached_property`` stores into the instance ``__dict__``, which
        bypasses the frozen ``__setattr__`` and stays out of field-based
        equality/hashing).
        """
        return frozenset(self.reads) | frozenset(self.writes)


@dataclass
class WarpProgram:
    """An ordered list of phases executed by one faulting context."""

    phases: Tuple[Phase, ...]
    #: Optional label for traces/debugging (e.g. ``"block(3,1)"``).
    label: str = ""

    def __post_init__(self) -> None:
        self.phases = tuple(self.phases)

    @property
    def total_accesses(self) -> int:
        return sum(len(p.reads) + len(p.writes) for p in self.phases)

    @cached_property
    def touched_pages(self) -> FrozenSet[int]:
        """Union of all phase footprints; cached — programs are immutable
        once built (``__post_init__`` freezes ``phases`` into a tuple)."""
        return frozenset().union(*(p.pages for p in self.phases))


@dataclass
class KernelLaunch:
    """A set of warp programs submitted to the device as one kernel."""

    name: str
    programs: List[WarpProgram]
    #: Maximum concurrently-active programs per SM (occupancy).  ``None``
    #: uses the device limit.
    occupancy: Optional[int] = None

    @property
    def total_accesses(self) -> int:
        return sum(p.total_accesses for p in self.programs)

    @cached_property
    def touched_pages(self) -> FrozenSet[int]:
        """Union of all program footprints; cached — launches are built once
        by the workload generators and never mutated afterwards."""
        return frozenset().union(*(p.touched_pages for p in self.programs))


@dataclass
class AdvanceResult:
    """Outcome of :meth:`WarpState.advance`."""

    #: Compute time accrued by phases completed during this advance.
    compute_usec: float = 0.0
    #: Pages the warp is now blocked on (engine registers waiters on these).
    new_waits: Set[int] = field(default_factory=set)
    #: Prefetch page occurrences emitted while advancing (issue immediately,
    #: bypassing all caps; never gate progress).
    prefetches: List[int] = field(default_factory=list)
    #: True when the program ran to completion.
    finished: bool = False
    #: Distinct resident pages the advance touched without faulting
    #: (in-memory hits).  Only collected when ``WarpState.track_hits`` is
    #: set — the real driver cannot see these (§5.4), but access-counter
    #: eviction policies can.
    hit_pages: Set[int] = field(default_factory=set)


class WarpState:
    """Runtime state of one :class:`WarpProgram` on an SM.

    The engine drives a warp through this protocol:

    * :meth:`advance` — run forward until blocked or finished; returns pages
      to wait on plus any prefetch demands.
    * :meth:`issue_next` — pop the next fault occurrence to issue, gated
      by the µTLB's headroom (the engine holds the SM throttle budget).
    * :func:`wake` — notification from the driver: serviced pages leave
      the missing sets of the warps waiting on them, and the warps it
      unblocks must be advanced again.
    * :meth:`requeue` — re-demand an occurrence whose fault was dropped by
      the replay flush (the µTLB reissues still-needed faults, §4.2).
    """

    __slots__ = (
        "program",
        "uid",
        "sm_id",
        "_phase_idx",
        "_stage",
        "_prefetch_emitted",
        "missing",
        "_unissued",
        "_unissued_head",
        "finished",
        "faults_issued",
        "ready_at",
        "track_hits",
        "_stage_satisfied",
    )

    def __init__(self, program: WarpProgram, uid: int, sm_id: int) -> None:
        self.program = program
        self.uid = uid
        self.sm_id = sm_id
        self._phase_idx = 0
        self._stage = _STAGE_READS
        self._prefetch_emitted = False
        #: Distinct pages of the current stage not yet GPU-resident.
        self.missing: Set[int] = set()
        #: Pending fault occurrences ``(page, access)`` awaiting issue.
        self._unissued: List[Tuple[int, AccessType]] = []
        self._unissued_head = 0
        self.finished = False
        #: Total faults this warp has issued (instrumentation).
        self.faults_issued = 0
        #: Simulated time before which this warp is busy computing completed
        #: phases and issues no new faults.  Compute between fault rounds is
        #: what desynchronizes SMs in real kernels: at any instant only a
        #: fraction of warps is fault-ready, which is why application batch
        #: sizes sit far below the synthetic ceiling in Table 2.
        self.ready_at = 0.0
        #: When True, :meth:`advance` collects in-memory hit pages (for
        #: access-counter eviction policies).  Off by default: hits are
        #: invisible to the real driver and collecting them costs time.
        self.track_hits = False
        #: Set when the blocked stage was fully satisfied by driver
        #: notifications: the stage's loads retired at the replay, so the
        #: next advance must NOT re-check residency (pages may have been
        #: evicted again since — re-checking would livelock a working set
        #: larger than device memory).
        self._stage_satisfied = False

    # ------------------------------------------------------------------ api

    @property
    def has_issuable(self) -> bool:
        return self._unissued_head < len(self._unissued)

    def advance(self, resident: Set[int]) -> AdvanceResult:
        """Run the program forward until it blocks on a fault or finishes.

        ``resident`` is the set of GPU-resident page ids (the GPU page
        table's view).  Must only be called while :attr:`missing` is empty
        (the warp is not blocked).
        """
        result = AdvanceResult()
        if self.finished:
            result.finished = True
            return result
        track_hits = self.track_hits
        phases = self.program.phases
        while self._phase_idx < len(phases):
            phase = phases[self._phase_idx]
            if self._stage == _STAGE_READS:
                if not self._prefetch_emitted and phase.prefetches:
                    result.prefetches.extend(phase.prefetches)
                    self._prefetch_emitted = True
                if self._stage_satisfied:
                    # The stage's loads retired at the replay that made its
                    # last page resident; never re-check (eviction may have
                    # already reclaimed the pages — consumption is final).
                    self._stage_satisfied = False
                else:
                    if track_hits:
                        result.hit_pages.update(p for p in phase.reads if p in resident)
                    if self._block_on(phase.reads, AccessType.READ, resident):
                        result.new_waits = set(self.missing)
                        return result
                self._stage = _STAGE_WRITES
            if self._stage == _STAGE_WRITES:
                if self._stage_satisfied:
                    self._stage_satisfied = False
                else:
                    if track_hits:
                        result.hit_pages.update(p for p in phase.writes if p in resident)
                    if self._block_on(phase.writes, AccessType.WRITE, resident):
                        result.new_waits = set(self.missing)
                        return result
                result.compute_usec += phase.compute_usec
                self._phase_idx += 1
                self._stage = _STAGE_READS
                self._prefetch_emitted = False
        self.finished = True
        result.finished = True
        return result

    def issue_next(
        self, pending: Set[int], utlb_full: bool
    ) -> Optional[Tuple[int, AccessType]]:
        """Consume and return the next occurrence whose page is still
        missing, or None when nothing issues.

        ``pending`` is the µTLB's outstanding pages.  When ``utlb_full``,
        only an occurrence that merges into a pending entry may issue;
        otherwise the µTLB blocks the warp.  Occurrences whose page became
        resident before they issued are skipped — after a replay they would
        simply hit in the µTLB.

        None leaves :attr:`has_issuable` telling why: still True when the
        µTLB blocked the warp, False when no occurrence was left to issue.

        Finding is pure: a blocked step leaves the queue as it was, so it
        never changes which occurrences a later step or :meth:`requeue`
        sees.  (A look-ahead that dropped satisfied occurrences could clear
        the queue under a concurrent requeue and lose the re-demand.)  Only
        a µTLB with headroom drops a queue holding satisfied occurrences
        alone.
        """
        unissued = self._unissued
        missing = self.missing
        n = len(unissued)
        for i in range(self._unissued_head, n):
            occ = unissued[i]
            if occ[0] in missing:
                if utlb_full and occ[0] not in pending:
                    return None
                if i + 1 < n:
                    self._unissued_head = i + 1
                else:
                    self._unissued = []
                    self._unissued_head = 0
                self.faults_issued += 1
                return occ
        if not utlb_full:
            # Only satisfied occurrences were left: drop them.
            self._unissued = []
            self._unissued_head = 0
        return None

    def requeue(self, page: int, access: AccessType) -> None:
        """Re-demand an occurrence whose fault was flushed before service."""
        if access == AccessType.PREFETCH:
            return  # prefetches are hints; dropped means forgotten
        if page in self.missing:
            self._unissued.append((page, access))

    # ------------------------------------------------------------ internals

    def _block_on(
        self,
        pages: Sequence[int],
        access: AccessType,
        resident: Set[int],
    ) -> bool:
        """Compute the stage's missing set; True if the warp must block."""
        if resident.issuperset(pages):
            return False
        missing = set(pages).difference(resident)
        self.missing = missing
        self._unissued = [(p, access) for p in pages if p in missing]
        self._unissued_head = 0
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WarpState(uid={self.uid}, sm={self.sm_id}, "
            f"phase={self._phase_idx}/{len(self.program.phases)}, "
            f"missing={len(self.missing)}, finished={self.finished})"
        )


def wake(
    waiters: Dict[int, List[WarpState]], pages: Iterable[int]
) -> List[WarpState]:
    """Driver notification: ``pages`` are resident.

    Pops each page's waiting warps from ``waiters`` and drops the page from
    their missing sets.  Returns the warps this unblocked, in the order
    their last missing page appears in ``pages``; the engine must advance
    them again.  Unblocking marks the stage *satisfied*: its accesses
    retired when their pages were (momentarily) resident, so a later
    advance must not re-demand them even if eviction has reclaimed the
    pages since.
    """
    unblocked: List[WarpState] = []
    for page in pages:
        blocked = waiters.pop(page, None)
        if blocked is None:
            continue
        for warp in blocked:
            missing = warp.missing
            if page in missing:
                missing.discard(page)
                if not missing:
                    warp._stage_satisfied = True
                    unblocked.append(warp)
    return unblocked
