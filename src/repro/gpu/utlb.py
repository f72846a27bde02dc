"""µTLB model: the per-µTLB outstanding-fault cap and replay semantics.

Each hardware thread's page fault is recognized and held by its µTLB
(paper §2.1).  Section 3.2 measures a hard limit of **56 outstanding faults
per µTLB** on Volta (Fig 3: the first vecadd batch contains exactly 56
faults), with adjacent SMs sharing one µTLB (§4.2).

A *fault replay* issued by the driver after servicing a batch "clears the
waiting status of the µTLBs, causing them to replay the prior miss"
(§2.1): outstanding entries vanish and still-unsatisfied accesses refault.
"""

from __future__ import annotations


class UTlb:
    """Outstanding-fault accounting for one µTLB.

    A µTLB tracks misses *per page*: when several warps (or lanes) it
    services miss on the same page, the requests merge into the single
    outstanding entry — which is why the paper's type-1 duplicates are
    attributed to spatial locality plus "SMs spuriously wak[ing] up to
    reissue the same fault during a batch" (§4.2) rather than one entry per
    waiting warp.  The model reproduces the spurious wakeups with a
    deterministic cadence: every ``SPURIOUS_PERIOD``-th merged request emits
    a duplicate fault entry anyway.
    """

    #: Every Nth merged same-page request still emits a duplicate entry.
    SPURIOUS_PERIOD = 4

    __slots__ = (
        "utlb_id",
        "limit",
        "pending_pages",
        "total_early_cancelled",
        "_merge_counter",
        "_san",
    )

    def __init__(self, utlb_id: int, limit: int) -> None:
        self.utlb_id = utlb_id
        #: Maximum simultaneously-outstanding faults (56 on the paper's HW).
        self.limit = limit
        #: Pages with an outstanding miss entry in this µTLB: one entry each.
        self.pending_pages = set()
        self.total_early_cancelled = 0
        self._merge_counter = 0
        #: Attached UVMSan checker, or None (the common, zero-cost case).
        self._san = None

    @property
    def outstanding(self) -> int:
        """Outstanding fault entries: one per pending page."""
        return len(self.pending_pages)

    def attach_sanitizer(self, sanitizer) -> None:
        """Check the outstanding-fault cap after every mutation."""
        self._san = sanitizer

    def request(self, page: int) -> bool:
        """A warp misses on ``page``; True if a new fault entry must be
        written to the buffer, False if the request merged into an existing
        entry (occasionally emitting a spurious duplicate — still True).

        The caller must check for a free slot (``outstanding < limit``)
        first for new entries.
        """
        if page in self.pending_pages:
            self._merge_counter += 1
            # Spurious reissue: a duplicate entry, no new slot.
            return self._merge_counter % self.SPURIOUS_PERIOD == 0
        self.pending_pages.add(page)
        if self._san is not None:
            self._san.on_utlb(self)
        return True

    def cancel(self, page: int) -> None:
        """Roll back a :meth:`request` whose fault-buffer write was dropped
        by hardware — without this, later same-page demands would merge
        against an entry that never reached the buffer."""
        if page in self.pending_pages:
            self.pending_pages.discard(page)
            if self._san is not None:
                self._san.on_utlb(self)

    def early_cancel(self, page: int) -> None:
        """Injected early cancellation (:mod:`repro.inject`): an outstanding
        entry is dropped *before* replay, as if the µTLB lost it.

        Unlike :meth:`cancel`, the entry's fault-buffer write already
        happened and stays serviceable; the µTLB merely forgets it, so
        later same-page misses re-request a fresh entry (extra pressure on
        the 56-entry cap)."""
        if page in self.pending_pages:
            self.pending_pages.discard(page)
            self.total_early_cancelled += 1
            if self._san is not None:
                self._san.on_utlb(self)

    def replay(self) -> None:
        """Fault replay: clear all waiting entries (they refault if needed)."""
        self.pending_pages.clear()
        if self._san is not None:
            self._san.on_utlb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UTlb(id={self.utlb_id}, outstanding={self.outstanding}/{self.limit})"
