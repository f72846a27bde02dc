"""Unit tests for the warp execution model (scoreboard semantics)."""

import pytest

from repro.gpu.fault import AccessType
from repro.gpu.warp import (
    AdvanceResult,
    KernelLaunch,
    Phase,
    WarpProgram,
    WarpState,
    wake,
)


def make_warp(phases, uid=1, sm=0):
    return WarpState(WarpProgram(tuple(phases)), uid=uid, sm_id=sm)


def notify(warp, pages):
    """Driver notification that ``pages`` are resident; True when it
    unblocks ``warp``."""
    return wake({page: [warp] for page in pages}, pages) == [warp]


def issue(warp, pending=frozenset(), utlb_full=False):
    """One fused issue step against a µTLB holding ``pending``."""
    return warp.issue_next(pending, utlb_full)


def issue_all(warp):
    """Issue until the warp's queue is drained (a µTLB with headroom)."""
    taken = []
    while (occ := issue(warp)) is not None:
        taken.append(occ)
    return taken


class TestPhase:
    def test_of_builds_tuples(self):
        p = Phase.of([1, 2], [3], [4], compute_usec=1.0)
        assert p.reads == (1, 2)
        assert p.writes == (3,)
        assert p.prefetches == (4,)

    def test_pages_excludes_prefetches(self):
        p = Phase.of([1], [2], [99])
        assert p.pages == {1, 2}

    def test_duplicate_reads_preserved(self):
        p = Phase.of([5, 5, 6])
        assert p.reads == (5, 5, 6)

    def test_frozen(self):
        p = Phase.of([1])
        with pytest.raises(AttributeError):
            p.reads = (2,)


class TestWarpProgram:
    def test_total_accesses(self):
        prog = WarpProgram([Phase.of([1, 2], [3]), Phase.of([4])])
        assert prog.total_accesses == 4

    def test_touched_pages(self):
        prog = WarpProgram([Phase.of([1, 2], [3]), Phase.of([2], [5])])
        assert prog.touched_pages == {1, 2, 3, 5}


class TestKernelLaunch:
    def test_aggregates(self):
        k = KernelLaunch("k", [WarpProgram([Phase.of([1], [2])])])
        assert k.total_accesses == 2
        assert k.touched_pages == {1, 2}


class TestScoreboard:
    """Writes must wait for the phase's reads (paper §3.2, Listing 2)."""

    def test_blocks_on_reads_first(self):
        warp = make_warp([Phase.of([1, 2], [3])])
        result = warp.advance(resident=set())
        assert result.new_waits == {1, 2}
        assert warp.missing
        # Writes are NOT demanded yet.
        assert all(a == AccessType.READ for _, a in warp._unissued)

    def test_writes_demand_after_reads_resident(self):
        warp = make_warp([Phase.of([1], [2])])
        warp.advance(resident=set())
        assert notify(warp, [1])
        result = warp.advance(resident={1})
        assert result.new_waits == {2}
        assert all(a == AccessType.WRITE for _, a in warp._unissued)

    def test_finishes_when_all_resident(self):
        warp = make_warp([Phase.of([1], [2])])
        result = warp.advance(resident={1, 2})
        assert result.finished
        assert warp.finished

    def test_compute_accrues_per_completed_phase(self):
        warp = make_warp(
            [Phase.of([1], compute_usec=3.0), Phase.of([2], compute_usec=4.0)]
        )
        result = warp.advance(resident={1, 2})
        assert result.compute_usec == pytest.approx(7.0)

    def test_multi_phase_blocks_at_first_missing(self):
        warp = make_warp([Phase.of([1]), Phase.of([2])])
        result = warp.advance(resident={1})
        assert result.new_waits == {2}


class TestPrefetchSemantics:
    def test_prefetches_emitted_without_blocking(self):
        warp = make_warp([Phase.of(prefetches=[1, 2, 3])])
        result = warp.advance(resident=set())
        assert result.prefetches == [1, 2, 3]
        assert result.finished  # prefetch-only program completes immediately

    def test_prefetch_emitted_once_per_phase(self):
        warp = make_warp([Phase.of([9], prefetches=[1])])
        r1 = warp.advance(resident=set())
        assert r1.prefetches == [1]
        notify(warp, [9])
        r2 = warp.advance(resident={9})
        assert r2.prefetches == []

    def test_prefetch_requeue_is_dropped(self):
        warp = make_warp([Phase.of([1])])
        warp.advance(resident=set())
        warp.requeue(1, AccessType.PREFETCH)
        # Prefetch hints are never re-demanded.
        assert len(warp._unissued) - warp._unissued_head == 1  # original read only


class TestIssuance:
    """The fused issue step: find the next still-missing occurrence, then
    consume it."""

    def test_take_issuable_respects_limit(self):
        # One step consumes exactly one occurrence.
        warp = make_warp([Phase.of([1, 2, 3, 4])])
        warp.advance(resident=set())
        occs = [issue(warp), issue(warp)]
        assert occs == [(1, AccessType.READ), (2, AccessType.READ)]
        assert warp.has_issuable
        assert warp.faults_issued == 2

    def test_take_issuable_skips_satisfied(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        notify(warp, [1])  # page 1 resolved before issue
        assert issue_all(warp) == [(2, AccessType.READ)]

    def test_duplicate_occurrences_issue_separately(self):
        warp = make_warp([Phase.of([7, 7])])
        warp.advance(resident=set())
        assert issue_all(warp) == [(7, AccessType.READ), (7, AccessType.READ)]

    def test_peek_page(self):
        # The step finds the queue's first missing occurrence.
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        assert issue(warp) == (3, AccessType.READ)

    def test_peek_skips_satisfied(self):
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        notify(warp, [3])
        assert issue(warp) == (4, AccessType.READ)

    def test_peek_none_when_drained(self):
        warp = make_warp([Phase.of([3])])
        warp.advance(resident=set())
        issue(warp)
        assert not warp.has_issuable
        assert issue(warp) is None

    def test_full_utlb_blocks_without_consuming(self):
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        before = (list(warp._unissued), warp._unissued_head)
        assert issue(warp, utlb_full=True) is None
        assert warp.has_issuable  # blocked, not drained
        assert (list(warp._unissued), warp._unissued_head) == before
        assert warp.faults_issued == 0

    def test_full_utlb_still_takes_a_merging_occurrence(self):
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        assert issue(warp, pending={3}, utlb_full=True) == (3, AccessType.READ)
        assert issue(warp, pending={3}, utlb_full=True) is None

    def test_satisfied_queue_compacts_only_with_utlb_headroom(self):
        # A queue holding only satisfied occurrences: a full µTLB leaves it
        # (the engine ends the SM's pass), headroom drops it (the engine
        # skips the warp).
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        issue(warp)  # page 1 issued; page 2 still queued
        notify(warp, [2])
        assert issue(warp, utlb_full=True) is None
        assert warp.has_issuable
        assert issue(warp) is None
        assert not warp.has_issuable

    def test_requeue_re_demands(self):
        warp = make_warp([Phase.of([5])])
        warp.advance(resident=set())
        issue(warp)
        assert not warp.has_issuable
        warp.requeue(5, AccessType.READ)
        assert warp.has_issuable

    def test_requeue_ignored_when_satisfied(self):
        warp = make_warp([Phase.of([5])])
        warp.advance(resident=set())
        issue(warp)
        notify(warp, [5])
        warp.requeue(5, AccessType.READ)
        assert not warp.has_issuable

    def test_faults_issued_counter(self):
        warp = make_warp([Phase.of([1, 2, 3])])
        warp.advance(resident=set())
        issue(warp)
        issue(warp)
        assert warp.faults_issued == 2


class TestPeekRequeueRegression:
    """Finding the next occurrence must be pure (a past bug).

    An earlier version advanced ``_unissued_head`` past satisfied
    occurrences while looking ahead and reset the queue when it ran off the
    end — so a look at a still-blocked warp could clear the issue queue out
    from under a concurrent post-replay-flush ``requeue``: the re-demanded
    occurrence landed in a freshly-reset list or was skipped by the
    advanced head, and the access was lost until livelock.  The fused step
    looks ahead whenever a full µTLB blocks it, so that look must change
    nothing.
    """

    def test_peek_is_pure(self):
        warp = make_warp([Phase.of([1, 2, 3])])
        warp.advance(resident=set())
        notify(warp, [1])  # satisfied prefix the old code compacted
        before = (list(warp._unissued), warp._unissued_head)
        for _ in range(3):
            assert issue(warp, utlb_full=True) is None
        assert (list(warp._unissued), warp._unissued_head) == before
        assert issue(warp) == (2, AccessType.READ)

    def test_peek_pure_when_all_unissued_satisfied(self):
        # The exact trigger of the old bug: every unissued occurrence is
        # satisfied, so the old look-ahead ran off the end and reset the
        # queue.
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        issue(warp)  # issue page 1; page 2 still queued
        notify(warp, [2])  # resolves before issuing
        before = (list(warp._unissued), warp._unissued_head)
        assert issue(warp, utlb_full=True) is None
        assert (list(warp._unissued), warp._unissued_head) == before

    def test_peek_requeue_take_after_replay_flush(self):
        # Replay-flush scenario: both occurrences issued, then the fault
        # for page 2 is dropped by the pre-replay flush and re-demands.
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert issue_all(warp) == [
            (1, AccessType.READ),
            (2, AccessType.READ),
        ]
        notify(warp, [1])
        assert issue(warp, utlb_full=True) is None  # nothing unissued yet
        warp.requeue(2, AccessType.READ)
        # A blocked step sees the re-demand without consuming it...
        assert issue(warp, utlb_full=True) is None
        assert warp.has_issuable
        # ...and the next step with headroom takes it.
        assert issue_all(warp) == [(2, AccessType.READ)]

    def test_peek_between_requeues_never_drops_occurrences(self):
        # A blocked step over a satisfied head must not clear the queue a
        # following requeue appends to: both the original unissued
        # occurrence and the re-demand must issue.
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        notify(warp, [1])
        assert issue(warp, utlb_full=True) is None
        warp.requeue(2, AccessType.READ)
        assert issue_all(warp) == [
            (2, AccessType.READ),
            (2, AccessType.READ),
        ]


class TestNotification:
    def test_partial_notification_stays_blocked(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert not notify(warp, [1])
        assert warp.missing

    def test_full_notification_unblocks(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert notify(warp, [1, 2])
        assert not warp.missing

    def test_unknown_page_notification_harmless(self):
        warp = make_warp([Phase.of([1])])
        warp.advance(resident=set())
        assert not notify(warp, [999])
