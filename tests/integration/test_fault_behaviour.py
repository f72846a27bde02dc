"""Integration tests for §3's fault-generation behaviours (Figs 3-5)."""

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.units import MB
from repro.workloads import (
    CoalescedVecAdd,
    PrefetchVectorKernel,
    VecAddPageStride,
)


def titan_config(prefetch=False, **kw):
    cfg = default_config(prefetch_enabled=prefetch, **kw)
    cfg.cost_overrides = {"jitter_frac": 0.0}
    return cfg


class TestVecAddListing1:
    """The paper's Listing 1 experiment, Figs 3-4."""

    @pytest.fixture(scope="class")
    def result(self):
        system = UvmSystem(titan_config())
        return system, VecAddPageStride().run(system)

    def test_first_batch_is_exactly_56(self, result):
        """The µTLB outstanding-fault cap (§3.2)."""
        _, res = result
        assert res.records[0].num_faults_raw == 56

    def test_later_batches_throttled(self, result):
        """Far-fault rate throttling: steady-state batches are far below 56.

        Batches at phase starts may hit the µTLB cap again (the worker slept
        between phases, leaving a burst window), but the batches that follow
        a busy driver are rate-throttled."""
        _, res = result
        later = [r.num_faults_raw for r in res.records[1:]]
        assert later
        assert min(later) < 56 / 2
        # Burst-sized batches only at the (at most two) later phase starts.
        assert sum(1 for x in later if x >= 56) <= 2

    def test_total_faults_match_accesses(self, result):
        """3 phases x (64 reads + 32 writes) for 32 threads = 288 accesses."""
        _, res = result
        assert res.total_faults == 288

    def test_single_utlb_origin(self, result):
        """One warp -> one SM -> every fault from SM 0."""
        _, res = result
        for r in res.records:
            assert r.sm_fault_counts[0] == r.num_faults_raw

    def test_arrival_clusters_tight(self, result):
        """Fig 4: faults of one batch arrive in rapid succession."""
        _, res = result
        for r in res.records:
            span = r.t_last_fault - r.t_first_fault
            assert span < r.duration

    def test_batches_ordered_in_time(self, result):
        _, res = result
        for prev, cur in zip(res.records, res.records[1:]):
            assert cur.t_start >= prev.t_end


class TestScoreboardSerialization:
    def test_writes_after_reads(self):
        """§3.2: no write fault can appear before the phase's 64 reads are
        fulfilled."""
        system = UvmSystem(titan_config(), trace=True)
        res = VecAddPageStride().run(system)
        a, b, c = system.allocations
        c_pages = set(c.pages())
        reads_done_batch = None
        first_write_batch = None
        seen_reads = 0
        for r in res.records:
            for _t, _kind, args in system.obs.flight.select("migrate"):
                if args[0] != r.batch_id:
                    continue
                _, _block, lo, hi, n = args
                if lo in c_pages and first_write_batch is None:
                    first_write_batch = r.batch_id
        # First write occurs strictly after the first batch (which holds
        # only reads capped at 56 < 64 prerequisites).
        assert first_write_batch is not None and first_write_batch >= 2

    def test_coalesced_needs_two_rounds_per_warp(self):
        """A coalescing vecadd warp needs at least two batches (§3.2)."""
        system = UvmSystem(titan_config())
        res = CoalescedVecAdd(num_warps=1, pages_per_warp=4).run(system)
        assert res.num_batches >= 2

    def test_coalesced_generates_type1_duplicates(self):
        system = UvmSystem(titan_config())
        res = CoalescedVecAdd(num_warps=4, pages_per_warp=4).run(system)
        assert sum(r.dup_same_utlb for r in res.records) > 0


class TestPrefetchInstructions:
    """Fig 5: prefetch escapes the µTLB cap and SM throttle."""

    def test_single_warp_fills_batch(self):
        system = UvmSystem(titan_config())
        res = PrefetchVectorKernel(pages_per_vector=100).run(system)
        assert max(r.num_faults_raw for r in res.records) == 256

    def test_overflow_dropped_not_reissued(self):
        system = UvmSystem(titan_config())
        res = PrefetchVectorKernel(pages_per_vector=100).run(system)
        # 300 prefetches, batch cap 256: the 44 dropped are never reissued.
        assert res.total_faults == 256
        assert sum(r.dropped_at_flush for r in res.records) == 44

    def test_prefetched_then_touched_no_refault(self):
        """Every page migrates exactly once: the demand accesses racing the
        in-flight prefetch faults deduplicate inside the batch."""
        system = UvmSystem(titan_config())
        res = PrefetchVectorKernel(pages_per_vector=60, touch_after=True).run(system)
        total_pages = 180
        assert sum(r.num_faults_unique for r in res.records) == total_pages
        assert sum(r.pages_migrated_h2d + r.pages_populated for r in res.records) == total_pages

    def test_below_cap_single_batch(self):
        system = UvmSystem(titan_config())
        res = PrefetchVectorKernel(pages_per_vector=50).run(system)
        assert res.num_batches == 1
        assert res.records[0].num_faults_raw == 150
