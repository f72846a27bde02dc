"""Unit tests for µTLB merge/cap semantics and SM throttle accounting."""

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.utlb import UTlb
from repro.gpu.warp import Phase, WarpProgram
from repro.units import MB


class TestUTlbCapacity:
    def test_new_pages_take_slots(self):
        tlb = UTlb(0, limit=3)
        for page in (1, 2, 3):
            assert tlb.request(page)
        assert tlb.outstanding == 3 == tlb.limit

    def test_available_decrements(self):
        tlb = UTlb(0, limit=56)
        tlb.request(1)
        assert tlb.limit - tlb.outstanding == 55

    def test_replay_clears_everything(self):
        tlb = UTlb(0, limit=4)
        tlb.request(1)
        tlb.request(2)
        tlb.replay()
        assert tlb.outstanding == 0
        assert not tlb.pending_pages
        assert tlb.total_replays == 1

    def test_paper_limit_default_matches(self):
        # The cap measured in §3.2 is 56.
        tlb = UTlb(0, limit=56)
        for page in range(56):
            tlb.request(page)
        assert tlb.outstanding == tlb.limit


class TestUTlbMerging:
    def test_same_page_merges(self):
        tlb = UTlb(0, limit=8)
        assert tlb.request(5) is True  # new entry
        assert tlb.request(5) is False  # merged
        assert tlb.outstanding == 1
        assert tlb.total_merged == 1

    def test_spurious_reissue_cadence(self):
        tlb = UTlb(0, limit=8)
        tlb.request(5)
        emitted = [tlb.request(5) for _ in range(UTlb.SPURIOUS_PERIOD * 2)]
        # Every SPURIOUS_PERIOD-th merge emits a duplicate entry.
        assert emitted.count(True) == 2
        assert tlb.total_spurious == 2

    def test_merge_does_not_consume_slot(self):
        tlb = UTlb(0, limit=2)
        tlb.request(1)
        tlb.request(2)
        assert tlb.outstanding == tlb.limit
        # Merge still possible with no slot free.
        assert tlb.request(1) in (True, False)
        assert tlb.outstanding == 2

    def test_after_replay_page_is_new_again(self):
        tlb = UTlb(0, limit=8)
        tlb.request(5)
        tlb.replay()
        assert tlb.request(5) is True
        assert tlb.outstanding == 1


class TestSmScheduling:
    def make_sm(self, occupancy=2):
        return StreamingMultiprocessor(0, 0, rate_limit=4, occupancy_limit=occupancy)

    def prog(self):
        return WarpProgram([Phase.of([1])])

    def test_enqueue_and_activate(self):
        sm = self.make_sm(occupancy=2)
        for _ in range(3):
            sm.enqueue(self.prog())
        uid = iter(range(100))
        activated = sm.activate_pending(lambda: next(uid))
        assert len(activated) == 2
        assert len(sm.queued) == 1

    def test_activate_respects_occupancy(self):
        sm = self.make_sm(occupancy=1)
        sm.enqueue(self.prog())
        sm.enqueue(self.prog())
        activated = sm.activate_pending(lambda: 1)
        assert len(activated) == 1

    def test_retire_frees_slot(self):
        sm = self.make_sm(occupancy=1)
        sm.enqueue(self.prog())
        sm.enqueue(self.prog())
        uid = iter(range(100))
        [warp] = sm.activate_pending(lambda: next(uid))
        sm.retire(warp)
        assert len(sm.activate_pending(lambda: next(uid))) == 1

    def test_idle(self):
        sm = self.make_sm()
        assert sm.idle
        sm.enqueue(self.prog())
        assert not sm.idle


class TestSmThrottle:
    """Each engine round opens a window: a busy SM's budget becomes the
    window's quota, and every fault it issues spends one token."""

    RATE = 4

    def run_rounds(self, num_pages, burst=False, rounds=1):
        cfg = default_config(prefetch_enabled=False)
        cfg.gpu.num_sms = 2
        cfg.gpu.sm_fault_rate_limit = self.RATE
        system = UvmSystem(cfg)
        alloc = system.managed_alloc(2 * MB)
        sm = system.engine.device.sms[0]
        sm.enqueue(WarpProgram([Phase.of([alloc.page(i) for i in range(num_pages)])]))
        for _ in range(rounds):
            # A zero-length window: the steady quota is the bare rate.
            system.engine._window_start = system.clock.now
            system.engine._gpu_round(burst)
        return sm

    def test_steady_window_budget(self):
        sm = self.run_rounds(num_pages=2)
        assert sm.rate_limit == self.RATE
        assert sm.budget == self.RATE - 2

    def test_burst_window_budget(self):
        sm = self.run_rounds(num_pages=100, burst=True)
        assert sm.rate_limit == 56
        assert sm.total_faults == 56  # the µTLB cap, not the rate

    def test_consume_budget_granted(self):
        sm = self.run_rounds(num_pages=3)
        assert sm.total_faults == 3
        assert sm.budget == 1

    def test_consume_budget_clamped(self):
        sm = self.run_rounds(num_pages=10)
        assert sm.total_faults == self.RATE
        assert sm.budget == 0

    def test_total_faults_counted(self):
        sm = self.run_rounds(num_pages=10, rounds=2)
        assert sm.total_faults == 2 * self.RATE
