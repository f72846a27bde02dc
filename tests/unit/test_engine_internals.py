"""Unit tests for engine internals: throttle windows, staggering, requeue
paths, host-touch edge cases, and hint/eviction interplay."""

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.errors import DeadlockError, OutOfDeviceMemory
from repro.gpu.fault import AccessType
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.units import MB, PAGE_SIZE, PAGES_PER_VABLOCK


def make_system(gpu_mem_mb=16, num_sms=8, prefetch=False, **kw):
    cfg = default_config(prefetch_enabled=prefetch, **kw)
    cfg.gpu.num_sms = num_sms
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.cost_overrides = {"jitter_frac": 0.0}
    return UvmSystem(cfg)


class TestThrottleWindows:
    def test_burst_after_sleep(self):
        """The first batch after a sleeping driver reaches the µTLB cap."""
        system = make_system()
        alloc = system.managed_alloc(2 * MB)
        reads = [alloc.page(i) for i in range(100)]
        kernel = KernelLaunch("burst", [WarpProgram([Phase.of(reads)])])
        res = system.launch(kernel)
        assert res.records[0].num_faults_raw == system.config.gpu.utlb_outstanding_limit

    def test_window_quota_scales_with_service_time(self):
        """Longer batch servicing windows admit more faults per SM."""
        system = make_system()
        alloc = system.managed_alloc(4 * MB)
        system.host_touch(alloc)
        # Two phases per warp so the second round runs with a busy driver.
        programs = []
        for k in range(4):
            base = k * 256
            phases = [
                Phase.of([alloc.page(base + i) for i in range(128)]),
                Phase.of([alloc.page(base + 128 + i) for i in range(128)]),
            ]
            programs.append(WarpProgram(phases))
        res = system.launch(KernelLaunch("w", programs))
        later = [r.num_faults_raw for r in res.records[1:]]
        # Steady-state batches exceed the base per-round quota because the
        # window length (≈ previous service time) scales the quota.
        assert max(later) > system.config.gpu.sm_fault_rate_limit * 4

    def test_launch_stagger_spreads_starts(self):
        """Warps on the same SM start with a skew between waves."""
        system = make_system(num_sms=2)
        alloc = system.managed_alloc(2 * MB)
        programs = [
            WarpProgram([Phase.of([alloc.page(i)], compute_usec=0.0)])
            for i in range(8)
        ]
        kernel = KernelLaunch("stagger", programs, occupancy=4)
        system.launch(kernel)
        # All warps completed despite staggered ready times.
        assert system.engine.device.idle


class TestRequeuePaths:
    def test_flush_dropped_faults_reissue(self):
        """Faults flushed behind a tiny batch cap are reissued and served."""
        system = make_system(batch_size=4)
        alloc = system.managed_alloc(2 * MB)
        reads = [alloc.page(i) for i in range(64)]
        res = system.launch(KernelLaunch("f", [WarpProgram([Phase.of(reads)])]))
        pt = system.engine.device.page_table
        assert all(pt.is_resident(p) for p in reads)
        assert sum(r.dropped_at_flush for r in res.records) > 0

    def test_hw_buffer_overflow_recovers(self):
        """A 16-entry hardware buffer drops floods but the run completes."""
        cfg = default_config(prefetch_enabled=False)
        cfg.gpu.num_sms = 8
        cfg.gpu.memory_bytes = 16 * MB
        cfg.gpu.fault_buffer_entries = 16
        cfg.cost_overrides = {"jitter_frac": 0.0}
        system = UvmSystem(cfg)
        alloc = system.managed_alloc(2 * MB)
        reads = [alloc.page(i) for i in range(256)]
        programs = [
            WarpProgram([Phase.of(reads[i::4])]) for i in range(4)
        ]
        res = system.launch(KernelLaunch("flood", programs))
        pt = system.engine.device.page_table
        assert all(pt.is_resident(p) for p in reads)

    def test_page_in_two_warps_one_fault(self):
        """Same-µTLB same-page requests merge into one buffer entry."""
        system = make_system(num_sms=2)
        alloc = system.managed_alloc(PAGE_SIZE)
        programs = [
            WarpProgram([Phase.of([alloc.page(0)])]) for _ in range(2)
        ]
        # Both programs land on SM 0 and 1 (µTLB 0): the second request of
        # page 0 merges (or emits a spurious duplicate at the cadence).
        res = system.launch(KernelLaunch("merge", programs))
        assert sum(r.num_faults_raw for r in res.records) <= 2
        assert sum(r.num_faults_unique for r in res.records) == 1


class TestHostTouchEdges:
    def test_empty_touch_is_noop(self):
        system = make_system()
        t0 = system.clock.now
        system.engine.host_touch([])
        assert system.clock.now == t0

    def test_retouch_after_eviction_rearms_unmap(self):
        """CPU re-touch restores mappings: the next GPU touch pays unmap."""
        system = make_system(gpu_mem_mb=4)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        reads = list(alloc.pages(0, 64))
        system.launch(KernelLaunch("k1", [WarpProgram([Phase.of(reads)])]))
        first_unmaps = sum(r.unmap_calls for r in system.records)
        system.host_touch(alloc)  # CPU re-touches → remapped
        system.launch(KernelLaunch("k2", [WarpProgram([Phase.of(reads)])]))
        assert sum(r.unmap_calls for r in system.records) > first_unmaps

    def test_touch_migrates_only_resident(self):
        system = make_system()
        alloc = system.managed_alloc(2 * MB)
        system.launch(
            KernelLaunch("k", [WarpProgram([Phase.of(list(alloc.pages(0, 8)))])])
        )
        before_d2h = system.engine.device.copy_engine.bytes_d2h
        system.host_touch(alloc)
        moved = system.engine.device.copy_engine.bytes_d2h - before_d2h
        assert moved == 8 * PAGE_SIZE


class TestHintEvictionInterplay:
    def test_bulk_migrate_evicts_under_pressure(self):
        system = make_system(gpu_mem_mb=4)  # 2 chunks
        a = system.managed_alloc(2 * MB, "a")
        b = system.managed_alloc(2 * MB, "b")
        c = system.managed_alloc(2 * MB, "c")
        for alloc in (a, b, c):
            system.host_touch(alloc)
        system.mem_prefetch(a)
        system.mem_prefetch(b)
        record = system.mem_prefetch(c)  # must evict a
        assert record.evictions >= 1
        assert not system.engine.device.page_table.is_resident(a.page(0))

    def test_bulk_migrate_eviction_disabled_raises(self):
        system = make_system(gpu_mem_mb=4, eviction_enabled=False)
        a = system.managed_alloc(2 * MB)
        b = system.managed_alloc(2 * MB)
        c = system.managed_alloc(2 * MB)
        system.mem_prefetch(a)
        system.mem_prefetch(b)
        with pytest.raises(OutOfDeviceMemory):
            system.mem_prefetch(c)

    def test_read_mostly_block_eviction_keeps_host_copy(self):
        system = make_system(gpu_mem_mb=4)
        a = system.managed_alloc(2 * MB, "a")
        system.host_touch(a)
        system.mem_advise_read_mostly(a)
        system.mem_prefetch(a)
        # Force eviction of a's block.
        b = system.managed_alloc(2 * MB, "b")
        c = system.managed_alloc(2 * MB, "c")
        system.mem_prefetch(b)
        system.mem_prefetch(c)
        assert not system.engine.device.page_table.is_resident(a.page(0))
        # The duplicate host copy was never invalidated.
        assert system.engine.host_vm.has_valid_data(a.page(0))
        assert a.page(0) in system.engine.host_vm.mapped

    def test_accessed_by_pages_never_evicted(self):
        system = make_system(gpu_mem_mb=4)
        zero_copy = system.managed_alloc(2 * MB, "zc")
        system.host_touch(zero_copy)
        system.mem_advise_accessed_by(zero_copy)
        # Fill device memory with other data.
        for name in ("b", "c", "d"):
            alloc = system.managed_alloc(2 * MB, name)
            system.mem_prefetch(alloc)
        # The remote mapping is untouched by eviction churn.
        assert system.engine.device.page_table.is_resident(zero_copy.page(0))


class TestMultiKernelSequences:
    def test_warm_data_reused_across_kernels(self):
        system = make_system()
        alloc = system.managed_alloc(2 * MB)
        reads = list(alloc.pages(0, 64))
        r1 = system.launch(KernelLaunch("k1", [WarpProgram([Phase.of(reads)])]))
        r2 = system.launch(KernelLaunch("k2", [WarpProgram([Phase.of(reads)])]))
        assert r1.total_faults > 0
        assert r2.total_faults == 0  # warm: everything hits

    def test_many_small_kernels(self):
        system = make_system()
        alloc = system.managed_alloc(4 * MB)
        for i in range(16):
            reads = list(alloc.pages(i * 32, (i + 1) * 32))
            res = system.launch(
                KernelLaunch(f"k{i}", [WarpProgram([Phase.of(reads)])])
            )
            assert res.num_batches >= 1
        assert len(system.records) >= 16


class TestWakeAndBusySms:
    """Wake order and the per-SM window and compute accounting of rounds."""

    def test_warps_unblock_in_last_missing_page_order(self, monkeypatch):
        from repro.core.driver import ServiceOutcome
        from repro.gpu.warp import WarpState

        system = make_system()
        engine = system.engine

        def blocked_warp(uid, reads):
            warp = WarpState(WarpProgram([Phase.of(reads)]), uid=uid, sm_id=0)
            warp.advance(resident=set())
            return warp

        a = blocked_warp(1, [1, 2])
        b = blocked_warp(2, [3])
        c = blocked_warp(3, [2, 4])
        d = blocked_warp(4, [5, 9])
        engine._waiters.update(
            {1: [a], 2: [a, c], 3: [b], 4: [c], 5: [d], 9: [d]}
        )
        woken = []
        monkeypatch.setattr(engine, "_advance_warp", woken.append)
        engine._apply_outcome(
            ServiceOutcome(record=None, serviced_pages=[4, 2, 3, 1, 5])
        )
        # c's last missing page (2) comes first, then b's (3), then a's (1).
        assert woken == [c, b, a]
        assert d.missing == {9} and engine._waiters == {9: [d]}
        # Unblocking retires the stage: the next advance finishes the warp
        # even though its pages are not resident any more.
        for warp in woken:
            warp.advance(resident=set())
            assert warp.finished

    def test_warp_retiring_on_an_idle_sm_counts_its_compute(self):
        system = make_system(num_sms=2)
        alloc = system.managed_alloc(2 * MB)
        # SM 0's only warp retires while the batch that serviced its page is
        # applied; SM 1's warp keeps the launch going for many more batches.
        short = WarpProgram([Phase.of([alloc.page(0)], compute_usec=7.0)])
        long = WarpProgram(
            [Phase.of([alloc.page(i)], compute_usec=1.0) for i in range(1, 21)]
        )
        res = system.launch(KernelLaunch("idle-sm", [short, long]))
        assert res.num_batches > 2
        assert res.compute_time_usec == pytest.approx(7.0 + 20.0)

    def test_sm_first_used_by_a_later_launch_gets_the_window_quota(self):
        cfg = default_config(prefetch_enabled=False)
        cfg.gpu.num_sms = 4
        cfg.gpu.memory_bytes = 16 * MB
        # No launch skew, so every warp is ready in the launch's first round.
        cfg.cost_overrides = {"jitter_frac": 0.0, "launch_stagger_usec": 0.0}
        system = UvmSystem(cfg)
        limit = cfg.gpu.utlb_outstanding_limit
        alloc = system.managed_alloc(4 * MB)
        first = WarpProgram([Phase.of([alloc.page(0)])])
        system.launch(KernelLaunch("sm0-only", [first]))
        # Programs land round-robin: SMs 0 and 1 share µTLB 0, and SM 2 is
        # the only SM of µTLB 1, busy for the first time in this launch.
        programs = [
            WarpProgram([Phase.of([alloc.page(1 + k * 128 + i) for i in range(100)])])
            for k in range(3)
        ]
        res = system.launch(KernelLaunch("three-sms", programs))
        # The launch opens with a burst window: each µTLB fills to its cap,
        # SMs 0 and 1 taking turns on theirs.
        half = limit // 2
        assert res.records[0].sm_fault_counts.tolist() == [half, half, limit, 0]
