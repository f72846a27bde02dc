"""System-level invariants the engine must preserve on any workload."""

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.errors import DeadlockError
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.units import MB, PAGE_SIZE
from repro.workloads import CuFft, GaussSeidel, StreamTriad


def make_system(prefetch=False, gpu_mem_mb=16, **kw):
    cfg = default_config(prefetch_enabled=prefetch, **kw)
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    return UvmSystem(cfg)


class TestCompletionInvariants:
    def run_and_check(self, system, workload):
        res = workload.run(system)
        # 1. Clock is monotonic and nonzero.
        assert system.clock.now > 0
        # 2. Every batch interval is well-formed and ordered.
        records = res.records
        for r in records:
            assert r.t_end >= r.t_start
            assert r.num_faults_unique <= r.num_faults_raw
            assert r.num_faults_unique == 0 or r.num_vablocks > 0
        # 3. Resident pages fit device memory.
        assert (
            len(system.engine.device.page_table)
            <= system.config.gpu.memory_bytes // PAGE_SIZE
        )
        # 4. Block residency agrees with the page table.
        pt = system.engine.device.page_table
        for block in system.driver.vablocks.blocks():
            for page in block.resident_pages:
                assert pt.is_resident(page)
        # 5. Chunk accounting agrees with block allocation.
        allocated = sum(
            1 for b in system.driver.vablocks.blocks() if b.is_gpu_allocated
        )
        assert allocated == system.engine.device.chunks.used_chunks
        return res

    def test_stream_invariants(self):
        self.run_and_check(make_system(), StreamTriad(nbytes=2 * MB))

    def test_stream_oversubscribed_invariants(self):
        self.run_and_check(make_system(gpu_mem_mb=4), StreamTriad(nbytes=2 * MB))

    def test_fft_invariants(self):
        self.run_and_check(make_system(), CuFft(nbytes=2 * MB, num_programs=8))

    def test_gauss_seidel_prefetch_invariants(self):
        self.run_and_check(
            make_system(prefetch=True), GaussSeidel(n=512, num_programs=4, band_rows=8)
        )

    def test_all_touched_pages_eventually_resident_or_evicted(self):
        system = make_system()
        alloc = system.managed_alloc(8 * PAGE_SIZE)
        kernel = KernelLaunch(
            "touch-all",
            [WarpProgram([Phase.of(list(alloc.pages()))])],
        )
        system.launch(kernel)
        pt = system.engine.device.page_table
        assert all(pt.is_resident(p) for p in alloc.pages())


class TestWarpCompletion:
    def test_every_warp_retires(self):
        system = make_system()
        res = StreamTriad(nbytes=2 * MB).run(system)
        assert system.engine.device.idle
        assert all(not sm.active and not sm.queued for sm in system.engine.device.sms)

    def test_fault_conservation(self):
        """Raw faults fetched = pushed - flush-dropped - residual buffer."""
        system = make_system()
        res = StreamTriad(nbytes=2 * MB).run(system)
        buf = system.engine.device.fault_buffer
        fetched = sum(r.num_faults_raw for r in res.records)
        assert fetched == buf.total_pushed - buf.total_flush_dropped - len(buf)

    def test_occupancy_limits_held(self):
        system = make_system()
        programs = [WarpProgram([Phase.of([i])]) for i in range(64)]
        alloc = system.managed_alloc(64 * PAGE_SIZE)
        programs = [
            WarpProgram([Phase.of([alloc.page(i)])]) for i in range(64)
        ]
        kernel = KernelLaunch("many", programs, occupancy=2)
        res = system.launch(kernel)
        assert res.num_warps == 64
        assert system.engine.device.idle


class TestDeadlockDetection:
    def test_unbacked_access_is_detected(self):
        system = make_system()
        # A program touching a page outside any allocation: the driver
        # raises InvalidAccess when the fault is serviced.
        from repro.errors import InvalidAccess

        kernel = KernelLaunch("bad", [WarpProgram([Phase.of([10_000_000])])])
        with pytest.raises(InvalidAccess):
            system.launch(kernel)

    def test_round_lost_to_utlb_stalls_is_retried(self, monkeypatch):
        """A round whose every issuing SM draws an injected µTLB stall issues
        nothing, and no warp waits on compute: the stall lasts one replay
        window, so the engine retries the round instead of raising
        DeadlockError."""
        cfg = default_config(prefetch_enabled=False)
        cfg.gpu.num_sms = 8
        cfg.gpu.memory_bytes = 16 * MB
        cfg.inject.enabled = True
        cfg.inject.sites = {"utlb.stall": {"rate": 0.5}}
        system = UvmSystem(cfg)
        alloc = system.managed_alloc(4 * PAGE_SIZE)
        # One warp faulting twice: the stall hits its second issuance, in a
        # round that activates nothing.
        stalls = iter([False, True])
        monkeypatch.setattr(
            system.engine.injector,
            "fire",
            lambda site: site == "utlb.stall" and next(stalls, False),
        )
        kernel = KernelLaunch(
            "stalled", [WarpProgram([Phase.of([alloc.page(0)]), Phase.of([alloc.page(1)])])]
        )
        res = system.launch(kernel)
        assert res.num_batches == 2
        assert next(stalls, None) is None  # the stall was drawn

    def test_stall_only_chaos_run_completes(self):
        """4 MiB stream under µTLB stalls alone: the shape that used to die
        with a false DeadlockError."""
        cfg = default_config()
        cfg.gpu.num_sms = 8
        cfg.gpu.memory_bytes = 4 * MB
        cfg.inject.enabled = True
        cfg.inject.sites = {"utlb.stall": {"rate": 0.25}}
        system = UvmSystem(cfg)
        StreamTriad().run(system)
        assert system.engine.device.idle
        assert system.engine.injector.summary()["sites"]["utlb.stall"]["fired"] > 0

    def test_empty_kernel_completes(self):
        system = make_system()
        res = system.launch(KernelLaunch("empty", []))
        assert res.num_batches == 0
        assert res.kernel_time_usec == 0.0

    def test_no_fault_kernel_completes(self):
        system = make_system()
        alloc = system.managed_alloc(4 * PAGE_SIZE)
        # Pre-fault the pages, then run a kernel that only hits.
        k1 = KernelLaunch("warm", [WarpProgram([Phase.of(list(alloc.pages()))])])
        system.launch(k1)
        k2 = KernelLaunch(
            "hits", [WarpProgram([Phase.of(list(alloc.pages()), compute_usec=5.0)])]
        )
        res = system.launch(k2)
        assert res.num_batches == 0
        assert res.kernel_time_usec > 0  # compute still takes time


class TestCheckpointHoldsLiveState:
    """A checkpoint costs what a restart needs: live warps only, and each
    launch's immutable programs pickled once."""

    def test_registry_holds_exactly_the_active_warps(self):
        system = make_system()
        mismatched = []

        def hook(engine, batch_id):
            active = {w.uid for sm in engine.device.sms for w in sm.active}
            if set(engine._warps) != active:
                mismatched.append(batch_id)

        system.engine._batch_hooks.append(hook)
        for _ in range(2):
            StreamTriad(nbytes=2 * MB).run(system)
        assert len(system.records) > 0
        assert not mismatched, f"retired warps still registered at {mismatched}"
        assert system.engine._warps == {}

    def test_launch_start_state_does_not_grow_with_kernels_run(self):
        system = make_system()
        alloc = system.managed_alloc(16 * PAGE_SIZE)
        kernel = KernelLaunch(
            "repeat",
            [WarpProgram([Phase.of([alloc.page(i)], compute_usec=1.0)]) for i in range(16)],
        )
        sizes = []
        for _ in range(5):
            sizes.append(len(system.engine.checkpoint()._blob))
            system.launch(kernel)
        # The first launch faults the pages in; the later ones only hit, so
        # nothing but retired warps could make the state grow.
        assert len(set(sizes[1:])) == 1, sizes

    def test_captures_in_one_launch_share_the_program_pickle(self):
        system = make_system()
        ckpts = {}

        def hook(engine, batch_id):
            if batch_id in (1, 3):
                ckpts[batch_id] = engine.checkpoint()

        system.engine._batch_hooks.append(hook)
        StreamTriad(nbytes=2 * MB).run(system)
        assert ckpts[1]._table.blob is ckpts[3]._table.blob
        # A restore installs the checkpoint's table, so it is not re-pickled.
        ckpts[1].restore_into(system.engine)
        assert system.engine.checkpoint()._table.blob is ckpts[1]._table.blob

        # Launches that submit the same program objects share it too.
        system = make_system()
        alloc = system.managed_alloc(16 * PAGE_SIZE)
        programs = [
            WarpProgram([Phase.of([alloc.page(i)], compute_usec=1.0)]) for i in range(16)
        ]
        blobs = {}

        def first_capture(engine, batch_id):
            blobs.setdefault(engine._progress.name, engine.checkpoint()._table.blob)

        system.engine._batch_hooks.append(first_capture)
        for cycle in range(2):
            system.host_touch(alloc)  # the pages fault again in each launch
            system.launch(KernelLaunch(f"cycle{cycle}", programs))
        assert blobs["cycle0"] is blobs["cycle1"]

    def test_program_outside_the_launch_pickles_by_value(self):
        system = make_system()
        program = WarpProgram([Phase.of([1, 2])], label="enqueued by hand")
        sm = system.engine.device.sms[0]
        sm.enqueue(program)
        ckpt = system.engine.checkpoint()
        sm.queued.clear()
        ckpt.restore_into(system.engine)
        (restored,) = system.engine.device.sms[0].queued
        assert restored == program and restored is not program
