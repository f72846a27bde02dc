"""Integration tests for §5: prefetching, oversubscription, and their
combination (Figs 12-17, Table 4)."""

import numpy as np
import pytest

from repro.analysis.timeseries import eviction_groups
from repro.api import UvmSystem
from repro.config import default_config
from repro.units import MB, PAGES_PER_VABLOCK
from repro.workloads import Dgemm, GaussSeidel, Sgemm, StreamTriad


def make_system(prefetch=False, gpu_mem_mb=64, trace=False, **kw):
    cfg = default_config(prefetch_enabled=prefetch, **kw)
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    return UvmSystem(cfg, trace=trace)


class TestOversubscription:
    def test_in_core_never_evicts(self):
        system = make_system()
        res = StreamTriad(nbytes=8 * MB).run(system)  # 24 MB < 64 MB
        assert sum(r.evictions for r in res.records) == 0

    def test_oversubscribed_evicts(self):
        system = make_system(gpu_mem_mb=16)
        res = StreamTriad(nbytes=8 * MB).run(system)  # 24 MB > 16 MB
        assert sum(r.evictions for r in res.records) > 0

    def test_memory_budget_respected(self):
        """Resident pages never exceed device capacity."""
        system = make_system(gpu_mem_mb=16)
        res = StreamTriad(nbytes=8 * MB).run(system)
        capacity_pages = 16 * MB // 4096
        assert len(system.engine.device.page_table) <= capacity_pages
        assert system.engine.device.chunks.used_chunks <= 8

    def test_eviction_batches_cost_more(self):
        """Fig 12: batches containing evictions are slower on average."""
        system = make_system(gpu_mem_mb=16)
        res = StreamTriad(nbytes=8 * MB, sweeps=2).run(system)
        groups = eviction_groups(res.records)
        no_evict = np.mean([r.duration for r in groups.get(0, [])])
        with_evict = np.mean(
            [r.duration for k, recs in groups.items() if k > 0 for r in recs]
        )
        assert with_evict > no_evict

    def test_eviction_preserves_data_on_host(self):
        system = make_system(gpu_mem_mb=16)
        StreamTriad(nbytes=8 * MB).run(system)
        host_vm = system.engine.host_vm
        pt = system.engine.device.page_table
        # Every input page is valid somewhere (host copy or device copy).
        for alloc in system.allocations[1:]:  # b, c were host-initialized
            for page in alloc.pages():
                assert host_vm.has_valid_data(page) or pt.is_resident(page)

    def test_lru_evicts_earliest_allocated(self):
        """Fig 16c/17c: dense sweeps evict in allocation order."""
        system = make_system(gpu_mem_mb=16, trace=True)
        StreamTriad(nbytes=8 * MB).run(system)
        flight = system.obs.flight
        evicts = [args[1] for _t, _kind, args in flight.select("evict")]
        migrates = []
        for _t, _kind, args in flight.select("migrate"):
            if args[1] not in migrates:
                migrates.append(args[1])
        # First evicted block is among the first allocated blocks.
        assert evicts[0] in migrates[:4]

    def test_refault_after_eviction_skips_unmap(self):
        """Fig 13 levels: second sweep pages blocks back without unmap."""
        system = make_system(gpu_mem_mb=16)
        res = StreamTriad(nbytes=8 * MB, sweeps=2).run(system)
        recs = res.records
        # Late batches (second sweep refaults) should include migrating
        # batches with zero unmap time.
        late = recs[len(recs) // 2 :]
        assert any(
            r.pages_migrated_h2d > 0 and r.time_unmap == 0.0 for r in late
        )


class TestPrefetching:
    def test_prefetch_eliminates_most_batches(self):
        """Fig 14: ~90 % fewer batches with prefetching."""
        off = Sgemm(n=1024, tile=256).run(make_system(prefetch=False))
        on = Sgemm(n=1024, tile=256).run(make_system(prefetch=True))
        assert on.num_batches < 0.35 * off.num_batches

    def test_prefetch_improves_total_time(self):
        off = Sgemm(n=1024, tile=256).run(make_system(prefetch=False))
        on = Sgemm(n=1024, tile=256).run(make_system(prefetch=True))
        assert on.kernel_time_usec < off.kernel_time_usec

    def test_prefetch_cannot_eliminate_dma_batches(self):
        """§5.2: compulsory first-access DMA batches survive prefetching."""
        on = Sgemm(n=1024, tile=256).run(make_system(prefetch=True))
        dma_blocks = sum(r.new_dma_blocks for r in on.records)
        # Every touched block (3 matrices x 4 MiB = 6 blocks) paid its
        # compulsory DMA-state batch despite prefetching.
        assert dma_blocks >= 3 * (1024 * 1024 * 4) // (2 * MB)

    def test_prefetch_respects_block_boundary(self):
        """The prefetcher never maps pages of untouched blocks."""
        system = make_system(prefetch=True)
        alloc = system.managed_alloc(8 * MB, "data")
        system.host_touch(alloc)
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        kernel = KernelLaunch(
            "one-block", [WarpProgram([Phase.of([alloc.page(0)])])]
        )
        system.launch(kernel)
        pt = system.engine.device.page_table
        for page in alloc.pages(PAGES_PER_VABLOCK):
            assert not pt.is_resident(page)

    def test_prefetch_speedup_under_modest_oversubscription(self):
        """Table 4: prefetching still wins at ~19 % oversubscription."""
        off = GaussSeidel(n=1024, sweeps=1).run(make_system(prefetch=False, gpu_mem_mb=14))
        on = GaussSeidel(n=1024, sweeps=1).run(make_system(prefetch=True, gpu_mem_mb=14))
        assert on.kernel_time_usec < off.kernel_time_usec

    def test_batch_time_below_kernel_time(self):
        """Table 4: aggregate batch time excludes GPU compute."""
        res = GaussSeidel(n=1024).run(make_system(prefetch=True))
        assert res.batch_time_usec < res.kernel_time_usec


class TestEvictionPlusPrefetch:
    @pytest.fixture(scope="class")
    def dgemm_run(self):
        system = make_system(prefetch=True, gpu_mem_mb=16)
        return Dgemm(n=1024, tile=256).run(system)  # 24 MB data vs 16 MB

    def test_all_four_populations_present(self, dgemm_run):
        """Fig 15: prefetch, eviction, unmap, and DMA batches coexist."""
        recs = dgemm_run.records
        assert any(r.pages_prefetched > 0 for r in recs)
        assert any(r.evictions > 0 for r in recs)
        assert any(r.unmap_calls > 0 for r in recs)
        assert any(r.new_dma_blocks > 0 for r in recs)

    def test_eviction_interplay_with_prefetch(self, dgemm_run):
        """§5.3: prefetched-then-evicted data pays both costs."""
        assert sum(r.pages_evicted for r in dgemm_run.records) > 0
        assert sum(r.pages_prefetched for r in dgemm_run.records) > 0

    def test_result_completes(self, dgemm_run):
        assert dgemm_run.num_batches > 0
        assert dgemm_run.kernel_time_usec > 0
