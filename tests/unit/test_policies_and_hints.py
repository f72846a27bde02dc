"""Unit tests for pluggable eviction/prefetch policies and the hint APIs."""

import pytest

from repro.core.eviction import (
    AccessCounterEvictionPolicy,
    EVICTION_POLICIES,
    FifoEvictionPolicy,
    LruEvictionPolicy,
    RandomEvictionPolicy,
    make_eviction_policy,
)
from repro.core.prefetch import (
    PREFETCH_POLICIES,
    FullBlockPrefetcher,
    RegionOnlyPrefetcher,
    SequentialPrefetcher,
    make_prefetcher,
)
from repro.errors import ConfigError
from repro.units import MB, PAGE_SIZE, PAGES_PER_REGION, PAGES_PER_VABLOCK
from tests.blocks import make_block as full_block, page_table_with

EMPTY = page_table_with()


class TestEvictionPolicyRegistry:
    def test_all_registered(self):
        assert set(EVICTION_POLICIES) == {"lru", "fifo", "random", "access-counter"}

    def test_factory(self):
        assert isinstance(make_eviction_policy("fifo"), FifoEvictionPolicy)
        assert isinstance(make_eviction_policy("lru"), LruEvictionPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_eviction_policy("mru")


class TestFifoPolicy:
    def test_faults_do_not_refresh(self):
        fifo = FifoEvictionPolicy()
        for b in (1, 2, 3):
            fifo.on_gpu_allocated(b)
        fifo.on_fault_service(1)
        assert fifo.pick_victim(set()) == 1  # unlike LRU

    def test_lru_differs(self):
        lru = LruEvictionPolicy()
        for b in (1, 2, 3):
            lru.on_gpu_allocated(b)
        lru.on_fault_service(1)
        assert lru.pick_victim(set()) == 2


class TestRandomPolicy:
    def test_deterministic_with_seed(self):
        picks = []
        for _ in range(2):
            rnd = RandomEvictionPolicy(seed=7)
            for b in range(10):
                rnd.on_gpu_allocated(b)
            picks.append([rnd.pick_victim(set()) for _ in range(5)])
        assert picks[0] == picks[1]

    def test_respects_exclusion(self):
        rnd = RandomEvictionPolicy()
        rnd.on_gpu_allocated(1)
        rnd.on_gpu_allocated(2)
        assert rnd.pick_victim({1}) == 2

    def test_empty_returns_none(self):
        assert RandomEvictionPolicy().pick_victim(set()) is None


class TestAccessCounterPolicy:
    def test_hits_protect_blocks(self):
        ac = AccessCounterEvictionPolicy()
        for b in (1, 2):
            ac.on_gpu_allocated(b)
        for _ in range(5):
            ac.on_access_hit(1)
        assert ac.pick_victim(set()) == 2  # block 1 is hot

    def test_counters_age_on_eviction(self):
        ac = AccessCounterEvictionPolicy()
        for b in (1, 2, 3):
            ac.on_gpu_allocated(b)
        for _ in range(8):
            ac.on_access_hit(1)
        victim = ac.pick_victim(set())
        ac.on_evicted(victim)
        assert ac._counters[1] == pytest.approx(4.5)  # (1+8) * 0.5

    def test_base_lru_ignores_hits(self):
        lru = LruEvictionPolicy()
        lru.on_gpu_allocated(1)
        lru.on_gpu_allocated(2)
        lru.on_access_hit(1)  # invisible to the real driver
        assert lru.pick_victim(set()) == 1


class TestPrefetchPolicyRegistry:
    def test_all_registered(self):
        assert set(PREFETCH_POLICIES) == {
            "density-tree",
            "region-only",
            "sequential",
            "full-block",
        }

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_prefetcher("oracle")


class TestPrefetchVariants:
    def test_region_only_is_exactly_the_upgrade(self):
        block = full_block()
        out = RegionOnlyPrefetcher().expand(block, [0], EMPTY)
        assert out == set(range(1, PAGES_PER_REGION))

    def test_sequential_next_n(self):
        block = full_block()
        out = SequentialPrefetcher(distance=4).expand(block, [10], EMPTY)
        assert out == {11, 12, 13, 14}

    def test_sequential_stops_at_block_edge(self):
        block = full_block()
        last = PAGES_PER_VABLOCK - 1
        out = SequentialPrefetcher(distance=8).expand(block, [last], EMPTY)
        assert out == set()

    def test_full_block_pulls_everything(self):
        block = full_block()
        out = FullBlockPrefetcher().expand(block, [5], EMPTY)
        assert len(out) == PAGES_PER_VABLOCK - 1

    def test_variants_never_leave_block(self):
        block = full_block(block_id=3)
        for name in PREFETCH_POLICIES:
            pf = make_prefetcher(name)
            out = pf.expand(block, [block.first_page], EMPTY)
            assert out <= set(block.valid_page_ids()), name

    def test_variants_skip_mapped_pages(self):
        block = full_block()
        mapped = set(range(1, 8))
        for name in PREFETCH_POLICIES:
            out = make_prefetcher(name).expand(block, [0], page_table_with(mapped))
            assert not out & mapped, name

    def test_sequential_distance_validated(self):
        with pytest.raises(ValueError):
            SequentialPrefetcher(distance=0)


class TestPolicyConfigWiring:
    def test_driver_uses_configured_policies(self, system_factory):
        system = system_factory(
            prefetch_policy="sequential", eviction_policy="fifo"
        )
        assert system.driver.prefetcher.name == "sequential"
        assert system.driver.eviction.name == "fifo"

    def test_invalid_policy_rejected(self, system_factory):
        with pytest.raises(ConfigError):
            system_factory(eviction_policy="mru")
        with pytest.raises(ConfigError):
            system_factory(prefetch_policy="oracle")


class TestHintApis:
    def test_mem_prefetch_no_later_faults(self, system_factory):
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        record = system.mem_prefetch(alloc)
        assert record.hinted
        assert record.pages_migrated_h2d == alloc.num_pages
        kernel = KernelLaunch("k", [WarpProgram([Phase.of(list(alloc.pages(0, 64)))])])
        result = system.launch(kernel)
        assert result.total_faults == 0

    def test_mem_prefetch_cheaper_than_faulting(self, system_factory):
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        faulting = system_factory(prefetch_enabled=False)
        a1 = faulting.managed_alloc(2 * MB)
        faulting.host_touch(a1)
        k = KernelLaunch("k", [WarpProgram([Phase.of(list(a1.pages()))])])
        fault_result = faulting.launch(k)

        hinted = system_factory(prefetch_enabled=False)
        a2 = hinted.managed_alloc(2 * MB)
        hinted.host_touch(a2)
        record = hinted.mem_prefetch(a2)
        assert record.duration < fault_result.batch_time_usec

    def test_mem_prefetch_partial_range(self, system_factory):
        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.mem_prefetch(alloc, 0, 10)
        pt = system.engine.device.page_table
        assert pt.is_resident(alloc.page(9))
        assert not pt.is_resident(alloc.page(10))

    def test_read_mostly_duplicates(self, system_factory):
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        system.mem_advise_read_mostly(alloc)
        kernel = KernelLaunch("r", [WarpProgram([Phase.of([alloc.page(0)])])])
        system.launch(kernel)
        host_vm = system.engine.host_vm
        # Duplication: host mapping and data remain intact.
        assert alloc.page(0) in host_vm.mapped
        assert host_vm.has_valid_data(alloc.page(0))
        assert system.engine.device.page_table.is_resident(alloc.page(0))

    def test_read_mostly_collapses_on_write(self, system_factory):
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        system.mem_advise_read_mostly(alloc)
        kernel = KernelLaunch("w", [WarpProgram([Phase.of(writes=[alloc.page(0)])])])
        result = system.launch(kernel)
        host_vm = system.engine.host_vm
        assert alloc.page(0) not in host_vm.mapped  # collapse unmapped
        assert not host_vm.has_valid_data(alloc.page(0))
        block = system.driver.vablocks.get_for_page(alloc.page(0))
        assert not block.read_mostly
        assert any(r.unmap_calls for r in result.records)

    def test_accessed_by_zero_copy(self, system_factory):
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        record = system.mem_advise_accessed_by(alloc)
        assert record.dma_mappings_created == alloc.num_pages
        kernel = KernelLaunch("z", [WarpProgram([Phase.of(list(alloc.pages(0, 32)))])])
        result = system.launch(kernel)
        assert result.total_faults == 0
        # Zero-copy: no device memory consumed.
        assert system.engine.device.chunks.used_chunks == 0

    def test_accessed_by_survives_host_touch(self, system_factory):
        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.mem_advise_accessed_by(alloc)
        system.host_touch(alloc)  # must not "migrate back" remote mappings
        assert system.engine.device.page_table.is_resident(alloc.page(0))
        assert alloc.page(0) in system.engine.device.page_table.remote

    def test_hinted_records_flagged_in_log(self, system_factory):
        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.mem_prefetch(alloc)
        assert any(r.hinted for r in system.records)
