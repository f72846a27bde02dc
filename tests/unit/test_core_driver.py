"""Unit tests for the UvmDriver servicing path, driven by hand-crafted
faults injected straight into the hardware buffer."""

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.errors import InvalidAccess, OutOfDeviceMemory
from repro.gpu.fault import AccessType, Fault
from repro.units import MB, PAGES_PER_VABLOCK, PAGE_SIZE
from tests.property.fault_oracle import write_window


def make_system(gpu_mem_mb=8, prefetch=False, trace=False, **driver_kw):
    cfg = default_config(prefetch_enabled=prefetch, **driver_kw)
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.cost_overrides = {"jitter_frac": 0.0}
    return UvmSystem(cfg, trace=trace)


def inject(system, pages, access=AccessType.READ, sm=0):
    utlb = system.engine.device.config.utlb_of_sm(sm)
    faults = [Fault(page, access, sm, utlb, 0, float(i)) for i, page in enumerate(pages)]
    assert all(write_window(system.engine.device.gmmu, faults))


def service(system, slept=False):
    return system.engine.driver.service_next_batch(slept=slept)


class TestBasicService:
    def test_faulted_pages_become_resident(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(0), alloc.page(3)])
        outcome = service(system)
        assert set(outcome.serviced_pages) == {alloc.page(0), alloc.page(3)}
        assert system.engine.device.page_table.is_resident(alloc.page(0))

    def test_record_counts(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(0), alloc.page(0), alloc.page(1)])
        outcome = service(system)
        r = outcome.record
        assert r.num_faults_raw == 3
        assert r.num_faults_unique == 2
        assert r.duplicate_count == 1
        assert r.num_vablocks == 1

    def test_clock_advances_by_service_time(self):
        system = make_system()
        alloc = system.managed_alloc(PAGE_SIZE)
        inject(system, [alloc.page(0)])
        t0 = system.clock.now
        outcome = service(system)
        assert system.clock.now - t0 == pytest.approx(outcome.record.duration)
        assert outcome.record.duration == pytest.approx(outcome.record.service_time)

    def test_wake_cost_only_when_slept(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(0)])
        slept_rec = service(system, slept=True).record
        inject(system, [alloc.page(1)])
        busy_rec = service(system, slept=False).record
        assert slept_rec.time_wake > 0
        assert busy_rec.time_wake == 0

    def test_unregistered_page_raises(self):
        system = make_system()
        system.managed_alloc(PAGE_SIZE)
        inject(system, [10_000_000])
        with pytest.raises(InvalidAccess):
            service(system)

    def test_flush_drops_beyond_batch(self):
        system = make_system(batch_size=2)
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(i) for i in range(5)])
        outcome = service(system)
        assert outcome.record.num_faults_raw == 2
        assert outcome.record.dropped_at_flush == 3
        assert len(outcome.dropped_faults) == 3
        assert len(system.engine.device.fault_buffer) == 0

    def test_replay_clears_utlbs(self):
        system = make_system()
        alloc = system.managed_alloc(PAGE_SIZE)
        system.engine.device.utlbs[0].request(alloc.page(0))
        inject(system, [alloc.page(0)])
        service(system)
        assert all(u.outstanding == 0 for u in system.engine.device.utlbs)


class TestMigrationPaths:
    def test_host_valid_pages_transfer(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        system.host_touch(alloc)
        inject(system, [alloc.page(0)])
        r = service(system).record
        assert r.pages_migrated_h2d == 1
        assert r.bytes_h2d == PAGE_SIZE
        assert r.time_transfer_h2d > 0

    def test_untouched_pages_populate(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(0)])
        r = service(system).record
        assert r.pages_migrated_h2d == 0
        assert r.pages_populated == 1
        assert r.time_population > 0

    def test_unmap_on_first_gpu_touch_of_mapped_block(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        system.host_touch(alloc)
        inject(system, [alloc.page(0)])
        r = service(system).record
        assert r.unmap_calls == 1
        assert r.pages_unmapped == 10
        assert r.time_unmap > 0

    def test_unmap_not_repeated(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        system.host_touch(alloc)
        inject(system, [alloc.page(0)])
        service(system)
        inject(system, [alloc.page(1)])
        r = service(system).record
        assert r.unmap_calls == 0

    def test_dma_state_once_per_block(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(0)])
        first = service(system).record
        inject(system, [alloc.page(1)])
        second = service(system).record
        assert first.new_dma_blocks == 1
        assert first.dma_mappings_created == 10
        assert second.new_dma_blocks == 0
        assert second.time_dma == 0.0

    def test_gpu_write_invalidates_host_copy(self):
        system = make_system()
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        system.host_touch(alloc)
        inject(system, [alloc.page(0)], access=AccessType.WRITE)
        service(system)
        assert not system.engine.host_vm.has_valid_data(alloc.page(0))


class TestPrefetchIntegration:
    def test_prefetch_expands_target(self):
        system = make_system(prefetch=True)
        alloc = system.managed_alloc(2 * MB)
        inject(system, [alloc.page(0)])
        r = service(system).record
        assert r.pages_prefetched >= 15  # at least the 64 KiB upgrade

    def test_prefetch_disabled_services_only_faults(self):
        system = make_system(prefetch=False)
        alloc = system.managed_alloc(2 * MB)
        inject(system, [alloc.page(0)])
        r = service(system).record
        assert r.pages_prefetched == 0
        assert len(system.engine.device.page_table) == 1


class TestEviction:
    def fill_device(self, system, blocks):
        """Fault one page in each of `blocks` distinct VABlocks."""
        alloc = system.managed_alloc(blocks * 2 * MB)
        for b in range(blocks):
            inject(system, [alloc.page(b * PAGES_PER_VABLOCK)])
            service(system)
        return alloc

    def test_eviction_on_memory_pressure(self):
        system = make_system(gpu_mem_mb=4)  # 2 chunks
        alloc = self.fill_device(system, 2)
        extra = system.managed_alloc(2 * MB)
        inject(system, [extra.page(0)])
        r = service(system).record
        assert r.evictions == 1
        # The LRU victim is the first allocated block.
        assert not system.engine.device.page_table.is_resident(alloc.page(0))

    def test_eviction_lands_data_on_host_unmapped(self):
        system = make_system(gpu_mem_mb=4)
        alloc = self.fill_device(system, 2)
        extra = system.managed_alloc(2 * MB)
        inject(system, [extra.page(0)])
        service(system)
        page = alloc.page(0)
        assert system.engine.host_vm.has_valid_data(page)
        assert page not in system.engine.host_vm.mapped

    def test_refault_after_eviction_skips_unmap(self):
        """The Fig 13 'levels' mechanism."""
        system = make_system(gpu_mem_mb=4)
        alloc = self.fill_device(system, 2)
        extra = system.managed_alloc(2 * MB)
        inject(system, [extra.page(0)])
        service(system)
        # Page back in the evicted block: data transfers, but no unmap.
        inject(system, [alloc.page(0)])
        r = service(system).record
        assert r.pages_migrated_h2d == 1
        assert r.unmap_calls == 0

    def test_eviction_disabled_raises(self):
        system = make_system(gpu_mem_mb=4, eviction_enabled=False)
        self.fill_device(system, 2)
        extra = system.managed_alloc(2 * MB)
        inject(system, [extra.page(0)])
        with pytest.raises(OutOfDeviceMemory):
            service(system)

    def test_evicted_block_counter(self):
        system = make_system(gpu_mem_mb=4)
        alloc = self.fill_device(system, 2)
        extra = system.managed_alloc(2 * MB)
        inject(system, [extra.page(0)])
        service(system)
        assert system.driver.vablocks.get_for_page(alloc.page(0)).evict_count == 1


class TestPolicies:
    def test_adaptive_batch_shrinks_on_dups(self):
        system = make_system(adaptive_batch=True, batch_size=256, adaptive_batch_min=64)
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(0)] * 100)  # all duplicates
        service(system)
        assert system.driver.effective_batch_size == 128

    def test_adaptive_batch_grows_back(self):
        system = make_system(adaptive_batch=True, batch_size=256, adaptive_batch_min=64)
        system.driver._current_batch_size = 64
        alloc = system.managed_alloc(10 * PAGE_SIZE)
        inject(system, [alloc.page(i) for i in range(8)])  # no duplicates
        service(system)
        assert system.driver.effective_batch_size == 128

    def test_async_unmap_not_on_critical_path(self):
        sync = make_system()
        a1 = sync.managed_alloc(10 * PAGE_SIZE)
        sync.host_touch(a1)
        inject(sync, [a1.page(0)])
        sync_rec = service(sync).record

        async_sys = make_system(async_unmap=True)
        a2 = async_sys.managed_alloc(10 * PAGE_SIZE)
        async_sys.host_touch(a2)
        inject(async_sys, [a2.page(0)])
        async_rec = service(async_sys).record

        assert async_rec.time_unmap == pytest.approx(sync_rec.time_unmap)
        assert async_rec.duration < sync_rec.duration
        assert async_sys.driver.async_unmap_backlog_usec > 0

    def test_service_threads_shorten_wallclock(self):
        serial = make_system()
        a1 = serial.managed_alloc(8 * MB)
        serial.host_touch(a1)
        inject(serial, [a1.page(b * PAGES_PER_VABLOCK) for b in range(4)])
        serial_rec = service(serial).record

        parallel = make_system(service_threads=4)
        a2 = parallel.managed_alloc(8 * MB)
        parallel.host_touch(a2)
        inject(parallel, [a2.page(b * PAGES_PER_VABLOCK) for b in range(4)])
        parallel_rec = service(parallel).record

        assert parallel_rec.duration < serial_rec.duration
        # Work (component sums) is the same either way.
        assert parallel_rec.service_time == pytest.approx(
            serial_rec.service_time, rel=0.01
        )
