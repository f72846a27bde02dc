"""Unit tests for the UvmSystem facade and managed allocations."""

import pytest

from repro.api import ManagedAllocation, RunResult, UvmSystem
from repro.errors import AllocationError
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.units import MB, PAGES_PER_VABLOCK, PAGE_SIZE


class TestManagedAlloc:
    def test_alloc_rounds_to_pages(self, small_system):
        alloc = small_system.managed_alloc(100)
        assert alloc.num_pages == 1
        assert alloc.nbytes == PAGE_SIZE

    def test_allocs_are_vablock_aligned(self, small_system):
        a = small_system.managed_alloc(PAGE_SIZE)
        b = small_system.managed_alloc(PAGE_SIZE)
        assert a.start_page % PAGES_PER_VABLOCK == 0
        assert b.start_page % PAGES_PER_VABLOCK == 0
        assert b.start_page == PAGES_PER_VABLOCK

    def test_zero_size_rejected(self, small_system):
        with pytest.raises(AllocationError):
            small_system.managed_alloc(0)

    def test_named_allocations_listed(self, small_system):
        small_system.managed_alloc(PAGE_SIZE, name="weights")
        assert small_system.allocations[0].name == "weights"

    def test_default_names_unique(self, small_system):
        a = small_system.managed_alloc(PAGE_SIZE)
        b = small_system.managed_alloc(PAGE_SIZE)
        assert a.name != b.name

    def test_page_accessors(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        assert alloc.page(0) == alloc.start_page
        assert alloc.page(3) == alloc.start_page + 3
        with pytest.raises(IndexError):
            alloc.page(4)
        with pytest.raises(IndexError):
            alloc.page(-1)

    def test_pages_range(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        assert list(alloc.pages(1, 3)) == [alloc.start_page + 1, alloc.start_page + 2]
        with pytest.raises(IndexError):
            alloc.pages(3, 10)

    def test_page_of_byte(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        assert alloc.page_of_byte(0) == alloc.start_page
        assert alloc.page_of_byte(PAGE_SIZE + 1) == alloc.start_page + 1

    def test_registered_with_driver(self, small_system):
        alloc = small_system.managed_alloc(PAGE_SIZE)
        block = small_system.driver.vablocks.get_for_page(alloc.page(0))
        assert alloc.page(0) in block.valid_page_ids()


class TestHostTouch:
    def test_marks_pages_mapped(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        small_system.host_touch(alloc)
        assert set(alloc.pages()) <= small_system.engine.host_vm.mapped

    def test_partial_touch(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        small_system.host_touch(alloc, 1, 3)
        assert alloc.page(0) not in small_system.engine.host_vm.mapped
        assert alloc.page(1) in small_system.engine.host_vm.mapped

    def test_advances_clock(self, small_system):
        alloc = small_system.managed_alloc(1 * MB)
        t0 = small_system.clock.now
        small_system.host_touch(alloc)
        assert small_system.clock.now > t0

    def test_thread_spread_recorded(self, system_factory):
        system = system_factory(host_threads=4)
        alloc = system.managed_alloc(8 * PAGE_SIZE)
        system.host_touch(alloc)
        threads = {
            system.engine.host_vm.touch_thread[p] for p in alloc.pages()
        }
        assert len(threads) == 4

    def test_migrates_gpu_resident_pages_back(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        kernel = KernelLaunch("k", [WarpProgram([Phase.of([alloc.page(0)])])])
        small_system.launch(kernel)
        assert small_system.engine.device.page_table.is_resident(alloc.page(0))
        small_system.host_touch(alloc)
        assert not small_system.engine.device.page_table.is_resident(alloc.page(0))


class TestLaunchAndRun:
    def simple_kernel(self, alloc):
        return KernelLaunch("k", [WarpProgram([Phase.of([alloc.page(0)], [alloc.page(1)])])])

    def test_launch_returns_result(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        result = small_system.launch(self.simple_kernel(alloc))
        assert result.kernel_time_usec > 0
        assert result.num_batches >= 1
        # The read faults; the write may be covered by the 64 KiB upgrade.
        assert result.total_faults >= 1
        assert small_system.engine.device.page_table.is_resident(alloc.page(1))

    def test_run_mixes_steps(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        touched = []
        steps = [
            lambda s: touched.append(True),
            self.simple_kernel(alloc),
        ]
        result = small_system.run(steps, name="mixed")
        assert touched == [True]
        assert result.workload == "mixed"
        assert result.num_batches >= 1

    def test_run_rejects_bad_step(self, small_system):
        with pytest.raises(TypeError):
            small_system.run([42])

    def test_records_accumulate(self, small_system):
        alloc = small_system.managed_alloc(4 * PAGE_SIZE)
        small_system.launch(self.simple_kernel(alloc))
        n = len(small_system.records)
        assert n >= 1

    def test_oversubscription_bytes(self, small_system):
        assert small_system.oversubscription_bytes(1.5) == int(
            small_system.config.gpu.memory_bytes * 1.5
        )


class TestRunResult:
    def test_empty(self):
        r = RunResult(workload="w")
        assert r.kernel_time_usec == 0.0
        assert r.num_batches == 0
        assert r.records == []
        assert len(r.batch_log()) == 0
