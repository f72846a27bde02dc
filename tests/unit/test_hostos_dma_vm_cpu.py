"""Unit tests for the DMA mapper, host VM state, and CPU first-touch."""

import pytest

from repro.config import HostConfig
from repro.hostos.cost_model import CostModel
from repro.hostos.cpu import HostCpu, interleaved_first_touch, static_first_touch
from repro.hostos.dma import DmaMapper
from repro.hostos.host_vm import HostVm
from repro.units import PAGES_PER_VABLOCK


class TestDmaMapper:
    def make(self):
        return DmaMapper(CostModel())

    def test_map_new_pages(self):
        dma = self.make()
        result = dma.map_pages([1, 2, 3])
        assert result.new_mappings == 3
        assert result.cost_usec > 0
        assert dma.is_mapped(2)

    def test_remap_is_free_of_new_mappings(self):
        dma = self.make()
        dma.map_pages([1, 2])
        result = dma.map_pages([1, 2])
        assert result.new_mappings == 0
        assert result.new_nodes == 0

    def test_dma_addresses_deterministic_and_distinct(self):
        dma = self.make()
        a1 = dma.dma_address_of(1)
        a2 = dma.dma_address_of(2)
        assert a1 != a2
        assert a1 >= DmaMapper.DMA_BASE

    def test_reverse_lookup(self):
        dma = self.make()
        dma.map_pages([9])
        assert dma.reverse.lookup(9) == dma.dma_address_of(9)

    def test_unmap(self):
        dma = self.make()
        dma.map_pages([1, 2])
        assert dma.unmap_pages([1, 99]) == 1
        assert not dma.is_mapped(1)
        assert dma.total_mappings == 1

    def test_slab_refill_counted(self):
        cm = CostModel()
        cm.radix_slab_size = 2
        dma = DmaMapper(cm)
        # Mapping across several radix leaf nodes crosses slab boundaries.
        result = dma.map_pages(range(0, 64 * 6, 64))
        assert result.slab_refills >= 1

    def test_cost_scales_with_mappings(self):
        dma = self.make()
        small = dma.map_pages([1000]).cost_usec
        big = self.make().map_pages(range(100)).cost_usec
        assert big > small


class TestHostVm:
    def test_cpu_touch_maps_and_validates(self):
        vm = HostVm()
        newly = vm.cpu_touch([1, 2, 3], thread_of=lambda p: 0)
        assert newly == 3
        assert vm.mapped == {1, 2, 3}
        assert vm.has_valid_data(2)

    def test_second_touch_not_new(self):
        vm = HostVm()
        vm.cpu_touch([1], thread_of=lambda p: 0)
        assert vm.cpu_touch([1], thread_of=lambda p: 0) == 0

    def test_first_touch_thread_sticky(self):
        vm = HostVm()
        vm.cpu_touch([1], thread_of=lambda p: 3)
        vm.cpu_touch([1], thread_of=lambda p: 7)  # re-touch, no remap
        assert vm.touch_thread[1] == 3

    def test_unmap_range_clears_mappings_not_validity(self):
        vm = HostVm()
        vm.cpu_touch([1, 2], thread_of=lambda p: 0)
        stats = vm.unmap_range([1, 2, 3])
        assert stats.pages_unmapped == 2
        assert not vm.mapped
        assert vm.has_valid_data(1)  # data still valid, only unmapped

    def test_unmap_distinct_threads(self):
        vm = HostVm()
        vm.cpu_touch([1, 2, 3, 4], thread_of=lambda p: p % 2)
        stats = vm.unmap_range([1, 2, 3, 4])
        assert stats.distinct_threads == 2

    def test_unmap_counters(self):
        vm = HostVm()
        vm.cpu_touch([1], thread_of=lambda p: 0)
        vm.unmap_range([1])
        vm.unmap_range([1])  # second call unmaps nothing
        assert vm.total_unmap_calls == 2
        assert vm.total_pages_unmapped == 1

    def test_mark_valid_without_mapping(self):
        vm = HostVm()
        vm.mark_valid([5])  # eviction lands data without a CPU mapping
        assert vm.has_valid_data(5)
        assert 5 not in vm.mapped

    def test_invalidate(self):
        vm = HostVm()
        vm.cpu_touch([1], thread_of=lambda p: 0)
        vm.invalidate([1])
        assert not vm.has_valid_data(1)
        assert 1 in vm.mapped  # invalidation is about data, not PTEs

    def test_mapped_pages_of_counts_each_block(self):
        vm = HostVm()
        block = PAGES_PER_VABLOCK
        vm.cpu_touch([0, 1, 2, block + 5, 1], thread_of=lambda p: 0)
        vm.cpu_touch([2, 3], thread_of=lambda p: 0)  # 2 is a re-touch
        assert [vm.mapped_pages_of(b) for b in (0, 1, 2)] == [4, 1, 0]
        vm.unmap_range([1, 3, 4])
        assert vm.mapped_pages_of(0) == 2
        vm.unmap_range(range(2 * block))
        assert [vm.mapped_pages_of(b) for b in (0, 1)] == [0, 0]
        assert vm.mapped_per_block == {}


class TestFirstTouch:
    def test_static_single_thread(self):
        f = static_first_touch(8, 1)
        assert all(f(i) == 0 for i in range(8))

    def test_static_two_threads(self):
        f = static_first_touch(8, 2)
        assert [f(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_static_clamps_to_last_thread(self):
        f = static_first_touch(10, 3)
        assert f(9) == 2

    def test_interleaved(self):
        f = interleaved_first_touch(4)
        assert [f(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_interleaved_granularity(self):
        f = interleaved_first_touch(2, granularity=2)
        assert [f(i) for i in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]


class TestHostCpu:
    def test_touch_cost_parallelizes(self):
        one = HostCpu(HostConfig(num_threads=1)).touch_cost_usec(1000)
        many = HostCpu(HostConfig(num_threads=10)).touch_cost_usec(1000)
        assert many == pytest.approx(one / 10)

    def test_zero_pages_free(self):
        assert HostCpu(HostConfig()).touch_cost_usec(0) == 0.0

    def test_first_touch_fn_modes(self):
        cpu = HostCpu(HostConfig(num_threads=4))
        static = cpu.first_touch_fn(16)
        inter = cpu.first_touch_fn(16, interleaved=True)
        assert static(0) == 0 and static(15) == 3
        assert inter(1) == 1
