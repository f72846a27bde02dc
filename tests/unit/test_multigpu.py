"""Unit tests for the multi-GPU extension."""

import pytest

from repro import default_config
from repro.errors import ConfigError
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.multigpu import MultiGpuSystem
from repro.units import MB


def make_system(num_devices=2, peer_enabled=True, gpu_mem_mb=16):
    cfg = default_config(prefetch_enabled=False)
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.cost_overrides = {"jitter_frac": 0.0}
    return MultiGpuSystem(num_devices=num_devices, config=cfg, peer_enabled=peer_enabled)


def sweep_kernel(alloc, start, stop, name="k"):
    return KernelLaunch(name, [WarpProgram([Phase.of(list(alloc.pages(start, stop)))])])


class TestConstruction:
    def test_devices_share_clock_and_host(self):
        mg = make_system(3)
        clocks = {id(h.engine.clock) for h in mg.devices}
        host_vms = {id(h.engine.host_vm) for h in mg.devices}
        assert len(clocks) == 1
        assert len(host_vms) == 1

    def test_devices_have_own_fault_paths(self):
        mg = make_system(2)
        assert mg.devices[0].engine.device is not mg.devices[1].engine.device
        assert id(mg.devices[0].engine.dma) != id(mg.devices[1].engine.dma)

    def test_at_least_one_device(self):
        with pytest.raises(ConfigError):
            make_system(0)

    def test_allocation_registered_everywhere(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(2 * MB)
        for handle in mg.devices:
            block = handle.driver.vablocks.get_for_page(alloc.page(0))
            assert alloc.page(0) in block.valid_page_ids()


class TestOwnership:
    def test_launch_takes_ownership(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(2 * MB)
        mg.host_touch(alloc)
        mg.launch(0, sweep_kernel(alloc, 0, 64))
        assert mg._owner[alloc.page(0)] == 0

    def test_second_device_steals_pages(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(2 * MB)
        mg.host_touch(alloc)
        mg.launch(0, sweep_kernel(alloc, 0, 64))
        mg.launch(1, sweep_kernel(alloc, 0, 64))
        assert mg._owner[alloc.page(0)] == 1
        assert not mg.devices[0].engine.device.page_table.is_resident(alloc.page(0))
        assert mg.devices[1].engine.device.page_table.is_resident(alloc.page(0))

    def test_peer_transfer_counted(self):
        mg = make_system(2, peer_enabled=True)
        alloc = mg.managed_alloc(2 * MB)
        mg.host_touch(alloc)
        mg.launch(0, sweep_kernel(alloc, 0, 64))
        mg.launch(1, sweep_kernel(alloc, 0, 64))
        assert mg.peer_stats.peer_pages == 64
        assert mg.peer_stats.bounce_pages == 0

    def test_bounce_when_peer_disabled(self):
        mg = make_system(2, peer_enabled=False)
        alloc = mg.managed_alloc(2 * MB)
        mg.host_touch(alloc)
        mg.launch(0, sweep_kernel(alloc, 0, 64))
        mg.launch(1, sweep_kernel(alloc, 0, 64))
        assert mg.peer_stats.bounce_pages == 64
        assert mg.peer_stats.peer_pages == 0

    def test_peer_faster_than_bounce(self):
        times = {}
        for peer in (True, False):
            mg = make_system(2, peer_enabled=peer)
            alloc = mg.managed_alloc(4 * MB)
            mg.host_touch(alloc)
            mg.launch(0, sweep_kernel(alloc, 0, 512))
            t0 = mg.clock.now
            mg.launch(1, sweep_kernel(alloc, 0, 512))
            times[peer] = mg.clock.now - t0
        assert times[True] < times[False]

    def test_disjoint_ranges_no_transfers(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(4 * MB)
        mg.host_touch(alloc)
        mg.launch(0, sweep_kernel(alloc, 0, 256))
        mg.launch(1, sweep_kernel(alloc, 256, 512))
        assert mg.peer_stats.total_pages == 0

    def test_host_touch_reclaims(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(2 * MB)
        mg.launch(0, sweep_kernel(alloc, 0, 64))
        mg.host_touch(alloc)
        assert alloc.page(0) not in mg._owner
        assert not mg.devices[0].engine.device.page_table.is_resident(alloc.page(0))
        assert mg.host_vm.has_valid_data(alloc.page(0))


class TestParallelLaunch:
    def test_makespan_not_sum(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(4 * MB)
        mg.host_touch(alloc)
        t0 = mg.clock.now
        results = mg.parallel_launch(
            [
                (0, sweep_kernel(alloc, 0, 256, "p0")),
                (1, sweep_kernel(alloc, 256, 512, "p1")),
            ]
        )
        elapsed = mg.clock.now - t0
        total = sum(r.kernel_time_usec for r in results)
        assert elapsed < total
        assert elapsed >= max(r.kernel_time_usec for r in results) - 1e-6

    def test_empty_parallel_launch(self):
        mg = make_system(2)
        assert mg.parallel_launch([]) == []


class TestReporting:
    def test_total_records_ordered(self):
        mg = make_system(2)
        alloc = mg.managed_alloc(4 * MB)
        mg.host_touch(alloc)
        mg.launch(0, sweep_kernel(alloc, 0, 128))
        mg.launch(1, sweep_kernel(alloc, 128, 256))
        records = mg.total_records()
        assert len(records) >= 2
        starts = [r.t_start for r in records]
        assert starts == sorted(starts)
