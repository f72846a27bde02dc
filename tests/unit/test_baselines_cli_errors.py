"""Unit tests for the explicit baseline, the CLI, and the error hierarchy."""

import pytest

from repro.baselines.explicit import ExplicitTransferModel, explicit_run_time
from repro.cli import build_parser, main
from repro.errors import (
    AllocationError,
    ConfigError,
    DeadlockError,
    FaultBufferOverflow,
    InvalidAccess,
    OutOfDeviceMemory,
    SimulationError,
    UvmError,
)
from repro.hostos.cost_model import CostModel
from repro.units import MB


class TestExplicitBaseline:
    def make(self):
        return ExplicitTransferModel(CostModel())

    def test_h2d_time_positive(self):
        assert self.make().h2d_time(1 * MB) > 0

    def test_zero_bytes_free(self):
        assert self.make().h2d_time(0) == 0.0

    def test_run_time_includes_both_directions(self):
        m = self.make()
        combined = m.run_time(bytes_in=1 * MB, bytes_out=1 * MB)
        assert combined == pytest.approx(m.h2d_time(1 * MB) + m.d2h_time(1 * MB))

    def test_chunking_adds_latency(self):
        m = self.make()
        one = m.run_time(bytes_in=64 * MB, bytes_out=0, chunk_bytes=64 * MB)
        many = m.run_time(bytes_in=64 * MB, bytes_out=0, chunk_bytes=16 * MB)
        assert many > one

    def test_per_access_latency(self):
        m = self.make()
        lat = m.per_access_latency(1 * MB, 1 * MB, num_page_accesses=512)
        assert lat > 0

    def test_per_access_latency_requires_accesses(self):
        with pytest.raises(ValueError):
            self.make().per_access_latency(1, 1, 0)

    def test_convenience_wrapper(self):
        assert explicit_run_time(1 * MB, 0) > 0

    def test_uvm_fault_path_slower_than_explicit(self, system_factory):
        """Fig 1's core claim at unit scale: servicing one page through the
        fault path costs more than its share of a bulk copy."""
        from repro.gpu.fault import AccessType, Fault
        from tests.property.fault_oracle import write_window

        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(1 * MB)
        system.host_touch(alloc)
        write_window(
            system.engine.device.gmmu,
            [Fault(page, AccessType.READ, 0, 0, 0, 0.0) for page in alloc.pages()],
        )
        outcome = system.engine.driver.service_next_batch(slept=True)
        per_page_uvm = outcome.record.duration / outcome.record.num_faults_unique
        per_page_explicit = self.make().h2d_time(1 * MB) / 256
        assert per_page_uvm > 2 * per_page_explicit


class TestErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError,
            AllocationError,
            OutOfDeviceMemory,
            FaultBufferOverflow,
            InvalidAccess,
            SimulationError,
            DeadlockError,
        ],
    )
    def test_all_derive_from_uvm_error(self, exc):
        assert issubclass(exc, UvmError)

    def test_oom_is_allocation_error(self):
        assert issubclass(OutOfDeviceMemory, AllocationError)

    def test_deadlock_is_simulation_error(self):
        assert issubclass(DeadlockError, SimulationError)


class TestCli:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "tab02" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig03" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig05(self, capsys):
        assert main(["run", "fig05"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "completed" in out

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig03", "tab02"])
        assert args.command == "run"
        assert args.experiments == ["fig03", "tab02"]

    def test_list_includes_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gauss-seidel" in out

    def test_breakdown_subcommand(self, capsys):
        assert main(["breakdown", "vecadd", "--no-prefetch", "--gpu-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "host-OS share" in out

    def test_breakdown_unknown_workload(self, capsys):
        assert main(["breakdown", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_export_subcommand(self, capsys, tmp_path):
        out_dir = str(tmp_path / "exp")
        assert main(["export", "vecadd", "--gpu-mb", "16", "--out", out_dir]) == 0
        out = capsys.readouterr().out
        assert "timeline.csv" in out
        assert (tmp_path / "exp" / "vecadd_timeline.csv").exists()
