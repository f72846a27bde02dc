"""Unit tests for the run-validation module."""

import pytest

from repro.core.batch_record import BatchRecord
from repro.units import MB, PAGE_SIZE
from repro.validate import (
    Violation,
    check_fault_conservation,
    check_memory_accounting,
    check_records,
    check_residency_consistency,
    validate_system,
)
from repro.workloads import StreamTriad


def record(batch_id=0, **kwargs):
    r = BatchRecord(batch_id=batch_id)
    for k, v in kwargs.items():
        setattr(r, k, v)
    return r


class TestCleanRuns:
    def test_clean_in_core_run(self, system_factory):
        system = system_factory(prefetch_enabled=True)
        StreamTriad(nbytes=2 * MB).run(system)
        assert validate_system(system) == []

    def test_clean_oversubscribed_run(self, system_factory):
        system = system_factory(prefetch_enabled=False, gpu_mem_mb=4)
        StreamTriad(nbytes=2 * MB, sweeps=2).run(system)
        assert validate_system(system) == []

    def test_clean_hinted_run(self, system_factory):
        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        system.mem_prefetch(alloc)
        assert validate_system(system) == []

    def test_clean_read_mostly_run(self, system_factory):
        from repro.gpu.warp import KernelLaunch, Phase, WarpProgram

        system = system_factory(prefetch_enabled=False)
        alloc = system.managed_alloc(2 * MB)
        system.host_touch(alloc)
        system.mem_advise_read_mostly(alloc)
        system.launch(KernelLaunch("r", [WarpProgram([Phase.of([alloc.page(0)])])]))
        assert validate_system(system) == []


class TestDetection:
    def test_detects_orphan_page_table_entry(self, system_factory):
        system = system_factory()
        system.managed_alloc(2 * MB)
        system.engine.device.page_table.map_pages([5_000_000])
        violations = check_residency_consistency(system)
        assert any(v.rule == "residency" for v in violations)

    def test_detects_chunk_mismatch(self, system_factory):
        system = system_factory()
        alloc = system.managed_alloc(2 * MB)
        block = system.driver.vablocks.get_for_page(alloc.page(0))
        block.gpu_chunk = 0  # never allocated from the pool
        violations = check_memory_accounting(system)
        assert any(v.rule == "memory" for v in violations)

    def test_detects_conservation_break(self, system_factory):
        system = system_factory()
        system.engine.device.fault_buffer.total_pushed += 5
        violations = check_fault_conservation(system)
        assert violations and violations[0].rule == "conservation"


class TestRecordChecks:
    def test_clean_records(self):
        recs = [
            record(0, t_start=0, t_end=5, num_faults_raw=3, num_faults_unique=2,
                   dup_same_utlb=1),
            record(1, t_start=5, t_end=9, num_faults_raw=1, num_faults_unique=1),
        ]
        assert check_records(recs) == []

    def test_negative_duration(self):
        assert any(
            v.rule == "timing" for v in check_records([record(0, t_start=5, t_end=1)])
        )

    def test_overlapping_batches(self):
        recs = [
            record(0, t_start=0, t_end=10),
            record(1, t_start=5, t_end=12),
        ]
        assert any("overlaps" in v.detail for v in check_records(recs))

    def test_unique_exceeds_raw(self):
        recs = [record(0, num_faults_raw=1, num_faults_unique=5, t_end=1.0)]
        assert any(v.rule == "counts" for v in check_records(recs))

    def test_dup_mismatch(self):
        recs = [record(0, num_faults_raw=5, num_faults_unique=2, t_end=1.0)]
        assert any("unique+dups" in v.detail for v in check_records(recs))

    def test_bytes_pages_mismatch(self):
        recs = [record(0, bytes_h2d=100, pages_migrated_h2d=1, t_end=1.0)]
        assert any("bytes/pages" in v.detail for v in check_records(recs))

    def test_violation_str(self):
        v = Violation("rule", "detail")
        assert str(v) == "[rule] detail"
