"""Run validation: invariant checks over a simulated system and its log.

A production simulator needs a way to *prove a run made sense*.  This module
checks the cross-cutting invariants the design guarantees — residency
consistency between the driver's VABlock state and the GPU page table,
physical-memory accounting, fault conservation through the hardware buffer,
and per-record timing sanity — and reports violations instead of silently
producing plausible-looking numbers.

Use :func:`validate_system` after any run::

    violations = validate_system(system)
    assert not violations, "\\n".join(str(v) for v in violations)

The engine's own tests run these checks on every property-test workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .api import UvmSystem
from .check.sanitizer import scan_blocks
from .core.batch_record import BatchRecord
from .units import PAGE_SIZE


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

    rule: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.detail}"


# --------------------------------------------------------------- system state


def _block_scan(system: UvmSystem, rule: str) -> List[Violation]:
    """UVMSan's full VABlock scan, kept to the findings of one rule."""
    return [
        Violation(found, detail)
        for found, detail, _ in scan_blocks(system.engine.driver)
        if found == rule
    ]


def check_residency_consistency(system: UvmSystem) -> List[Violation]:
    """Driver block state and GPU page table must agree exactly."""
    return _block_scan(system, "residency")


def check_memory_accounting(system: UvmSystem) -> List[Violation]:
    """Chunk usage must equal allocated blocks; capacity must hold."""
    out = _block_scan(system, "memory")
    migrated = system.engine.driver.vablocks.total_resident_pages()
    capacity = system.config.gpu.memory_bytes // PAGE_SIZE
    if migrated > capacity:
        out.append(
            Violation(
                "memory",
                f"{migrated} resident pages exceed capacity {capacity}",
            )
        )
    return out


def check_fault_conservation(system: UvmSystem) -> List[Violation]:
    """Every pushed fault was fetched, flushed, or still sits in the buffer."""
    out: List[Violation] = []
    buf = system.engine.device.fault_buffer
    fetched = sum(r.num_faults_raw for r in system.records)
    balance = (
        buf.total_pushed
        + buf.total_injected
        - buf.total_flush_dropped
        - buf.total_injector_dropped
        - len(buf)
    )
    if fetched != balance:
        out.append(
            Violation(
                "conservation",
                f"fetched {fetched} != pushed {buf.total_pushed} + injected "
                f"{buf.total_injected} - flushed {buf.total_flush_dropped} - "
                f"injector-dropped {buf.total_injector_dropped} - residual "
                f"{len(buf)}",
            )
        )
    return out


def check_host_state(system: UvmSystem) -> List[Violation]:
    """Host-mapped pages of GPU-resident data only under read-mostly."""
    out: List[Violation] = []
    host_vm = system.engine.host_vm
    driver = system.engine.driver
    for block in driver.vablocks.blocks():
        if block.read_mostly:
            continue
        overlap = host_vm.mapped & block.resident_pages
        if overlap:
            sample = next(iter(overlap))
            out.append(
                Violation(
                    "host-state",
                    f"page {sample} is GPU-resident and host-mapped without "
                    "read-mostly duplication",
                )
            )
    return out


# ------------------------------------------------------------------- sanitizer


def check_sanitizer_report(system: UvmSystem) -> List[Violation]:
    """Fold UVMSan's accumulated report-mode violations into the validation
    output.  Empty when the run had the sanitizer disabled (the common case)
    or when every runtime invariant held."""
    out: List[Violation] = []
    san = system.engine.sanitizer
    for v in san.violations:
        out.append(Violation(f"uvmsan/{v.rule}", v.detail))
    overflow = san.total_violations - len(san.violations)
    if overflow > 0:
        out.append(
            Violation(
                "uvmsan/overflow",
                f"{overflow} further violations beyond the report cap",
            )
        )
    return out


# --------------------------------------------------------------- batch records


def check_records(records: Iterable[BatchRecord]) -> List[Violation]:
    """Per-record and cross-record log sanity."""
    out: List[Violation] = []
    prev_end = None
    for r in records:
        if r.t_end < r.t_start:
            out.append(Violation("timing", f"batch {r.batch_id} ends before it starts"))
        if prev_end is not None and r.t_start < prev_end - 1e-6:
            out.append(
                Violation("timing", f"batch {r.batch_id} overlaps its predecessor")
            )
        prev_end = r.t_end
        if r.num_faults_unique > r.num_faults_raw:
            out.append(
                Violation("counts", f"batch {r.batch_id}: unique exceeds raw faults")
            )
        if r.num_faults_raw > 0 and (
            r.num_faults_unique + r.duplicate_count != r.num_faults_raw
        ):
            out.append(
                Violation(
                    "counts",
                    f"batch {r.batch_id}: unique+dups != raw",
                )
            )
        if r.vablock_fault_counts is not None and r.num_faults_unique:
            if int(r.vablock_fault_counts.sum()) != r.num_faults_unique:
                out.append(
                    Violation(
                        "counts",
                        f"batch {r.batch_id}: per-block fault counts do not "
                        "sum to the unique count",
                    )
                )
        if r.bytes_h2d != r.pages_migrated_h2d * PAGE_SIZE:
            out.append(
                Violation("counts", f"batch {r.batch_id}: bytes/pages mismatch")
            )
    return out


def validate_system(system: UvmSystem, include_records: bool = True) -> List[Violation]:
    """Run every invariant check; returns all violations found."""
    out: List[Violation] = []
    out.extend(check_residency_consistency(system))
    out.extend(check_memory_accounting(system))
    out.extend(check_fault_conservation(system))
    out.extend(check_host_state(system))
    out.extend(check_sanitizer_report(system))
    if include_records:
        out.extend(check_records(system.records))
    return out
