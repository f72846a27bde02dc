"""Batch statistics: the machinery behind Tables 2 and 3.

Table 2 ("Per-SM Source Statistics in Each Batch") reports, per workload,
the distribution over batches of *faults contributed per SM*: with the
256-fault default batch and 80 SMs the ceiling is 3.2, hit by the synthetic
Regular/Random workloads whose every SM saturates its throttle quota.

Table 3 ("VABlock Source Statistics in a Batch") reports VABlocks touched
per batch and the distribution of faults per (batch, VABlock) pair — the
workload-imbalance evidence against naïve per-VABlock driver parallelism
(§4.3, §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..core.batch_record import BatchRecord
from ..units import fold_sum


@dataclass(frozen=True)
class SummaryStats:
    """mean / std / min / max summary of a sample."""

    mean: float
    std: float
    min: float
    max: float
    count: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "SummaryStats":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            min=float(arr.min()),
            max=float(arr.max()),
            count=int(arr.size),
        )

    def row(self, ndigits: int = 2) -> List[str]:
        return [
            f"{self.mean:.{ndigits}f}",
            f"{self.std:.{ndigits}f}",
            f"{self.min:.{ndigits}f}",
            f"{self.max:.{ndigits}f}",
        ]


def per_sm_stats(records: Iterable[BatchRecord], num_sms: int) -> SummaryStats:
    """Table 2 statistic: per-batch average faults per SM.

    For each batch, the statistic is ``raw faults / num_sms`` — the mean SM
    contribution; its distribution across batches gives the table's
    avg/std/min/max.  The max is bounded by ``batch_size / num_sms`` (≈3.2
    for 256/80), the throttle-and-fair-service ceiling.
    """
    series = [r.num_faults_raw / num_sms for r in records]
    return SummaryStats.of(series)


@dataclass(frozen=True)
class VABlockStats:
    """Table 3 row: blocks per batch + pooled faults per (batch, block)."""

    vablocks_per_batch: float
    faults_per_vablock: SummaryStats

    def row(self) -> List[str]:
        return [f"{self.vablocks_per_batch:.2f}"] + [
            f"{self.faults_per_vablock.mean:.2f}",
            f"{self.faults_per_vablock.std:.2f}",
            f"{self.faults_per_vablock.min:.0f}",
            f"{self.faults_per_vablock.max:.0f}",
        ]


def vablock_stats(records: Iterable[BatchRecord]) -> VABlockStats:
    """Table 3 statistics from batch records."""
    records = list(records)
    blocks_per_batch = [r.num_vablocks for r in records if r.num_vablocks > 0]
    pooled: List[int] = []
    for r in records:
        if r.vablock_fault_counts is not None:
            pooled.extend(int(x) for x in r.vablock_fault_counts)
    return VABlockStats(
        vablocks_per_batch=float(np.mean(blocks_per_batch)) if blocks_per_batch else 0.0,
        faults_per_vablock=SummaryStats.of(pooled),
    )


@dataclass(frozen=True)
class DuplicateSummary:
    """Raw/unique/duplicate totals over a record set (Fig 8 aggregates)."""

    total_raw: int
    total_unique: int
    dup_same_utlb: int
    dup_cross_utlb: int

    @property
    def dup_total(self) -> int:
        return self.dup_same_utlb + self.dup_cross_utlb

    @property
    def dup_fraction(self) -> float:
        return self.dup_total / self.total_raw if self.total_raw else 0.0


def duplicate_summary(records: Iterable[BatchRecord]) -> DuplicateSummary:
    records = list(records)
    return DuplicateSummary(
        total_raw=sum(r.num_faults_raw for r in records),
        total_unique=sum(r.num_faults_unique for r in records),
        dup_same_utlb=sum(r.dup_same_utlb for r in records),
        dup_cross_utlb=sum(r.dup_cross_utlb for r in records),
    )


@dataclass(frozen=True)
class BatchSizeSummary:
    """Per-run batch-size profile (Fig 9 columns)."""

    num_batches: int
    raw_sizes: SummaryStats
    unique_sizes: SummaryStats
    total_batch_time_usec: float

    @property
    def mean_unique_per_batch(self) -> float:
        return self.unique_sizes.mean


def batch_size_summary(records: Iterable[BatchRecord]) -> BatchSizeSummary:
    records = list(records)
    return BatchSizeSummary(
        num_batches=len(records),
        raw_sizes=SummaryStats.of([r.num_faults_raw for r in records]),
        unique_sizes=SummaryStats.of([r.num_faults_unique for r in records]),
        total_batch_time_usec=fold_sum(r.duration for r in records),
    )
