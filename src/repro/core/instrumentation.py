"""Batch log: collection and serialization of instrumentation records.

The paper collects batch metadata through "a custom logging tool that is
more reliable than dmesg" (§3.1).  :class:`BatchLog` plays that role: an
append-only store of :class:`~repro.core.batch_record.BatchRecord` with
JSONL persistence so experiment outputs can be saved and re-analyzed without
re-running the simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from ..units import fold_sum
from .batch_record import BatchRecord


class BatchLog:
    """Append-only per-batch instrumentation log."""

    def __init__(self) -> None:
        self._records: List[BatchRecord] = []

    def append(self, record: BatchRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> List[BatchRecord]:
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BatchRecord]:
        return iter(self._records)

    def __getitem__(self, idx):
        return self._records[idx]

    # ------------------------------------------------------------ aggregates

    @property
    def total_batch_time(self) -> float:
        """Aggregate batch servicing time (µs) — Table 4's "Batch" column."""
        return fold_sum(r.duration for r in self._records)

    @property
    def total_faults_raw(self) -> int:
        return sum(r.num_faults_raw for r in self._records)

    @property
    def total_faults_unique(self) -> int:
        return sum(r.num_faults_unique for r in self._records)

    @property
    def total_bytes_h2d(self) -> int:
        return sum(r.bytes_h2d for r in self._records)

    @property
    def total_evictions(self) -> int:
        return sum(r.evictions for r in self._records)

    # --------------------------------------------------------- serialization

    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write one JSON object per batch to ``path``."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for record in self._records:
                fh.write(json.dumps(record.to_dict()) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "BatchLog":
        log = cls()
        with Path(path).open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    log.append(BatchRecord.from_dict(json.loads(line)))
        return log

    @classmethod
    def from_records(cls, records: Iterable[BatchRecord]) -> "BatchLog":
        log = cls()
        for record in records:
            log.append(record)
        return log
