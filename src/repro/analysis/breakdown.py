"""Batch-cost decomposition: where does fault-path time actually go?

The paper's central analytical move is attributing batch time to its
constituents (fetch, preprocessing, allocation, population, DMA + radix,
CPU unmapping, transfer, eviction, replay) and showing that host-OS
components dominate where least expected.  This module aggregates the
per-batch component timers across a run into that attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..core.batch_record import BatchRecord
from ..units import fmt_usec, fold_sum
from .report import ascii_table

#: (record attribute, human label) in servicing order.
COMPONENTS: List[Tuple[str, str]] = [
    ("time_wake", "worker wakeup"),
    ("time_fetch", "fault-buffer fetch"),
    ("time_preprocess", "preprocess/dedup"),
    ("time_block_base", "per-page fault service + block locks"),
    ("time_alloc", "chunk allocation"),
    ("time_eviction", "eviction (restart + page tables)"),
    ("time_transfer_d2h", "eviction copy-back (wire)"),
    ("time_population", "page population (zero-fill)"),
    ("time_dma", "DMA mappings + radix tree"),
    ("time_unmap", "unmap_mapping_range (host OS)"),
    ("time_prefetch_decide", "prefetch tree decision"),
    ("time_migrate_prep", "migration staging"),
    ("time_transfer_h2d", "migration copy (wire)"),
    ("time_pagetable", "GPU page-table update"),
    ("time_replay", "replay push + fence"),
    ("time_retry_backoff", "retry backoff + wasted transfers (chaos)"),
]


@dataclass(frozen=True)
class ComponentShare:
    """One component's aggregate cost over a run."""

    attr: str
    label: str
    total_usec: float
    fraction: float


def cost_breakdown(records: Iterable[BatchRecord]) -> List[ComponentShare]:
    """Aggregate component timers over ``records``, largest share first."""
    records = list(records)
    totals: Dict[str, float] = {attr: 0.0 for attr, _ in COMPONENTS}
    for r in records:
        for attr in totals:
            totals[attr] += getattr(r, attr)
    grand = fold_sum(totals.values()) or 1.0
    shares = [
        ComponentShare(attr, label, totals[attr], totals[attr] / grand)
        for attr, label in COMPONENTS
    ]
    return sorted(shares, key=lambda s: -s.total_usec)


def render_breakdown(records: Iterable[BatchRecord], title: str = "") -> str:
    """ASCII table of the run's cost attribution."""
    shares = cost_breakdown(records)
    rows = [
        [s.label, fmt_usec(s.total_usec), f"{s.fraction:.1%}"]
        for s in shares
        if s.total_usec > 0
    ]
    return ascii_table(["component", "total time", "share"], rows, title=title)


def host_os_share(records: Iterable[BatchRecord]) -> float:
    """Fraction of accounted time in host-OS components (unmap + DMA/radix)
    — the costs §6 flags as common to every HMM implementation."""
    shares = {s.attr: s for s in cost_breakdown(records)}
    host = shares["time_unmap"].total_usec + shares["time_dma"].total_usec
    grand = fold_sum(s.total_usec for s in shares.values()) or 1.0
    return host / grand


def wire_share(records: Iterable[BatchRecord]) -> float:
    """Fraction of accounted time actually on the interconnect (Fig 7's
    division between transfer and management)."""
    shares = {s.attr: s for s in cost_breakdown(records)}
    wire = shares["time_transfer_h2d"].total_usec + shares["time_transfer_d2h"].total_usec
    grand = fold_sum(s.total_usec for s in shares.values()) or 1.0
    return wire / grand
