"""Canned experiment runners: one per paper table/figure, plus ablations.

Every public ``fig*``/``tab*``/``ablation*`` function runs the simulation at
a laptop-friendly scale (problem sizes are the paper's *ratios* of device
memory, device memory is scaled down per DESIGN.md §6), computes the same
statistic the paper plots, and returns an :class:`ExperimentResult` whose
``text`` holds the rows/series and whose ``data`` holds the raw values for
tests and benchmarks.

The registry at the bottom maps experiment ids (``"fig07"``, ``"tab02"``,
...) to runners; ``repro.cli`` and the benchmark harness both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..api import RunResult, UvmSystem
from ..baselines.explicit import ExplicitTransferModel
from ..config import SystemConfig, default_config
from ..hostos.cost_model import CostModel
from ..units import MB, PAGE_SIZE, fmt_bytes, fmt_usec
from ..workloads import (
    CuFft,
    Dgemm,
    GaussSeidel,
    Hpgmg,
    PrefetchVectorKernel,
    RandomAccess,
    RegularStream,
    Sgemm,
    StreamTriad,
    VecAddPageStride,
)
from .fits import fit_time_vs_bytes, partial_fit_blocks_given_bytes
from .report import ascii_series, ascii_table, format_usec_stats
from .stats import (
    batch_size_summary,
    duplicate_summary,
    per_sm_stats,
    vablock_stats,
)
from .timeseries import eviction_groups, phase_segments, split_levels


@dataclass
class ExperimentResult:
    """Outcome of one canned experiment."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return f"== {self.exp_id}: {self.title} ==\n{self.text}\n"


# --------------------------------------------------------------------- setup


def _config(
    prefetch: bool = True,
    batch_size: int = 256,
    gpu_mem_mb: int = 64,
    host_threads: int = 1,
    seed: int = 0,
    **driver_kw,
) -> SystemConfig:
    cfg = default_config(prefetch_enabled=prefetch, batch_size=batch_size, **driver_kw)
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.host.num_threads = host_threads
    cfg.seed = seed
    return cfg


def _run(workload, config: SystemConfig, trace: bool = False):
    system = UvmSystem(config, trace=trace)
    result = workload.run(system)
    return system, result


def _suite() -> List:
    """The seven Table 2/3 workloads, each in-core on its own device size.

    Entries are ``(name, workload, gpu_mem_mb)``.  Regular streams one
    1 MiB region per SM (80 regions = 40 VABlocks: Table 3's ~41
    blocks/batch); Random draws from a 512 MiB space so nearly every fault
    lands in its own block (Table 3's ~1 fault/block).
    """
    return [
        ("Regular", RegularStream(nbytes=80 * MB, num_programs=80), 96),
        (
            "Random",
            RandomAccess(
                nbytes=512 * MB,
                num_programs=80,
                accesses_per_program=192,
                host_init=False,
            ),
            768,
        ),
        ("sgemm", Sgemm(n=1536, tile=256), 64),
        ("stream", StreamTriad(nbytes=12 * MB), 64),
        ("cufft", CuFft(nbytes=64 * MB), 128),
        ("gauss-seidel", GaussSeidel(n=1024), 64),
        ("hpgmg", Hpgmg(n=1024, levels=3, cycles=1), 64),
    ]


# ------------------------------------------------------------------ Figure 1


def fig01_latency(nbytes_per_array: int = 8 * MB, sweeps: int = 2) -> ExperimentResult:
    """Fig 1: per-access latency, explicit vs UVM vs UVM+oversubscription.

    Compute time is zeroed on both sides so the comparison isolates memory
    access cost, as the paper's latency framing does.  ``sweeps=2`` gives
    the triad working-set reuse: in-core the second sweep is free (data
    resident), oversubscribed it refaults evicted pages — the "much greater
    cost" of out-of-core (§1).
    """
    rows = []
    data: Dict[str, float] = {}
    accesses = sweeps * 3 * nbytes_per_array // PAGE_SIZE

    def triad():
        return StreamTriad(
            nbytes=nbytes_per_array, sweeps=sweeps, compute_usec_per_page=0.0
        )

    # UVM, in-core.
    _, uvm = _run(triad(), _config(prefetch=True))
    uvm_lat = uvm.total_time_usec / accesses
    # UVM, ~150 % oversubscription (shrink device memory, same problem).
    need_mb = int(np.ceil(3 * nbytes_per_array / MB / 1.5 / 2) * 2)
    _, over = _run(triad(), _config(prefetch=True, gpu_mem_mb=need_mb))
    over_lat = over.total_time_usec / accesses
    # Explicit: one bulk copy in per input, one out; accesses then hit HBM.
    model = ExplicitTransferModel(CostModel())
    explicit_total = model.run_time(
        bytes_in=2 * nbytes_per_array, bytes_out=nbytes_per_array, compute_usec=0.0
    )
    explicit_lat = explicit_total / accesses + model.device_access_usec

    for name, lat in [
        ("explicit (cudaMemcpy)", explicit_lat),
        ("UVM in-core", uvm_lat),
        ("UVM oversubscribed (150%)", over_lat),
    ]:
        rows.append([name, f"{lat:.3f}", f"{lat / explicit_lat:.1f}x"])
        data[name] = lat
    text = ascii_table(
        ["configuration", "per-4KiB-access latency (us)", "vs explicit"], rows
    )
    data["uvm_slowdown"] = uvm_lat / explicit_lat
    data["oversub_slowdown"] = over_lat / explicit_lat
    return ExperimentResult("fig01", "Access latency of the unified space", text, data)


# --------------------------------------------------------------- Figures 3-5


def fig03_vecadd_batches() -> ExperimentResult:
    """Fig 3: vecadd fault batches — 56-fault first batch, reads first."""
    system, res = _run(VecAddPageStride(), _config(prefetch=False), trace=True)
    a, b, c = system.allocations[:3]
    rows = []
    per_batch_comp = []
    migrates = [args for _t, _kind, args in system.obs.flight.select("migrate")]
    for r in res.records:
        comp = {"A": 0, "B": 0, "C": 0}
        for batch_id, block_id, lo, hi, n in migrates:
            if batch_id != r.batch_id:
                continue
            for name, alloc in (("A", a), ("B", b), ("C", c)):
                if alloc.start_page <= lo < alloc.end_page:
                    comp[name] += n
        per_batch_comp.append(comp)
        rows.append([r.batch_id, r.num_faults_raw, comp["A"], comp["B"], comp["C"]])
    text = ascii_table(["batch", "faults", "A pages", "B pages", "C pages"], rows)
    data = {
        "batch_sizes": [r.num_faults_raw for r in res.records],
        "first_batch_size": res.records[0].num_faults_raw,
        "composition": per_batch_comp,
    }
    return ExperimentResult("fig03", "Vector-add faults by batch (µTLB cap = 56)", text, data)


def fig04_vecadd_timing() -> ExperimentResult:
    """Fig 4: fault arrival timestamps cluster per batch; service gaps."""
    _, res = _run(VecAddPageStride(), _config(prefetch=False))
    rows = []
    for r in res.records:
        rows.append(
            [
                r.batch_id,
                r.num_faults_raw,
                f"{r.t_first_fault:.2f}",
                f"{r.t_last_fault:.2f}",
                f"{r.t_last_fault - r.t_first_fault:.2f}",
                f"{r.duration:.2f}",
            ]
        )
    text = ascii_table(
        ["batch", "faults", "first arrival", "last arrival", "arrival span", "service time"],
        rows,
    )
    spans = [r.t_last_fault - r.t_first_fault for r in res.records]
    services = [r.duration for r in res.records]
    data = {
        "arrival_spans": spans,
        "service_times": services,
        "mean_span_over_service": float(np.mean(spans)) / float(np.mean(services)),
    }
    return ExperimentResult("fig04", "Vector-add fault arrival timing", text, data)


def fig05_prefetch_warp(pages_per_vector: int = 100) -> ExperimentResult:
    """Fig 5: a single warp fills a full batch via prefetch instructions."""
    _, res = _run(PrefetchVectorKernel(pages_per_vector), _config(prefetch=False))
    rows = [
        [r.batch_id, r.num_faults_raw, r.dropped_at_flush] for r in res.records
    ]
    text = ascii_table(["batch", "faults", "dropped at flush"], rows)
    data = {
        "max_batch": max(r.num_faults_raw for r in res.records),
        "dropped": sum(r.dropped_at_flush for r in res.records),
        "num_batches": res.num_batches,
    }
    return ExperimentResult(
        "fig05", "Prefetch instructions escape fault-generation limits", text, data
    )


# ------------------------------------------------------------------- Table 2


def tab02_sm_stats() -> ExperimentResult:
    """Table 2: per-SM source statistics in each batch."""
    rows = []
    data = {}
    for name, workload, gpu_mb in _suite():
        cfg = _config(prefetch=False, gpu_mem_mb=gpu_mb)
        _, res = _run(workload, cfg)
        stats = per_sm_stats(res.records, cfg.gpu.num_sms)
        rows.append([name] + stats.row())
        data[name] = stats
    text = ascii_table(["Benchmark", "Avg Faults/SM", "Std. Dev.", "Min.", "Max."], rows)
    return ExperimentResult("tab02", "Per-SM source statistics in each batch", text, data)


# ------------------------------------------------------------- Figures 6, 7


def fig06_data_movement() -> ExperimentResult:
    """Fig 6: best-fit of batch time vs data migrated, per application."""
    rows = []
    data = {}
    entries = [
        e
        for e in _suite()
        if e[0] != "Random"
    ]
    # Random migrates nothing unless the host initialized it; use a
    # host-resident variant at a size the touch phase handles quickly.
    entries.insert(
        1,
        (
            "Random",
            RandomAccess(nbytes=64 * MB, num_programs=80, accesses_per_program=192),
            128,
        ),
    )
    for name, workload, gpu_mb in entries:
        _, res = _run(workload, _config(prefetch=False, gpu_mem_mb=gpu_mb))
        fit, x, y = fit_time_vs_bytes(res.records)
        rows.append(
            [
                name,
                f"{fit.slope * MB:.1f}",
                f"{fit.intercept:.1f}",
                f"{fit.r2:.2f}",
                fit.n,
            ]
        )
        data[name] = fit
    text = ascii_table(
        ["Benchmark", "slope (us/MB)", "intercept (us)", "R^2", "batches"], rows
    )
    return ExperimentResult("fig06", "Batch cost rises linearly with data moved", text, data)


def fig07_transfer_fraction(n: int = 1536) -> ExperimentResult:
    """Fig 7: % of batch time in data transfer for sgemm (≤ ~25 %)."""
    _, res = _run(Sgemm(n=n, tile=256), _config(prefetch=False))
    fracs = np.array([r.transfer_fraction for r in res.records if r.duration > 0])
    text = "\n".join(
        [
            f"batches: {len(fracs)}",
            f"transfer fraction: mean={fracs.mean():.3f} p95={np.percentile(fracs, 95):.3f} max={fracs.max():.3f}",
            ascii_series(fracs, label="fraction over time"),
        ]
    )
    data = {
        "fractions": fracs,
        "mean": float(fracs.mean()),
        "max": float(fracs.max()),
    }
    return ExperimentResult("fig07", "Transfer time fraction per batch (sgemm)", text, data)


# ------------------------------------------------------------- Figures 8, 9


def fig08_dedup_timeseries() -> ExperimentResult:
    """Fig 8: raw vs deduplicated batch sizes for stream and sgemm."""
    lines = []
    data = {}
    for name, workload in [
        ("stream", StreamTriad(nbytes=12 * MB)),
        ("sgemm", Sgemm(n=1536, tile=256)),
    ]:
        _, res = _run(workload, _config(prefetch=False))
        raw = [r.num_faults_raw for r in res.records]
        uniq = [r.num_faults_unique for r in res.records]
        dup = duplicate_summary(res.records)
        lines.append(f"{name}: batches={len(raw)} dup_fraction={dup.dup_fraction:.2f} "
                     f"(same-uTLB={dup.dup_same_utlb}, cross-uTLB={dup.dup_cross_utlb})")
        lines.append(ascii_series(raw, label=f"  {name} raw   "))
        lines.append(ascii_series(uniq, label=f"  {name} dedup "))
        data[name] = {"raw": raw, "unique": uniq, "summary": dup}
    return ExperimentResult("fig08", "Batch sizes, raw vs duplicates removed", "\n".join(lines), data)


def fig09_batch_size(sizes=(256, 512, 1024, 2048)) -> ExperimentResult:
    """Fig 9: larger batch caps reduce batches and runtime, with
    diminishing returns past ~1024 (generation-rate ceiling)."""
    rows = []
    data = {}
    for size in sizes:
        _, res = _run(Sgemm(n=1536, tile=256), _config(prefetch=False, batch_size=size))
        summary = batch_size_summary(res.records)
        dup = duplicate_summary(res.records)
        rows.append(
            [
                size,
                summary.num_batches,
                fmt_usec(summary.total_batch_time_usec),
                fmt_usec(res.kernel_time_usec),
                f"{dup.dup_fraction:.2f}",
                f"{summary.unique_sizes.mean:.0f}",
            ]
        )
        data[size] = {
            "batches": summary.num_batches,
            "batch_time": summary.total_batch_time_usec,
            "kernel_time": res.kernel_time_usec,
            "dup_fraction": dup.dup_fraction,
            "unique_per_batch": summary.unique_sizes.mean,
        }
    text = ascii_table(
        ["batch cap", "batches", "batch time", "kernel time", "dup frac", "unique/batch"],
        rows,
    )
    return ExperimentResult("fig09", "Batch-size policy evaluation (sgemm)", text, data)


# ------------------------------------------------------------------- Table 3


def tab03_vablock_stats() -> ExperimentResult:
    """Table 3: VABlock source statistics in a batch."""
    rows = []
    data = {}
    for name, workload, gpu_mb in _suite():
        _, res = _run(workload, _config(prefetch=False, gpu_mem_mb=gpu_mb))
        stats = vablock_stats(res.records)
        rows.append([name] + stats.row())
        data[name] = stats
    text = ascii_table(
        ["Benchmark", "VABlock/Batch", "Faults/VABlock", "Std. Dev.", "Min.", "Max."],
        rows,
    )
    return ExperimentResult("tab03", "VABlock source statistics in a batch", text, data)


# ------------------------------------------------------------------ Figure 10


def fig10_vablock_variance() -> ExperimentResult:
    """Fig 10: at equal migration size, more VABlocks ⇒ higher batch cost."""
    rows = []
    data = {}
    for name, workload, gpu_mb in [
        ("Regular", RegularStream(nbytes=80 * MB, num_programs=80), 96),
        ("Random", RandomAccess(nbytes=512 * MB, num_programs=80,
                                accesses_per_program=192, host_init=False), 768),
        ("sgemm", Sgemm(n=1536, tile=256), 64),
        ("cufft", CuFft(nbytes=64 * MB), 128),
    ]:
        _, res = _run(workload, _config(prefetch=False, gpu_mem_mb=gpu_mb))
        fit = partial_fit_blocks_given_bytes(res.records)
        if fit is None:
            continue
        rows.append([name, f"{fit.slope:.2f}", f"{fit.r2:.2f}", fit.n])
        data[name] = fit
    text = ascii_table(
        ["Benchmark", "extra us per VABlock (at fixed bytes)", "R^2", "batches"], rows
    )
    return ExperimentResult("fig10", "VABlock count drives cost variance", text, data)


# ------------------------------------------------------------------ Figure 11


def fig11_hpgmg_unmap(n: int = 1024) -> ExperimentResult:
    """Fig 11: multithreaded host init inflates unmap cost ~2× end-to-end."""
    rows = []
    data = {}
    for label, threads in [("1 thread", 1), ("64 threads (default OpenMP)", 64)]:
        workload = Hpgmg(n=n, levels=3, cycles=2, host_interleaved=True)
        _, res = _run(workload, _config(prefetch=True, host_threads=threads))
        unmap_fracs = [r.unmap_fraction for r in res.records if r.duration > 0]
        rows.append(
            [
                label,
                fmt_usec(res.kernel_time_usec),
                fmt_usec(res.batch_time_usec),
                f"{np.mean(unmap_fracs):.2f}",
                f"{np.max(unmap_fracs):.2f}",
            ]
        )
        data[threads] = {
            "kernel_time": res.kernel_time_usec,
            "batch_time": res.batch_time_usec,
            "unmap_fraction_mean": float(np.mean(unmap_fracs)),
            "unmap_fraction_max": float(np.max(unmap_fracs)),
        }
    data["slowdown"] = data[64]["kernel_time"] / data[1]["kernel_time"]
    rows.append(["multithreaded / single slowdown", f"{data['slowdown']:.2f}x", "", "", ""])
    text = ascii_table(
        ["host threading", "kernel time", "batch time", "unmap frac (mean)", "unmap frac (max)"],
        rows,
    )
    return ExperimentResult("fig11", "Host threading vs GPU fault performance (HPGMG)", text, data)


# ------------------------------------------------------- Figures 12, 13


def fig12_sgemm_oversub(n: int = 3072) -> ExperimentResult:
    """Fig 12: sgemm under oversubscription — eviction batches cost more."""
    _, res = _run(Sgemm(n=n, tile=256), _config(prefetch=False))
    groups = eviction_groups(res.records)
    rows = []
    data = {}
    for evictions in sorted(groups):
        durs = [r.duration for r in groups[evictions]]
        rows.append(
            [evictions, len(durs), fmt_usec(float(np.mean(durs))), fmt_usec(float(np.max(durs)))]
        )
        data[evictions] = {"count": len(durs), "mean": float(np.mean(durs))}
    text = ascii_table(["evictions in batch", "batches", "mean time", "max time"], rows)
    data["total_evictions"] = sum(r.evictions for r in res.records)
    return ExperimentResult("fig12", "sgemm under oversubscription and eviction", text, data)


def fig13_stream_levels(nbytes_per_array: int = 32 * MB, sweeps: int = 3) -> ExperimentResult:
    """Fig 13: same eviction count, multiple cost levels (unmap paid once).

    BabelStream iterates its kernels many times; under oversubscription the
    later sweeps page evicted blocks back in *without* the CPU-unmapping
    cost (their pages are no longer host-mapped), creating the lower cost
    levels at the same eviction count."""
    _, res = _run(
        StreamTriad(nbytes=nbytes_per_array, sweeps=sweeps), _config(prefetch=False)
    )
    groups = eviction_groups(res.records)
    rows = []
    data = {}
    for evictions in sorted(groups):
        if evictions == 0:
            continue
        recs = groups[evictions]
        levels = split_levels([r.duration for r in recs])
        for li, (mean_dur, count) in enumerate(levels):
            # Mean unmap time of members on this level.
            members = [
                r
                for r in recs
                if abs(r.duration - mean_dur) <= max(1.0, 0.5 * mean_dur)
            ]
            unmap = float(np.mean([r.time_unmap for r in members])) if members else 0.0
            rows.append([evictions, li, count, fmt_usec(mean_dur), fmt_usec(unmap)])
        data[evictions] = levels
    evicting = [r for r in res.records if r.evictions > 0]
    data["unmap_free_evicting"] = sum(1 for r in evicting if r.time_unmap == 0.0)
    data["unmap_paying_evicting"] = sum(1 for r in evicting if r.time_unmap > 0.0)
    rows.append(
        [
            "all",
            "-",
            len(evicting),
            f"unmap-free: {data['unmap_free_evicting']}",
            f"unmap-paying: {data['unmap_paying_evicting']}",
        ]
    )
    text = ascii_table(
        ["evictions", "level", "batches", "mean time", "mean unmap time"], rows
    )
    return ExperimentResult("fig13", "Stream oversubscription cost levels", text, data)


# ------------------------------------------------------- Figures 14, 15


def fig14_prefetch_sgemm(n: int = 1536) -> ExperimentResult:
    """Fig 14: prefetching eliminates ~9 in 10 batches; DMA-state batches
    become the dominant outliers."""
    data = {}
    rows = []
    for label, prefetch in [("prefetch off", False), ("prefetch on", True)]:
        _, res = _run(Sgemm(n=n, tile=256), _config(prefetch=prefetch))
        dma_fracs = [r.dma_fraction for r in res.records if r.duration > 0]
        rows.append(
            [
                label,
                res.num_batches,
                fmt_usec(res.batch_time_usec),
                f"{np.max(dma_fracs):.2f}",
                f"{np.mean([r.num_faults_raw for r in res.records]):.0f}",
            ]
        )
        data[prefetch] = {
            "batches": res.num_batches,
            "batch_time": res.batch_time_usec,
            "dma_fraction_max": float(np.max(dma_fracs)),
        }
    reduction = 1.0 - data[True]["batches"] / data[False]["batches"]
    data["batch_reduction"] = reduction
    rows.append([f"batch reduction: {reduction:.0%}", "", "", "", ""])
    text = ascii_table(
        ["config", "batches", "batch time", "max DMA fraction", "mean batch size"], rows
    )
    return ExperimentResult("fig14", "sgemm with prefetching enabled", text, data)


def fig15_evict_prefetch(n: int = 2048, gpu_mem_mb: int = 48) -> ExperimentResult:
    """Fig 15: dgemm with eviction + prefetching — four batch populations."""
    _, res = _run(Dgemm(n=n, tile=256), _config(prefetch=True, gpu_mem_mb=gpu_mem_mb))
    recs = res.records
    populations = {
        "prefetching (pages_prefetched > 0)": [r for r in recs if r.pages_prefetched > 0],
        "evicting (evictions > 0)": [r for r in recs if r.evictions > 0],
        "CPU unmapping (unmap_calls > 0)": [r for r in recs if r.unmap_calls > 0],
        "DMA-state setup (new_dma_blocks > 0)": [r for r in recs if r.new_dma_blocks > 0],
    }
    rows = []
    data = {"total_batches": len(recs)}
    for name, members in populations.items():
        durs = [r.duration for r in members] or [0.0]
        bytes_h2d = [r.bytes_h2d for r in members] or [0]
        rows.append(
            [
                name,
                len(members),
                fmt_usec(float(np.mean(durs))),
                fmt_bytes(float(np.mean(bytes_h2d))),
            ]
        )
        data[name] = len(members)
    text = ascii_table(["population", "batches", "mean time", "mean migration"], rows)
    return ExperimentResult("fig15", "dgemm with eviction + prefetching", text, data)


# ------------------------------------------------------------------- Table 4


def tab04_batch_kernel_times() -> ExperimentResult:
    """Table 4: batch & kernel times with/without prefetching under modest
    oversubscription (GS ~16 %, HPGMG ~25 %)."""
    rows = []
    data = {}
    cases = [
        ("Gauss-Seidel", GaussSeidel(n=2048, sweeps=2), 54),
        ("HPGMG", Hpgmg(n=1536, levels=3, cycles=2), 40),
    ]
    for name, workload, gpu_mb in cases:
        entry = {}
        for prefetch in (False, True):
            _, res = _run(workload, _config(prefetch=prefetch, gpu_mem_mb=gpu_mb))
            entry[prefetch] = {
                "batch": res.batch_time_usec,
                "kernel": res.kernel_time_usec,
            }
        speedup = entry[False]["kernel"] / entry[True]["kernel"]
        rows.append(
            [
                name,
                fmt_usec(entry[False]["batch"]),
                fmt_usec(entry[False]["kernel"]),
                fmt_usec(entry[True]["batch"]),
                fmt_usec(entry[True]["kernel"]),
                f"{speedup:.2f}x",
            ]
        )
        entry["speedup"] = speedup
        data[name] = entry
    text = ascii_table(
        [
            "Benchmark",
            "Batch (no pf)",
            "Kernel (no pf)",
            "Batch (pf)",
            "Kernel (pf)",
            "pf speedup",
        ],
        rows,
    )
    return ExperimentResult("tab04", "Batch and kernel execution times", text, data)


# ------------------------------------------------------- Figures 16, 17


def _case_study(name: str, workload, gpu_mb: int) -> ExperimentResult:
    system, res = _run(workload, _config(prefetch=True, gpu_mem_mb=gpu_mb), trace=True)
    recs = res.records
    prefetch_series = [r.pages_prefetched for r in recs]
    evict_series = [r.evictions for r in recs]
    segments = phase_segments(prefetch_series, threshold=0, min_len=1)

    # LRU check: eviction order should track allocation order (Fig 16c/17c:
    # first evictions hit the earliest-allocated pages).
    flight = system.obs.flight
    alloc_order: Dict[int, int] = {}
    for _t, _kind, args in flight.select("migrate"):
        alloc_order.setdefault(args[1], len(alloc_order))
    eviction_blocks = [args[1] for _t, _kind, args in flight.select("evict")]
    first_k = eviction_blocks[: max(1, len(eviction_blocks) // 4)]
    ranks = [alloc_order.get(b, 0) for b in first_k]
    median_rank = float(np.median(ranks)) if ranks else 0.0
    total_blocks = max(1, len(alloc_order))

    lines = [
        f"batches={len(recs)} evictions={sum(evict_series):.0f} "
        f"prefetched_pages={sum(prefetch_series):.0f}",
        ascii_series(prefetch_series, label="(a) prefetch pages "),
        ascii_series(evict_series, label="(b) evictions      "),
        ascii_series([r.duration for r in recs], label="(t) batch time     "),
        f"(c) LRU banding: first 25% of evictions target allocation-rank "
        f"median {median_rank:.0f} of {total_blocks} blocks "
        f"(earliest-allocated => small rank)",
        f"prefetch-active segments: {len(segments)}",
    ]
    data = {
        "prefetch_series": prefetch_series,
        "evict_series": evict_series,
        "segments": segments,
        "lru_median_rank_fraction": median_rank / total_blocks,
        "evictions": int(sum(evict_series)),
    }
    return ExperimentResult(
        name, f"Case study: batch profile + fault behaviour", "\n".join(lines), data
    )


def fig16_gauss_seidel_case() -> ExperimentResult:
    """Fig 16: Gauss-Seidel at ~16-19 % oversubscription."""
    result = _case_study("fig16", GaussSeidel(n=2048, sweeps=2), gpu_mb=54)
    result.title = "Gauss-Seidel case study (~16% oversubscription)"
    return result


def fig17_hpgmg_case() -> ExperimentResult:
    """Fig 17: HPGMG at ~25 % oversubscription."""
    result = _case_study("fig17", Hpgmg(n=1536, levels=3, cycles=2), gpu_mb=40)
    result.title = "HPGMG case study (~25% oversubscription)"
    return result


# ----------------------------------------------------------------- Ablations


def ablation_dup_adaptive() -> ExperimentResult:
    """§6: tune batch size based on the duplicate rate."""
    rows = []
    data = {}
    for label, adaptive in [("fixed 256", False), ("duplicate-adaptive", True)]:
        _, res = _run(
            Sgemm(n=1536, tile=256),
            _config(prefetch=False, adaptive_batch=adaptive, batch_size=1024),
        )
        dup = duplicate_summary(res.records)
        rows.append(
            [label, res.num_batches, fmt_usec(res.batch_time_usec), f"{dup.dup_fraction:.2f}"]
        )
        data[label] = {
            "batches": res.num_batches,
            "batch_time": res.batch_time_usec,
            "dup_fraction": dup.dup_fraction,
        }
    text = ascii_table(["policy", "batches", "batch time", "dup fraction"], rows)
    return ExperimentResult("ablation_dup_adaptive", "Duplicate-adaptive batch sizing", text, data)


def ablation_driver_parallel() -> ExperimentResult:
    """§6: per-VABlock driver parallelism is workload-imbalanced."""
    rows = []
    data = {}
    for name, workload in [
        ("gauss-seidel (2.3 blk/batch)", GaussSeidel(n=1024)),
        ("Random (many blk/batch)", RandomAccess(nbytes=24 * MB, num_programs=80, accesses_per_program=192)),
    ]:
        per = {}
        for threads in (1, 2, 4, 8):
            _, res = _run(
                workload, _config(prefetch=False, service_threads=threads)
            )
            per[threads] = res.batch_time_usec
        speedup = {t: per[1] / per[t] for t in per}
        rows.append(
            [name] + [f"{speedup[t]:.2f}x" for t in (1, 2, 4, 8)]
        )
        data[name] = speedup
    text = ascii_table(
        ["workload", "1 thread", "2 threads", "4 threads", "8 threads"], rows
    )
    return ExperimentResult(
        "ablation_driver_parallel", "Per-VABlock driver parallelism speedup", text, data
    )


def ablation_async_unmap() -> ExperimentResult:
    """§6: perform CPU unmapping asynchronously, off the fault path."""
    rows = []
    data = {}
    for label, async_unmap in [("on fault path (UVM)", False), ("asynchronous", True)]:
        workload = Hpgmg(n=1024, levels=3, cycles=2, host_interleaved=True)
        _, res = _run(
            workload, _config(prefetch=True, host_threads=64, async_unmap=async_unmap)
        )
        rows.append([label, fmt_usec(res.kernel_time_usec), fmt_usec(res.batch_time_usec)])
        data[label] = res.kernel_time_usec
    data["speedup"] = data["on fault path (UVM)"] / data["asynchronous"]
    rows.append([f"async speedup: {data['speedup']:.2f}x", "", ""])
    text = ascii_table(["unmap policy", "kernel time", "batch time"], rows)
    return ExperimentResult("ablation_async_unmap", "Asynchronous CPU unmapping", text, data)


def ablation_prefetch_scope() -> ExperimentResult:
    """§6: increase the prefetcher's scope beyond one VABlock."""
    rows = []
    data = {}
    for scope in (1, 2, 4):
        _, res = _run(
            StreamTriad(nbytes=12 * MB),
            _config(prefetch=True, prefetch_scope_blocks=scope),
        )
        rows.append([scope, res.num_batches, fmt_usec(res.batch_time_usec)])
        data[scope] = {"batches": res.num_batches, "batch_time": res.batch_time_usec}
    text = ascii_table(["scope (VABlocks)", "batches", "batch time"], rows)
    return ExperimentResult("ablation_prefetch_scope", "Enlarged prefetch scope", text, data)


def sweep_oversubscription() -> ExperimentResult:
    """§5.3/§5.4 hypothesis test: prefetching's gain shrinks as
    oversubscription grows, and "the combination of prefetching and eviction
    can harm performance for applications with irregular access patterns".

    Sweeps device memory for two patterns:

    * dense (Gauss-Seidel): every prefetched page is eventually needed, so
      demand faulting and prefetching degrade *together* (flat ratio after
      the LRU-cyclic cliff);
    * irregular (Random): the prefetcher's 64 KiB upgrades drag in unused
      pages that consume scarce capacity — the gain decays and can invert.
    """
    rows = []
    data = {}
    cases = [
        ("dense (gauss-seidel)", lambda: GaussSeidel(n=1024, sweeps=2), 16),
        (
            "irregular (random)",
            lambda: RandomAccess(
                nbytes=16 * MB, num_programs=80, accesses_per_program=96
            ),
            16,
        ),
    ]
    for label, make_workload, problem_mb in cases:
        series = {}
        for gpu_mb in (16, 12, 8, 6):
            ratio = problem_mb / gpu_mb
            times = {}
            evictions = 0
            for prefetch in (False, True):
                _, res = _run(
                    make_workload(), _config(prefetch=prefetch, gpu_mem_mb=gpu_mb)
                )
                times[prefetch] = res.kernel_time_usec
                if prefetch:
                    evictions = sum(r.evictions for r in res.records)
            speedup = times[False] / times[True]
            series[round(ratio, 2)] = speedup
            rows.append(
                [
                    label,
                    f"{ratio:.2f}x",
                    fmt_usec(times[False]),
                    fmt_usec(times[True]),
                    f"{speedup:.2f}x",
                    evictions,
                ]
            )
        data[label] = series
    text = ascii_table(
        ["pattern", "oversub", "kernel (no pf)", "kernel (pf)", "pf speedup", "evictions (pf)"],
        rows,
    )
    return ExperimentResult(
        "sweep_oversubscription",
        "Prefetch gain vs oversubscription (§5.3/§5.4 hypotheses)",
        text,
        data,
    )


def ablation_faster_interconnect() -> ExperimentResult:
    """§6 claim test: "improvements to basic hardware, such as interconnect
    bandwidth and latency, would still improve performance but would not
    resolve the underlying issues."  Runs sgemm (no prefetch) on platform
    presets from PCIe 3 to an ideal free wire and reports how little of the
    batch time the wire actually was."""
    from ..hostos.platforms import PLATFORM_PRESETS

    rows = []
    data = {}
    base_time = None
    for preset in ("x86-pcie3", "x86-pcie4", "power9-nvlink2", "ideal-interconnect"):
        cfg = _config(prefetch=False)
        cfg.cost_overrides = dict(PLATFORM_PRESETS[preset])
        _, res = _run(Sgemm(n=1536, tile=256), cfg)
        if base_time is None:
            base_time = res.batch_time_usec
        speedup = base_time / res.batch_time_usec
        rows.append(
            [preset, fmt_usec(res.batch_time_usec), fmt_usec(res.kernel_time_usec), f"{speedup:.2f}x"]
        )
        data[preset] = {
            "batch_time": res.batch_time_usec,
            "kernel_time": res.kernel_time_usec,
            "speedup": speedup,
        }
    text = ascii_table(
        ["platform preset", "batch time", "kernel time", "speedup vs PCIe3"], rows
    )
    return ExperimentResult(
        "ablation_faster_interconnect",
        "Interconnect sensitivity (§6: hardware cannot fix the fault path)",
        text,
        data,
    )


def fig_pointer_chase() -> ExperimentResult:
    """Driver-serialization endpoint (§6): a dependent pointer chase ships
    one fault per batch, paying a full driver round trip per page — versus a
    streaming read whose faults amortize across 60+-fault batches."""
    from ..workloads import PointerChase

    rows = []
    data = {}
    # Pointer chase: one dependent page per hop.
    _, chase = _run(PointerChase(num_pages=512, hops=256), _config(prefetch=False))
    chase_per_page = chase.kernel_time_usec / 256
    rows.append(
        [
            "pointer chase (dependent)",
            chase.num_batches,
            f"{np.mean([r.num_faults_raw for r in chase.records]):.1f}",
            f"{chase_per_page:.2f}",
        ]
    )
    data["chase_per_page"] = chase_per_page
    data["chase_batches"] = chase.num_batches
    # Streaming read of the same page count.
    _, stream = _run(StreamTriad(nbytes=2 * MB), _config(prefetch=False))
    pages = 3 * (2 * MB) // PAGE_SIZE
    stream_per_page = stream.kernel_time_usec / pages
    rows.append(
        [
            "stream (independent)",
            stream.num_batches,
            f"{np.mean([r.num_faults_raw for r in stream.records]):.1f}",
            f"{stream_per_page:.2f}",
        ]
    )
    data["stream_per_page"] = stream_per_page
    data["serialization_penalty"] = chase_per_page / stream_per_page
    text = ascii_table(
        ["access pattern", "batches", "mean faults/batch", "us per page"], rows
    )
    return ExperimentResult(
        "fig_pointer_chase",
        "Fault serialization: dependent vs independent accesses",
        text,
        data,
    )


#: Registry: experiment id → runner.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig01": fig01_latency,
    "fig03": fig03_vecadd_batches,
    "fig04": fig04_vecadd_timing,
    "fig05": fig05_prefetch_warp,
    "tab02": tab02_sm_stats,
    "fig06": fig06_data_movement,
    "fig07": fig07_transfer_fraction,
    "fig08": fig08_dedup_timeseries,
    "fig09": fig09_batch_size,
    "tab03": tab03_vablock_stats,
    "fig10": fig10_vablock_variance,
    "fig11": fig11_hpgmg_unmap,
    "fig12": fig12_sgemm_oversub,
    "fig13": fig13_stream_levels,
    "fig14": fig14_prefetch_sgemm,
    "fig15": fig15_evict_prefetch,
    "tab04": tab04_batch_kernel_times,
    "fig16": fig16_gauss_seidel_case,
    "fig17": fig17_hpgmg_case,
    "sweep_oversubscription": sweep_oversubscription,
    "ablation_faster_interconnect": ablation_faster_interconnect,
    "fig_pointer_chase": fig_pointer_chase,
    "ablation_dup_adaptive": ablation_dup_adaptive,
    "ablation_driver_parallel": ablation_driver_parallel,
    "ablation_async_unmap": ablation_async_unmap,
    "ablation_prefetch_scope": ablation_prefetch_scope,
}


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id](**kwargs)
