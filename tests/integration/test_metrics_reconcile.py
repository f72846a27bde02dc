"""Metrics totals reconcile exactly with the per-batch + engine ledgers.

Batch, fault, page, eviction, byte, host-OS, retry and failover families
are folded from the batch log (and, for the CPU-touch D2H path, the EngineCounters)
when the registry is read; degradations still count at their sites.
Across every bundled chaos profile, several seeds, and runs whose injected
crash replays batches from a checkpoint, metrics and ledgers must agree to
the unit — a replay must rewind both, and a site-counted family must not
drift from the record field it mirrors.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.units import MB
from repro.workloads import WORKLOAD_REGISTRY, RegularStream

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples" / "chaos"
PROFILES = sorted(EXAMPLES_DIR.glob("*.json"))


def metric_value(snap, name, **labels):
    family = snap.get(name)
    if family is None:
        return 0.0
    for series in family["series"]:
        if series["labels"] == labels:
            return series["value"]
    return 0.0


def small_stream_config(seed):
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = 16 * MB
    cfg.gpu.num_sms = 8
    cfg.check.enabled = True
    cfg.check.mode = "report"
    return cfg


def run_profile(profile, seed):
    cfg = small_stream_config(seed)
    cfg.inject.enabled = True
    cfg.inject.profile = str(profile)
    cfg.inject.checkpoint_every = 8
    cfg.validate()
    system = UvmSystem(cfg)
    RegularStream().run(system)
    return system


def run_crash_at_6(seed, trace=False):
    """A crash at batch 6 restores the batch-4 checkpoint, so batches 5 and
    6 run twice."""
    cfg = small_stream_config(seed)
    cfg.inject.enabled = True
    cfg.inject.sites = {"engine.crash": {"at_batch": 6}}
    cfg.inject.checkpoint_every = 4
    cfg.validate()
    system = UvmSystem(cfg, trace=trace)
    RegularStream().run(system)
    return system


def run_crashy_oversubscribed(seed):
    """``crashy`` at 4 MiB: the crash at batch 12 restores the batch-10
    checkpoint, and the replayed batches 11 and 12 evict."""
    cfg = small_stream_config(seed)
    cfg.gpu.memory_bytes = 4 * MB
    cfg.inject.enabled = True
    cfg.inject.profile = "crashy"
    cfg.inject.checkpoint_every = 5
    cfg.validate()
    system = UvmSystem(cfg)
    RegularStream().run(system)
    assert all(r.evictions for r in system.records[11:13])
    return system


def run_crash_midrun_default_stream(seed):
    """The bundled ``crash_midrun`` profile on the default-config ``stream``
    workload: its crash at batch 10 replays from the launch-start
    checkpoint."""
    cfg = default_config()
    cfg.seed = seed
    cfg.check.enabled = True
    cfg.check.mode = "report"
    cfg.inject.enabled = True
    cfg.inject.profile = str(EXAMPLES_DIR / "crash_midrun.json")
    cfg.validate()
    system = UvmSystem(cfg)
    WORKLOAD_REGISTRY["stream"]().run(system)
    return system


def assert_reconciles(system):
    records = system.records
    engine = system.engine
    snap = system.metrics_snapshot()

    def total(name):
        return sum(getattr(r, name) for r in records)

    hinted = sum(1 for r in records if r.hinted)
    assert metric_value(snap, "uvm_batches_total", kind="fault") == len(records) - hinted
    assert metric_value(snap, "uvm_batches_total", kind="hinted") == hinted
    for kind, field in (
        ("raw", "num_faults_raw"),
        ("unique", "num_faults_unique"),
        ("duplicate", "duplicate_count"),
        ("dropped", "dropped_at_flush"),
    ):
        assert metric_value(snap, "uvm_faults_total", kind=kind) == total(field)
    for op, field in (
        ("migrated_h2d", "pages_migrated_h2d"),
        ("populated", "pages_populated"),
        ("prefetched", "pages_prefetched"),
        ("unmapped", "pages_unmapped"),
        ("evicted", "pages_evicted"),
    ):
        assert metric_value(snap, "uvm_pages_total", op=op) == total(field)
    assert metric_value(
        snap, "uvm_evictions_total", policy=engine.driver.eviction.name
    ) == total("evictions")
    assert metric_value(snap, "uvm_bytes_total", dir="h2d") == total("bytes_h2d")
    assert metric_value(snap, "uvm_bytes_total", dir="d2h") == total("bytes_d2h")
    for op, field in (
        ("unmap_calls", "unmap_calls"),
        ("dma_mappings", "dma_mappings_created"),
        ("radix_nodes", "radix_nodes_allocated"),
    ):
        assert metric_value(snap, "uvm_hostos_total", op=op) == total(field)
    for name, field in (
        ("uvm_batch_service_usec", "duration"),
        ("uvm_batch_faults", "num_faults_raw"),
    ):
        (series,) = snap[name]["series"]
        assert series["value"]["count"] == len(records)
        assert series["value"]["sum"] == pytest.approx(total(field))
    assert metric_value(snap, "uvm_retries_total", site="dma") == total("retries_dma")
    assert metric_value(snap, "uvm_retries_total", site="populate") == total(
        "retries_populate"
    )
    # The ce site is shared: driver in-batch retries + engine D2H retries.
    assert (
        metric_value(snap, "uvm_retries_total", site="ce")
        == total("retries_transfer") + engine.counters.d2h_retries
    )
    assert (
        metric_value(snap, "uvm_ce_failovers_total")
        == total("ce_failovers") + engine.counters.d2h_failovers
    )
    assert metric_value(snap, "uvm_degrade_total", kind="prefetch-fallback") == total(
        "prefetch_fallbacks"
    )
    assert metric_value(snap, "uvm_degrade_total", kind="dma-defer") + metric_value(
        snap, "uvm_degrade_total", kind="transfer-defer"
    ) == total("blocks_deferred")
    assert system.sanitizer.total_violations == 0


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.stem)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profile_totals_reconcile(profile, seed):
    assert_reconciles(run_profile(profile, seed))


@pytest.mark.parametrize(
    "run, seed",
    [
        (run_crash_at_6, 0),
        (run_crash_at_6, 1),
        (run_crash_at_6, 2),
        (run_crashy_oversubscribed, 0),
        (run_crash_midrun_default_stream, 0),
    ],
    ids=[
        "crash6-ckpt4-s0",
        "crash6-ckpt4-s1",
        "crash6-ckpt4-s2",
        "crashy-4MiB-ckpt5-s0",
        "crash_midrun-default-s0",
    ],
)
def test_replayed_run_reconciles(run, seed):
    """A crash recovery replays batches: the metrics follow the rewound
    log instead of counting the replayed batches twice."""
    system = run(seed)
    assert system.injector.summary()["recoveries"] == 1
    assert_reconciles(system)


def test_replayed_trace_is_the_clean_trace_plus_the_crash_seam():
    fine_kinds = ("fault", "migrate", "evict", "batch.close")
    crashed = run_crash_at_6(0, trace=True)
    clean = UvmSystem(small_stream_config(0), trace=True)
    RegularStream().run(clean)

    def fine(system):
        return [e for e in system.obs.flight if e[1] in fine_kinds]

    assert fine(clean)
    assert fine(crashed) == fine(clean)
    kinds = Counter(e[1] for e in crashed.obs.flight)
    assert kinds["crash.injected"] == 1
    assert kinds["crash.recovered"] == 1
    assert [r.to_dict() for r in crashed.records] == [r.to_dict() for r in clean.records]


@pytest.mark.parametrize("seed", [0, 7])
def test_engine_d2h_path_reconciles(seed):
    """Force traffic through the no-BatchRecord path: device-resident pages
    touched from the CPU under a flaky interconnect."""
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = 16 * MB
    cfg.check.enabled = True
    cfg.check.mode = "report"
    cfg.inject.enabled = True
    cfg.inject.sites = {"ce.transfer_fault": {"rate": 0.4}, "ce.stuck": {"rate": 0.2}}
    cfg.validate()
    system = UvmSystem(cfg)
    alloc = system.managed_alloc(2 * MB)
    system.host_touch(alloc)
    engine = system.engine
    from repro.errors import RetryExhausted

    for _ in range(16):
        try:
            system.mem_prefetch(alloc)
            system.host_touch(alloc)
        except RetryExhausted:
            # Exhaustion mid-burst still keeps both ledgers in step.
            break
        if engine.counters.d2h_retries + engine.counters.d2h_failovers > 0:
            break
    assert engine.counters.d2h_retries + engine.counters.d2h_failovers > 0
    assert engine.counters.d2h_backoff_usec > 0
    assert_reconciles(system)
