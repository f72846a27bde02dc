"""Golden Chrome-trace digests: the trace a run renders, pinned.

Each case runs a small workload with the Chrome trace on and hashes its
canonical trace: every ``traceEvents`` entry as sorted-key JSON, the lines
sorted, so the digest covers every event and track name but not the order
events were emitted in.  The cases cover a streaming run under eviction, a
prefetch-hinted (``bulk_migrate``) run with CPU-touch write-backs, and a
2-GPU run with peer migrations.

A crash-recovered run must render the clean run's trace: one ``batch N``
slice per batch record and one fault instant per fetched fault, with the
batches a restore replays counted once.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.multigpu import MultiGpuSystem
from repro.units import MB
from repro.workloads import StreamTriad

GOLDEN = {
    "stream-evict": "ee25eb314e6083f14a992c6d632b284137d4902482546ca453978f9d1e12f690",
    "prefetch-hinted": "1a35757f0f550d4b76e48adb82c083632ff3a9b2863a56c119ad70c0fcafbaa4",
    "multigpu-peer": "b5cc1c9e8209b2d1602c0fa4fc5f0b0a0e5666ab2945822137f89791c695e397",
}


def _config(gpu_mem_mb: int, seed: int = 0):
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.obs.chrome_trace = True
    return cfg


def _sweep(alloc, start, stop, name):
    pages = list(alloc.pages(start, stop))
    phases = [Phase.of(pages[i:i + 32]) for i in range(0, len(pages), 32)]
    return KernelLaunch(name, [WarpProgram(phases[i::4]) for i in range(4)])


def stream_evict() -> dict:
    """Triad over 6 MiB of arrays on a 4 MiB device: evictions and refaults."""
    system = UvmSystem(_config(4))
    StreamTriad(nbytes=2 * MB, sweeps=2).run(system)
    assert sum(r.evictions for r in system.records) > 0
    return system.obs.chrome.to_dict()


def prefetch_hinted() -> dict:
    """Host init, a prefetch hint over half the range, a kernel, and a CPU
    touch that writes the device-resident pages back."""
    system = UvmSystem(_config(4, seed=1))
    alloc = system.managed_alloc(6 * MB, "grid")
    system.host_touch(alloc)
    system.mem_prefetch(alloc, 0, alloc.num_pages // 2)
    system.launch(_sweep(alloc, 0, alloc.num_pages, "sweep"))
    system.host_touch(alloc, 0, alloc.num_pages // 4)
    assert any(r.hinted for r in system.records)
    return system.obs.chrome.to_dict()


def multigpu_peer() -> dict:
    """Two devices sweep overlapping halves: the halo migrates peer to peer."""
    mg = MultiGpuSystem(num_devices=2, config=_config(8, seed=2))
    domain = mg.managed_alloc(8 * MB, "domain")
    mg.host_touch(domain)
    half = domain.num_pages // 2
    for _round in range(2):
        mg.launch(0, _sweep(domain, 0, half + 64, "left"))
        mg.launch(1, _sweep(domain, half - 64, domain.num_pages, "right"))
    mg.host_touch(domain, 0, 64)
    assert mg.peer_stats.peer_pages > 0
    return mg.obs.chrome.to_dict()


CASES = {
    "stream-evict": stream_evict,
    "prefetch-hinted": prefetch_hinted,
    "multigpu-peer": multigpu_peer,
}


def trace_digest(doc: dict) -> str:
    """SHA-256 over the sorted canonical JSON lines of ``traceEvents``."""
    lines = sorted(json.dumps(e, sort_keys=True) for e in doc["traceEvents"])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("case_id", list(CASES))
def test_golden_trace(case_id):
    assert trace_digest(CASES[case_id]()) == GOLDEN[case_id]


def test_crash_recovered_trace_counts_each_batch_once():
    cfg = _config(4)
    cfg.inject.enabled = True
    cfg.inject.profile = "crashy"
    cfg.inject.checkpoint_every = 8
    system = UvmSystem(cfg)
    StreamTriad(nbytes=2 * MB).run(system)
    assert system.engine.injector.summary()["recoveries"] == 1
    events = system.obs.chrome.events
    batch_ids = [
        int(e["name"].split()[1])
        for e in events
        if e["ph"] == "X" and e["name"].startswith("batch ")
    ]
    fault_records = [r for r in system.records if not r.hinted]
    assert sorted(batch_ids) == [r.batch_id for r in fault_records]
    faults = [e for e in events if e["ph"] == "i" and e["name"] == "fault"]
    assert len(faults) == sum(r.num_faults_raw for r in system.records)


if __name__ == "__main__":  # pragma: no cover - table maintenance
    for case_id, case in CASES.items():
        print(f'    "{case_id}": "{trace_digest(case())}",')
