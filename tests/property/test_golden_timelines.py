"""Golden timeline digests: the fault pipeline's behaviour, pinned.

Each case runs one workload on a scaled-down system (8 SMs, obs off) and
hashes what it simulated: the final clock plus every ``BatchRecord`` field.
The committed table (``golden_timelines.json``) holds the digests, so any
refactor of the fault path (issuance, buffer, assembly, driver) must leave
every timeline bit-identical.  The cases cover replay-heavy streaming,
evict-under-fault at 4 MiB, reuse and write faults, irregular access, PTX
prefetch storms, every builtin chaos profile and every bundled
``examples/chaos/*.json`` profile, and the driver paths behind the
``DriverConfig`` ablations: asynchronous unmapping, parallel service
threads, enlarged prefetch scope, prefetch and read-mostly hints, the
host-initialised unmap path, a fail-fast run that aborts mid-batch, and
multi-cycle HPGMG, clean and crash-recovered from periodic checkpoints.

The same digests pin that no host wall time reaches the simulated
timeline: a kitchen-sink chaos case run with metrics, the Chrome trace
and the full event log on must read no host clock at all and still match
its table entry.

Regenerate the table only for a deliberate behaviour change::

    PYTHONPATH=src python tests/property/test_golden_timelines.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.errors import RetryExhausted
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.inject.profiles import BUILTIN_PROFILES
from repro.units import MB
from repro.workloads import WORKLOAD_REGISTRY
from repro.workloads.hpgmg import Hpgmg

HERE = Path(__file__).resolve().parent
TABLE = HERE / "golden_timelines.json"
CHAOS_DIR = HERE.parents[1] / "examples" / "chaos"

#: Injected µTLB stalls and nothing else: every round can lose all issuers.
STALL_ONLY = {"utlb.stall": {"rate": 0.25}}


#: Flaky copy engines under fail-fast with two attempts per burst: at
#: seed 1 a burst exhausts its retries 175 batches in, in the third VABlock
#: of a batch that has already evicted, and aborts the run.
FAIL_FAST_SITES = {"ce.transfer_fault": {"rate": 0.05}}
FAIL_FAST = {"failure_mode": "fail-fast", "retry_max_attempts": 2}


def _case(workload: str, seed: int, gpu_mem_mb: int = 16,
          profile: Optional[str] = None, sites: Optional[dict] = None,
          driver: Optional[dict] = None, checkpoint_every: int = 0) -> dict:
    return {"workload": workload, "seed": seed, "gpu_mem_mb": gpu_mem_mb,
            "profile": profile, "sites": sites, "driver": driver,
            "checkpoint_every": checkpoint_every}


def hinted_read_mostly(system: UvmSystem) -> None:
    """Host init, read-mostly advice and a prefetch hint over half the
    range, then a kernel that reads everything and writes a quarter: the
    writes collapse the read-mostly duplication and pay the deferred unmap."""
    alloc = system.managed_alloc(6 * MB, "grid")
    system.host_touch(alloc)
    system.mem_advise_read_mostly(alloc)
    system.mem_prefetch(alloc, 0, alloc.num_pages // 2)
    pages = list(alloc.pages())
    writes = pages[: len(pages) // 4]
    phases = [Phase.of(pages[i:i + 32]) for i in range(0, len(pages), 32)]
    phases += [Phase.of([], writes[i:i + 32]) for i in range(0, len(writes), 32)]
    system.launch(KernelLaunch("sweep", [WarpProgram(phases[i::4]) for i in range(4)]))


def hpgmg_3cycle(system: UvmSystem) -> None:
    """Three V-cycles with host work between them on a small grid: each
    cycle's kernel launches the same warp programs."""
    Hpgmg(n=512, levels=3, cycles=3).run(system)


#: Scripted runs, by the name a case gives as its workload.
SCRIPTS = {"hinted-read-mostly": hinted_read_mostly, "hpgmg-3cycle": hpgmg_3cycle}


def golden_cases() -> Dict[str, dict]:
    """Case id -> run parameters, in table order."""
    cases = {}
    for workload in ("vecadd", "stream", "sgemm", "bfs", "prefetch-kernel"):
        for seed in (0, 3):
            cases[f"{workload}/s{seed}"] = _case(workload, seed)
    cases["stream/4MiB/s0"] = _case("stream", 0, gpu_mem_mb=4)
    for profile in sorted(BUILTIN_PROFILES):
        for seed in (0, 7):
            cases[f"vecadd/{profile}/s{seed}"] = _case("vecadd", seed, profile=profile)
            cases[f"stream/4MiB/{profile}/s{seed}"] = _case(
                "stream", seed, gpu_mem_mb=4, profile=profile
            )
    for path in sorted(CHAOS_DIR.glob("*.json")):
        cases[f"stream/{path.name}/s3"] = _case("stream", 3, profile=str(path))
        cases[f"sgemm/8MiB/{path.name}/s1"] = _case(
            "sgemm", 1, gpu_mem_mb=8, profile=str(path)
        )
    # Runs whose rounds can lose every issuer to an injected µTLB stall.
    for seed in (0, 1, 2, 7):
        cases[f"stream/4MiB/stall-only/s{seed}"] = _case(
            "stream", seed, gpu_mem_mb=4, sites=STALL_ONLY
        )
    for seed in (1, 2, 7):
        cases[f"vecadd/4MiB/utlb-churn/s{seed}"] = _case(
            "vecadd", seed, gpu_mem_mb=4, profile="utlb-churn"
        )
    # Driver paths no case above takes.
    cases["random/s0"] = _case("random", 0)
    cases["random/async-unmap/s0"] = _case("random", 0, driver={"async_unmap": True})
    cases["stream/4MiB/threads2/s0"] = _case(
        "stream", 0, gpu_mem_mb=4, driver={"service_threads": 2}
    )
    cases["stream/scope2/s0"] = _case("stream", 0, driver={"prefetch_scope_blocks": 2})
    cases["hinted-read-mostly/4MiB/s1"] = _case("hinted-read-mostly", 1, gpu_mem_mb=4)
    cases["stream/4MiB/fail-fast/s1"] = _case(
        "stream", 1, gpu_mem_mb=4, sites=FAIL_FAST_SITES, driver=FAIL_FAST
    )
    # V-cycles that launch one program set, clean and crash-recovered
    # from a checkpoint taken every 8 batches.
    cases["hpgmg-3cycle/4MiB/s0"] = _case("hpgmg-3cycle", 0, gpu_mem_mb=4)
    for seed in (0, 7):
        cases[f"hpgmg-3cycle/4MiB/kitchen-sink/ckpt8/s{seed}"] = _case(
            "hpgmg-3cycle", seed, gpu_mem_mb=4, profile="kitchen-sink",
            checkpoint_every=8,
        )
    return cases


def run_case(workload: str, seed: int, gpu_mem_mb: int, profile, sites,
             driver=None, checkpoint_every: int = 0, sanitize: bool = False,
             observed: bool = False) -> UvmSystem:
    """Run one case; ``driver`` overrides ``DriverConfig`` fields,
    ``checkpoint_every`` sets the injected run's checkpoint period,
    ``sanitize`` attaches UVMSan in report mode, and ``observed`` keeps
    metrics on and adds the Chrome trace and the full event log
    (``UvmSystem(trace=True)``).  A fail-fast case must abort: its digest
    covers the aborted batch's partial record."""
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.gpu.num_sms = 8
    if observed:
        cfg.obs.chrome_trace = True
    else:
        cfg.obs = cfg.obs.disabled()
    if sanitize:
        cfg.check.enabled = True
        cfg.check.mode = "report"
    if profile is not None or sites:
        cfg.inject.enabled = True
        cfg.inject.profile = profile
        cfg.inject.sites = dict(sites or {})
        cfg.inject.checkpoint_every = checkpoint_every
    for name, value in (driver or {}).items():
        setattr(cfg.driver, name, value)
    cfg.validate()
    system = UvmSystem(cfg, trace=observed)
    run = SCRIPTS.get(workload) or WORKLOAD_REGISTRY[workload]().run
    if cfg.driver.failure_mode == "fail-fast":
        with pytest.raises(RetryExhausted):
            run(system)
        assert system.records[-1].aborted
    else:
        run(system)
    return system


def timeline_digest(system: UvmSystem) -> str:
    """SHA-256 over the final clock and the sorted items of every record."""
    h = hashlib.sha256(float(system.clock.now).hex().encode())
    for record in system.records:
        h.update(repr(sorted(record.to_dict().items())).encode())
    return h.hexdigest()


def load_table() -> Dict[str, str]:
    return json.loads(TABLE.read_text())


CASES = golden_cases()


def test_table_covers_every_case():
    assert sorted(load_table()) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_golden_timeline(case_id):
    system = run_case(**CASES[case_id])
    assert timeline_digest(system) == load_table()[case_id]


class CountingHostClock:
    """Stands in for the host clock and counts its reads."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 3.0e5 + self.reads

    def ns(self) -> int:
        return int(self() * 1e9)


def test_host_clock_never_reaches_the_timeline(monkeypatch):
    """A fully observed run reads no host clock at all, and matches its
    table entry."""
    host = CountingHostClock()
    for name in ("time", "perf_counter", "monotonic"):
        monkeypatch.setattr(time, name, host)
        monkeypatch.setattr(time, f"{name}_ns", host.ns)
    case_id = "stream/4MiB/kitchen-sink/s0"
    system = run_case(**CASES[case_id], observed=True)
    assert host.reads == 0, "the observed run read the host clock"
    assert timeline_digest(system) == load_table()[case_id]


if __name__ == "__main__":  # pragma: no cover - table maintenance
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_timelines.py --record")
    table = {}
    for case_id, params in CASES.items():
        table[case_id] = timeline_digest(run_case(**params))
        print(case_id, table[case_id][:16], flush=True)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
