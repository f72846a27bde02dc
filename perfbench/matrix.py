"""The benchmark's workload matrix.

Each workload takes the benchmark's seed, which becomes ``SystemConfig.seed``
(cost-model jitter, fault injection) and seeds any workload RNG.  The four
are chosen so that a different simulator layer dominates each one; the
README gives the measured layer split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import CheckConfig, ObsConfig, SystemConfig
from repro.units import MB
from repro.workloads.base import Workload
from repro.workloads.hpgmg import Hpgmg
from repro.workloads.stream import StreamTriad
from repro.workloads.synthetic import RandomAccess


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    gpu_mb: int
    prefetch: bool
    #: Builds the workload for a seed.
    make: Callable[[int], Workload]
    #: Run under the ``uvm-repro chaos`` defaults: the kitchen-sink
    #: injection profile, a checkpoint every 8 batches, crash recovery,
    #: report-mode UVMSan and the default ObsConfig.  Every other workload
    #: runs with observability and UVMSan off.
    chaos: bool = False

    def config(
        self,
        seed: int,
        obs: Optional[bool] = None,
        sanitizer: Optional[bool] = None,
    ) -> SystemConfig:
        """The workload's system config.  ``obs`` and ``sanitizer`` override
        whether the default ObsConfig and report-mode UVMSan are on."""
        obs = self.chaos if obs is None else obs
        sanitizer = self.chaos if sanitizer is None else sanitizer
        cfg = SystemConfig(seed=seed)
        cfg.gpu.memory_bytes = self.gpu_mb * MB
        cfg.driver.prefetch_enabled = self.prefetch
        cfg.obs = ObsConfig() if obs else ObsConfig().disabled()
        cfg.check = CheckConfig(enabled=sanitizer, mode="report")
        if self.chaos:
            cfg.inject.enabled = True
            cfg.inject.profile = "kitchen-sink"
            cfg.inject.checkpoint_every = 8
            cfg.inject.crash_recovery = True
        cfg.validate()
        return cfg


#: HPGMG-FV shape of the Fig 17 case study (~47 MiB of grids).
HPGMG_N = 1536
HPGMG_LEVELS = 3

WORKLOADS = {
    w.name: w
    for w in (
        # Fig 13 triad, 96 MiB on a 64 MiB device: ~3k small batches, so
        # per-batch engine issuance, fetch and assembly costs dominate.
        BenchWorkload(
            name="stream-oversub",
            gpu_mb=64,
            prefetch=False,
            make=lambda seed: StreamTriad(nbytes=32 << 20, sweeps=3),
        ),
        # Table 2/3 random reads, host-initialised and in-core: ~1k batches
        # of ~90 VABlocks, so per-VABlock servicing and host-OS costs lead.
        BenchWorkload(
            name="random-scatter",
            gpu_mb=768,
            prefetch=False,
            make=lambda seed: RandomAccess(
                nbytes=512 << 20,
                num_programs=80,
                accesses_per_program=4096,
                seed=seed,
            ),
        ),
        # Fig 17 multigrid, oversubscribed, driver prefetch on: the only run
        # with prefetch, prefetch under eviction and host-touch D2H phases.
        BenchWorkload(
            name="hpgmg-oversub",
            gpu_mb=40,
            prefetch=True,
            make=lambda seed: Hpgmg(n=HPGMG_N, levels=HPGMG_LEVELS, cycles=24),
        ),
        # The only run of the injection, checkpoint, UVMSan and obs layers,
        # and of the scalar fault path that injection forces.
        BenchWorkload(
            name="chaos-hpgmg",
            gpu_mb=40,
            prefetch=True,
            make=lambda seed: Hpgmg(n=HPGMG_N, levels=HPGMG_LEVELS, cycles=4),
            chaos=True,
        ),
    )
}
