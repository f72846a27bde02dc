"""Configuration dataclasses for the simulated UVM stack.

The defaults model the paper's testbed (§3.1): a Titan V (80 SMs, 12 GB HBM2)
attached over PCIe 3.0 x16 to an AMD Epyc 7551P host running Fedora 33 —
except that device memory defaults to 64 MiB so the full experiment suite runs
in seconds on a laptop.  Experiments express problem sizes as *ratios* of
device memory, so the scaled-down memory preserves the paper's
oversubscription behaviour.

Every hardware limit the paper reverse-engineers is an explicit field here:

* ``utlb_outstanding_limit = 56`` — the per-µTLB outstanding fault cap
  measured in §3.2 / Fig 3.
* ``sm_fault_rate_limit`` — the per-SM fault-rate throttle ("far fault"
  mechanism) inferred in §3.2; with a 256-fault batch over 80 SMs this
  yields the ~3.2 faults/SM/batch ceiling of Table 2.
* ``batch_size = 256`` — the driver's default maximum batch (§2.2); Fig 9
  sweeps this up to 6144.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .units import MB, PAGE_SIZE, VABLOCK_SIZE


@dataclass
class GpuConfig:
    """Device-side hardware parameters."""

    #: Number of streaming multiprocessors (Titan V: 80).
    num_sms: int = 80
    #: Adjacent SMs share a µTLB (§4.2: "adjacent SMs share a µTLB").
    sms_per_utlb: int = 2
    #: Maximum outstanding translation faults per µTLB (§3.2, Fig 3).
    utlb_outstanding_limit: int = 56
    #: Fault-rate throttle (§3.2, the "far fault" mechanism): an SM may
    #: issue up to ``sm_fault_rate_limit`` faults per
    #: ``fault_window_unit_usec`` of replay-window time.  The engine scales
    #: each round's quota by the actual window length (≈ the previous
    #: batch's service time), so short windows (a fast driver) yield the
    #: small batches of Fig 3 while long windows let the buffer accumulate —
    #: the mechanism behind Fig 9's unique-fault ceiling of ~500/batch.
    sm_fault_rate_limit: int = 8
    #: Reference window (µs) for the rate limit above (rate = limit/unit).
    fault_window_unit_usec: float = 20.0
    #: Hardware fault buffer entries; overflowing faults are dropped and
    #: reissued after replay (footnote 1 of the paper).
    fault_buffer_entries: int = 8192
    #: Device memory size.  Scaled down from 12 GiB by default; see module doc.
    memory_bytes: int = 64 * MB
    #: Maximum warps resident per SM (Volta: 64).
    max_warps_per_sm: int = 64
    #: Threads per warp.
    warp_size: int = 32

    @property
    def num_utlbs(self) -> int:
        return (self.num_sms + self.sms_per_utlb - 1) // self.sms_per_utlb

    @property
    def num_vablocks(self) -> int:
        return self.memory_bytes // VABLOCK_SIZE

    def utlb_of_sm(self, sm_id: int) -> int:
        """µTLB id servicing ``sm_id`` (adjacent SMs share)."""
        return sm_id // self.sms_per_utlb

    def validate(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")
        if self.sms_per_utlb <= 0:
            raise ConfigError("sms_per_utlb must be positive")
        if self.utlb_outstanding_limit <= 0:
            raise ConfigError("utlb_outstanding_limit must be positive")
        if self.sm_fault_rate_limit <= 0:
            raise ConfigError("sm_fault_rate_limit must be positive")
        if self.memory_bytes < VABLOCK_SIZE:
            raise ConfigError("device memory must hold at least one VABlock")
        if self.memory_bytes % VABLOCK_SIZE:
            raise ConfigError("device memory must be a multiple of 2MB")
        if self.fault_buffer_entries <= 0:
            raise ConfigError("fault_buffer_entries must be positive")


@dataclass
class DriverConfig:
    """nvidia-uvm driver policy parameters."""

    #: Maximum faults fetched into one batch (§2.2; swept by Fig 9).
    batch_size: int = 256
    #: Enable the reactive tree/density prefetcher (§5.2).
    prefetch_enabled: bool = True
    #: Density threshold: a subtree is promoted when the fraction of its
    #: pages with migration *evidence* (resident, faulted, or 64 KiB
    #: upgrades — not the tree's own promotions) strictly exceeds this.
    #: 0.3 calibrates to the real driver's behaviour (51 % counted over a
    #: bitmap that includes same-pass promotions): dense sweeps escalate to
    #: the full block within ~2 batches, while a single fault in an empty
    #: block pulls only a region pair.
    prefetch_threshold: float = 0.3
    #: Prefetch policy: "density-tree" (the driver's, §5.2), "region-only"
    #: (just the 64 KiB upgrade), "sequential" (next-N), or "full-block".
    prefetch_policy: str = "density-tree"
    #: Enable VABlock-granularity LRU eviction (§5.1).  When disabled, an
    #: out-of-memory condition raises :class:`repro.errors.OutOfDeviceMemory`.
    eviction_enabled: bool = True
    #: Eviction policy: "lru" (the driver's fault-visible LRU, §5.1),
    #: "fifo" (strict allocation order), "random", or "access-counter"
    #: (hit-aware via modelled GPU access counters, Ganguly et al. [15]).
    eviction_policy: str = "lru"
    #: Ablation (§6): number of simulated driver service threads splitting the
    #: per-VABlock work of a batch.  1 reproduces the paper's serial driver.
    service_threads: int = 1
    #: Ablation (§6): perform CPU page unmapping asynchronously (off the fault
    #: path); its cost then overlaps the GPU instead of serializing it.
    async_unmap: bool = False
    #: Ablation (§6): adapt batch size based on observed duplicate rate.
    adaptive_batch: bool = False
    #: Lower bound for the adaptive batch policy.
    adaptive_batch_min: int = 64
    #: Ablation (§6): prefetch scope in VABlocks (paper: fixed at 1).
    prefetch_scope_blocks: int = 1
    #: Maximum service attempts per transient failure (DMA map, copy-engine
    #: burst, host population) before the driver gives up on the operation.
    retry_max_attempts: int = 4
    #: First retry backoff in simulated µs; doubles (``retry_backoff_factor``)
    #: per attempt up to ``retry_backoff_max_usec``.
    retry_backoff_base_usec: float = 2.0
    retry_backoff_factor: float = 2.0
    retry_backoff_max_usec: float = 64.0
    #: Per-phase deadline: a copy-engine burst that exceeds it is declared
    #: stuck, charged, and failed over to the sibling engine.
    phase_deadline_usec: float = 200.0
    #: What exhausting the retry budget does: "degrade" falls back (defer the
    #: VABlock, drop the prefetch and demand-page) while "fail-fast" raises
    #: :class:`repro.errors.RetryExhausted`.
    failure_mode: str = "degrade"

    def validate(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if not 0.0 < self.prefetch_threshold <= 1.0:
            raise ConfigError("prefetch_threshold must be in (0, 1]")
        if self.prefetch_policy not in (
            "density-tree",
            "region-only",
            "sequential",
            "full-block",
        ):
            raise ConfigError(f"unknown prefetch_policy {self.prefetch_policy!r}")
        if self.eviction_policy not in ("lru", "fifo", "random", "access-counter"):
            raise ConfigError(f"unknown eviction_policy {self.eviction_policy!r}")
        if self.service_threads <= 0:
            raise ConfigError("service_threads must be positive")
        if self.adaptive_batch_min <= 0:
            raise ConfigError("adaptive_batch_min must be positive")
        if self.prefetch_scope_blocks <= 0:
            raise ConfigError("prefetch_scope_blocks must be positive")
        if self.retry_max_attempts <= 0:
            raise ConfigError("retry_max_attempts must be positive")
        if self.retry_backoff_base_usec < 0:
            raise ConfigError("retry_backoff_base_usec must be non-negative")
        if self.retry_backoff_factor < 1.0:
            raise ConfigError("retry_backoff_factor must be >= 1")
        if self.retry_backoff_max_usec < self.retry_backoff_base_usec:
            raise ConfigError(
                "retry_backoff_max_usec must be >= retry_backoff_base_usec"
            )
        if self.phase_deadline_usec <= 0:
            raise ConfigError("phase_deadline_usec must be positive")
        if self.failure_mode not in ("degrade", "fail-fast"):
            raise ConfigError(f"unknown failure_mode {self.failure_mode!r}")


@dataclass
class HostConfig:
    """Host OS / CPU-side parameters."""

    #: Number of host threads used by CPU phases (e.g. OpenMP init).  Fig 11
    #: compares 1 vs. one-per-logical-core (64 on the Epyc 7551P).
    num_threads: int = 1
    #: Logical cores on the host (Epyc 7551P: 32 cores / 64 threads).
    num_cores: int = 64

    def validate(self) -> None:
        if self.num_threads <= 0:
            raise ConfigError("num_threads must be positive")
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")


@dataclass
class ObsConfig:
    """Observability settings (the :mod:`repro.obs` layer).

    Metrics are cheap enough to default on; the Chrome trace
    keeps every event of the run's log (one per phase/fault/transfer) and
    defaults off for sweeps.
    """

    #: Aggregate counters/gauges/histograms (``MetricsRegistry``).
    metrics: bool = True
    #: Chrome trace-event timeline (``ChromeTrace``), rendered from a
    #: tracing flight recorder, which keeps every event.
    chrome_trace: bool = False
    #: NDJSON structured-log path for batch records, plus every
    #: flight-recorder event while tracing (None = no sink).
    ndjson_path: Optional[str] = None
    #: Always-on flight recorder: a bounded ring of recent structured events
    #: (batch open/close, retries, evictions, injections, violations) that
    #: crash bundles dump for post-mortem forensics.  Purely observational —
    #: the simulated timeline is bit-identical with it on or off.
    flight_recorder: bool = True
    #: Flight-recorder ring capacity (events retained, newest win; a
    #: tracing system, ``UvmSystem(trace=True)``, keeps every event).
    flight_cap: int = 512
    #: Directory crash bundles are written under on an unhandled
    #: :class:`~repro.errors.UvmError`, invariant violation, or injected
    #: crash (None = never write bundles).
    bundle_dir: Optional[str] = None

    def disabled(self) -> "ObsConfig":
        """A copy with every instrument off (perf-sensitive sweeps).

        The flight recorder goes dark too — unless a ``bundle_dir`` is set,
        in which case crash forensics stay armed (a dark cell that dies
        should still leave a bundle behind).
        """
        return dataclasses.replace(
            self,
            metrics=False,
            chrome_trace=False,
            ndjson_path=None,
            flight_recorder=self.bundle_dir is not None,
        )

    def validate(self) -> None:
        if self.flight_cap <= 0:
            raise ConfigError("flight_cap must be positive")


@dataclass
class CheckConfig:
    """UVMSan settings (the :mod:`repro.check` runtime sanitizer).

    Default off: the engine installs a null checker whose hooks are no-ops,
    mirroring :class:`ObsConfig`'s disabled instruments, so the fault path
    pays nothing when the sanitizer is not requested.  The sanitizer only
    *reads* simulator state — the simulated timeline is bit-identical with
    it on or off.

    The ``UVM_REPRO_SANITIZE`` environment variable flips the default for a
    whole process (``1`` → enabled in raise mode, ``report`` → enabled in
    report mode), which is how CI runs the full test suite sanitized
    without touching each test.
    """

    #: Master switch for all runtime invariant checks.
    enabled: bool = False
    #: "raise" aborts on the first violation with
    #: :class:`repro.errors.InvariantViolation`; "report" accumulates
    #: violations on the sanitizer for later inspection.
    mode: str = "raise"
    #: Report mode stops recording beyond this many violations (a broken
    #: invariant often fires once per batch; the cap bounds memory).
    max_violations: int = 1000

    @classmethod
    def from_env(cls) -> "CheckConfig":
        """Default config honouring ``UVM_REPRO_SANITIZE`` (see class doc)."""
        value = os.environ.get("UVM_REPRO_SANITIZE", "")
        if value in ("", "0"):
            return cls()
        if value == "report":
            return cls(enabled=True, mode="report")
        return cls(enabled=True, mode="raise")

    def validate(self) -> None:
        if self.mode not in ("raise", "report"):
            raise ConfigError(f"unknown sanitizer mode {self.mode!r}")
        if self.max_violations <= 0:
            raise ConfigError("max_violations must be positive")


@dataclass
class InjectConfig:
    """Fault-injection settings (the :mod:`repro.inject` chaos layer).

    Default off: the engine installs :data:`repro.inject.NULL_INJECTOR` and
    no component carries an injector reference, so the fault path is
    bit-identical with injection disabled — the same null-object contract as
    :class:`CheckConfig` / UVMSan.

    When enabled, every injection site draws from its own
    :func:`repro.sim.rng.spawn_rng` stream keyed off ``SystemConfig.seed``
    and the site name, so a (seed, profile) pair always produces the same
    injected-event schedule regardless of which other sites are active.
    """

    #: Master switch.  Off ⇒ null injector, zero overhead, identical runs.
    enabled: bool = False
    #: Named builtin profile (see ``repro.inject.profiles.BUILTIN_PROFILES``)
    #: or a path to a JSON profile file (``examples/chaos/*.json``).
    profile: Optional[str] = None
    #: Inline site table merged over the profile: maps a site name (e.g.
    #: ``"ce.transfer_fault"``) to its parameter dict (``rate``, ``factor``,
    #: ``at_batch``, ``waste_frac``).
    sites: dict = field(default_factory=dict)
    #: Auto-checkpoint period in completed batches (0 = checkpoint only once
    #: at kernel launch).  Checkpoints enable injected-crash recovery.
    checkpoint_every: int = 0
    #: Recover an injected ``engine.crash`` from the latest checkpoint in
    #: place.  When off the crash surfaces as
    #: :class:`repro.errors.InjectedCrash`.
    crash_recovery: bool = True
    #: Cap on the injector's (clock, site) event log used by the
    #: schedule-determinism property tests.
    max_events: int = 100_000

    def validate(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.max_events <= 0:
            raise ConfigError("max_events must be positive")
        if not self.enabled:
            return
        # Site names and parameter ranges are validated by the inject layer,
        # which owns the site catalogue (lazy import: config must not pull
        # the simulator packages in at import time).
        from .inject.profiles import validate_inject_config

        validate_inject_config(self)


@dataclass
class SystemConfig:
    """Aggregate configuration for one simulated system instance."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    driver: DriverConfig = field(default_factory=DriverConfig)
    host: HostConfig = field(default_factory=HostConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    check: CheckConfig = field(default_factory=CheckConfig.from_env)
    inject: InjectConfig = field(default_factory=InjectConfig)
    #: Seed for all stochastic components (workload shuffles, jitter).
    seed: int = 0
    #: Cost-model overrides, applied as attribute assignments on the default
    #: :class:`repro.hostos.cost_model.CostModel`.
    cost_overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        self.gpu.validate()
        self.driver.validate()
        self.host.validate()
        self.obs.validate()
        self.check.validate()
        self.inject.validate()

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a deep-copied config with top-level fields replaced."""
        clone = dataclasses.replace(
            self,
            gpu=dataclasses.replace(self.gpu),
            driver=dataclasses.replace(self.driver),
            host=dataclasses.replace(self.host),
            obs=dataclasses.replace(self.obs),
            check=dataclasses.replace(self.check),
            inject=dataclasses.replace(self.inject, sites=dict(self.inject.sites)),
            cost_overrides=dict(self.cost_overrides),
        )
        for key, value in kwargs.items():
            if not hasattr(clone, key):
                raise ConfigError(f"unknown SystemConfig field {key!r}")
            setattr(clone, key, value)
        return clone


def apply_config_overrides(config: SystemConfig, overrides: dict) -> SystemConfig:
    """Apply dotted-path overrides to ``config`` in place and return it.

    Keys name attributes through the config tree (``"driver.batch_size"``,
    ``"gpu.memory_bytes"``, ``"seed"``); values replace the current
    attribute.  This is the campaign-spec override mechanism
    (:mod:`repro.campaign`): a JSON spec can tweak any validated field
    without code.  Unknown paths raise :class:`ConfigError`; so does a value
    whose type contradicts the field (bools are not numbers here, even
    though Python says otherwise).  Keys apply in sorted order so the result
    never depends on dict iteration.
    """
    for path in sorted(overrides):
        value = overrides[path]
        target = config
        parts = path.split(".")
        for part in parts[:-1]:
            if not hasattr(target, part):
                raise ConfigError(f"unknown config path {path!r}")
            target = getattr(target, part)
        leaf = parts[-1]
        if not hasattr(target, leaf):
            raise ConfigError(f"unknown config path {path!r}")
        current = getattr(target, leaf)
        if isinstance(current, bool) and not isinstance(value, bool):
            raise ConfigError(f"config path {path!r} expects a bool, got {value!r}")
        if isinstance(current, (int, float)) and not isinstance(current, bool):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"config path {path!r} expects a number, got {value!r}"
                )
            if isinstance(current, float):
                value = float(value)
            elif isinstance(value, float):
                if not value.is_integer():
                    raise ConfigError(
                        f"config path {path!r} expects an integer, got {value!r}"
                    )
                value = int(value)
        setattr(target, leaf, value)
    config.validate()
    return config


def default_config(**driver_overrides) -> SystemConfig:
    """A validated default configuration, optionally overriding driver fields.

    >>> cfg = default_config(prefetch_enabled=False, batch_size=512)
    """
    cfg = SystemConfig()
    for key, value in driver_overrides.items():
        if not hasattr(cfg.driver, key):
            raise ConfigError(f"unknown DriverConfig field {key!r}")
        setattr(cfg.driver, key, value)
    cfg.validate()
    return cfg
