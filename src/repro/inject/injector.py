"""The fault injector: seeded per-site Bernoulli draws over a site catalogue.

Each site models one documented failure mode of the UVM stack:

``fault_buffer.overflow``
    An incoming fault is dropped as if the hardware buffer were full — the
    paper's footnote-1 drop-and-reissue path — regardless of actual
    occupancy (forced overflow storm).
``fault_buffer.duplicate``
    The GMMU writes a spurious duplicate entry for an accepted fault,
    inflating the batch's duplicate count (§4.3's duplicate sources).
``utlb.stall``
    A µTLB issue port stalls for one replay window: its SM issues no
    translation faults this round.
``utlb.early_cancel``
    An outstanding µTLB entry is cancelled before replay; later misses on
    that page re-request a fresh entry (extra pressure on the 56-entry cap).
``ce.transfer_fault``
    A copy-engine burst aborts mid-flight; time is wasted, no bytes move,
    and the driver retries with backoff.
``ce.brownout``
    The burst completes but the interconnect browns out: wire time is
    multiplied by the site's ``factor``.
``ce.stuck``
    The burst hangs past the driver's per-phase deadline; the driver
    charges the deadline and fails over to the sibling copy engine.
``dma.map_fail``
    ``dma_map_pages`` fails transiently before touching the radix tree;
    the driver retries with backoff, then degrades (defers the VABlock).
``host.populate_enomem``
    Host page population hits ENOMEM; the driver applies eviction pressure
    and retries (the oversubscription reclaim path of §5.1).
``engine.crash``
    A simulated whole-process crash at a batch boundary (``at_batch``);
    recovered from the engine's latest checkpoint when
    ``InjectConfig.crash_recovery`` is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.rng import spawn_rng

#: Every site the injector knows how to fire, in catalogue order.
INJECTION_SITES: Tuple[str, ...] = (
    "fault_buffer.overflow",
    "fault_buffer.duplicate",
    "utlb.stall",
    "utlb.early_cancel",
    "ce.transfer_fault",
    "ce.brownout",
    "ce.stuck",
    "dma.map_fail",
    "host.populate_enomem",
    "engine.crash",
)

#: Sites where a permanent (rate = 1) failure would livelock the engine:
#: every fault dropped / no fault ever issued means replay can never drain.
_LIVELOCK_SITES = ("fault_buffer.overflow", "utlb.stall")


@dataclass(frozen=True)
class SiteSpec:
    """Resolved parameters for one injection site."""

    #: Probability of firing per opportunity (per push / burst / map call).
    rate: float = 0.0
    #: Brownout multiplier on the burst's wire time (``ce.brownout``).
    factor: float = 1.0
    #: Fraction of the burst cost wasted before an injected abort
    #: (``ce.transfer_fault``).
    waste_frac: float = 0.5
    #: Batch boundary at which ``engine.crash`` fires (one-shot).
    at_batch: Optional[int] = None


class FaultInjector:
    """Deterministic, seeded fault injector.

    One lazily-spawned RNG stream per site (``"inject:" + site`` under the
    system seed) makes the per-site schedule a pure function of (seed,
    profile, opportunity sequence).  Counters and a bounded (clock, site)
    event log feed the chaos report, the ``uvm_injected_total`` and
    ``uvm_crash_recoveries_total`` metric families, and the
    schedule-determinism property tests.
    """

    enabled = True

    def __init__(self, config, seed: int, clock) -> None:
        from .profiles import resolve_profile

        self.config = config
        self.seed = seed
        self.clock = clock
        self.sites: Dict[str, SiteSpec] = resolve_profile(config)
        self._rngs: Dict[str, object] = {}
        #: Per-site draw counts (every chance the site had to fire).
        self.opportunities: Dict[str, int] = {}
        #: Per-site injected-event counts (the one-shot ``engine.crash``
        #: counts in :attr:`crashes_fired` instead).
        self.fired: Dict[str, int] = {}
        #: Bounded (clock_usec, site) schedule of injected events.
        self.events: List[Tuple[float, str]] = []
        #: One-shot crash bookkeeping.  Deliberately *outside* checkpoint
        #: state: a crash that already fired must not refire after restore.
        self.crashes_fired = 0
        self.recoveries = 0
        self._max_events = config.max_events

    # ------------------------------------------------------------- firing

    def active(self, site: str) -> bool:
        """Whether the profile configures ``site`` at all."""
        return site in self.sites

    def _rng_for(self, site: str):
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = spawn_rng(self.seed, "inject:" + site)
        return rng

    def fire(self, site: str) -> bool:
        """One Bernoulli draw for ``site``; True ⇒ the failure happens now.

        Sites absent from the profile never draw, so enabling one site
        cannot shift another site's schedule.
        """
        spec = self.sites.get(site)
        if spec is None or spec.rate <= 0.0:
            return False
        self.opportunities[site] = self.opportunities.get(site, 0) + 1
        if float(self._rng_for(site).random()) >= spec.rate:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        self._log(site)
        return True

    def _log(self, site: str) -> None:
        if len(self.events) < self._max_events:
            self.events.append((self.clock.now, site))

    def factor(self, site: str) -> float:
        spec = self.sites.get(site)
        return spec.factor if spec is not None else 1.0

    def waste_frac(self, site: str) -> float:
        spec = self.sites.get(site)
        return spec.waste_frac if spec is not None else 0.5

    # -------------------------------------------------------------- crash

    def crash_due(self, batch_id: int) -> bool:
        """Whether the one-shot ``engine.crash`` site fires at this batch."""
        spec = self.sites.get("engine.crash")
        return (
            spec is not None
            and spec.at_batch is not None
            and self.crashes_fired == 0
            and batch_id >= spec.at_batch
        )

    def record_crash(self) -> None:
        self.crashes_fired += 1
        self._log("engine.crash")

    def record_recovery(self) -> None:
        self.recoveries += 1

    def fired_by_site(self) -> Dict[str, int]:
        """Injected events per site, the crash included (it survives the
        restore that recovers from it)."""
        fired = dict(self.fired)
        if self.crashes_fired:
            fired["engine.crash"] = self.crashes_fired
        return fired

    # --------------------------------------------------- checkpoint support

    def snapshot(self) -> dict:
        """Checkpointable state: RNG streams, counters, event-log length.

        ``crashes_fired``/``recoveries`` are excluded on purpose (see
        ``__init__``).
        """
        return {
            "rng_states": {
                site: self._rngs[site].bit_generator.state
                for site in sorted(self._rngs)
            },
            "opportunities": dict(self.opportunities),
            "fired": dict(self.fired),
            "num_events": len(self.events),
        }

    def restore_state(self, snap: dict) -> None:
        # A stream first spawned after the capture respawns fresh on its
        # next draw, exactly as it did the first time.
        for site in set(self._rngs) - set(snap["rng_states"]):
            del self._rngs[site]
        for site in sorted(snap["rng_states"]):
            self._rng_for(site).bit_generator.state = snap["rng_states"][site]
        self.opportunities = dict(snap["opportunities"])
        self.fired = dict(snap["fired"])
        del self.events[snap["num_events"]:]

    # -------------------------------------------------------------- report

    def summary(self) -> dict:
        fired = self.fired_by_site()
        return {
            "enabled": True,
            "profile": self.config.profile,
            "sites": {
                site: {
                    "rate": self.sites[site].rate,
                    "opportunities": self.opportunities.get(site, 0),
                    "fired": fired.get(site, 0),
                }
                for site in sorted(self.sites)
            },
            "fired_total": sum(fired[site] for site in sorted(fired)),
            "crashes": self.crashes_fired,
            "recoveries": self.recoveries,
        }


class NullInjector:
    """No-op injector installed when :class:`InjectConfig` is disabled.

    Mirrors UVMSan's ``NullSanitizer``: components never hold a reference
    to it (they guard on ``_inj is not None``), so the disabled hot path is
    byte-identical to a build without the inject layer.
    """

    enabled = False
    crashes_fired = 0
    recoveries = 0
    events: Tuple[Tuple[float, str], ...] = ()

    def active(self, site: str) -> bool:
        return False

    def fire(self, site: str) -> bool:
        return False

    def factor(self, site: str) -> float:
        return 1.0

    def waste_frac(self, site: str) -> float:
        return 0.5

    def crash_due(self, batch_id: int) -> bool:
        return False

    def record_crash(self) -> None:  # pragma: no cover - never reached
        raise AssertionError("null injector cannot crash")

    def record_recovery(self) -> None:  # pragma: no cover - never reached
        raise AssertionError("null injector cannot recover")

    def snapshot(self) -> None:
        return None

    def restore_state(self, snap) -> None:
        pass

    def summary(self) -> dict:
        return {
            "enabled": False,
            "profile": None,
            "sites": {},
            "fired_total": 0,
            "crashes": 0,
            "recoveries": 0,
        }


#: Shared null instance (stateless, safe to share across engines).
NULL_INJECTOR = NullInjector()


def make_injector(config, seed: int, clock):
    """Injector for ``config``: real when enabled, the shared null otherwise."""
    if not config.enabled:
        return NULL_INJECTOR
    return FaultInjector(config, seed, clock)
