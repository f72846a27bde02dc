"""Unit tests for the fault-injection layer: the injector's seeded draw
machinery, profile resolution/validation, the driver's retry policy, the
per-component injection sites, and the sanitizer's retry-bounds rule."""

from __future__ import annotations

import json

import pytest

from repro.config import InjectConfig, default_config
from repro.core.driver import RetryPolicy
from repro.errors import ConfigError, TransferFault, TransferStuck
from repro.gpu.copy_engine import CopyEngine
from repro.gpu.fault import AccessType, Fault
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.utlb import UTlb
from repro.inject import (
    BUILTIN_PROFILES,
    INJECTION_SITES,
    NULL_INJECTOR,
    FaultInjector,
    NullInjector,
    make_injector,
)
from repro.inject.profiles import load_profile_file, resolve_profile
from repro.sim.clock import SimClock
from repro.units import PAGE_SIZE
from tests.property.fault_oracle import write, write_window


def make_config(**kw) -> InjectConfig:
    cfg = InjectConfig(enabled=True, **kw)
    return cfg


def make_injector_for(sites, seed=0, clock=None) -> FaultInjector:
    return FaultInjector(make_config(sites=sites), seed, clock or SimClock())


def fault(page=0):
    return Fault(page, AccessType.READ, 0, 0, 0, 0.0)


class ScriptedInjector:
    """Test double whose fire() outcomes are scripted per site."""

    enabled = True

    def __init__(self, fires=None, factor=2.0, waste_frac=0.5):
        self._fires = {site: list(seq) for site, seq in (fires or {}).items()}
        self._factor = factor
        self._waste = waste_frac

    def active(self, site):
        return site in self._fires

    def fire(self, site):
        seq = self._fires.get(site)
        return bool(seq.pop(0)) if seq else False

    def factor(self, site):
        return self._factor

    def waste_frac(self, site):
        return self._waste


# --------------------------------------------------------------- injector


class TestFaultInjector:
    def test_same_seed_same_draw_sequence(self):
        site = {"ce.brownout": {"rate": 0.3}}
        a = make_injector_for(site, seed=7)
        b = make_injector_for(site, seed=7)
        assert [a.fire("ce.brownout") for _ in range(200)] == [
            b.fire("ce.brownout") for _ in range(200)
        ]

    def test_different_seed_different_schedule(self):
        site = {"ce.brownout": {"rate": 0.3}}
        a = make_injector_for(site, seed=1)
        b = make_injector_for(site, seed=2)
        assert [a.fire("ce.brownout") for _ in range(200)] != [
            b.fire("ce.brownout") for _ in range(200)
        ]

    def test_unconfigured_site_never_draws(self):
        inj = make_injector_for({"ce.brownout": {"rate": 0.5}})
        assert not inj.fire("dma.map_fail")
        assert "dma.map_fail" not in inj.opportunities
        assert not inj.active("dma.map_fail")
        assert inj.active("ce.brownout")

    def test_zero_rate_site_never_draws_rng(self):
        inj = make_injector_for({"ce.brownout": {"rate": 0.0}})
        assert not inj.fire("ce.brownout")
        # rate-0 short-circuits before the RNG stream is even spawned
        assert inj._rngs == {}

    def test_site_streams_are_independent(self):
        """Enabling a second site must not shift the first site's schedule."""
        alone = make_injector_for({"ce.brownout": {"rate": 0.3}}, seed=5)
        paired = make_injector_for(
            {"ce.brownout": {"rate": 0.3}, "dma.map_fail": {"rate": 0.4}}, seed=5
        )
        seq_alone, seq_paired = [], []
        for i in range(300):
            seq_alone.append(alone.fire("ce.brownout"))
            # interleave draws on the other site to try to perturb the stream
            paired.fire("dma.map_fail")
            seq_paired.append(paired.fire("ce.brownout"))
        assert seq_alone == seq_paired

    def test_counters_and_events(self):
        clock = SimClock()
        inj = make_injector_for({"fault_buffer.overflow": {"rate": 0.5}}, clock=clock)
        fired = 0
        for i in range(100):
            clock.advance(1.0)
            if inj.fire("fault_buffer.overflow"):
                fired += 1
        assert inj.opportunities["fault_buffer.overflow"] == 100
        assert inj.fired.get("fault_buffer.overflow", 0) == fired
        assert 0 < fired < 100
        assert len(inj.events) == fired
        assert all(site == "fault_buffer.overflow" for _, site in inj.events)
        # event timestamps are the simulated clock, monotonically nondecreasing
        times = [t for t, _ in inj.events]
        assert times == sorted(times)

    def test_event_log_bounded_by_max_events(self):
        cfg = make_config(sites={"ce.brownout": {"rate": 1.0}}, max_events=10)
        inj = FaultInjector(cfg, 0, SimClock())
        for _ in range(50):
            inj.fire("ce.brownout")
        assert len(inj.events) == 10
        assert inj.fired["ce.brownout"] == 50

    def test_snapshot_restore_replays_identically(self):
        site = {"ce.brownout": {"rate": 0.4}}
        inj = make_injector_for(site, seed=3)
        for _ in range(50):
            inj.fire("ce.brownout")
        snap = inj.snapshot()
        tail = [inj.fire("ce.brownout") for _ in range(50)]
        events_after = list(inj.events)
        inj.restore_state(snap)
        assert inj.opportunities["ce.brownout"] == 50
        replay = [inj.fire("ce.brownout") for _ in range(50)]
        assert replay == tail
        assert list(inj.events) == events_after

    def test_snapshot_restore_works_on_fresh_injector(self):
        """A snapshot restores into a different injector instance (the
        checkpoint-into-fresh-engine path)."""
        site = {"dma.map_fail": {"rate": 0.4}}
        a = make_injector_for(site, seed=9)
        for _ in range(30):
            a.fire("dma.map_fail")
        snap = a.snapshot()
        tail = [a.fire("dma.map_fail") for _ in range(30)]
        b = make_injector_for(site, seed=9)
        b.restore_state(snap)
        assert [b.fire("dma.map_fail") for _ in range(30)] == tail

    def test_crash_is_one_shot_and_survives_restore(self):
        inj = make_injector_for({"engine.crash": {"at_batch": 5}})
        snap = inj.snapshot()
        assert not inj.crash_due(4)
        assert inj.crash_due(5)
        assert inj.crash_due(6)  # still pending until recorded
        inj.record_crash()
        assert inj.crashes_fired == 1
        assert not inj.crash_due(6)
        # crashes_fired is deliberately outside snapshot state: restoring a
        # pre-crash snapshot must not let the crash refire.
        inj.restore_state(snap)
        assert inj.crashes_fired == 1
        assert not inj.crash_due(10)

    def test_factor_and_waste_defaults(self):
        inj = make_injector_for({"ce.brownout": {"rate": 0.1, "factor": 3.0}})
        assert inj.factor("ce.brownout") == 3.0
        assert inj.factor("ce.stuck") == 1.0
        assert inj.waste_frac("ce.stuck") == 0.5

    def test_summary_shape(self):
        inj = make_injector_for({"ce.brownout": {"rate": 1.0}})
        inj.fire("ce.brownout")
        s = inj.summary()
        assert s["enabled"] is True
        assert s["fired_total"] == 1
        assert s["sites"]["ce.brownout"] == {
            "rate": 1.0,
            "opportunities": 1,
            "fired": 1,
        }
        assert s["crashes"] == 0 and s["recoveries"] == 0


class TestNullInjector:
    def test_factory_returns_shared_null_when_disabled(self):
        assert make_injector(InjectConfig(), 0, SimClock()) is NULL_INJECTOR
        assert isinstance(NULL_INJECTOR, NullInjector)
        assert not NULL_INJECTOR.enabled

    def test_factory_returns_real_when_enabled(self):
        inj = make_injector(make_config(), 0, SimClock())
        assert isinstance(inj, FaultInjector)
        assert inj.enabled

    def test_null_never_fires(self):
        for site in INJECTION_SITES:
            assert not NULL_INJECTOR.fire(site)
            assert not NULL_INJECTOR.active(site)
        assert not NULL_INJECTOR.crash_due(1)
        assert NULL_INJECTOR.factor("ce.brownout") == 1.0
        assert NULL_INJECTOR.snapshot() is None
        NULL_INJECTOR.restore_state(None)  # no-op

    def test_null_summary(self):
        s = NULL_INJECTOR.summary()
        assert s == {
            "enabled": False,
            "profile": None,
            "sites": {},
            "fired_total": 0,
            "crashes": 0,
            "recoveries": 0,
        }


# --------------------------------------------------------------- profiles


class TestProfiles:
    @pytest.mark.parametrize("name", sorted(BUILTIN_PROFILES))
    def test_builtin_profiles_resolve(self, name):
        sites = resolve_profile(make_config(profile=name))
        assert sites
        assert set(sites) <= set(INJECTION_SITES)

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown injection site"):
            resolve_profile(make_config(sites={"gpu.meltdown": {"rate": 0.1}}))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameters"):
            resolve_profile(make_config(sites={"ce.stuck": {"chance": 0.1}}))

    @pytest.mark.parametrize("site", ["fault_buffer.overflow", "utlb.stall"])
    def test_livelock_rate_one_rejected(self, site):
        with pytest.raises(ConfigError, match="livelock"):
            resolve_profile(make_config(sites={site: {"rate": 1.0}}))

    def test_rate_one_allowed_on_transient_sites(self):
        sites = resolve_profile(make_config(sites={"ce.brownout": {"rate": 1.0}}))
        assert sites["ce.brownout"].rate == 1.0

    @pytest.mark.parametrize(
        "params",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"rate": 0.1, "factor": 0.5},
            {"rate": 0.1, "waste_frac": 2.0},
            {"at_batch": 0},
        ],
    )
    def test_bad_parameter_ranges_rejected(self, params):
        with pytest.raises(ConfigError):
            resolve_profile(make_config(sites={"ce.brownout": dict(params)}))

    def test_engine_crash_requires_at_batch(self):
        with pytest.raises(ConfigError, match="at_batch"):
            resolve_profile(make_config(sites={"engine.crash": {"rate": 0.5}}))

    def test_inline_sites_override_profile(self):
        cfg = make_config(
            profile="flaky-interconnect",
            sites={"ce.brownout": {"rate": 0.9, "factor": 7.0}},
        )
        sites = resolve_profile(cfg)
        assert sites["ce.brownout"].rate == 0.9
        assert sites["ce.brownout"].factor == 7.0
        # the rest of the profile survives the merge
        assert sites["ce.transfer_fault"].rate == 0.05

    def test_profile_file_loads(self, tmp_path):
        p = tmp_path / "chaos.json"
        p.write_text(json.dumps({"sites": {"dma.map_fail": {"rate": 0.2}}}))
        sites = resolve_profile(make_config(profile=str(p)))
        assert sites["dma.map_fail"].rate == 0.2

    def test_profile_file_tolerates_extra_keys(self, tmp_path):
        p = tmp_path / "chaos.json"
        p.write_text(
            json.dumps({"name": "x", "description": "y", "sites": {}})
        )
        assert load_profile_file(p) == {}

    def test_profile_file_missing(self):
        with pytest.raises(ConfigError, match="cannot read chaos profile"):
            resolve_profile(make_config(profile="/nonexistent/chaos.json"))

    def test_profile_file_bad_json(self, tmp_path):
        p = tmp_path / "chaos.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_profile_file(p)

    def test_profile_file_requires_sites(self, tmp_path):
        p = tmp_path / "chaos.json"
        p.write_text(json.dumps({"rates": {}}))
        with pytest.raises(ConfigError, match="'sites'"):
            load_profile_file(p)

    def test_inject_config_validate_rejects_bad_profile(self):
        cfg = default_config()
        cfg.inject.enabled = True
        cfg.inject.sites = {"nope.site": {"rate": 0.1}}
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_inject_config_validate_rejects_bad_bookkeeping(self):
        with pytest.raises(ConfigError, match="checkpoint_every"):
            InjectConfig(checkpoint_every=-1).validate()
        with pytest.raises(ConfigError, match="max_events"):
            InjectConfig(max_events=0).validate()

    def test_disabled_config_skips_site_validation(self):
        # bad sites are tolerated while the layer is off (nothing reads them)
        InjectConfig(enabled=False, sites={"nope": {}}).validate()


# ----------------------------------------------------------- retry policy


class TestRetryPolicy:
    def make(self, **kw):
        cfg = default_config(**kw)
        return RetryPolicy(cfg.driver)

    def test_exponential_backoff_with_cap(self):
        policy = self.make()
        assert policy.backoff_usec(1) == pytest.approx(2.0)
        assert policy.backoff_usec(2) == pytest.approx(4.0)
        assert policy.backoff_usec(3) == pytest.approx(8.0)
        assert policy.backoff_usec(100) == pytest.approx(64.0)

    def test_backoff_monotone_nondecreasing(self):
        policy = self.make()
        values = [policy.backoff_usec(n) for n in range(1, 12)]
        assert values == sorted(values)

    def test_failure_mode_flag(self):
        assert not self.make().fail_fast
        assert self.make(failure_mode="fail-fast").fail_fast

    def test_config_validation(self):
        cfg = default_config()
        cfg.driver.retry_max_attempts = 0
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = default_config()
        cfg.driver.retry_backoff_max_usec = 1.0  # below base
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = default_config()
        cfg.driver.failure_mode = "explode"
        with pytest.raises(ConfigError):
            cfg.validate()


# --------------------------------------------------------- component sites


def conservation_holds(buf: FaultBuffer) -> bool:
    return (
        buf.total_pushed + buf.total_injected
        == buf.total_fetched
        + buf.total_flush_dropped
        + buf.total_injector_dropped
        + len(buf)
    )


class TestFaultBufferSites:
    def test_forced_overflow_counts_as_injector_drop(self):
        buf = FaultBuffer(capacity=8)
        buf.attach_injector(ScriptedInjector({"fault_buffer.overflow": [True]}))
        assert write(buf, fault(1)) is False
        assert buf.total_pushed == 1
        assert buf.total_injector_dropped == 1
        assert buf.total_overflow_dropped == 0
        assert len(buf) == 0
        assert conservation_holds(buf)

    def test_injected_duplicate_enters_buffer(self):
        buf = FaultBuffer(capacity=8)
        buf.attach_injector(
            ScriptedInjector(
                {"fault_buffer.overflow": [False], "fault_buffer.duplicate": [True]}
            )
        )
        assert write(buf, fault(3)) is True
        assert len(buf) == 2
        assert buf.total_pushed == 1
        assert buf.total_injected == 1
        assert conservation_holds(buf)
        entries = buf.fetch(10)
        assert [f.page for f in entries] == [3, 3]
        assert conservation_holds(buf)

    def test_duplicate_suppressed_when_buffer_full(self):
        buf = FaultBuffer(capacity=1)
        buf.attach_injector(
            ScriptedInjector(
                {"fault_buffer.overflow": [False], "fault_buffer.duplicate": [True]}
            )
        )
        assert write(buf, fault(1)) is True
        assert len(buf) == 1  # no room for the duplicate
        assert buf.total_injected == 0
        assert conservation_holds(buf)

    def test_conservation_through_flush(self):
        buf = FaultBuffer(capacity=8)
        buf.attach_injector(
            ScriptedInjector(
                {
                    "fault_buffer.overflow": [True, False, False],
                    "fault_buffer.duplicate": [True, False],
                }
            )
        )
        write_window(buf, [fault(page) for page in range(3)])
        buf.fetch(1)
        buf.flush()
        assert conservation_holds(buf)


class TestUtlbEarlyCancel:
    def make_utlb(self):
        return UTlb(utlb_id=0, limit=56)

    def test_early_cancel_keeps_total_issued(self):
        utlb = self.make_utlb()
        utlb.request(7)
        issued = utlb.total_issued
        utlb.early_cancel(7)
        assert utlb.total_issued == issued  # the buffer write already happened
        assert utlb.total_early_cancelled == 1
        assert utlb.outstanding == 0
        assert 7 not in utlb.pending_pages

    def test_early_cancel_unknown_page_is_noop(self):
        utlb = self.make_utlb()
        utlb.request(7)
        utlb.early_cancel(99)
        assert utlb.outstanding == 1
        assert utlb.total_early_cancelled == 0

    def test_cancelled_page_can_rerequest(self):
        utlb = self.make_utlb()
        utlb.request(7)
        utlb.early_cancel(7)
        assert utlb.request(7) is True  # fresh entry, no merge
        assert utlb.outstanding == 1


class TestCopyEngineSites:
    def make_ce(self, inj):
        ce = CopyEngine(bandwidth_bytes_per_usec=12_000.0, transfer_latency_usec=10.0)
        ce.attach_injector(inj)
        return ce

    def test_stuck_raises_before_bytes_move(self):
        ce = self.make_ce(ScriptedInjector({"ce.stuck": [True]}))
        with pytest.raises(TransferStuck):
            ce.host_to_device([4])
        assert ce.stuck_events == 1
        assert ce.bytes_h2d == 0
        assert ce.transfers_h2d == 0

    def test_transfer_fault_carries_wasted_time(self):
        inj = ScriptedInjector(
            {"ce.stuck": [False], "ce.transfer_fault": [True]}, waste_frac=0.25
        )
        ce = self.make_ce(inj)
        clean_cost = ce._burst_cost([4])
        with pytest.raises(TransferFault) as excinfo:
            ce.device_to_host([4])
        assert excinfo.value.wasted_usec == pytest.approx(clean_cost * 0.25)
        assert ce.failed_bursts == 1
        assert ce.bytes_d2h == 0

    def test_brownout_multiplies_cost_and_keeps_bytes(self):
        clean = CopyEngine(12_000.0, 10.0)
        base_cost = clean.host_to_device([4])
        inj = ScriptedInjector(
            {"ce.stuck": [False], "ce.transfer_fault": [False], "ce.brownout": [True]},
            factor=3.0,
        )
        ce = self.make_ce(inj)
        cost = ce.host_to_device([4])
        assert cost == pytest.approx(base_cost * 3.0)
        assert ce.bytes_h2d == 4 * PAGE_SIZE
        assert ce.brownout_bursts == 1

    def test_empty_burst_never_draws(self):
        class Exploding:
            enabled = True

            def fire(self, site):
                raise AssertionError("zero-cost burst must not draw")

        ce = self.make_ce(Exploding())
        assert ce.host_to_device([]) == 0.0


# --------------------------------------------------- sanitizer retry rule


class TestRetryBoundsRule:
    def test_phantom_counter_with_injection_off_violates(self, small_config):
        from repro.api import UvmSystem
        from repro.workloads import VecAddPageStride

        small_config.check.enabled = True
        small_config.check.mode = "report"
        system = UvmSystem(small_config)
        VecAddPageStride(tsize=4).run(system)
        assert system.sanitizer.total_violations == 0
        record = system.records[-1]
        record.retries_dma += 1  # phantom: injection is off
        system.sanitizer._check_retry_bounds(system.engine.driver, record)
        assert system.sanitizer.total_violations == 1
        assert system.sanitizer.summary()["by_rule"] == {"retry-bounds": 1}

    def test_phantom_backoff_time_violates(self, small_config):
        from repro.api import UvmSystem
        from repro.workloads import VecAddPageStride

        small_config.check.enabled = True
        small_config.check.mode = "report"
        system = UvmSystem(small_config)
        VecAddPageStride(tsize=4).run(system)
        record = system.records[-1]
        record.time_retry_backoff = 1.0
        system.sanitizer._check_retry_bounds(system.engine.driver, record)
        assert system.sanitizer.total_violations == 1

    def test_counter_over_policy_bound_violates(self, small_config):
        from repro.api import UvmSystem
        from repro.workloads import VecAddPageStride

        small_config.check.enabled = True
        small_config.check.mode = "report"
        small_config.inject.enabled = True
        small_config.inject.sites = {"dma.map_fail": {"rate": 0.05}}
        system = UvmSystem(small_config)
        VecAddPageStride(tsize=4).run(system)
        assert system.sanitizer.total_violations == 0
        record = system.records[-1]
        record.retries_populate = 10 * max(record.num_vablocks, 1)
        system.sanitizer._check_retry_bounds(system.engine.driver, record)
        assert system.sanitizer.total_violations == 1

    def test_validate_catches_conservation_break(self, small_config):
        from repro.api import UvmSystem
        from repro.validate import validate_system
        from repro.workloads import VecAddPageStride

        small_config.inject.enabled = True
        small_config.inject.profile = "overflow-storm"
        system = UvmSystem(small_config)
        VecAddPageStride(tsize=4).run(system)
        assert validate_system(system) == []
        # a phantom injected entry breaks the extended identity
        system.engine.device.fault_buffer.total_injected += 1
        violations = validate_system(system)
        assert any("conservation" in str(v) for v in violations)
