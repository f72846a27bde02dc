"""Chaos-layer whole-system properties.

Three guarantees the fault-injection layer must keep (ISSUE: robustness):

1. **Disabled ⇒ byte-identical.**  With ``InjectConfig`` off — or on with no
   sites configured — the simulated timeline is bit-identical to a run
   without the layer: the null-object wiring consumes no RNG and adds no
   clock time.
2. **Seeded schedule determinism.**  The injected-event schedule is a pure
   function of (seed, profile): same pair ⇒ identical ``(clock, site)``
   event log and counters; different seed ⇒ a different schedule.
3. **Checkpoint/restore round-trips.**  Capturing a checkpoint at an
   arbitrary batch boundary, then restoring and resuming, reproduces the
   uninterrupted run's final BatchRecords and clock exactly — including
   under active injection and across repeated restores.  A restore puts
   back every attribute of the simulated state as it was at the capture,
   and a run that crashes and recovers equals the run that never crashed,
   across workloads, memory sizes, policies and chaos profiles.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import UvmSystem
from repro.config import default_config
from repro.core.eviction import EVICTION_POLICIES
from repro.inject import BUILTIN_PROFILES
from repro.sim.checkpoint import EngineCheckpoint, _pickle_parts
from repro.units import MB
from repro.workloads import Hpgmg, RegularStream, Sgemm, VecAddPageStride

WORKLOADS = {
    "vecadd": lambda: VecAddPageStride(tsize=8),
    "stream": lambda: RegularStream(),
    "sgemm": lambda: Sgemm(),
}


def build_config(seed=0, gpu_mem_mb=16, inject=None, profile=None, sites=None,
                 checkpoint_every=0, sanitize=False, prefetch=True, eviction="lru",
                 batch_size=None, utlb_cap=None):
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.gpu.num_sms = 8
    cfg.driver.prefetch_enabled = prefetch
    cfg.driver.eviction_policy = eviction
    if batch_size is not None:
        cfg.driver.batch_size = batch_size
    if utlb_cap is not None:
        cfg.gpu.utlb_outstanding_limit = utlb_cap
    if inject is not None:
        cfg.inject.enabled = inject
        cfg.inject.profile = profile
        cfg.inject.sites = dict(sites or {})
        cfg.inject.checkpoint_every = checkpoint_every
    if sanitize:
        cfg.check.enabled = True
        cfg.check.mode = "report"
    cfg.validate()
    return cfg


def run(workload_name, **cfg_kw):
    system = UvmSystem(build_config(**cfg_kw))
    WORKLOADS[workload_name]().run(system)
    return system


def timeline_fingerprint(system):
    """Everything observable about a run's simulated timeline."""
    return (
        system.clock.now,
        [tuple(sorted(r.to_dict().items())) for r in system.records],
    )


class TestDisabledBitIdentity:
    """The inject layer must vanish completely when off."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_default_equals_explicitly_disabled(self, workload):
        base = timeline_fingerprint(run(workload))
        off = timeline_fingerprint(run(workload, inject=False))
        assert base == off

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_enabled_with_no_sites_is_identical(self, workload):
        """Turning the layer on without configuring any site must not shift
        the timeline either: sites absent from the profile never draw."""
        base = timeline_fingerprint(run(workload))
        empty = timeline_fingerprint(run(workload, inject=True))
        assert base == empty

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_identity_across_seeds(self, seed):
        base = timeline_fingerprint(run("vecadd", seed=seed))
        empty = timeline_fingerprint(run("vecadd", seed=seed, inject=True))
        assert base == empty

    def test_identity_under_memory_pressure(self):
        base = timeline_fingerprint(run("sgemm", gpu_mem_mb=8))
        empty = timeline_fingerprint(run("sgemm", gpu_mem_mb=8, inject=True))
        assert base == empty

    def test_zero_rate_sites_are_identical(self):
        """rate=0 sites short-circuit before touching their RNG stream."""
        base = timeline_fingerprint(run("vecadd"))
        zeroed = timeline_fingerprint(
            run(
                "vecadd",
                inject=True,
                sites={"ce.brownout": {"rate": 0.0}, "dma.map_fail": {"rate": 0.0}},
            )
        )
        assert base == zeroed


class TestScheduleDeterminism:
    """(seed, profile) fully determines the injected schedule."""

    @pytest.mark.parametrize(
        "profile", ["overflow-storm", "flaky-interconnect", "kitchen-sink"]
    )
    def test_same_seed_same_schedule(self, profile):
        a = run("stream", seed=11, inject=True, profile=profile, sanitize=True)
        b = run("stream", seed=11, inject=True, profile=profile, sanitize=True)
        assert a.injector.events == b.injector.events
        assert a.injector.fired == b.injector.fired
        assert a.injector.opportunities == b.injector.opportunities
        assert timeline_fingerprint(a) == timeline_fingerprint(b)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reproducible_for_any_seed(self, seed):
        a = run("vecadd", seed=seed, inject=True, profile="overflow-storm")
        b = run("vecadd", seed=seed, inject=True, profile="overflow-storm")
        assert a.injector.events == b.injector.events
        assert timeline_fingerprint(a) == timeline_fingerprint(b)

    def test_different_seed_different_schedule(self):
        a = run("stream", seed=1, inject=True, profile="overflow-storm")
        b = run("stream", seed=2, inject=True, profile="overflow-storm")
        assert a.injector.events != b.injector.events

    def test_injection_actually_happened(self):
        system = run("stream", seed=0, inject=True, profile="overflow-storm")
        assert system.injector.summary()["fired_total"] > 0


#: Attributes that are wiring or diagnostics rather than simulation state,
#: so a restore leaves them as they are.  Cached metric handles (``_m_*``)
#: are wiring too.
_NOT_STATE_GROUPS = {
    ("obs", "_obs"): "observability layer; its ledger families fold from the log",
    ("flight", "_flight"): "event log: a restore rewinds it to the capture's count",
    ("sanitizer", "san", "_san"): "UVMSan is resynced after a restore, not rewound",
    ("injector", "inj", "_inj"): "compared through snapshot() and its spawned sites",
    ("counters",): "engine resilience counters never rewind",
    ("last_bundle",): "where the latest crash bundle landed",
    ("_auto_checkpoint",): "the crash-recovery restore target itself",
    ("_batch_hooks",): "test and tooling callbacks",
    ("_pickles",): "the checkpoint layer's cache of the program and part pickles",
}
NOT_STATE = {name: why for names, why in _NOT_STATE_GROUPS.items() for name in names}


def state_names(obj):
    """``obj``'s attributes (slots, then instance dict) that are state.

    Enumerated here rather than taken from ``sim/checkpoint.py``, so the
    check does not trust the capture lists it is checking."""
    names = []
    for klass in type(obj).__mro__:
        names += [n for n in getattr(klass, "__slots__", ()) if n not in names]
    names += [n for n in getattr(obj, "__dict__", {}) if n not in names]
    return [
        n for n in names
        if n not in NOT_STATE and not n.startswith("_m_") and hasattr(obj, n)
    ]


def state_components(engine):
    """The engine, the driver, and every component a checkpoint captures."""
    device, driver = engine.device, engine.driver
    parts = {
        "engine": engine, "driver": driver, "clock": engine.clock, "device": device,
        "fault_buffer": device.fault_buffer, "gmmu": device.gmmu,
        "page_table": device.page_table, "chunks": device.chunks,
        "host_vm": engine.host_vm, "dma": engine.dma, "vablocks": driver.vablocks,
        "log": driver.log, "eviction": driver.eviction, "prefetcher": driver.prefetcher,
    }
    for kind in ("utlbs", "sms", "copy_engines"):
        for i, part in enumerate(getattr(device, kind)):
            parts[f"{kind}[{i}]"] = part
    return parts


def simulation_state(engine):
    """``component.attribute`` -> a structural copy of its value, plus the
    injector's state.  Sets stay sets, arrays become bytes, objects become
    their state attributes, and a reference to a component compared on its
    own stays a reference."""
    parts = state_components(engine)
    labels = {id(obj): label for label, obj in parts.items()}
    memo = {}  # shared objects (a warp in an SM and in a waiter list) once

    def freeze(value):
        if value is None or isinstance(value, (int, float, str, Enum, np.generic)):
            return value
        if id(value) in labels:
            return ("component", labels[id(value)])
        if id(value) not in memo:
            memo[id(value)] = freeze_container(value)
        return memo[id(value)]

    def freeze_container(value):
        if isinstance(value, np.ndarray):
            return ("ndarray", value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.random.Generator):
            return ("rng", repr(value.bit_generator.state))
        if isinstance(value, (set, frozenset)):
            return frozenset(map(freeze, value))
        if isinstance(value, dict):
            return ("dict", tuple((freeze(k), freeze(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple, deque)):
            return (type(value).__name__, tuple(map(freeze, value)))
        attrs = [(name, freeze(getattr(value, name))) for name in state_names(value)]
        return (type(value).__name__, tuple(attrs))

    state = {
        f"{label}.{name}": freeze(getattr(obj, name))
        for label, obj in parts.items()
        for name in state_names(obj)
    }
    injector = engine.injector
    state["injector.snapshot"] = freeze(injector.snapshot())
    state["injector.spawned"] = frozenset(getattr(injector, "_rngs", ()))
    return state


def assert_state_equal(recorded, restored):
    differ = sorted(
        name for name in recorded.keys() | restored.keys()
        if recorded.get(name) != restored.get(name)
    )
    assert not differ, f"restore left these attributes unlike the capture: {differ}"


def from_scratch_parts(engine):
    """The part pickles a capture with an empty cache makes."""
    return _pickle_parts(engine, {})


class PartsChecked:
    """Within the block, every capture asserts that each part it holds,
    reused or not, equals a from-scratch pickle of the live component."""

    def __init__(self):
        self.captures = 0
        self.reused = 0
        self._previous = {}

    def __enter__(self):
        capture = EngineCheckpoint.capture

        def checked(cls, engine):
            ckpt = capture(engine)
            assert ckpt._parts == from_scratch_parts(engine)
            self.captures += 1
            self.reused += sum(
                blob is self._previous.get(name, (None, None))[1]
                for name, (_, blob) in ckpt._parts.items()
            )
            self._previous = ckpt._parts
            return ckpt

        self._patch = mock.patch.object(EngineCheckpoint, "capture", classmethod(checked))
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def run_with_checkpoint(at_batch, workload=RegularStream, **cfg_kw):
    """Run ``workload()`` to completion, capturing a checkpoint (and the
    simulation state it should restore) at ``at_batch``."""
    system = UvmSystem(build_config(**cfg_kw))
    captured = {}

    def hook(engine, batch_id):
        if batch_id == at_batch and "ckpt" not in captured:
            captured["ckpt"] = engine.checkpoint()
            captured["state"] = simulation_state(engine)

    system.engine._batch_hooks.append(hook)
    workload().run(system)
    assert "ckpt" in captured, f"batch {at_batch} never completed"
    return system, captured["ckpt"], captured["state"]


class TestCheckpointRestore:
    """Restore + resume reproduces the uninterrupted run exactly."""

    @pytest.mark.parametrize("at_batch", [1, 5, 10])
    def test_roundtrip_reproduces_tail(self, at_batch):
        system, ckpt, _ = run_with_checkpoint(at_batch, gpu_mem_mb=8)
        final = timeline_fingerprint(system)
        assert len(system.records) > at_batch + 1  # the checkpoint is mid-run
        ckpt.restore_into(system.engine)
        # batch ids are 0-based: a checkpoint at batch N holds records 0..N
        assert len(system.records) == at_batch + 1
        system.engine.resume()
        assert timeline_fingerprint(system) == final

    def test_double_restore_is_stable(self):
        system, ckpt, _ = run_with_checkpoint(5, gpu_mem_mb=8)
        final = timeline_fingerprint(system)
        for _ in range(2):
            ckpt.restore_into(system.engine)
            system.engine.resume()
            assert timeline_fingerprint(system) == final

    def test_roundtrip_under_active_injection(self):
        """The injector's RNG streams are part of checkpoint state: replay
        after restore re-injects the same faults at the same points."""
        system, ckpt, _ = run_with_checkpoint(
            5, gpu_mem_mb=8, inject=True, profile="flaky-interconnect", sanitize=True
        )
        final = timeline_fingerprint(system)
        final_events = list(system.injector.events)
        ckpt.restore_into(system.engine)
        system.engine.resume()
        assert timeline_fingerprint(system) == final
        assert list(system.injector.events) == final_events
        assert system.sanitizer.total_violations == 0

    def test_serialized_roundtrip(self):
        system, ckpt, _ = run_with_checkpoint(5, gpu_mem_mb=8)
        final = timeline_fingerprint(system)
        blob = ckpt.to_bytes()
        revived = EngineCheckpoint.from_bytes(blob)
        revived.restore_into(system.engine)
        system.engine.resume()
        assert timeline_fingerprint(system) == final

        # A fresh system, as a new process would build it, resumes from
        # the blob alone: the log travels with it.
        fresh = UvmSystem(build_config(gpu_mem_mb=8))
        RegularStream().steps(fresh)
        EngineCheckpoint.from_bytes(blob).restore_into(fresh.engine)
        prefix = system.records[:6]
        assert [r.to_dict() for r in fresh.records] == [r.to_dict() for r in prefix]
        assert all(a is not b for a, b in zip(fresh.records, prefix))
        fresh.engine.resume()
        assert timeline_fingerprint(fresh) == final

    def test_state_pickle_holds_no_batch_record(self):
        """The log is held by reference next to the state pickle, so a
        capture never re-pickles the records already logged."""
        system, ckpt, _ = run_with_checkpoint(5, gpu_mem_mb=8)
        assert b"BatchRecord" not in ckpt._blob
        assert ckpt.summary()["batches"] == 6
        assert all(a is b for a, b in zip(ckpt._records, system.records))

    def test_parts_stay_fresh_over_v_cycles(self):
        """HPGMG's V-cycles launch one program set, between host work, and
        its DMA tree and prefetch masks move as blocks are first touched:
        every capture, through a crash recovery, holds fresh parts."""
        with PartsChecked() as parts:
            system = UvmSystem(build_config(
                gpu_mem_mb=4, inject=True, profile="kitchen-sink", checkpoint_every=2
            ))
            Hpgmg(n=512, levels=3, cycles=3).run(system)
        assert system.injector.summary()["recoveries"] == 1
        assert parts.captures > 20 and parts.reused > 0

    def test_no_part_bytes_outlive_a_restore(self):
        """A restore rewinds each part's version.  Bytes cached after the
        restored capture must not be reused when the rewound version climbs
        back to their number with different contents."""
        system = UvmSystem(build_config())
        engine = system.engine
        alloc = system.managed_alloc(MB)
        before = engine.checkpoint()
        system.host_touch(alloc, 0, 16)
        system.managed_alloc(MB)
        after = engine.checkpoint()
        before.restore_into(engine)
        system.host_touch(alloc, 16, 32)
        system.managed_alloc(2 * MB)
        again = engine.checkpoint()
        for name in ("host_vm.touch_thread", "vablocks.valid_pages"):
            assert again._parts[name][0] == after._parts[name][0]  # the same version
        for name, (_, blob) in again._parts.items():
            made_after_restored = after._parts[name][1] is not before._parts[name][1]
            assert not (made_after_restored and blob is after._parts[name][1]), name
        assert again._parts == from_scratch_parts(engine)

    def test_resume_without_pending_launch_raises(self):
        from repro.errors import SimulationError

        system = UvmSystem(build_config())
        with pytest.raises(SimulationError):
            system.engine.resume()


CHAOS_DIR = Path(__file__).resolve().parents[2] / "examples" / "chaos"
CHAOS_FILES = sorted(str(path) for path in CHAOS_DIR.glob("*.json"))
PROFILES = [None, *sorted(BUILTIN_PROFILES), *CHAOS_FILES]
#: sgemm at n=1024 (12 MiB) runs in-core at 16 MiB and oversubscribed
#: below, at a fraction of the default size's cost.
ROUND_TRIP_WORKLOADS = {
    "vecadd": WORKLOADS["vecadd"],
    "stream": WORKLOADS["stream"],
    "sgemm": lambda: Sgemm(n=1024),
}
#: Driver batch sizes: Fig 9's sweep around the default 256.
BATCH_SIZES = (32, 64, 128, 256, 512, 1024)
#: µTLB outstanding caps up to the default 56; a larger cap shortens the
#: 16 MiB ``stream`` run below the eight batches ``at_batch`` may need.
UTLB_CAPS = (8, 16, 32, 56)
#: An ``engine.crash`` batch no run here reaches.
PAST_THE_END = 10**9


class TestRestoreAcrossTheConfigSpace:
    """Checkpoint coverage as behaviour: whatever state a component holds,
    a restore must put it back, so the resumed and the recovered runs
    both equal the run that was never interrupted."""

    @settings(max_examples=15, deadline=None)
    @given(
        workload=st.sampled_from(sorted(ROUND_TRIP_WORKLOADS)),
        seed=st.integers(min_value=0, max_value=2**16),
        gpu_mem_mb=st.integers(min_value=2, max_value=8).map(lambda n: 2 * n),
        prefetch=st.booleans(),
        eviction=st.sampled_from(sorted(EVICTION_POLICIES)),
        profile=st.sampled_from(PROFILES),
        at_batch=st.integers(min_value=1, max_value=7),
        checkpoint_every=st.sampled_from((0, 4)),
        batch_size=st.sampled_from(BATCH_SIZES),
        utlb_cap=st.sampled_from(UTLB_CAPS),
    )
    @example(workload="stream", seed=0, gpu_mem_mb=4, prefetch=True, eviction="lru",
             profile="kitchen-sink", at_batch=7, checkpoint_every=0,
             batch_size=256, utlb_cap=56)
    @example(workload="stream", seed=0, gpu_mem_mb=4, prefetch=True, eviction="lru",
             profile="memory-pressure", at_batch=1, checkpoint_every=0,
             batch_size=256, utlb_cap=56)
    def test_restore_reproduces_the_capture_and_the_clean_run(
        self, workload, seed, gpu_mem_mb, prefetch, eviction, profile, at_batch,
        checkpoint_every, batch_size, utlb_cap,
    ):
        if workload == "vecadd":
            at_batch = 1  # its shortest run (16 MiB, prefetch on) has two batches
        make = ROUND_TRIP_WORKLOADS[workload]
        cfg_kw = dict(
            seed=seed, gpu_mem_mb=gpu_mem_mb, prefetch=prefetch, eviction=eviction,
            inject=True, profile=profile, checkpoint_every=checkpoint_every,
            batch_size=batch_size, utlb_cap=utlb_cap,
        )
        with PartsChecked() as parts:
            system, ckpt, captured = run_with_checkpoint(
                at_batch, make, sites={"engine.crash": {"at_batch": PAST_THE_END}},
                **cfg_kw,
            )
            clean = timeline_fingerprint(system)

            ckpt.restore_into(system.engine)
            assert_state_equal(captured, simulation_state(system.engine))
            system.engine.resume()
            assert timeline_fingerprint(system) == clean

            crashed = UvmSystem(
                build_config(sites={"engine.crash": {"at_batch": at_batch}}, **cfg_kw)
            )
            make().run(crashed)
            assert crashed.injector.summary()["recoveries"] == 1
            assert timeline_fingerprint(crashed) == clean
        assert parts.reused > 0


class TestSanitizerCleanAcrossTheConfigSpace:
    """UVMSan checks only the blocks each batch touched, with a full scan
    every 64 batches, at launch end and after a restore.  On the restore
    property's config axes, with and without a crash recovery, that path
    must run and report nothing."""

    @settings(max_examples=10, deadline=None)
    @given(
        workload=st.sampled_from(sorted(ROUND_TRIP_WORKLOADS)),
        seed=st.integers(min_value=0, max_value=2**16),
        gpu_mem_mb=st.integers(min_value=2, max_value=8).map(lambda n: 2 * n),
        prefetch=st.booleans(),
        eviction=st.sampled_from(sorted(EVICTION_POLICIES)),
        profile=st.sampled_from(PROFILES),
        crash_at=st.sampled_from((None, 1, 3)),
    )
    @example(workload="stream", seed=0, gpu_mem_mb=4, prefetch=True, eviction="lru",
             profile="kitchen-sink", crash_at=3)
    def test_runs_clean(
        self, workload, seed, gpu_mem_mb, prefetch, eviction, profile, crash_at
    ):
        from repro.validate import validate_system

        sites = {"engine.crash": {"at_batch": crash_at or PAST_THE_END}}
        system = UvmSystem(build_config(
            seed=seed, gpu_mem_mb=gpu_mem_mb, prefetch=prefetch, eviction=eviction,
            inject=True, profile=profile, sites=sites, sanitize=True,
        ))
        ROUND_TRIP_WORKLOADS[workload]().run(system)
        summary = system.sanitizer.summary()
        assert summary["violations"] == 0, system.sanitizer.violations[:3]
        assert summary["full_scans"] >= 1 and summary["blocks_checked"] > 0
        assert validate_system(system) == []


class TestCrashRecovery:
    """Injected crashes recover from the latest auto-checkpoint and the
    whole run — crash, rewind, replay — is itself deterministic."""

    # stream at 8 MiB runs ~12 batches; crash well inside that
    CRASH_SITES = {"engine.crash": {"at_batch": 6}}

    def crashy_run(self, seed=0):
        return run(
            "stream",
            seed=seed,
            gpu_mem_mb=8,
            inject=True,
            sites=self.CRASH_SITES,
            checkpoint_every=4,
            sanitize=True,
        )

    def test_crash_fires_and_recovers(self):
        system = self.crashy_run()
        summary = system.injector.summary()
        assert summary["crashes"] == 1
        assert summary["recoveries"] == 1
        assert system.sanitizer.total_violations == 0

    def test_recovery_is_deterministic(self):
        a = timeline_fingerprint(self.crashy_run())
        b = timeline_fingerprint(self.crashy_run())
        assert a == b

    def test_crash_without_recovery_raises(self):
        from repro.errors import InjectedCrash

        cfg = build_config(
            gpu_mem_mb=8, inject=True, sites=self.CRASH_SITES, checkpoint_every=4
        )
        cfg.inject.crash_recovery = False
        system = UvmSystem(cfg)
        with pytest.raises(InjectedCrash):
            RegularStream().run(system)
