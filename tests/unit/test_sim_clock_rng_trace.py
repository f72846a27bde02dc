"""Unit tests for the simulation kernel: clock, RNG streams, the jitter
stream, event trace."""

import json

import numpy as np
import pytest

from repro.api import UvmSystem
from repro.config import ObsConfig, default_config
from repro.obs import Observability
from repro.obs.bundle import read_manifest, write_bundle
from repro.obs.flight import FlightRecorder
from repro.sim.clock import SimClock
from repro.sim.rng import JitterStream, make_rng, spawn_rng
from repro.units import MB
from repro.workloads import RegularStream


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == 4.0

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_never_rewinds(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0

    def test_section_elapsed(self):
        clock = SimClock()
        section = clock.section()
        clock.advance(7.0)
        assert section.elapsed == 7.0
        assert section.start == 0.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(42).integers(0, 1000, 10)
        b = make_rng(42).integers(0, 1000, 10)
        assert (a == b).all()

    def test_spawn_streams_independent(self):
        a = spawn_rng(0, "alpha").integers(0, 1_000_000, 20)
        b = spawn_rng(0, "beta").integers(0, 1_000_000, 20)
        assert (a != b).any()

    def test_spawn_same_stream_reproducible(self):
        a = spawn_rng(7, "workload").random(5)
        b = spawn_rng(7, "workload").random(5)
        assert (a == b).all()

    def test_spawn_different_seeds_differ(self):
        a = spawn_rng(1, "x").random(10)
        b = spawn_rng(2, "x").random(10)
        assert (a != b).any()


def scalar_jitter(rng, usecs, frac):
    """The jitter of one scalar draw per positive cost, in order."""
    return [
        u * max(0.1, 1.0 + frac * float(rng.standard_normal())) if u > 0.0 else u
        for u in usecs
    ]


class TestJitterStream:
    COSTS = [8.0, 0.0, 2.5, 0.0, 0.0, 1.25, 40.0, 0.3]

    def test_block_draws_equal_scalar_draws_across_refills(self):
        frac = 0.05
        costs = self.COSTS * 600  # 3000 draws: two refills
        ref = np.random.default_rng(7)
        stream = JitterStream(np.random.default_rng(7))
        got = []
        for i in range(0, len(costs), 16):
            chunk = costs[i:i + 16]
            if i % 32:
                got += [stream.apply(u, frac) for u in chunk]
            else:
                got += stream.apply_all(np.array(chunk), frac).tolist()
        assert got == scalar_jitter(ref, costs, frac)
        # Both generators stand where the same number of draws leaves them.
        ref.standard_normal(stream.state()["drawn"] - stream.state()["cursor"])
        assert stream.rng.bit_generator.state == ref.bit_generator.state

    def test_zero_frac_and_no_generator_draw_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        stream = JitterStream(rng)
        costs = np.array(self.COSTS)
        assert stream.apply_all(costs, 0.0).tolist() == self.COSTS
        assert [stream.apply(u, 0.0) for u in self.COSTS] == self.COSTS
        assert rng.bit_generator.state == before
        none = JitterStream(None)
        assert none.apply_all(costs, 0.05).tolist() == self.COSTS
        assert none.state() is None

    def test_restore_seeks_mid_block(self):
        stream = JitterStream(np.random.default_rng(11))
        stream.normals(1000)
        stream.normals(50)  # spans a refill
        state = json.loads(json.dumps(stream.state()))
        assert 0 < state["cursor"] < state["drawn"]
        ahead = stream.normals(200).copy()
        stream.restore(state)
        assert stream.normals(200).tolist() == ahead.tolist()
        fresh = JitterStream(np.random.default_rng(0))
        fresh.restore(state)
        assert fresh.normals(200).tolist() == ahead.tolist()


def jittered_system(**driver_kw):
    cfg = default_config(**driver_kw)
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = 8 * MB
    cfg.obs = cfg.obs.disabled()
    cfg.validate()
    return UvmSystem(cfg)


def fingerprint(system):
    return system.clock.now, [sorted(r.to_dict().items()) for r in system.records]


class TestJitterStreamInTheDriver:
    def test_checkpoint_mid_block_restores_the_same_timeline(self):
        system = jittered_system()
        captured = {}

        def hook(engine, batch_id):
            state = engine.driver.jitter.state()
            if "ckpt" not in captured and 0 < state["cursor"] < state["drawn"]:
                captured["ckpt"] = engine.checkpoint()

        system.engine._batch_hooks.append(hook)
        RegularStream().run(system)
        final = fingerprint(system)
        assert "ckpt" in captured
        captured["ckpt"].restore_into(system.engine)
        system.engine.resume()
        assert fingerprint(system) == final

    def test_bundle_manifest_driver_state_round_trips(self, tmp_path):
        system = jittered_system()
        RegularStream().run(system)
        bundle = write_bundle(tmp_path / "b", system.engine)
        state = read_manifest(bundle)["rng"]["driver"]
        assert state == system.engine.driver.jitter.state()
        revived = JitterStream(np.random.default_rng(0))
        revived.restore(state)
        assert revived.normals(3000).tolist() == system.engine.driver.jitter.normals(3000).tolist()

    def test_block_phase_adds_left_to_right(self):
        """Builtin ``sum`` is compensated from Python 3.12 on: there
        1e16 + 1.0 + 1.0 is 1e16 + 2, while a left-to-right fold rounds
        each step back to 1e16."""
        costs = [1e16, 1.0, 1.0]
        assert 1e16 + 1.0 + 1.0 == 1e16
        serial, threads2 = jittered_system(), jittered_system(service_threads=2)
        serial.engine.driver._advance_block_phase(costs)
        assert serial.clock.now == 1e16
        threads2.engine.driver._advance_block_phase(costs + [1.0])
        assert threads2.clock.now == 1e16


class TestEventTrace:
    """The run's event trace is the flight recorder's ring."""

    def test_emit_and_len(self):
        clock = SimClock()
        trace = FlightRecorder(clock)
        clock.advance(1.0)
        trace.record("fault", 42)
        clock.advance(1.0)
        trace.record("batch", 0)
        assert len(trace) == 2
        assert [e[0] for e in trace] == [1.0, 2.0]

    def test_disabled_records_nothing(self):
        obs = Observability(ObsConfig(flight_recorder=False), SimClock())
        assert not obs.flight.enabled
        obs.flight.record("fault", 42)
        assert len(obs.flight) == 0
        assert obs.flight.events() == []

    def test_select(self):
        trace = FlightRecorder(SimClock())
        trace.record("evict", 3, 100)
        trace.record("evict", 4, 50)
        trace.record("batch", 0)
        evicts = trace.select("evict")
        assert [e[2][0] for e in evicts] == [3, 4]

    def test_clear(self):
        trace = FlightRecorder(SimClock())
        trace.record("x")
        trace.clear()
        assert len(trace) == 0

    def test_iteration_order(self):
        trace = FlightRecorder(SimClock())
        for i in range(5):
            trace.record("t", i)
        assert [e[2][0] for e in trace] == list(range(5))
