"""Unit tests for the simulation kernel: clock, RNG streams, event trace."""

import pytest

from repro.config import ObsConfig
from repro.obs import Observability
from repro.obs.flight import FlightRecorder
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng, spawn_rng


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
