"""Unit tests for the flight recorder, histogram quantiles, and crash
bundles (:mod:`repro.obs.flight`, :mod:`repro.obs.bundle`)."""

from __future__ import annotations

import json

import pytest

from repro.api import UvmSystem
from repro.config import ObsConfig, default_config
from repro.errors import ConfigError
from repro.obs import Observability
from repro.obs.bundle import (
    BUNDLE_SCHEMA,
    is_bundle_dir,
    read_manifest,
    unique_bundle_dir,
    write_bundle,
)
from repro.obs.flight import FlightRecorder, NULL_FLIGHT
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.clock import SimClock
from repro.units import MB
from repro.workloads import RegularStream


# ------------------------------------------------------------------- flight


class TestFlightRecorder:
    def test_records_stamped_with_sim_time(self):
        clock = SimClock()
        flight = FlightRecorder(clock, capacity=8)
        flight.record("batch.open", 0, "fault")
        clock.advance(10.0)
        flight.record("batch.close", 0, 5, 10.0)
        assert flight.events() == [
            (0.0, "batch.open", (0, "fault")),
            (10.0, "batch.close", (0, 5, 10.0)),
        ]
        assert len(flight) == 2

    def test_ring_is_bounded_and_counts_drops(self):
        flight = FlightRecorder(SimClock(), capacity=3)
        for i in range(5):
            flight.record("evict", i)
        assert len(flight) == 3
        assert flight.dropped == 2
        assert [e[2][0] for e in flight.events()] == [2, 3, 4]

    def test_tail_select_last(self):
        flight = FlightRecorder(SimClock(), capacity=8)
        flight.record("batch.open", 0)
        flight.record("retry", "dma", 1)
        flight.record("batch.open", 1)
        assert flight.tail(2) == flight.events()[-2:]
        assert flight.tail(0) == []
        assert [e[2][0] for e in flight.select("batch.open")] == [0, 1]
        assert flight.last("batch.open")[2] == (1,)
        assert flight.last("missing") is None

    def test_clear_resets_ring_and_drop_count(self):
        flight = FlightRecorder(SimClock(), capacity=1)
        flight.record("a")
        flight.record("b")
        assert flight.dropped == 1
        flight.clear()
        assert len(flight) == 0
        assert flight.dropped == 0

    def test_to_dicts_round_trips_through_json(self):
        flight = FlightRecorder(SimClock(), capacity=4)
        flight.record("evict", 3, 64, 7)
        dumped = json.loads(json.dumps(flight.to_dicts()))
        assert dumped == [{"t": 0.0, "kind": "evict", "args": [3, 64, 7]}]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(SimClock(), capacity=0)

    def test_unbounded_and_fine_grained_when_tracing(self):
        cfg = default_config()
        cfg.gpu.memory_bytes = 16 * MB
        cfg.obs.flight_cap = 16
        system = UvmSystem(cfg, trace=True)
        RegularStream(nbytes=16 * MB).run(system)
        flight = system.obs.flight
        assert flight.tracing and flight.capacity is None
        assert len(flight) == flight.appended > cfg.obs.flight_cap
        assert flight.dropped == 0
        faults = flight.select("fault")
        assert len(faults) == sum(r.num_faults_raw for r in system.records)
        assert flight.select("migrate")
        closes = flight.select("batch.close")
        assert [e[2][0] for e in closes] == [r.batch_id for r in system.records]
        untraced = UvmSystem(cfg)
        RegularStream(nbytes=16 * MB).run(untraced)
        assert not untraced.obs.flight.tracing
        assert untraced.obs.flight.select("fault") == []
        assert untraced.obs.flight.select("migrate") == []

    def test_rewind_drops_events_since_the_mark(self):
        flight = FlightRecorder(SimClock(), capacity=4)
        for i in range(3):
            flight.record("a", i)
        mark = flight.appended
        for i in range(3, 6):
            flight.record("b", i)
        flight.rewind(mark)
        # Two of the three kept events were overwritten by the newer ones.
        assert [e[2][0] for e in flight] == [2]
        assert flight.appended == mark
        assert flight.dropped == 2
        flight.rewind(mark + 10)  # a mark ahead of the ring is a no-op
        assert len(flight) == 1

    def test_restore_rewinds_the_ring(self):
        cfg = default_config(prefetch_enabled=False)
        cfg.gpu.memory_bytes = 16 * MB
        system = UvmSystem(cfg, trace=True)
        checkpoints = {}

        def hook(engine, batch_id):
            if batch_id == 2:
                checkpoints["at"] = (engine.checkpoint(), engine.flight.events())

        system.engine._batch_hooks.append(hook)
        RegularStream(nbytes=16 * MB).run(system)
        ckpt, events = checkpoints["at"]
        assert len(system.obs.flight) > len(events)
        ckpt.restore_into(system.engine)
        assert system.obs.flight.events() == events

    def test_null_flight_is_inert(self):
        NULL_FLIGHT.record("anything", 1, 2)
        assert not NULL_FLIGHT.enabled
        assert len(NULL_FLIGHT) == 0
        assert NULL_FLIGHT.events() == []
        assert NULL_FLIGHT.tail(5) == []
        assert NULL_FLIGHT.select("x") == []
        assert NULL_FLIGHT.last("x") is None
        assert NULL_FLIGHT.to_dicts() == []
        NULL_FLIGHT.clear()


class TestObsConfigFlightKnobs:
    def test_flight_on_by_default(self):
        obs = Observability(ObsConfig(), SimClock())
        assert obs.flight.enabled
        assert obs.flight.capacity == ObsConfig().flight_cap

    def test_flight_off_installs_null_object(self):
        obs = Observability(ObsConfig(flight_recorder=False), SimClock())
        assert obs.flight is NULL_FLIGHT

    def test_scoped_view_shares_the_flight(self):
        obs = Observability(ObsConfig(), SimClock())
        view = obs.scoped(1000, "gpu1")
        assert view.flight is obs.flight

    def test_flight_cap_validated(self):
        with pytest.raises(ConfigError):
            ObsConfig(flight_cap=0).validate()

    def test_disabled_keeps_flight_only_when_bundles_armed(self):
        dark = ObsConfig().disabled()
        assert not dark.flight_recorder
        armed = ObsConfig(bundle_dir="/tmp/b").disabled()
        assert armed.flight_recorder
        assert armed.bundle_dir == "/tmp/b"


# ---------------------------------------------------------------- quantiles


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram(buckets=(1.0, 2.0))
        assert h.quantile(0.5) is None
        assert h.quantiles() == {"p50": None, "p95": None, "p99": None}

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(buckets=(10.0, 20.0))
        for v in (5.0, 15.0, 15.0, 15.0):
            h.observe(v)
        # p50: rank 2 of 4 lands in the (10, 20] bucket.
        assert h.quantile(0.5) == pytest.approx(15.0, abs=5.0)
        assert h.quantile(0.0) == pytest.approx(0.0, abs=10.0)
        assert h.quantile(1.0) == pytest.approx(20.0)

    def test_inf_tail_clamps_to_highest_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0

    def test_quantile_range_checked(self):
        h = Histogram(buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantiles_keys(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for v in range(1, 101):
            h.observe(float(v))
        qs = h.quantiles()
        assert set(qs) == {"p50", "p95", "p99"}
        assert qs["p50"] <= qs["p95"] <= qs["p99"]

    def test_registry_histogram_exposes_quantiles(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat", buckets=(10.0, 100.0))
        fam.observe(50.0)
        assert fam.labels().quantile(1.0) == pytest.approx(100.0)


# ------------------------------------------------------------------ bundles


def _crash_engine(tmp_path, seed=0, bundle_dir=None):
    """A small crashed run with bundles armed; returns (engine, error)."""
    from repro.api import UvmSystem
    from repro.errors import InjectedCrash
    from repro.units import MB
    from repro.workloads import WORKLOAD_REGISTRY

    cfg = default_config()
    cfg.gpu.memory_bytes = 32 * MB
    cfg.seed = seed
    cfg.inject.enabled = True
    cfg.inject.sites = {"engine.crash": {"at_batch": 3}}
    cfg.inject.crash_recovery = False
    cfg.inject.checkpoint_every = 2
    cfg.obs.bundle_dir = (
        str(tmp_path / "bundles") if bundle_dir is None else bundle_dir
    )
    system = UvmSystem(cfg)
    with pytest.raises(InjectedCrash) as excinfo:
        WORKLOAD_REGISTRY["stream"]().run(system)
    return system.engine, excinfo.value


class TestBundleWriter:
    def test_unique_bundle_dir_suffixes(self, tmp_path):
        first = unique_bundle_dir(tmp_path, "crash")
        first.mkdir()
        second = unique_bundle_dir(tmp_path, "crash")
        assert second.name == "crash-2"

    def test_engine_writes_bundle_on_crash(self, tmp_path):
        engine, error = _crash_engine(tmp_path)
        bundle = engine.last_bundle
        assert bundle is not None and is_bundle_dir(bundle)
        manifest = read_manifest(bundle)
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["error"]["type"] == "InjectedCrash"
        assert manifest["error"]["batch_id"] == 3
        assert manifest["seed"] == 0
        assert manifest["kernel"] == "stream"
        assert manifest["checkpoint"]["file"] == "checkpoint.bin"
        assert (bundle / "checkpoint.bin").is_file()
        assert (bundle / "config.json").is_file()
        assert (bundle / "metrics.json").is_file()
        assert (bundle / "phases.json").is_file()
        assert manifest["flight"]["recorded"] == len(engine.flight)

    def test_bundle_counts_in_metrics(self, tmp_path):
        engine, _ = _crash_engine(tmp_path)
        snap = engine.obs.metrics.snapshot()
        assert snap["uvm_bundles_written_total"]["series"][0]["value"] == 1.0

    def test_no_bundle_dir_means_no_bundle(self):
        from repro.api import UvmSystem
        from repro.errors import InjectedCrash
        from repro.units import MB
        from repro.workloads import WORKLOAD_REGISTRY

        cfg = default_config()
        cfg.gpu.memory_bytes = 32 * MB
        cfg.inject.enabled = True
        cfg.inject.sites = {"engine.crash": {"at_batch": 3}}
        cfg.inject.crash_recovery = False
        system = UvmSystem(cfg)
        with pytest.raises(InjectedCrash):
            WORKLOAD_REGISTRY["stream"]().run(system)
        assert system.engine.last_bundle is None

    def test_on_demand_snapshot_without_error(self, tmp_path, small_system):
        from repro.workloads import WORKLOAD_REGISTRY

        WORKLOAD_REGISTRY["vecadd"]().run(small_system)
        bundle = write_bundle(
            tmp_path / "snap", small_system.engine, label="snapshot"
        )
        manifest = read_manifest(bundle)
        assert manifest["error"] is None
        assert manifest["label"] == "snapshot"

    def test_existing_directory_rejected(self, tmp_path, small_system):
        target = tmp_path / "dup"
        target.mkdir()
        with pytest.raises(OSError):
            write_bundle(target, small_system.engine)


class TestBundleRobustness:
    """A bundle write that cannot finish must leave nothing that looks
    like a bundle — and must never mask the crash it was documenting."""

    @staticmethod
    def _failing_dump(bundle_mod):
        real = bundle_mod._dump_json

        def failing(path, payload):
            if path.name == bundle_mod.METRICS_NAME:
                raise OSError(28, "No space left on device")
            real(path, payload)

        return failing

    def test_unwritable_bundle_dir_degrades_cleanly(self, tmp_path):
        # A regular file where the bundle root's parent should be makes
        # mkdir fail for any uid (a read-only dir would not stop root).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        engine, _ = _crash_engine(
            tmp_path, bundle_dir=str(blocker / "bundles")
        )
        assert engine.last_bundle is None
        assert blocker.is_file()  # nothing was created or clobbered

    def test_midwrite_failure_removes_partial_bundle(
        self, tmp_path, monkeypatch
    ):
        import repro.obs.bundle as bundle_mod

        engine, error = _crash_engine(tmp_path)
        monkeypatch.setattr(
            bundle_mod, "_dump_json", self._failing_dump(bundle_mod)
        )
        target = tmp_path / "ondemand"
        with pytest.raises(OSError):
            bundle_mod.write_bundle(target, engine, error)
        assert not target.exists()
        assert not is_bundle_dir(target)

    def test_engine_swallows_midwrite_failure(self, tmp_path, monkeypatch):
        import repro.obs.bundle as bundle_mod

        monkeypatch.setattr(
            bundle_mod, "_dump_json", self._failing_dump(bundle_mod)
        )
        engine, _ = _crash_engine(tmp_path)
        assert engine.last_bundle is None
        root = tmp_path / "bundles"
        # The crash directory was rolled back; no half-bundle survives.
        assert not root.exists() or list(root.iterdir()) == []

    def test_manifest_lands_atomically(self, tmp_path, small_system,
                                       monkeypatch):
        import repro.obs.bundle as bundle_mod
        from repro.workloads import WORKLOAD_REGISTRY

        WORKLOAD_REGISTRY["vecadd"]().run(small_system)

        def fail_finalize(directory, manifest):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(bundle_mod, "_finalize_bundle", fail_finalize)
        target = tmp_path / "snap"
        with pytest.raises(OSError):
            bundle_mod.write_bundle(target, small_system.engine)
        # Every other file was already written, yet without a manifest the
        # directory must not read back as a bundle.
        assert not is_bundle_dir(target)
        assert not target.exists()
