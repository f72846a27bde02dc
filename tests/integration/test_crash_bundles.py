"""Crash-bundle integration: every chaos profile, crashed at the same
batch, writes a schema-valid diagnostic bundle; equal seeds produce
byte-identical bundles; and the flight recorder never moves the timeline.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.errors import InjectedCrash
from repro.inject.profiles import BUILTIN_PROFILES
from repro.obs.analyze import analyze_bundle
from repro.obs.bundle import (
    BUNDLE_SCHEMA,
    EVENTS_NAME,
    MANIFEST_NAME,
    read_manifest,
)
from repro.units import MB
from repro.workloads import WORKLOAD_REGISTRY

REPO_ROOT = Path(__file__).resolve().parents[2]
SCHEMA = json.loads(
    (REPO_ROOT / "docs" / "schemas" / "bundle.schema.json").read_text()
)
EXAMPLE_PROFILES = sorted(
    str(p) for p in (REPO_ROOT / "examples" / "chaos").glob("*.json")
)
PROFILES = sorted(BUILTIN_PROFILES) + EXAMPLE_PROFILES

CRASH_BATCH = 4


def _crash_run(profile, seed, bundle_root, trace=False):
    """Run stream under ``profile`` with a forced unrecovered crash; the
    inline site merges over the profile, so every profile dies at the same
    batch and the bundle is the only artifact under test."""
    cfg = default_config()
    cfg.gpu.memory_bytes = 32 * MB
    cfg.seed = seed
    cfg.inject.enabled = True
    cfg.inject.profile = profile
    cfg.inject.sites = {"engine.crash": {"at_batch": CRASH_BATCH}}
    cfg.inject.crash_recovery = False
    cfg.inject.checkpoint_every = 2
    cfg.obs.bundle_dir = str(bundle_root)
    system = UvmSystem(cfg, trace=trace)
    with pytest.raises(InjectedCrash):
        WORKLOAD_REGISTRY["stream"]().run(system)
    bundle = system.engine.last_bundle
    assert bundle is not None
    return bundle


class TestBundleOnCrash:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "profile", PROFILES, ids=[Path(p).stem for p in PROFILES]
    )
    def test_schema_valid_and_analyzable(self, profile, seed, tmp_path):
        bundle = _crash_run(profile, seed, tmp_path)
        manifest = read_manifest(bundle)
        jsonschema.validate(manifest, SCHEMA)
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["error"]["type"] == "InjectedCrash"
        assert manifest["error"]["batch_id"] == CRASH_BATCH
        assert manifest["seed"] == seed
        report = analyze_bundle(bundle)
        assert report["failing_batch"] == CRASH_BATCH
        assert report["checkpoint"] is not None
        assert report["event_tail"]

    @pytest.mark.parametrize("profile", ["crashy", "kitchen-sink"])
    def test_equal_seeds_byte_identical(self, profile, tmp_path):
        a = _crash_run(profile, 0, tmp_path / "a")
        b = _crash_run(profile, 0, tmp_path / "b")
        assert (a / EVENTS_NAME).read_bytes() == (b / EVENTS_NAME).read_bytes()
        assert (a / MANIFEST_NAME).read_bytes() == (
            b / MANIFEST_NAME
        ).read_bytes()

    def test_traced_run_bundles_its_unbounded_log(self, tmp_path):
        bundle = _crash_run("crashy", 0, tmp_path, trace=True)
        manifest = read_manifest(bundle)
        jsonschema.validate(manifest, SCHEMA)
        assert manifest["flight"]["capacity"] is None
        assert manifest["flight"]["dropped"] == 0
        lines = (bundle / EVENTS_NAME).read_text().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"fault", "migrate", "batch.open", "crash.injected"} <= kinds
        assert len(lines) == manifest["flight"]["recorded"]

    def test_analyze_cli_renders_bundle(self, tmp_path, capsys):
        from repro.cli import main

        bundle = _crash_run("crashy", 0, tmp_path)
        assert main(["analyze", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "crash bundle" in out
        assert "InjectedCrash" in out
        assert f"failing batch: {CRASH_BATCH}" in out
        assert "flight-recorder tail:" in out


class TestTimelineNeutrality:
    def _run(self, flight: bool):
        cfg = default_config()
        cfg.gpu.memory_bytes = 32 * MB
        cfg.obs.flight_recorder = flight
        system = UvmSystem(cfg)
        result = WORKLOAD_REGISTRY["stream"]().run(system)
        return system, result

    def test_flight_on_off_identical_timeline(self):
        sys_on, res_on = self._run(flight=True)
        sys_off, res_off = self._run(flight=False)
        assert sys_on.clock.now == sys_off.clock.now
        assert res_on.num_batches == res_off.num_batches
        assert [r.to_dict() for r in res_on.records] == [
            r.to_dict() for r in res_off.records
        ]
        # The on-run actually recorded something; the off-run is the null.
        assert len(sys_on.engine.flight) > 0
        assert len(sys_off.engine.flight) == 0
