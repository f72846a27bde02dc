"""Runtime check of the metric catalog.

A real workload run registers only families the catalog declares, with
matching kinds, label keys and known units.  Across the coverage runs
below — the benchmark matrix at reduced scale, a chaos run recovered by
restore and resume, a two-GPU run and a fleet coordinator — the families
registered are exactly the catalog's entries, so the catalog can drift
from the code in neither direction.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path
from typing import List, NamedTuple

import pytest

from repro.api import UvmSystem
from repro.campaign.fleet import FleetConfig, FleetCoordinator
from repro.config import default_config
from repro.errors import InjectedCrash
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.multigpu import MultiGpuSystem
from repro.obs.catalog import (
    METRIC_CATALOG,
    UNIT_VOCAB,
    declared_label_keys,
    metric_declaration,
    validate_registry,
)
from repro.units import MB
from repro.workloads import StreamTriad
from repro.workloads.hpgmg import Hpgmg
from repro.workloads.synthetic import RandomAccess

MATRIX_PATH = Path(__file__).resolve().parents[3] / "perfbench" / "matrix.py"
SEED = 0

#: Each benchmark workload at reduced scale: (device MiB, workload maker).
#: Oversubscription ratios follow the full-size matrix.
REDUCED = {
    "stream-oversub": (4, lambda seed: StreamTriad(nbytes=2 * MB, sweeps=2)),
    "random-scatter": (
        16,
        lambda seed: RandomAccess(
            nbytes=8 * MB, num_programs=8, accesses_per_program=256, seed=seed
        ),
    ),
    "hpgmg-oversub": (4, lambda seed: Hpgmg(n=512, levels=3, cycles=2)),
    "chaos-hpgmg": (4, lambda seed: Hpgmg(n=512, levels=3, cycles=2)),
}


def load_matrix():
    """The benchmark's workload table, imported from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_matrix", MATRIX_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def reduced_matrix():
    return {
        name: dataclasses.replace(workload, gpu_mb=REDUCED[name][0], make=REDUCED[name][1])
        for name, workload in load_matrix().items()
    }


class Run(NamedTuple):
    label: str
    registry: object


def observed(label: str, system) -> Run:
    return Run(label, system.obs.metrics)


def matrix_run(name: str, workload) -> Run:
    system = UvmSystem(workload.config(SEED, obs=True, sanitizer=True))
    system.run(list(workload.make(SEED).steps(system)), name=name)
    assert system.sanitizer.total_violations == 0, name
    return observed(name, system)


def recovered_chaos_run(workload) -> Run:
    """A chaos run whose injected crash escapes the engine, recovered the
    way a campaign worker recovers a cell: restore the latest checkpoint
    and resume the in-flight launch."""
    cfg = workload.config(SEED, obs=True, sanitizer=True)
    cfg.inject.crash_recovery = False
    system = UvmSystem(cfg)
    saved = []

    def keep_checkpoint(engine, batch_id):
        if batch_id % cfg.inject.checkpoint_every == 0:
            saved.append(engine.checkpoint())

    system.engine._batch_hooks.append(keep_checkpoint)
    resumed = 0
    for step in workload.make(SEED).steps(system):
        if not isinstance(step, KernelLaunch):
            step(system)
            continue
        try:
            system.launch(step)
        except InjectedCrash:
            saved[-1].restore_into(system.engine)
            system.engine.resume()
            resumed += 1
    assert resumed == 1
    assert system.sanitizer.total_violations == 0
    return observed("chaos-hpgmg recovered", system)


def two_gpu_run() -> Run:
    mg = MultiGpuSystem(num_devices=2, config=default_config())
    alloc = mg.managed_alloc(2 * MB)
    mg.host_touch(alloc)
    sweep = KernelLaunch("sweep", [WarpProgram([Phase.of(list(alloc.pages(0, 64)))])])
    mg.launch(0, sweep)
    mg.launch(1, sweep)
    assert mg.peer_stats.peer_pages == 64
    return observed("two-gpu", mg)


def fleet_run() -> Run:
    fleet = FleetCoordinator([], [], jobs=1, config=FleetConfig())
    fleet.run()
    return Run("fleet", fleet.metrics)


def coverage_problems(runs: List[Run]) -> List[str]:
    """Where the runs and the catalog disagree (empty = they agree)."""
    emitted = set().union(*(r.registry.snapshot() for r in runs))
    declared = set(METRIC_CATALOG)
    problems = [f"metric {n}: declared but never emitted" for n in sorted(declared - emitted)]
    problems += [f"metric {n}: emitted but undeclared" for n in sorted(emitted - declared)]
    for run in runs:
        problems += [f"{run.label}: {p}" for p in validate_registry(run.registry)]
    return problems


@pytest.fixture(scope="module")
def coverage_runs():
    matrix = reduced_matrix()
    assert set(matrix) == set(REDUCED)
    runs = [matrix_run(name, workload) for name, workload in matrix.items()]
    runs.append(recovered_chaos_run(matrix["chaos-hpgmg"]))
    runs.append(two_gpu_run())
    runs.append(fleet_run())
    return runs


@pytest.fixture(scope="module")
def metered_system():
    cfg = default_config()
    cfg.gpu.memory_bytes = 32 * MB
    cfg.seed = 7
    cfg.obs.metrics = True
    system = UvmSystem(cfg)
    StreamTriad(nbytes=4 * MB).run(system)
    return system


class TestCatalogShape:
    def test_every_entry_is_literal_and_complete(self):
        for name, spec in METRIC_CATALOG.items():
            assert spec["kind"] in ("counter", "gauge", "histogram"), name
            assert isinstance(spec["labels"], tuple), name
            assert spec["help"], name

    def test_every_entry_declares_a_known_unit(self):
        for name, spec in METRIC_CATALOG.items():
            assert spec.get("unit") in UNIT_VOCAB, (
                f"{name}: unit {spec.get('unit')!r} not in UNIT_VOCAB"
            )

    def test_helpers(self):
        assert metric_declaration("uvm_faults_total")["kind"] == "counter"
        assert declared_label_keys("uvm_faults_total") == ("kind",)
        with pytest.raises(KeyError):
            metric_declaration("no_such_family")


class TestRuntimeAgreement:
    def test_live_registry_matches_catalog(self, metered_system):
        problems = validate_registry(metered_system.metrics)
        assert problems == [], "\n".join(problems)

    def test_run_actually_registered_core_families(self, metered_system):
        snapshot = metered_system.metrics.snapshot()
        assert "uvm_faults_total" in snapshot
        assert "uvm_batches_total" in snapshot

    def test_unknown_unit_is_reported(self, metered_system, monkeypatch):
        decl = METRIC_CATALOG["uvm_faults_total"]
        monkeypatch.setitem(METRIC_CATALOG, "uvm_faults_total", {**decl, "unit": "furlongs"})
        problems = validate_registry(metered_system.metrics)
        assert problems == ["uvm_faults_total: unit 'furlongs' not in UNIT_VOCAB"]

    def test_validate_registry_catches_an_imposter(self, metered_system):
        registry = metered_system.metrics
        registry.counter("uvm_imposter_total", "not in the catalog").inc()
        problems = validate_registry(registry)
        assert any("uvm_imposter_total" in p for p in problems)


class TestCatalogCoverage:
    def test_runs_emit_exactly_the_catalog(self, coverage_runs):
        problems = coverage_problems(coverage_runs)
        assert problems == [], "\n".join(problems)

    def test_declared_but_unemitted_entry_fails(self, coverage_runs, monkeypatch):
        monkeypatch.setitem(
            METRIC_CATALOG,
            "uvm_unemitted_total",
            {"kind": "counter", "labels": (), "help": "never emitted", "unit": "count"},
        )
        problems = coverage_problems(coverage_runs)
        assert any(
            "uvm_unemitted_total" in p and "never emitted" in p for p in problems
        ), problems

    def test_emitted_but_undeclared_entry_fails(self, coverage_runs):
        system = UvmSystem(default_config())
        system.metrics.counter("uvm_undeclared_total", "not in the catalog").inc()
        problems = coverage_problems(coverage_runs + [observed("mutant", system)])
        assert any(
            "uvm_undeclared_total" in p and "undeclared" in p for p in problems
        ), problems
