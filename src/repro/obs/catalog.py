"""Declarative catalog of every metric family the simulator emits.

The registry API registers families lazily in the folds that read them,
which is ergonomic but drift-prone: rename a family in its fold and every
dashboard, reconciliation identity, and cross-run diff silently
loses the series.  This module is the single declarative source of truth,
checked by running the simulator:

* :func:`validate_registry` rejects a family a live registry holds that
  is undeclared here, whose kind or label keys disagree with its
  declaration, or whose declared ``unit`` is missing or outside
  :data:`UNIT_VOCAB`;
* ``tests/unit/check/test_obs_catalog.py`` runs the benchmark matrix at
  reduced scale, a recovered chaos run, a two-GPU run and a fleet
  coordinator, and asserts that the families they register are exactly
  the entries below, so the catalog can drift from reality in neither
  direction.

When adding a metric: keep a counter where the event happens, register
the family in its owner's fold, declare it here with a unit, and make sure
one of the coverage runs emits it.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Every unit a catalog entry may declare.  ``bytes``/``us``/``wall_s`` are
#: physical quantities; the rest count events of the named kind.
UNIT_VOCAB = frozenset(
    {"bytes", "pages", "us", "wall_s", "count", "batches", "faults",
     "kernels", "rounds", "vablocks", "bursts", "ops", "retries",
     "violations", "bundles", "recoveries", "evictions", "kills",
     "resumes", "writes"}
)

#: family name → {"kind": counter|gauge|histogram, "labels": (keys...),
#: "help": one-liner, "unit": measurement unit}.  Keep alphabetical.
METRIC_CATALOG: Dict[str, dict] = {
    "uvm_batch_faults": {
        "kind": "histogram",
        "labels": (),
        "help": "Raw faults per batch",
        "unit": "faults",
    },
    "uvm_batch_service_usec": {
        "kind": "histogram",
        "labels": (),
        "help": "Batch servicing time (simulated us)",
        "unit": "us",
    },
    "uvm_batches_total": {
        "kind": "counter",
        "labels": ("kind",),
        "help": "Batches through the servicing path",
        "unit": "batches",
    },
    "uvm_bundles_written_total": {
        "kind": "counter",
        "labels": (),
        "help": "Crash bundles written",
        "unit": "bundles",
    },
    "uvm_bytes_total": {
        "kind": "counter",
        "labels": ("dir",),
        "help": "Bytes migrated over the interconnect",
        "unit": "bytes",
    },
    "uvm_ce_bursts_total": {
        "kind": "counter",
        "labels": ("dir",),
        "help": "Copy-engine burst operations",
        "unit": "bursts",
    },
    "uvm_ce_bytes_total": {
        "kind": "counter",
        "labels": ("dir",),
        "help": "Bytes moved by the copy engines",
        "unit": "bytes",
    },
    "uvm_ce_failovers_total": {
        "kind": "counter",
        "labels": (),
        "help": "Copy-engine failovers after stuck bursts",
        "unit": "count",
    },
    "uvm_crash_recoveries_total": {
        "kind": "counter",
        "labels": (),
        "help": "Injected crashes recovered from a checkpoint",
        "unit": "recoveries",
    },
    "uvm_degrade_total": {
        "kind": "counter",
        "labels": ("kind",),
        "help": "Graceful degradations on the fault path",
        "unit": "count",
    },
    "uvm_engine_rounds_total": {
        "kind": "counter",
        "labels": (),
        "help": "GPU fault-generation rounds",
        "unit": "rounds",
    },
    "uvm_evictions_total": {
        "kind": "counter",
        "labels": ("policy",),
        "help": "VABlocks evicted from device memory",
        "unit": "evictions",
    },
    "uvm_faults_total": {
        "kind": "counter",
        "labels": ("kind",),
        "help": "Faults fetched from the HW buffer",
        "unit": "faults",
    },
    "uvm_fleet_kills_total": {
        "kind": "counter",
        "labels": ("signal",),
        "help": "Worker kill escalations by signal",
        "unit": "kills",
    },
    "uvm_fleet_ledger_writes_total": {
        "kind": "counter",
        "labels": (),
        "help": "Run-ledger mutations committed",
        "unit": "writes",
    },
    "uvm_fleet_resumes_total": {
        "kind": "counter",
        "labels": (),
        "help": "Jobs resumed from an engine checkpoint",
        "unit": "resumes",
    },
    "uvm_fleet_retries_total": {
        "kind": "counter",
        "labels": ("class",),
        "help": "Fleet-level job retries by failure class",
        "unit": "retries",
    },
    "uvm_hostos_total": {
        "kind": "counter",
        "labels": ("op",),
        "help": "Host-OS operations on the fault path",
        "unit": "ops",
    },
    "uvm_injected_total": {
        "kind": "counter",
        "labels": ("site",),
        "help": "Injected faults by site",
        "unit": "faults",
    },
    "uvm_kernel_time_usec": {
        "kind": "histogram",
        "labels": (),
        "help": "Kernel wall time (simulated us)",
        "unit": "us",
    },
    "uvm_kernels_total": {
        "kind": "counter",
        "labels": (),
        "help": "Kernel launches run",
        "unit": "kernels",
    },
    "uvm_pages_total": {
        "kind": "counter",
        "labels": ("op",),
        "help": "Pages handled on the fault path",
        "unit": "pages",
    },
    "uvm_peer_pages_total": {
        "kind": "counter",
        "labels": ("mode",),
        "help": "Pages moved between devices",
        "unit": "pages",
    },
    "uvm_peer_time_usec_total": {
        "kind": "counter",
        "labels": ("mode",),
        "help": "Simulated time spent on cross-device migration",
        "unit": "us",
    },
    "uvm_resident_vablocks": {
        "kind": "gauge",
        "labels": (),
        "help": "GPU-allocated VABlocks tracked by the eviction policy",
        "unit": "vablocks",
    },
    "uvm_retries_total": {
        "kind": "counter",
        "labels": ("site",),
        "help": "Driver retries after transient fault-path failures",
        "unit": "retries",
    },
    "uvm_san_violations_total": {
        "kind": "counter",
        "labels": ("rule",),
        "help": "UVMSan invariant violations detected",
        "unit": "violations",
    },
}

def metric_declaration(name: str) -> dict:
    """The declaration for ``name`` (raises KeyError when undeclared)."""
    return METRIC_CATALOG[name]


def declared_label_keys(name: str) -> Tuple[str, ...]:
    return tuple(METRIC_CATALOG[name]["labels"])


def validate_registry(registry) -> list:
    """Runtime cross-check: every family a live registry holds must match
    its declaration.  Returns human-readable problem strings (empty = ok).
    """
    problems = []
    snapshot = registry.snapshot()
    for name in sorted(snapshot):
        decl = METRIC_CATALOG.get(name)
        family = registry.family(name)
        if decl is None:
            problems.append(f"{name}: registered at runtime but undeclared")
            continue
        if family.kind != decl["kind"]:
            problems.append(
                f"{name}: declared {decl['kind']}, registered {family.kind}"
            )
        if tuple(family.label_names) != tuple(decl["labels"]):
            problems.append(
                f"{name}: declared labels {tuple(decl['labels'])!r}, "
                f"registered {tuple(family.label_names)!r}"
            )
        unit = decl.get("unit")
        if not unit:
            problems.append(f"{name}: declaration carries no unit")
        elif unit not in UNIT_VOCAB:
            problems.append(f"{name}: unit {unit!r} not in UNIT_VOCAB")
    return problems
