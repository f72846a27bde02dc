"""Crash bundles: one self-contained diagnostic directory per failure.

When a run dies — an unhandled :class:`~repro.errors.UvmError`, a raise-mode
:class:`~repro.errors.InvariantViolation`, or an unrecovered injected crash —
the engine writes a *bundle*: everything a post-mortem needs, frozen at the
moment of death, in one directory.  ``uvm-repro analyze <bundle>`` reads it
back and names the failing batch; CI uploads bundles as artifacts from the
chaos job so a red run carries its own forensics.

Bundle layout (schema: ``docs/schemas/bundle.schema.json``)::

    <dir>/
      manifest.json    error, clock, seed, RNG state, checkpoint ref, file map
      config.json      full SystemConfig snapshot (dataclasses.asdict)
      events.ndjson    the flight-recorder ring, oldest first
      metrics.json     MetricsRegistry.snapshot()
      phases.json      the batch log's ``time_*`` timers, each summed over
                       every logged batch (sim µs, ``phase_totals``)
      checkpoint.bin   latest auto-checkpoint, ``EngineCheckpoint.to_bytes()``
                       (only when one exists)

Every byte is a function of simulated state — no wall-clock timestamps, no
hostnames — so two equal-seed crashes produce byte-identical event dumps
(the determinism property the bundle tests pin).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path
from typing import Optional, Union

from ..core.batch_record import phase_totals

#: Manifest ``schema`` identifier; bump on incompatible layout changes.
BUNDLE_SCHEMA = "uvm-repro-bundle/3"

#: Filenames inside every bundle directory.
MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
EVENTS_NAME = "events.ndjson"
METRICS_NAME = "metrics.json"
PHASES_NAME = "phases.json"
CHECKPOINT_NAME = "checkpoint.bin"


def _error_info(error: BaseException) -> dict:
    """Structured view of the exception that killed the run."""
    info: dict = {
        "type": type(error).__name__,
        "message": str(error),
    }
    for attr, key in (
        ("batch_id", "batch_id"),
        ("clock_usec", "clock_usec"),
        ("rule", "rule"),
        ("site", "site"),
        ("attempts", "attempts"),
    ):
        value = getattr(error, attr, None)
        if value is not None:
            info[key] = value
    context = getattr(error, "context", None)
    if context:
        info["context"] = dict(context)
    return info


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )


def _finalize_bundle(directory: Path, manifest: dict) -> None:
    """Land ``manifest.json`` atomically — the write that *makes* the
    directory a bundle.

    :func:`read_manifest` (and ``uvm-repro analyze``) key off the manifest,
    so it must appear whole or not at all: a crash mid-write must not leave
    a truncated manifest that parses as garbage or half a bundle that looks
    finished.  Everything else in the directory is written first; this
    rename is the commit point.
    """
    tmp = directory / (MANIFEST_NAME + ".tmp")
    try:
        tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, directory / MANIFEST_NAME)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def unique_bundle_dir(base: Union[str, Path], name: str) -> Path:
    """``base/name``, suffixed ``-2``, ``-3``, ... if already taken."""
    base = Path(base)
    candidate = base / name
    seq = 1
    while candidate.exists():
        seq += 1
        candidate = base / f"{name}-{seq}"
    return candidate


def write_bundle(
    directory: Union[str, Path],
    engine,
    error: Optional[BaseException] = None,
    label: str = "crash",
) -> Path:
    """Write one diagnostic bundle for ``engine`` into ``directory``.

    ``directory`` is created (parents included); existing contents are not
    permitted — callers pick a fresh path (see :func:`unique_bundle_dir`).
    ``error`` is the exception on whose way out the bundle is written (None
    for on-demand snapshots).  Returns the bundle directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=False)
    try:
        manifest = _write_bundle_contents(directory, engine, error, label)
        _finalize_bundle(directory, manifest)
    except BaseException:
        # A failure partway through (disk full, unpicklable RNG state, …)
        # must not leave a half-written directory that analyze mistakes
        # for a bundle — remove the whole thing and let the error out.
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return directory


def _write_bundle_contents(
    directory: Path,
    engine,
    error: Optional[BaseException],
    label: str,
) -> dict:
    obs = engine.obs
    flight = obs.flight
    config = engine.config

    with (directory / EVENTS_NAME).open("w", encoding="utf-8") as fh:
        for event in flight.to_dicts():
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    _dump_json(directory / CONFIG_NAME, dataclasses.asdict(config))
    _dump_json(directory / METRICS_NAME, obs.metrics.snapshot())
    _dump_json(directory / PHASES_NAME, phase_totals(engine.driver.log.records))

    checkpoint_ref = None
    auto = getattr(engine, "_auto_checkpoint", None)
    if auto is not None:
        (directory / CHECKPOINT_NAME).write_bytes(auto.to_bytes())
        checkpoint_ref = dict(auto.summary())
        checkpoint_ref["file"] = CHECKPOINT_NAME

    progress = getattr(engine, "_progress", None)
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "label": label,
        "error": _error_info(error) if error is not None else None,
        "clock_usec": engine.clock.now,
        "seed": config.seed,
        "kernel": progress.name if progress is not None else None,
        "batches_logged": len(engine.driver.log),
        "last_batch_id": engine.driver.log.records[-1].batch_id
        if len(engine.driver.log)
        else None,
        "flight": {
            "capacity": flight.capacity,
            "recorded": len(flight),
            "dropped": flight.dropped,
        },
        "rng": {
            "engine": engine.rng.bit_generator.state,
            "driver": engine.driver.jitter.state(),
        },
        "injection": engine.injector.summary(),
        "sanitizer": engine.sanitizer.summary(),
        "checkpoint": checkpoint_ref,
        "files": {
            "config": CONFIG_NAME,
            "events": EVENTS_NAME,
            "metrics": METRICS_NAME,
            "phases": PHASES_NAME,
        },
    }
    return manifest


def read_manifest(bundle_dir: Union[str, Path]) -> dict:
    """Parse a bundle directory's manifest (raises on a non-bundle path)."""
    path = Path(bundle_dir) / MANIFEST_NAME
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def is_bundle_dir(path: Union[str, Path]) -> bool:
    return (Path(path) / MANIFEST_NAME).is_file()
