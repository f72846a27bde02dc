"""Post-hoc report engine: ``uvm-repro analyze`` over logs and bundles.

The observability layer produces three durable artifacts — per-batch NDJSON
logs (:class:`~repro.obs.sinks.NdjsonSink`), campaign row files
(:func:`~repro.campaign.runner.to_ndjson`), and crash bundles
(:mod:`repro.obs.bundle`).  This module turns any of them into an analysis
report without re-running the simulation:

* **fault-latency percentiles** — exact p50/p95/p99 over batch service
  durations (the log has every sample; no histogram-bucket interpolation);
* **per-phase stall attribution** — the paper's §6 decomposition: while the
  driver services a batch the GPU is stalled, so each ``time_*`` component's
  share of total batch time is its share of GPU stall;
* **detectors** — overflow storms (consecutive batches dropping faults at
  the buffer flush, §4's overflow feedback loop) and migration thrashing
  (sustained evict-while-migrating windows, §5.1's pressure pathology);
* **A/B diff** — two reports compared leaf-by-leaf with a relative
  tolerance, the primitive behind ``analyze --diff``.

Everything here is pure post-processing: dict in, dict out, renderable as
ASCII.  Nothing runs the simulator: the only simulator import is the batch
record's phase tuple.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch_record import PHASE_FIELDS
from ..units import fold_sum
from .bundle import EVENTS_NAME, is_bundle_dir, read_manifest

#: Default relative tolerance for ``diff_reports`` (10 %).
DEFAULT_TOLERANCE = 0.10


# ------------------------------------------------------------------ loading


def load_batch_records(path: Union[str, Path]) -> List[dict]:
    """Batch-record dicts from an observability NDJSON log.

    Accepts both sink logs (lines tagged ``"type": "batch_record"``) and
    campaign row files (per-cell summaries carry no batch records — those
    load as zero records, which :func:`build_report` reports as such).
    """
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "batch_record":
                records.append(obj)
    return records


def exact_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Exact linear-interpolated percentile over raw samples."""
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError("percentile must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lower = int(rank)
    frac = rank - lower
    if lower + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lower] + (ordered[lower + 1] - ordered[lower]) * frac


# ---------------------------------------------------------------- detectors


def detect_overflow_storms(records: List[dict], min_batches: int = 3) -> List[dict]:
    """Runs of ``min_batches``+ consecutive batches dropping faults at the
    flush — the fault buffer persistently overflowing (§4: dropped faults
    reissue, re-filling the buffer, which drops more)."""
    storms = []
    run: List[dict] = []
    for record in records:
        if record.get("dropped_at_flush", 0) > 0:
            run.append(record)
            continue
        if len(run) >= min_batches:
            storms.append(_storm(run))
        run = []
    if len(run) >= min_batches:
        storms.append(_storm(run))
    return storms


def _storm(run: List[dict]) -> dict:
    return {
        "start_batch": run[0]["batch_id"],
        "end_batch": run[-1]["batch_id"],
        "batches": len(run),
        "dropped_faults": sum(r.get("dropped_at_flush", 0) for r in run),
    }


def detect_thrashing(
    records: List[dict], min_batches: int = 4, evict_ratio: float = 0.5
) -> List[dict]:
    """Sustained evict-while-migrating windows: ``min_batches``+ consecutive
    batches each evicting at least ``evict_ratio`` of the pages they
    migrate in — memory pressure forcing the working set back out as fast
    as it arrives (§5.1)."""
    windows = []
    run: List[dict] = []
    for record in records:
        migrated = record.get("pages_migrated_h2d", 0)
        evicted = record.get("pages_evicted", 0)
        if migrated > 0 and evicted >= evict_ratio * migrated:
            run.append(record)
            continue
        if len(run) >= min_batches:
            windows.append(_thrash_window(run))
        run = []
    if len(run) >= min_batches:
        windows.append(_thrash_window(run))
    return windows


def _thrash_window(run: List[dict]) -> dict:
    return {
        "start_batch": run[0]["batch_id"],
        "end_batch": run[-1]["batch_id"],
        "batches": len(run),
        "pages_migrated": sum(r.get("pages_migrated_h2d", 0) for r in run),
        "pages_evicted": sum(r.get("pages_evicted", 0) for r in run),
    }


# ------------------------------------------------------------------ reports


def build_report(records: List[dict]) -> dict:
    """The full analysis report for one run's batch records."""
    durations = [r.get("duration", 0.0) for r in records]
    total_usec = fold_sum(durations)
    fault_batches = [r for r in records if not r.get("hinted", False)]
    stall_usec = fold_sum(r.get("duration", 0.0) for r in fault_batches)
    phases = {}
    for name in PHASE_FIELDS:
        usec = fold_sum(r.get(name, 0.0) for r in records)
        phases[name[5:]] = {
            "usec": usec,
            "frac": usec / total_usec if total_usec > 0 else 0.0,
        }
    transfer_usec = phases["transfer_h2d"]["usec"] + phases["transfer_d2h"]["usec"]
    return {
        "batches": len(records),
        "aborted": sum(1 for r in records if r.get("aborted", False)),
        "hinted": sum(1 for r in records if r.get("hinted", False)),
        "faults": sum(r.get("num_faults_raw", 0) for r in records),
        "total_batch_usec": total_usec,
        "fault_latency_usec": {
            "p50": exact_percentile(durations, 0.50),
            "p95": exact_percentile(durations, 0.95),
            "p99": exact_percentile(durations, 0.99),
            "mean": total_usec / len(records) if records else None,
            "max": max(durations) if durations else None,
        },
        "phases": phases,
        "gpu_stall": {
            # §6: fault batches stall the SMs end-to-end; hinted batches
            # run before launch, so only fault-batch time is stall time.
            "stall_usec": stall_usec,
            # Of the stall, how much is wire time (the ≤25 % of Fig 7) vs
            # driver management overhead (the rest).
            "transfer_frac": transfer_usec / total_usec if total_usec > 0 else 0.0,
            "management_frac": (
                (total_usec - transfer_usec) / total_usec if total_usec > 0 else 0.0
            ),
        },
        "detectors": {
            "overflow_storms": detect_overflow_storms(records),
            "thrashing": detect_thrashing(records),
        },
    }


def analyze_bundle(bundle_dir: Union[str, Path]) -> dict:
    """Post-mortem view of one crash bundle: the error, the failing batch,
    and the flight-recorder tail leading up to it."""
    bundle_dir = Path(bundle_dir)
    manifest = read_manifest(bundle_dir)
    events = []
    events_path = bundle_dir / EVENTS_NAME
    if events_path.is_file():
        with events_path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    error = manifest.get("error") or {}
    failing_batch = error.get("batch_id")
    if failing_batch is None:
        # Fall back to the newest batch the flight ring opened.
        for event in reversed(events):
            if event.get("kind") == "batch.open":
                failing_batch = event["args"][0]
                break
    return {
        "bundle": str(bundle_dir),
        "schema": manifest.get("schema"),
        "error": manifest.get("error"),
        "failing_batch": failing_batch,
        "clock_usec": manifest.get("clock_usec"),
        "kernel": manifest.get("kernel"),
        "seed": manifest.get("seed"),
        "batches_logged": manifest.get("batches_logged"),
        "checkpoint": manifest.get("checkpoint"),
        "event_tail": events[-10:],
    }


def analyze_path(path: Union[str, Path]) -> Tuple[str, dict]:
    """Analyze a bundle directory or an NDJSON log; returns (kind, report)
    with ``kind`` in {"bundle", "records"}."""
    if is_bundle_dir(path):
        return "bundle", analyze_bundle(path)
    return "records", build_report(load_batch_records(path))


# --------------------------------------------------------------------- diff


def _numeric_leaves(obj, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to dotted-path → numeric value (bools/lists and
    non-numeric leaves are skipped; detector lists are compared by count)."""
    leaves: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key in obj:
            leaves.update(_numeric_leaves(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, list):
        leaves[prefix[:-1] + ".count"] = float(len(obj))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        leaves[prefix[:-1]] = float(obj)
    return leaves


def diff_reports(
    report_a: dict, report_b: dict, tolerance: float = DEFAULT_TOLERANCE
) -> dict:
    """Leaf-by-leaf comparison of two reports (B relative to A).

    A *change* is a numeric leaf whose relative delta exceeds ``tolerance``
    (absolute delta for zero baselines), or a leaf present on only one
    side.  ``identical`` means no leaf moved at all; ``within_tolerance``
    means no change exceeded the threshold.
    """
    a = _numeric_leaves(report_a)
    b = _numeric_leaves(report_b)
    changes = []
    identical = True
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            identical = False
            changes.append(
                {
                    "key": key,
                    "a": a.get(key),
                    "b": b.get(key),
                    "delta_rel": None,
                    "only_in": "a" if key in a else "b",
                }
            )
            continue
        va, vb = a[key], b[key]
        if va == vb:
            continue
        identical = False
        delta_rel = (vb - va) / abs(va) if va != 0 else None
        exceeded = (
            abs(delta_rel) > tolerance
            if delta_rel is not None
            else abs(vb - va) > tolerance
        )
        if exceeded:
            changes.append({"key": key, "a": va, "b": vb, "delta_rel": delta_rel})
    return {
        "tolerance": tolerance,
        "identical": identical,
        "within_tolerance": not changes,
        "changes": changes,
    }


# ---------------------------------------------------------------- rendering


def render_report(report: dict, title: str = "analyze") -> str:
    """The records report as ASCII (same plain-table idiom as the chaos
    report)."""
    lines = [f"== {title} =="]
    lines.append(
        f"batches {report['batches']} ({report['hinted']} hinted, "
        f"{report['aborted']} aborted) | faults {report['faults']} | "
        f"batch time {report['total_batch_usec']:.1f}us"
    )
    lat = report["fault_latency_usec"]
    if lat["p50"] is not None:
        lines.append(
            "fault latency: "
            f"p50 {lat['p50']:.1f}us  p95 {lat['p95']:.1f}us  "
            f"p99 {lat['p99']:.1f}us  mean {lat['mean']:.1f}us  "
            f"max {lat['max']:.1f}us"
        )
    stall = report["gpu_stall"]
    lines.append(
        f"gpu stall {stall['stall_usec']:.1f}us | transfer "
        f"{stall['transfer_frac']:.1%} vs management "
        f"{stall['management_frac']:.1%} (paper Fig 7: transfers <= ~25%)"
    )
    lines.append("phase attribution:")
    phases = sorted(
        report["phases"].items(), key=lambda kv: kv[1]["usec"], reverse=True
    )
    for name, info in phases:
        if info["usec"] <= 0:
            continue
        lines.append(f"  {name:16s} {info['usec']:12.1f}us  {info['frac']:6.1%}")
    storms = report["detectors"]["overflow_storms"]
    thrash = report["detectors"]["thrashing"]
    for storm in storms:
        lines.append(
            f"overflow storm: batches {storm['start_batch']}-"
            f"{storm['end_batch']} dropped {storm['dropped_faults']} faults"
        )
    for window in thrash:
        lines.append(
            f"thrashing: batches {window['start_batch']}-{window['end_batch']} "
            f"evicted {window['pages_evicted']} of {window['pages_migrated']} "
            f"migrated pages"
        )
    if not storms and not thrash:
        lines.append("detectors: clean (no overflow storms, no thrashing)")
    return "\n".join(lines)


def render_bundle_report(report: dict) -> str:
    """The bundle post-mortem as ASCII."""
    lines = [f"== crash bundle: {report['bundle']} =="]
    error = report.get("error")
    if error:
        lines.append(f"error: {error['type']}: {error['message']}")
    else:
        lines.append("error: none recorded (on-demand snapshot)")
    lines.append(
        f"failing batch: {report['failing_batch']} | clock "
        f"{report['clock_usec']:.1f}us | kernel {report['kernel']} | "
        f"seed {report['seed']} | {report['batches_logged']} batches logged"
    )
    checkpoint = report.get("checkpoint")
    if checkpoint:
        lines.append(
            f"nearest checkpoint: batch {checkpoint['batches']} at "
            f"{checkpoint['clock_usec']:.1f}us ({checkpoint['file']})"
        )
    else:
        lines.append("nearest checkpoint: none captured")
    lines.append("flight-recorder tail:")
    for event in report["event_tail"]:
        args = " ".join(str(a) for a in event.get("args", []))
        lines.append(f"  {event['t']:12.1f}us  {event['kind']:16s} {args}")
    return "\n".join(lines)


def render_diff(diff: dict, label_a: str = "A", label_b: str = "B") -> str:
    """The A/B diff as ASCII."""
    if diff["identical"]:
        return f"reports identical ({label_a} == {label_b})"
    lines = [
        f"diff {label_a} -> {label_b} (tolerance {diff['tolerance']:.0%}): "
        + (
            "within tolerance"
            if diff["within_tolerance"]
            else f"{len(diff['changes'])} changes beyond tolerance"
        )
    ]
    for change in diff["changes"]:
        if change.get("only_in"):
            lines.append(f"  {change['key']}: only in {change['only_in']}")
            continue
        rel = change["delta_rel"]
        rel_text = f"{rel:+.1%}" if rel is not None else "n/a"
        lines.append(
            f"  {change['key']}: {change['a']:.4g} -> {change['b']:.4g} ({rel_text})"
        )
    return "\n".join(lines)
