#!/usr/bin/env python3
"""Layered benchmark of the UVM simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-oversub --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload stream-oversub --seed 0 --trace 1
    python3 perfbench/run.py --record-references

``--trace 0`` sets up and runs the workload on a fresh system, one run at a
time in this process (closed loop, single-threaded), until ``--seconds``
have passed, and prints the end-to-end metrics as medians over the runs.
``--trace 1`` makes one untraced run, one run with every layer wrapped
(see ``layertrace.py``), and one run each with observability and UVMSan
toggled, and prints the per-layer metrics.  Every run's simulated-timeline
digest must equal the reference in ``references.json`` for its seed (for
a seed with no reference, the runs must agree with each other), or the run
counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Host times are measured with ``perf_counter`` and reported in seconds of a
host running at the reference speed: a fixed calibration loop is timed
between consecutive runs, and each run's times are scaled by
``CAL_REFERENCE_S`` over the mean of the two probes around it.  This takes
the host's speed drift out of the comparison between commits.

The simulator is imported from this checkout's ``src``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from benchstats import (
    Rep,
    calibration_s,
    end_to_end_metrics,
    error_rate,
    judge,
    percentile,
    timeline_digest,
)
from layertrace import LayerTracer, per_layer_metrics, render_layer_table, simulator_hooks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
#: Seeds with recorded reference digests: the default seed and a second one.
REFERENCE_SEEDS = (0, 1)
#: Fewest runs an untraced pass makes, however short ``--seconds`` is.
MIN_REPS = 3
#: The traced run fails unless the time outside every wrapped layer is
#: non-negative (no nested time counted twice) and at most this share of
#: the traced wall time.
UNATTRIBUTED_MAX_SHARE = 0.15


def use_checkout_sources() -> bool:
    """Put this checkout's simulator first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def reference_digest(workload: str, seed: int):
    entry = load_references().get(workload, {}).get(str(seed))
    return entry["digest"] if entry else None


def run_rep(spec, seed: int, tracer: LayerTracer = None, **toggles) -> Rep:
    """Set up and run ``spec`` once on a fresh system.

    A run that raises is returned as a failed :class:`Rep`, not propagated:
    it counts toward the error rate.
    """
    from repro.api import UvmSystem

    # Free the previous run's system before this one allocates, so peak RSS
    # measures one system at a time.
    gc.collect()
    try:
        t0 = time.perf_counter()
        system = UvmSystem(spec.config(seed, **toggles))
        steps = spec.make(seed).steps(system)
        setup_s = time.perf_counter() - t0
        stamps = []
        system.engine._batch_hooks.append(
            lambda _engine, _batch: stamps.append(time.perf_counter())
        )
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            result = system.run(steps, name=spec.name)
            run_s = time.perf_counter() - start
        edges = [start] + stamps
        intervals = [b - a for a, b in zip(edges, edges[1:])]
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            batches=result.num_batches,
            batch_p50_s=percentile(intervals, 50),
            batch_p95_s=percentile(intervals, 95),
            digest=timeline_digest(system.clock.now, system.records),
            violations=system.sanitizer.total_violations,
        )
    except Exception as exc:  # any failure of the run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Rep(error=f"raised {type(exc).__name__}: {exc}")


class Calibrator:
    """Brackets consecutive reps with :func:`calibration_s`; the probe
    between two reps serves both."""

    def __init__(self) -> None:
        self.last = calibration_s()

    def __call__(self, rep: Rep) -> Rep:
        after = calibration_s()
        rep.calibration_s = (self.last + after) / 2
        self.last = after
        return rep


def untraced_pass(spec, seed: int, seconds: float):
    reps = []
    begin = time.perf_counter()
    calibrated = Calibrator()
    while True:
        t0 = time.perf_counter()
        reps.append(calibrated(run_rep(spec, seed)))
        now = time.perf_counter()
        # Stop when another run like the last one would overrun the budget.
        if len(reps) >= MIN_REPS and now - begin + (now - t0) > seconds:
            break
    judge(reps, reference_digest(spec.name, seed))
    metrics = end_to_end_metrics(reps, peak_rss_mib())
    print(
        f"{spec.name} seed {seed}: {len(reps)} runs, "
        f"{sum(r.batches for r in reps if r.error is None)} batches, "
        f"error_rate {error_rate(reps):.3f}, run seconds (calibration) "
        + " ".join(f"{r.run_s:.3f} ({r.calibration_s:.3f})" for r in reps)
    )
    return reps, metrics


def traced_pass(spec, seed: int):
    tracer = LayerTracer(simulator_hooks())
    calibrated = Calibrator()
    base = calibrated(run_rep(spec, seed))
    traced = calibrated(run_rep(spec, seed, tracer=tracer))
    obs_flip = calibrated(run_rep(spec, seed, obs=not spec.chaos))
    # Last: an enabled sanitizer arms process-wide copy-engine checks.
    san_flip = calibrated(run_rep(spec, seed, sanitizer=not spec.chaos))
    reps = [base, traced, obs_flip, san_flip]
    judge(reps, reference_digest(spec.name, seed))
    if any(r.error is not None for r in reps):
        return reps, {}
    unattributed = traced.run_s - tracer.attributed_s()
    if not -1e-6 <= unattributed <= UNATTRIBUTED_MAX_SHARE * traced.run_s:
        traced.error = (
            f"unattributed {unattributed:.3f}s of {traced.run_s:.3f}s traced "
            f"is outside [0, {UNATTRIBUTED_MAX_SHARE:.0%}]"
        )
        return reps, {}

    def on_over_off(flipped: Rep) -> float:
        ratio = (flipped.run_s * flipped.scale) / (base.run_s * base.scale)
        # Chaos runs have obs and UVMSan on by default; the others off.
        return 1.0 / ratio if spec.chaos else ratio

    print(f"{spec.name} seed {seed}: traced layer self time")
    print(render_layer_table(tracer.stats, traced.run_s))
    metrics = per_layer_metrics(
        tracer.stats,
        traced_s=traced.run_s,
        # The base run's time at the host speed of the traced run.
        untraced_s=base.run_s * base.scale / traced.scale,
        obs_ratio=on_over_off(obs_flip),
        sanitizer_ratio=on_over_off(san_flip),
        violations=sum(r.violations for r in reps),
    )
    return reps, metrics


def record_references(workloads) -> int:
    refs = {}
    for spec in workloads.values():
        refs[spec.name] = {}
        for seed in REFERENCE_SEEDS:
            rep = run_rep(spec, seed)
            if rep.error is not None:
                print(f"{spec.name} seed {seed}: {rep.error}", file=sys.stderr)
                return 1
            refs[spec.name][str(seed)] = {"digest": rep.digest, "batches": rep.batches}
            print(f"{spec.name} seed {seed}: {rep.digest} ({rep.batches} batches)")
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="rerun every workload at the reference seeds and rewrite references.json",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        return 2
    from matrix import WORKLOADS

    if args.record_references:
        return record_references(WORKLOADS)
    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        reps, metrics = traced_pass(spec, args.seed)
    else:
        reps, metrics = untraced_pass(spec, args.seed, args.seconds)
    failed = [r for r in reps if r.error is not None]
    for rep in failed:
        print(f"failed run: {rep.error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failed and bool(metrics),
                "attempted": len(reps),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
