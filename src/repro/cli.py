"""Command-line interface: ``uvm-repro`` / ``python -m repro``.

Subcommands:

* ``list`` — show all registered experiments and workloads;
* ``run <exp_id> [...]`` — run experiments and print their rendered output;
* ``all`` — run the full suite in order (the paper's evaluation end-to-end);
* ``breakdown <workload>`` — run a workload and attribute its batch time to
  fault-path components (the paper's central decomposition);
* ``export <workload> --out DIR`` — run a workload and dump its per-batch
  timeline / scatter / per-SM CSVs for external plotting (``--trace`` adds
  the Chrome trace JSON);
* ``trace <workload> --out FILE`` — run a workload with the Chrome-trace
  recorder on and write a Perfetto-loadable timeline;
* ``metrics <workload>`` — run a workload and print its metrics registry
  (Prometheus text, or ``--json`` for the snapshot dict);
* ``lint [paths...]`` — the determinism lint over the simulator sources,
  filtered through line suppressions and the allowlist (exit 0 clean /
  1 findings / 2 usage error, including a missing or unparsable path;
  ``--format json|sarif`` for machine output);
* ``validate <workload>`` — run a workload with UVMSan in report mode and
  print the validation verdict (non-zero exit on violations or a crashed
  run; ``--json`` for a machine-readable verdict with an ``ok`` field);
* ``chaos <workload> --profile NAME`` — run a workload under a
  fault-injection profile (:mod:`repro.inject`) with UVMSan in report mode
  and print the chaos verdict (same JSON/exit-code contract as
  ``validate``; ``--list-profiles`` shows the bundled profiles);
* ``campaign <spec.json>`` — expand a campaign spec (workloads × configs ×
  seeds) and run every cell across a supervised worker fleet with a
  content-addressed result cache; the NDJSON output is byte-identical for
  any ``--jobs`` value, kill pattern, or resume path (see
  ``docs/performance.md`` and ``docs/fleet.md``); ``--watch`` renders live
  progress from worker telemetry, ``--telemetry`` logs the lifecycle
  events, ``--bundle-dir`` arms per-cell crash bundles, ``--ledger`` +
  ``--resume`` persist per-job state for crash recovery, and
  ``--kill-worker``/``--hang-worker`` arm the fleet's chaos harness
  (exit 0 clean / 1 failed cells / 2 usage error or interrupt);
* ``analyze <input...>`` — post-hoc report over observability NDJSON logs
  or crash-bundle directories: fault-latency percentiles, per-phase stall
  attribution, overflow-storm/thrashing detectors; ``--diff A B`` compares
  two logs with a relative tolerance (see ``docs/diagnostics.md``).

Simulator performance is measured with ``perfbench/run.py`` (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .analysis.experiments import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvm-repro",
        description=(
            "Reproduction of 'In-Depth Analyses of Unified Virtual Memory "
            "System for GPU Accelerated Computing' (SC '21)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments and workloads")

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument("experiments", nargs="+", metavar="EXP",
                       help="experiment ids, e.g. fig07 tab02")

    sub.add_parser("all", help="run every experiment in order")

    def add_workload_args(p):
        p.add_argument("workload", help="workload name (see `list`)")
        p.add_argument("--no-prefetch", action="store_true",
                       help="disable the driver prefetcher")
        p.add_argument("--gpu-mb", type=int, default=64,
                       help="device memory in MiB (default 64)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the simulation seed")

    bd = sub.add_parser("breakdown", help="cost attribution for a workload run")
    add_workload_args(bd)

    ex = sub.add_parser("export", help="dump a workload run's data as CSV")
    add_workload_args(ex)
    ex.add_argument("--out", default="export", help="output directory")
    ex.add_argument("--trace", action="store_true",
                    help="also record and write the Chrome trace JSON")

    tr = sub.add_parser(
        "trace", help="record a workload as a Chrome/Perfetto trace"
    )
    add_workload_args(tr)
    tr.add_argument("--out", default="trace.json",
                    help="output trace file (default trace.json)")

    mt = sub.add_parser(
        "metrics", help="run a workload and print its metrics registry"
    )
    add_workload_args(mt)
    mt.add_argument("--json", action="store_true",
                    help="print the snapshot dict as JSON instead of "
                         "Prometheus text")
    mt.add_argument("--percentiles", action="store_true",
                    help="also print p50/p95/p99 for every histogram series")

    cmp_p = sub.add_parser(
        "compare", help="A/B a workload: prefetch on vs off (or custom caps)"
    )
    cmp_p.add_argument("workload", help="workload name (see `list`)")
    cmp_p.add_argument("--gpu-mb", type=int, default=64)
    cmp_p.add_argument("--seed", type=int, default=None,
                       help="override the simulation seed")
    cmp_p.add_argument(
        "--batch-sizes",
        nargs=2,
        type=int,
        metavar=("A", "B"),
        help="compare two batch caps instead of prefetch on/off",
    )

    lint_p = sub.add_parser(
        "lint",
        help="determinism lint over the simulator sources",
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint_p.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="output format (default human)",
    )
    lint_p.add_argument(
        "--allowlist", default=None,
        help="allowlist file (default: repro/check/lint_allow.txt)",
    )
    lint_p.add_argument(
        "--no-allowlist", action="store_true",
        help="ignore the allowlist entirely",
    )

    val_p = sub.add_parser(
        "validate",
        help="run a workload with UVMSan in report mode and validate the run",
    )
    add_workload_args(val_p)
    val_p.add_argument("--json", action="store_true",
                       help="print the verdict as JSON")

    ch_p = sub.add_parser(
        "chaos",
        help="run a workload under a fault-injection profile with UVMSan "
             "in report mode",
    )
    ch_p.add_argument("workload", nargs="?", default=None,
                      help="workload name (see `list`)")
    ch_p.add_argument("--no-prefetch", action="store_true",
                      help="disable the driver prefetcher")
    ch_p.add_argument("--gpu-mb", type=int, default=64,
                      help="device memory in MiB (default 64)")
    ch_p.add_argument("--seed", type=int, default=None,
                      help="override the simulation seed")
    ch_p.add_argument("--profile", default="kitchen-sink",
                      help="builtin profile name or JSON profile file "
                           "(default kitchen-sink; see --list-profiles)")
    ch_p.add_argument("--checkpoint-every", type=int, default=8,
                      help="auto-checkpoint period in batches for crash "
                           "recovery (default 8; 0 = launch start only)")
    ch_p.add_argument("--json", action="store_true",
                      help="print the chaos report as JSON")
    ch_p.add_argument("--list-profiles", action="store_true",
                      help="list bundled injection profiles and exit")
    ch_p.add_argument("--bundle-dir", default="uvm-bundles",
                      help="directory for crash bundles (default "
                           "uvm-bundles; 'none' disables bundle writes)")
    ch_p.add_argument("--no-recovery", action="store_true",
                      help="disable checkpoint crash recovery: an injected "
                           "crash kills the run (and writes a bundle)")

    cam = sub.add_parser(
        "campaign",
        help="run a campaign spec (workloads x configs x seeds) across a "
             "worker pool with cached results",
    )
    cam.add_argument("spec", help="campaign spec JSON file")
    cam.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1; output is "
                          "byte-identical for any value)")
    cam.add_argument("--out", default=None,
                     help="NDJSON output file (default: <spec name>.ndjson)")
    cam.add_argument("--cache-dir", default=".uvm-campaign-cache",
                     help="result cache directory "
                          "(default .uvm-campaign-cache)")
    cam.add_argument("--no-cache", action="store_true",
                     help="recompute every cell, reading and writing no cache")
    cam.add_argument("--watch", action="store_true",
                     help="render live progress (jobs done/running/failed, "
                          "cache hit rate, batches/sec, ETA) while the "
                          "pool works")
    cam.add_argument("--telemetry", default=None, metavar="PATH",
                     help="write worker lifecycle events (job start/done/"
                          "failed, heartbeats) to an NDJSON file")
    cam.add_argument("--stall-timeout", type=float, default=30.0,
                     help="seconds of heartbeat silence before the fleet "
                          "escalates a stalled worker SIGTERM->SIGKILL "
                          "(and --watch flags it; default 30)")
    cam.add_argument("--bundle-dir", default=None,
                     help="arm per-cell crash bundles under this directory "
                          "(cell i writes <dir>/cell-<i>)")
    cam.add_argument("--ledger", default=None, metavar="PATH",
                     help="persistent SQLite run ledger (per-job state, "
                          "attempts, checkpoints); default <out>.ledger "
                          "when --resume is given")
    cam.add_argument("--resume", action="store_true",
                     help="resume a previous run from its ledger: done "
                          "rows replay verbatim, half-finished jobs "
                          "restart from their latest checkpoint")
    cam.add_argument("--max-attempts", type=int, default=3,
                     help="fleet retry budget per job for transient "
                          "failure classes (crash/hang/oom; default 3)")
    cam.add_argument("--term-grace", type=float, default=5.0,
                     help="seconds between SIGTERM and SIGKILL when "
                          "escalating a stalled worker (default 5)")
    cam.add_argument("--checkpoint-every", type=int, default=8,
                     help="cell auto-checkpoint cadence in serviced "
                          "batches, when a ledger is active (default 8)")
    cam.add_argument("--kill-worker", action="append", default=[],
                     metavar="IDX:BATCH",
                     help="chaos harness: SIGKILL the worker running cell "
                          "IDX at batch BATCH (first attempt only; "
                          "repeatable)")
    cam.add_argument("--hang-worker", action="append", default=[],
                     metavar="IDX:BATCH",
                     help="chaos harness: SIGSTOP the worker running cell "
                          "IDX at batch BATCH so stall escalation engages "
                          "(first attempt only; repeatable)")

    an = sub.add_parser(
        "analyze",
        help="post-hoc analysis of NDJSON logs, campaign rows, or crash "
             "bundles (fault-latency percentiles, phase stall attribution, "
             "overflow/thrashing detectors, A/B diff)",
    )
    an.add_argument("inputs", nargs="+",
                    help="NDJSON log file(s) or crash-bundle directory(ies)")
    an.add_argument("--diff", action="store_true",
                    help="compare exactly two record inputs (A B); exit 1 "
                         "when any metric moves beyond --tolerance")
    an.add_argument("--tolerance", type=float, default=0.10,
                    help="relative tolerance for --diff (default 0.10)")
    an.add_argument("--json", action="store_true",
                    help="print reports as JSON")

    return parser


def _run_workload(args, chrome_trace: bool = False, tweak_config=None):
    from .api import UvmSystem
    from .config import default_config
    from .units import MB
    from .workloads import WORKLOAD_REGISTRY

    if args.workload not in WORKLOAD_REGISTRY:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(WORKLOAD_REGISTRY))}",
            file=sys.stderr,
        )
        return None, None
    cfg = default_config(prefetch_enabled=not args.no_prefetch)
    cfg.gpu.memory_bytes = args.gpu_mb * MB
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if chrome_trace:
        cfg.obs.chrome_trace = True
    if tweak_config is not None:
        tweak_config(cfg)
    system = UvmSystem(cfg)
    try:
        result = WORKLOAD_REGISTRY[args.workload]().run(system)
    except Exception as exc:
        # Callers that report crashes (chaos) need the dead system — e.g.
        # the crash-bundle path the engine just wrote — so ride it on the
        # exception rather than widening every return site.
        exc.uvm_system = system
        raise
    return system, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in (None, "list"):
        from .workloads import WORKLOAD_REGISTRY

        print("Available experiments:")
        for exp_id in EXPERIMENTS:
            doc = (EXPERIMENTS[exp_id].__doc__ or "").strip().splitlines()[0]
            print(f"  {exp_id:24s} {doc}")
        print("\nAvailable workloads (for `breakdown` / `export`):")
        print("  " + ", ".join(sorted(WORKLOAD_REGISTRY)))
        return 0

    if args.command == "breakdown":
        from .analysis.breakdown import host_os_share, render_breakdown, wire_share
        from .units import fmt_usec

        system, result = _run_workload(args)
        if system is None:
            return 2
        print(
            render_breakdown(
                result.records,
                title=f"{args.workload}: fault-path cost attribution "
                f"({result.num_batches} batches, "
                f"batch time {fmt_usec(result.batch_time_usec)})",
            )
        )
        print(f"\nhost-OS share (unmap + DMA/radix): {host_os_share(result.records):.1%}")
        print(f"interconnect share (wire time)    : {wire_share(result.records):.1%}")
        return 0

    if args.command == "compare":
        from .analysis.compare import compare_configs
        from .config import default_config
        from .units import MB
        from .workloads import WORKLOAD_REGISTRY

        if args.workload not in WORKLOAD_REGISTRY:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        factory = WORKLOAD_REGISTRY[args.workload]

        def cfg(**kw):
            c = default_config(**kw)
            c.gpu.memory_bytes = args.gpu_mb * MB
            if args.seed is not None:
                c.seed = args.seed
            return c

        if args.batch_sizes:
            a, b = args.batch_sizes
            comparison = compare_configs(
                factory,
                cfg(batch_size=a),
                cfg(batch_size=b),
                label_a=f"cap {a}",
                label_b=f"cap {b}",
            )
        else:
            comparison = compare_configs(
                factory,
                cfg(prefetch_enabled=True),
                cfg(prefetch_enabled=False),
                label_a="prefetch on",
                label_b="prefetch off",
            )
        print(comparison.render())
        return 0

    if args.command == "export":
        from pathlib import Path

        from .analysis.export import (
            export_batch_timeline,
            export_scatter,
            export_sm_histogram,
        )

        system, result = _run_workload(args, chrome_trace=args.trace)
        if system is None:
            return 2
        out = Path(args.out)
        paths = [
            export_batch_timeline(result.records, out / f"{args.workload}_timeline.csv"),
            export_scatter(result.records, out / f"{args.workload}_time_vs_bytes.csv"),
            export_sm_histogram(result.records, out / f"{args.workload}_sm_faults.csv"),
        ]
        if args.trace:
            paths.append(system.export_chrome_trace(out / f"{args.workload}_trace.json"))
        for path in paths:
            print(f"wrote {path}")
        return 0

    if args.command == "trace":
        system, result = _run_workload(args, chrome_trace=True)
        if system is None:
            return 2
        path = system.export_chrome_trace(args.out)
        chrome = system.obs.chrome
        print(
            f"wrote {path} ({len(chrome)} events, {chrome.num_tracks} tracks, "
            f"{result.num_batches} batches, {result.total_faults} faults)"
        )
        return 0

    if args.command == "metrics":
        import json as _json

        system, result = _run_workload(args)
        if system is None:
            return 2
        if args.json:
            print(_json.dumps(system.metrics_snapshot(), indent=2, sort_keys=True))
        else:
            print(system.prometheus_metrics(), end="")
        if args.percentiles:
            registry = system.metrics
            print("# histogram percentiles (p50/p95/p99)")
            for name in sorted(system.metrics_snapshot()):
                family = registry.family(name)
                if family.kind != "histogram":
                    continue
                for key, child in sorted(family.series.items()):
                    labels = (
                        "{" + ",".join(
                            f'{k}="{v}"'
                            for k, v in zip(family.label_names, key)
                        ) + "}"
                        if key
                        else ""
                    )
                    qs = child.quantiles()
                    stats = "  ".join(
                        f"{q}={'n/a' if v is None else f'{v:.1f}'}"
                        for q, v in qs.items()
                    )
                    print(f"{name}{labels}: {stats} (count {child.count})")
        return 0

    if args.command == "lint":
        import json as _json
        from pathlib import Path

        from .check.lint import (
            DEFAULT_ALLOWLIST_PATH,
            RULES,
            lint_paths,
            load_allowlist,
            render_report,
            report_to_json_dict,
        )
        from .check.sarif import sarif_to_json, to_sarif

        if args.paths:
            paths = [Path(p) for p in args.paths]
        else:
            paths = [Path(__file__).resolve().parent]

        try:
            allowlist = [] if args.no_allowlist else load_allowlist(
                args.allowlist or DEFAULT_ALLOWLIST_PATH
            )
            report = lint_paths(paths, allowlist=allowlist)
        except (ValueError, OSError) as exc:
            # LintInputError (a missing or unparsable target) is a
            # ValueError: unread input is a usage error, never "clean".
            print(f"lint: {exc}", file=sys.stderr)
            return 2

        if args.format == "json":
            print(_json.dumps(report_to_json_dict(report), indent=2,
                              sort_keys=True))
        elif args.format == "sarif":
            from . import __version__ as _version

            root = paths[0] if len(paths) == 1 and paths[0].is_dir() \
                else Path.cwd()
            print(sarif_to_json(
                to_sarif(report.findings, report.sources, RULES,
                         tool_version=_version, root=root)
            ))
        else:
            print(render_report(report))
        return 0 if report.ok else 1

    if args.command == "validate":
        import json as _json

        from .errors import UvmError
        from .validate import validate_system

        def _enable_sanitizer(cfg):
            cfg.check.enabled = True
            cfg.check.mode = "report"

        try:
            system, result = _run_workload(args, tweak_config=_enable_sanitizer)
        except UvmError as exc:
            # A crashed run is a failed validation, not a traceback: emit a
            # structured verdict and the same non-zero exit.
            verdict = {
                "workload": args.workload,
                "error": f"{type(exc).__name__}: {exc}",
                "violations": [],
                "ok": False,
            }
            if args.json:
                print(_json.dumps(verdict, indent=2, sort_keys=True))
            else:
                print(f"{args.workload}: run FAILED — {verdict['error']}")
            return 1
        if system is None:
            return 2
        violations = validate_system(system)
        summary = system.sanitizer.summary()
        ok = not violations and summary["violations"] == 0
        if args.json:
            print(
                _json.dumps(
                    {
                        "workload": args.workload,
                        "batches": result.num_batches,
                        "faults": result.total_faults,
                        "violations": [str(v) for v in violations],
                        "sanitizer": summary,
                        "ok": ok,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(
                f"{args.workload}: {result.num_batches} batches, "
                f"{result.total_faults} faults"
            )
            print(
                f"UVMSan: mode={summary['mode']}, "
                f"{summary['violations']} runtime violations"
            )
            for rule, count in sorted(summary["by_rule"].items()):
                print(f"  {rule}: {count}")
            if violations:
                print(f"validation FAILED ({len(violations)} violations):")
                for v in violations:
                    print(f"  {v}")
            else:
                print("validation OK: every invariant held")
        return 0 if ok else 1

    if args.command == "chaos":
        import json as _json

        from .errors import ConfigError, UvmError
        from .inject.chaos import (
            build_chaos_report,
            crash_report,
            render_chaos_report,
        )
        from .inject.profiles import BUILTIN_PROFILES

        if args.list_profiles:
            print("Bundled injection profiles:")
            for name in sorted(BUILTIN_PROFILES):
                sites = ", ".join(sorted(BUILTIN_PROFILES[name]))
                print(f"  {name:20s} {sites}")
            return 0
        if args.workload is None:
            print("error: a workload is required (or --list-profiles)",
                  file=sys.stderr)
            return 2

        def _enable_chaos(cfg):
            cfg.check.enabled = True
            cfg.check.mode = "report"
            cfg.inject.enabled = True
            cfg.inject.profile = args.profile
            cfg.inject.checkpoint_every = args.checkpoint_every
            if args.no_recovery:
                cfg.inject.crash_recovery = False
            if args.bundle_dir and args.bundle_dir != "none":
                cfg.obs.bundle_dir = args.bundle_dir

        try:
            system, result = _run_workload(args, tweak_config=_enable_chaos)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except UvmError as exc:
            report = crash_report(args.workload, args.profile, exc)
            crashed = getattr(exc, "uvm_system", None)
            bundle = crashed.engine.last_bundle if crashed is not None else None
            report["bundle"] = str(bundle) if bundle else None
            if args.json:
                print(_json.dumps(report, indent=2, sort_keys=True))
            else:
                print(render_chaos_report(report))
                if bundle:
                    print(f"crash bundle: {bundle} "
                          f"(inspect with `uvm-repro analyze {bundle}`)")
            return 1
        if system is None:
            return 2
        report = build_chaos_report(system, result, args.workload)
        if args.json:
            print(_json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_chaos_report(report))
        return 0 if report["ok"] else 1

    if args.command == "campaign":
        from pathlib import Path

        from .campaign import (
            CampaignInterrupted,
            CampaignSpec,
            FleetChaos,
            FleetConfig,
            FleetRetryPolicy,
            ResultCache,
            RunLedger,
            run_campaign,
            to_ndjson,
        )
        from .errors import ConfigError

        try:
            spec = CampaignSpec.from_file(args.spec)
        except OSError as exc:
            print(f"error: cannot read spec: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.jobs < 1:
            print("error: --jobs must be >= 1", file=sys.stderr)
            return 2
        try:
            chaos = FleetChaos.parse(args.kill_worker, args.hang_worker)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out_path = Path(args.out) if args.out else Path(f"{spec.name}.ndjson")
        ledger_path = args.ledger
        if ledger_path is None and args.resume:
            ledger_path = f"{out_path}.ledger"
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        fleet_config = FleetConfig(
            retry=FleetRetryPolicy(max_attempts=max(1, args.max_attempts)),
            stall_timeout_sec=args.stall_timeout,
            term_grace_sec=args.term_grace,
            checkpoint_every=args.checkpoint_every,
            chaos=None if chaos.empty else chaos,
        )
        monitor = None
        ledger = None
        t0 = time.perf_counter()
        try:
            # Both resources are acquired inside the guarded region so a
            # failure acquiring the second can never strand the first.
            if args.watch or args.telemetry:
                from .campaign.telemetry import CampaignMonitor

                monitor = CampaignMonitor(
                    len(spec.cells),
                    path=args.telemetry,
                    stall_timeout_sec=args.stall_timeout,
                    watch=args.watch,
                    mp_safe=False,
                )
            if ledger_path is not None:
                ledger = RunLedger(ledger_path)
            outcome = run_campaign(
                spec,
                jobs=args.jobs,
                cache=cache,
                bundle_dir=args.bundle_dir,
                monitor=monitor,
                ledger=ledger,
                resume=args.resume,
                fleet_config=fleet_config,
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except CampaignInterrupted as exc:
            # Finished rows are safe in the ledger; write what resolved and
            # leave the rest to `campaign --resume`.
            done = [row for row in exc.rows if row is not None]
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(to_ndjson(done), encoding="utf-8")
            print(f"interrupted: {exc}", file=sys.stderr)
            if ledger is not None:
                print(
                    f"resume with: uvm-repro campaign {args.spec} --resume "
                    f"--ledger {ledger.path}",
                    file=sys.stderr,
                )
            return 2
        finally:
            # Nested so a ledger.close() failure cannot skip the monitor
            # teardown (which owns a feeder thread).
            try:
                if ledger is not None:
                    ledger.close()
            finally:
                if monitor is not None:
                    monitor.close()
        wall = time.perf_counter() - t0
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(to_ndjson(outcome.rows), encoding="utf-8")
        ok_rows = [row for row in outcome.rows if row["status"] == "ok"]
        failed_rows = [row for row in outcome.rows if row["status"] == "failed"]
        sim_total = sum(row["result"]["clock_usec"] for row in ok_rows)
        print(
            f"campaign {spec.name}: {len(outcome.rows)} cells, "
            f"jobs={args.jobs}, cache hits {outcome.cache_hits}, "
            f"misses {outcome.cache_misses}"
        )
        if outcome.resumed:
            print(f"resumed: {outcome.resumed} rows replayed from ledger")
        if outcome.fleet is not None:
            print(
                f"fleet: {outcome.fleet['retries']} retries, "
                f"{outcome.fleet['kills']} kills, "
                f"{outcome.fleet['resumes']} checkpoint resumes, "
                f"{outcome.fleet['worker_deaths']} worker deaths"
            )
        print(
            f"wrote {out_path} (simulated {sim_total / 1e6:.2f}s total, "
            f"wall {wall:.1f}s)"
        )
        if failed_rows:
            print(f"{len(failed_rows)} cells FAILED:")
            for row in failed_rows:
                where = f" [bundle: {row['bundle']}]" if row.get("bundle") else ""
                print(
                    f"  #{row['index']} {row['workload']}/{row['config']} "
                    f"seed={row['seed']}: {row['error']['type']}: "
                    f"{row['error']['message']}{where}"
                )
            return 1
        return 0

    if args.command == "analyze":
        import json as _json

        from .obs.analyze import (
            analyze_path,
            diff_reports,
            render_bundle_report,
            render_diff,
            render_report,
        )

        try:
            analyzed = [analyze_path(p) for p in args.inputs]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.diff:
            if len(analyzed) != 2:
                print("error: --diff takes exactly two inputs", file=sys.stderr)
                return 2
            (kind_a, rep_a), (kind_b, rep_b) = analyzed
            if kind_a != "records" or kind_b != "records":
                print("error: --diff compares two record logs, not bundles",
                      file=sys.stderr)
                return 2
            diff = diff_reports(rep_a, rep_b, tolerance=args.tolerance)
            if args.json:
                print(_json.dumps(diff, indent=2, sort_keys=True))
            else:
                print(render_diff(diff, args.inputs[0], args.inputs[1]))
            return 0 if diff["within_tolerance"] else 1
        for path, (kind, report) in zip(args.inputs, analyzed):
            if args.json:
                print(_json.dumps(report, indent=2, sort_keys=True, default=str))
            elif kind == "bundle":
                print(render_bundle_report(report))
            else:
                print(render_report(report, title=f"analyze {path}"))
        return 0

    if args.command == "run":
        for exp_id in args.experiments:
            if exp_id not in EXPERIMENTS:
                print(f"error: unknown experiment {exp_id!r}", file=sys.stderr)
                print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
                return 2
        for exp_id in args.experiments:
            t0 = time.perf_counter()
            result = run_experiment(exp_id)
            print(result.render())
            print(f"[{exp_id} completed in {time.perf_counter() - t0:.1f}s]\n")
        return 0

    if args.command == "all":
        for exp_id in EXPERIMENTS:
            t0 = time.perf_counter()
            result = run_experiment(exp_id)
            print(result.render())
            print(f"[{exp_id} completed in {time.perf_counter() - t0:.1f}s]\n")
        return 0

    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
