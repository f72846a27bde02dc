"""Chaos-run reporting: one structured verdict per injected workload run.

``uvm-repro chaos`` runs a workload with a fault-injection profile active
and UVMSan in report mode, then assembles the verdict this module builds:
what was injected (per site), how the driver coped (retries, backoffs,
failovers, degradations, crash recoveries), and whether every invariant
held.  The report's ``ok`` flag drives the CLI exit code — the same
contract as ``uvm-repro validate``.
"""

from __future__ import annotations

from typing import List

from ..units import fold_sum

#: Per-record resilience counters summed into the report.
_RESILIENCE_COUNTERS = (
    "retries_dma",
    "retries_transfer",
    "retries_populate",
    "ce_failovers",
    "prefetch_fallbacks",
    "blocks_deferred",
)


def build_chaos_report(system, result, workload: str) -> dict:
    """Assemble the chaos verdict for a completed run.

    ``system`` is the :class:`~repro.api.UvmSystem` the workload ran on
    (with injection and report-mode UVMSan enabled); ``result`` the
    workload's run result exposing ``num_batches``/``total_faults``.
    """
    from ..validate import validate_system

    engine = system.engine
    records = engine.driver.log.records
    violations = [str(v) for v in validate_system(system)]
    sanitizer = engine.sanitizer.summary()
    resilience = {
        name: sum(getattr(r, name) for r in records)
        for name in _RESILIENCE_COUNTERS
    }
    resilience["time_retry_backoff_usec"] = fold_sum(
        r.time_retry_backoff for r in records
    )
    # Engine-side (non-batch) accounting: the CPU-touch D2H retry path has
    # no BatchRecord, so its counters live on the engine itself.
    resilience.update(engine.counters.as_dict())
    resilience["batches_aborted"] = sum(1 for r in records if r.aborted)
    ok = not violations and sanitizer["violations"] == 0
    return {
        "workload": workload,
        "seed": system.config.seed,
        "batches": result.num_batches,
        "faults": result.total_faults,
        "clock_usec": engine.clock.now,
        "injection": engine.injector.summary(),
        "resilience": resilience,
        "sanitizer": sanitizer,
        "violations": violations,
        "ok": ok,
    }


def crash_report(workload: str, profile: str, exc: BaseException) -> dict:
    """Verdict for a run that died before completing (fail-fast exhaustion,
    unrecovered injected crash, raise-mode invariant violation, ...)."""
    return {
        "workload": workload,
        "profile": profile,
        "error": f"{type(exc).__name__}: {exc}",
        "violations": [],
        "ok": False,
    }


def render_chaos_report(report: dict) -> str:
    """Human-readable rendering of :func:`build_chaos_report` output."""
    lines: List[str] = []
    if "error" in report:
        lines.append(f"{report['workload']}: run FAILED — {report['error']}")
        return "\n".join(lines)
    inj = report["injection"]
    lines.append(
        f"{report['workload']}: {report['batches']} batches, "
        f"{report['faults']} faults under profile "
        f"{inj['profile'] or '(inline sites)'}"
    )
    lines.append(
        f"injected: {inj['fired_total']} events, {inj['crashes']} crashes "
        f"({inj['recoveries']} recovered)"
    )
    for site in sorted(inj["sites"]):
        stats = inj["sites"][site]
        lines.append(
            f"  {site}: {stats['fired']}/{stats['opportunities']} fired "
            f"(rate {stats['rate']})"
        )
    res = report["resilience"]
    lines.append(
        "driver resilience: "
        + ", ".join(f"{name}={res[name]}" for name in _RESILIENCE_COUNTERS)
        + f", backoff {res['time_retry_backoff_usec']:.1f}us"
    )
    lines.append(
        "engine resilience: "
        f"d2h_retries={res['engine_d2h_retries']}, "
        f"d2h_failovers={res['engine_d2h_failovers']}, "
        f"d2h backoff {res['engine_d2h_backoff_usec']:.1f}us, "
        f"aborted batches {res['batches_aborted']}"
    )
    san = report["sanitizer"]
    lines.append(f"UVMSan: {san['violations']} runtime violations")
    if report["violations"]:
        lines.append(f"validation FAILED ({len(report['violations'])} violations):")
        for v in report["violations"]:
            lines.append(f"  {v}")
    if report["ok"]:
        lines.append("chaos run OK: every invariant held under injection")
    else:
        lines.append("chaos run FAILED")
    return "\n".join(lines)
