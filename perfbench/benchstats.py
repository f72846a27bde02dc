"""Statistics, timeline digests and failure accounting for the benchmark.

Nothing here imports the simulator, so the benchmark's own tests exercise
these helpers without building a system.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Seconds :func:`calibration_s` takes on the reference host.  Reported host
#: times are scaled by this over the loop's time measured around each run.
CAL_REFERENCE_S = 0.2

#: Dict, set and list churn over ~30 MiB, like the simulator's own work.  A
#: cache-resident loop tracks the host's slowdowns less well.
_CALIBRATION_LOOP = """
import time
t0 = time.perf_counter()
counts = {}
quarter = set()
pairs = []
for i in range(400_000):
    key = (i * 2654435761) & 0xFFFFF
    counts[key] = counts.get(key, 0) + 1
    if key & 3 == 0:
        quarter.add(key)
    if i & 15 == 0:
        pairs.append((key, i))
pairs.sort()
print(time.perf_counter() - t0)
"""


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: a probe of the host's speed.

    On a shared host that speed drifts by tens of percent over seconds to
    minutes.  The loop shares no code with the simulator, so a change to
    the simulator cannot move it.  It runs in a child process, which is
    waited for, so its memory never counts toward the benchmark's peak RSS.
    """
    child = subprocess.run(
        [sys.executable, "-I", "-c", _CALIBRATION_LOOP],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(child.stdout)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it: a tail read off a handful of points is noise.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    beyond = len(samples) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples leaves {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return sorted(samples)[rank - 1]


def timeline_digest(clock_now: float, records: Iterable) -> str:
    """Hash of a run's simulated timeline.

    Covers the final simulated clock and, for every batch record, its id,
    simulated start and end, raw and unique faults, evictions, and pages
    migrated and prefetched.  Floats enter by their exact hex form, so a
    run that simulates anything differently gets a different digest.
    """
    h = hashlib.sha256(float(clock_now).hex().encode())
    for r in records:
        h.update(
            (
                f"|{r.batch_id},{float(r.t_start).hex()},{float(r.t_end).hex()},"
                f"{r.num_faults_raw},{r.num_faults_unique},{r.evictions},"
                f"{r.pages_migrated_h2d},{r.pages_prefetched}"
            ).encode()
        )
    return h.hexdigest()[:16]


@dataclass
class Rep:
    """One set-up-and-run of a workload on a fresh system."""

    setup_s: float = 0.0
    #: Host seconds inside ``UvmSystem.run``.
    run_s: float = 0.0
    #: ``RunResult.num_batches``.
    batches: int = 0
    #: Median and 95th percentile of the host time between successive
    #: serviced batches, the first interval starting at ``run``.
    batch_p50_s: float = 0.0
    batch_p95_s: float = 0.0
    digest: str = ""
    #: UVMSan violations (0 when the sanitizer was off).
    violations: int = 0
    #: Why this rep counts as failed; None when it succeeded.
    error: Optional[str] = None
    #: Mean :func:`calibration_s` just before and just after this rep.
    calibration_s: float = CAL_REFERENCE_S

    @property
    def scale(self) -> float:
        """Factor turning this rep's host seconds into seconds on a host
        running at the reference speed."""
        return CAL_REFERENCE_S / self.calibration_s


def judge(reps: List[Rep], reference: Optional[str]) -> None:
    """Mark failed every rep whose digest differs from ``reference``, or
    that reported sanitizer violations.

    With no recorded reference for the seed, the first completed rep's
    digest stands in, so the reps of one run must at least agree.
    """
    expected = reference
    if expected is None:
        expected = next((r.digest for r in reps if r.error is None), None)
    for rep in reps:
        if rep.error is not None:
            continue
        if rep.digest != expected:
            rep.error = f"timeline digest {rep.digest} != reference {expected}"
        elif rep.violations:
            rep.error = f"{rep.violations} UVMSan violations"


def error_rate(reps: Sequence[Rep]) -> float:
    """Reps that raised, simulated a different timeline or broke an
    invariant, divided by reps attempted."""
    return sum(r.error is not None for r in reps) / len(reps)


def end_to_end_metrics(reps: Sequence[Rep], peak_rss_mib: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, as ``name -> (value, unit)``, over the
    completed ``reps``: medians across reps, so one slow rep moves nothing.
    Host times are in reference-speed seconds (see :attr:`Rep.scale`)."""
    good = [r for r in reps if r.error is None]
    if not good:
        return {}
    return {
        "setup_s": (statistics.median(r.setup_s * r.scale for r in good), "s"),
        "batches_per_s": (
            statistics.median(r.batches / (r.run_s * r.scale) for r in good),
            "batches/s",
        ),
        "batch_wall_us_p50": (
            statistics.median(r.batch_p50_s * r.scale for r in good) * 1e6,
            "us",
        ),
        "batch_wall_us_p95": (
            statistics.median(r.batch_p95_s * r.scale for r in good) * 1e6,
            "us",
        ),
        "peak_rss_mb": (peak_rss_mib, "MiB"),
    }
