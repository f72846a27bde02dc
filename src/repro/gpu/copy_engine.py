"""Copy-engine transfer cost model.

The driver instructs the GPU to copy pages using "high-performance hardware
copy engines" over the interconnect (paper §2.1).  The testbed's PCIe 3.0
x16 link sustains ~12 GB/s with a per-transfer setup latency, so each
contiguous run of pages costs ``latency + bytes / bandwidth``.

The paper's central finding about transfers (Fig 7) is that they account for
*at most ~25 %* of batch time; the cost model constants in
:mod:`repro.hostos.cost_model` are calibrated so management costs dominate
exactly as measured.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InvariantViolation, TransferFault, TransferStuck
from ..units import PAGE_SIZE

#: UVMSan gate for the ``contiguous_runs`` sortedness precondition.  Module
#: state rather than per-engine: the helper is a free function used by the
#: driver and the engine alike.  Off by default — the precondition check is
#: O(n) on a hot path and every call site sorts by construction.
_ASSERT_SORTED = False


def enable_sortedness_checks(enabled: bool) -> None:
    """Arm (or disarm) the sortedness precondition in ``contiguous_runs``.

    Armed automatically whenever an active UVMSan sanitizer is built.
    """
    global _ASSERT_SORTED
    _ASSERT_SORTED = enabled


class CopyEngine:
    """Accumulates transfer cost and traffic statistics.

    Copy operations for one batch are pushed to the engine through the GPU
    command push-buffer and pipeline: the full setup latency is paid once
    per burst, plus a small per-operation overhead per contiguous run, plus
    wire time for the bytes.

    Under chaos testing (:mod:`repro.inject`) a burst may abort mid-flight
    (:class:`repro.errors.TransferFault`), hang past the driver's phase
    deadline (:class:`repro.errors.TransferStuck`), or complete browned-out
    (wire time multiplied); counters are only advanced for bytes that
    actually moved, so byte conservation holds under every profile.

    The counters are checkpointed state, so the ``uvm_ce_*`` metric
    families folded from them rewind with a restore.
    """

    __slots__ = (
        "engine_id",
        "bandwidth_bytes_per_usec",
        "transfer_latency_usec",
        "per_run_overhead_usec",
        "bytes_h2d",
        "bytes_d2h",
        "transfers_h2d",
        "transfers_d2h",
        "bursts_h2d",
        "bursts_d2h",
        "failed_bursts",
        "stuck_events",
        "brownout_bursts",
        "_san",
        "_inj",
        "_flight",
    )

    def __init__(
        self,
        bandwidth_bytes_per_usec: float,
        transfer_latency_usec: float,
        per_run_overhead_usec: float = 0.4,
        engine_id: int = 0,
    ) -> None:
        self.engine_id = engine_id
        self.bandwidth_bytes_per_usec = bandwidth_bytes_per_usec
        self.transfer_latency_usec = transfer_latency_usec
        self.per_run_overhead_usec = per_run_overhead_usec
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.transfers_h2d = 0
        self.transfers_d2h = 0
        #: Bursts that moved bytes (``transfers_*`` count their runs).
        self.bursts_h2d = 0
        self.bursts_d2h = 0
        #: Injected-failure statistics (chaos testing only).
        self.failed_bursts = 0
        self.stuck_events = 0
        self.brownout_bursts = 0
        #: Attached UVMSan checker, or None (the common, zero-cost case).
        self._san = None
        #: Attached fault injector, or None (the common, zero-cost case).
        self._inj = None
        #: Attached flight recorder, or None (the common, zero-cost case).
        self._flight = None

    # ----------------------------------------------------------- attachments

    def attach_sanitizer(self, sanitizer) -> None:
        """Check byte conservation + cost sanity on every burst."""
        self._san = sanitizer

    def attach_injector(self, injector) -> None:
        """Enable the ``ce.*`` injection sites on this engine."""
        self._inj = injector

    def attach_flight(self, flight) -> None:
        """Record injected burst failures in the flight-recorder ring, and
        every burst when it is a tracing one."""
        self._flight = flight

    def _maybe_inject(self, cost: float) -> float:
        """Roll the ``ce.*`` sites for one burst; returns the (possibly
        browned-out) cost, or raises before any byte counter moves."""
        inj = self._inj
        if inj is None or cost <= 0.0:
            return cost
        flight = self._flight
        if inj.fire("ce.stuck"):
            self.stuck_events += 1
            if flight is not None:
                flight.record("ce.stuck", self.engine_id)
            raise TransferStuck(self.engine_id)
        if inj.fire("ce.transfer_fault"):
            self.failed_bursts += 1
            if flight is not None:
                flight.record("ce.transfer_fault", self.engine_id)
            raise TransferFault(self.engine_id, cost * inj.waste_frac("ce.transfer_fault"))
        if inj.fire("ce.brownout"):
            self.brownout_bursts += 1
            if flight is not None:
                flight.record("ce.brownout", self.engine_id)
            return cost * inj.factor("ce.brownout")
        return cost

    def _trace_burst(self, direction: str, nbytes: int, num_runs: int, cost: float) -> None:
        flight = self._flight
        if flight is not None and flight.tracing:
            flight.record("ce", direction, nbytes, num_runs, cost)

    def cost_for_bytes(self, nbytes: int) -> float:
        """Time (µs) for one standalone transfer of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.transfer_latency_usec + nbytes / self.bandwidth_bytes_per_usec

    def _burst_cost(self, run_lengths: Sequence[int]) -> float:
        runs = [n for n in run_lengths if n > 0]
        if not runs:
            return 0.0
        nbytes = sum(runs) * PAGE_SIZE
        return (
            self.transfer_latency_usec
            + len(runs) * self.per_run_overhead_usec
            + nbytes / self.bandwidth_bytes_per_usec
        )

    def host_to_device(self, run_lengths: Sequence[int]) -> float:
        """Copy contiguous page runs host→device; returns total time (µs).

        ``run_lengths`` are page counts of each contiguous run — the driver
        coalesces adjacent pages into single copy-engine operations and
        pipelines the runs of one burst.
        """
        cost = self._maybe_inject(self._burst_cost(run_lengths))
        nbytes = 0
        for npages in run_lengths:
            nbytes += npages * PAGE_SIZE
            self.transfers_h2d += 1
        if nbytes:
            self.bytes_h2d += nbytes
            self.bursts_h2d += 1
        if self._san is not None:
            self._san.on_ce_burst("h2d", run_lengths, nbytes, cost)
        self._trace_burst("h2d", nbytes, len(run_lengths), cost)
        return cost

    def device_to_host(self, run_lengths: Sequence[int]) -> float:
        """Copy contiguous page runs device→host (eviction path)."""
        cost = self._maybe_inject(self._burst_cost(run_lengths))
        nbytes = 0
        for npages in run_lengths:
            nbytes += npages * PAGE_SIZE
            self.transfers_d2h += 1
        if nbytes:
            self.bytes_d2h += nbytes
            self.bursts_d2h += 1
        if self._san is not None:
            self._san.on_ce_burst("d2h", run_lengths, nbytes, cost)
        self._trace_burst("d2h", nbytes, len(run_lengths), cost)
        return cost


def contiguous_runs(pages: Sequence[int]) -> list:
    """Lengths of maximal contiguous runs in a sorted page-id sequence.

    The input must be strictly increasing: on unsorted (or duplicated)
    input the run decomposition silently splits at every inversion,
    inflating per-run overhead and transfer counts without any error.  With
    UVMSan active the precondition is asserted
    (:func:`enable_sortedness_checks`); otherwise callers are trusted.

    >>> contiguous_runs([4, 5, 6, 9, 10, 20])
    [3, 2, 1]
    """
    if _ASSERT_SORTED:
        last = None
        for page in pages:
            if last is not None and page <= last:
                raise InvariantViolation(
                    "ce-runs",
                    f"contiguous_runs input not strictly increasing: "
                    f"{page} follows {last}",
                )
            last = page
    runs = []
    count = 0
    prev = None
    for page in pages:
        if prev is not None and page == prev + 1:
            count += 1
        else:
            if count:
                runs.append(count)
            count = 1
        prev = page
    if count:
        runs.append(count)
    return runs
