"""The fault pipeline against per-fault references.

The simulator keeps faults structure-of-arrays (:class:`FaultArrays`),
decides GMMU writes one at a time but appends them a window at a time, and
assembles batches in one pass over the fetched rows.  Three layers of
evidence hold that pipeline to plain per-fault models (``fault_oracle``):

1. **Assembler.**  200+ seeded random fault streams (duplicate-heavy,
   prefetch storms, single-page floods, and random-scatter batches of up
   to 256 faults over ~100 VABlocks) through ``assemble_batch`` vs the
   dict-of-sets oracle: identical counters, block order, intra-block page
   order, write/prefetch sets, raw counts — and plain ``int`` types, so
   downstream cost models never see NumPy scalars.
2. **Buffer.**  Random window-write/fetch/flush interleavings against
   ``FaultBuffer`` and the one-push-at-a-time deque oracle, with
   overflow-inducing capacities and seeded injection: same admit/drop
   verdicts, same lifetime counters, same fetched rows.
3. **Engine.**  Workloads that exercise replay storms, eviction under
   fault and prefetch instructions, and every builtin and bundled chaos
   profile, run with UVMSan attached: each reproduces its golden timeline
   (``test_golden_timelines``) with zero invariant violations, so the
   once-per-window sanitizer call still sees the buffer's conservation
   identity hold.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import assemble_batch
from repro.gpu.fault import AccessType, Fault, FaultArrays
from repro.gpu.fault_buffer import FaultBuffer
from repro.inject.profiles import BUILTIN_PROFILES
from repro.units import PAGES_PER_VABLOCK
from tests.property.fault_oracle import (
    ScalarFaultBuffer,
    assemble_batch_scalar,
    write_window,
)
from tests.property.test_golden_timelines import (
    CASES,
    CHAOS_DIR,
    load_table,
    run_case,
    timeline_digest,
)

NUM_SMS = 16


# --------------------------------------------------------------- generators


def random_fault_stream(rng: random.Random) -> list:
    """A fault stream shaped like the hot path produces them: bursty,
    duplicate-heavy, with occasional prefetch storms."""
    shape = rng.random()
    n = rng.randrange(1, 200)
    blocks = 1
    if shape < 0.15:
        # Single-page flood: every fault hits one page (max duplicates).
        page_space = 1
    elif shape < 0.4:
        # Duplicate-heavy: far fewer pages than faults.
        page_space = max(1, n // 8)
    elif shape < 0.6:
        # Random-scatter: up to a full 256-fault batch over ~100 VABlocks,
        # a few pages each.
        n = rng.randrange(1, 257)
        blocks = 100
        page_space = 8
    else:
        # Sparse: mostly unique pages, spilling over a VABlock boundary.
        page_space = n * 4
    prefetch_storm = shape >= 0.85
    faults = []
    t = rng.random() * 100.0
    for _ in range(n):
        sm_id = rng.randrange(NUM_SMS)
        if prefetch_storm and rng.random() < 0.7:
            access = AccessType.PREFETCH
        else:
            access = AccessType(rng.randrange(3))
        faults.append(
            Fault(
                page=rng.randrange(blocks) * PAGES_PER_VABLOCK + rng.randrange(page_space),
                access=access,
                sm_id=sm_id,
                utlb_id=sm_id // 2,
                warp_uid=rng.randrange(1, 500),
                timestamp=t,
            )
        )
        t += rng.random()
    return faults


def batch_fingerprint(batch):
    """Everything observable about an assembled batch, with type checks:
    the SoA assembler must hand downstream code plain Python ints."""
    blocks = []
    for work in batch.blocks:
        assert type(work.block_id) is int
        assert all(type(p) is int for p in work.pages)
        assert all(type(p) is int for p in work.write_pages)
        assert all(type(p) is int for p in work.prefetch_only_pages)
        assert type(work.raw_faults) is int
        blocks.append(
            (
                work.block_id,
                tuple(work.pages),
                frozenset(work.write_pages),
                frozenset(work.prefetch_only_pages),
                work.raw_faults,
                work.hinted,
            )
        )
    assert type(batch.num_unique) is int
    assert type(batch.dup_same_utlb) is int
    assert type(batch.dup_cross_utlb) is int
    return (
        tuple(blocks),
        batch.num_unique,
        batch.dup_same_utlb,
        batch.dup_cross_utlb,
        tuple(batch.sm_fault_counts.tolist()),
        batch.arrival_window,
        batch.num_raw,
    )


# ----------------------------------------------------- assembler equivalence


class TestAssemblerEquivalence:
    def test_200_seeded_random_streams(self):
        """Byte-identical AssembledBatch across 200 seeded random cases."""
        for seed in range(200):
            rng = random.Random(seed)
            faults = random_fault_stream(rng)
            batch = assemble_batch(FaultArrays.from_faults(faults), NUM_SMS)
            oracle = assemble_batch_scalar(faults, NUM_SMS)
            assert batch_fingerprint(oracle) == batch_fingerprint(batch), seed

    def test_dispatch_on_fault_arrays(self):
        """``assemble_batch`` keeps the fetched FaultArrays it is handed
        (no copy on the hot path) and still matches the oracle."""
        faults = random_fault_stream(random.Random(42))
        arrs = FaultArrays.from_faults(faults)
        batch = assemble_batch(arrs, NUM_SMS)
        assert batch.faults is arrs
        oracle = assemble_batch_scalar(faults, NUM_SMS)
        assert batch_fingerprint(oracle) == batch_fingerprint(batch)

    def test_empty_batch(self):
        fp = batch_fingerprint(assemble_batch(FaultArrays(), NUM_SMS))
        assert fp == batch_fingerprint(assemble_batch_scalar([], NUM_SMS))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_conservation(self, seed):
        """§4.2 bookkeeping: unique + type-1 + type-2 == raw faults, for
        the assembler and the oracle, on arbitrary seeded streams."""
        faults = random_fault_stream(random.Random(seed))
        for batch in (
            assemble_batch_scalar(faults, NUM_SMS),
            assemble_batch(FaultArrays.from_faults(faults), NUM_SMS),
        ):
            assert (
                batch.num_unique + batch.dup_same_utlb + batch.dup_cross_utlb
                == len(faults)
            )
            assert sum(b.raw_faults for b in batch.blocks) == len(faults)
            assert sum(len(b.pages) for b in batch.blocks) == batch.num_unique
            assert int(batch.sm_fault_counts.sum()) == len(faults)


# ------------------------------------------------------- buffer equivalence


class SeededInjector:
    """Fires the ``fault_buffer.*`` sites from one seeded stream, so two
    instances with the same seed make the same decisions in the same
    order."""

    def __init__(self, seed: int, rate: float) -> None:
        self.rng = random.Random(seed)
        self.rate = rate

    def fire(self, site: str) -> bool:
        return self.rng.random() < self.rate


def buffer_fingerprint(buf):
    return (
        len(buf),
        buf.total_pushed,
        buf.total_fetched,
        buf.total_overflow_dropped,
        buf.total_flush_dropped,
        buf.total_injected,
        buf.total_injector_dropped,
    )


def rows_of(fetched):
    return [
        (f.page, int(f.access), f.sm_id, f.utlb_id, f.warp_uid, f.timestamp)
        for f in fetched
    ]


def random_fault(rng: random.Random, t: float) -> Fault:
    sm_id = rng.randrange(NUM_SMS)
    return Fault(rng.randrange(64), AccessType(rng.randrange(3)), sm_id,
                 sm_id // 2, rng.randrange(1, 99), t)


class TestBufferEquivalence:
    def test_random_interleavings(self):
        """Same op sequence against the buffer (window writes) and the
        oracle (one push per fault): same verdicts, counters, and
        fetched/flushed rows — including overflow and injected drops and
        duplicates inside a window."""
        for seed in range(50):
            rng = random.Random(1000 + seed)
            capacity = rng.randrange(1, 24)
            buf = FaultBuffer(capacity)
            oracle = ScalarFaultBuffer(capacity)
            if seed % 2:
                # Same seed on both sides: same draws in the same order.
                rate = rng.random() / 2
                buf.attach_injector(SeededInjector(seed, rate))
                oracle = ScalarFaultBuffer(capacity, SeededInjector(seed, rate))
            t = 0.0
            for _ in range(rng.randrange(5, 120)):
                op = rng.random()
                if op < 0.7:
                    faults = []
                    for _ in range(rng.randrange(1, 8)):
                        faults.append(random_fault(rng, t))
                        t += 0.25
                    assert write_window(buf, faults) == [oracle.push(f) for f in faults]
                elif op < 0.9:
                    n = rng.randrange(0, capacity + 4)
                    assert rows_of(buf.fetch(n)) == rows_of(oracle.fetch(n))
                else:
                    assert rows_of(buf.flush()) == rows_of(oracle.flush())
                assert buffer_fingerprint(buf) == buffer_fingerprint(oracle)

    def test_window_append_matches_scalar_pushes(self):
        """A 300-fault window that overflows partway lands exactly like the
        equivalent scalar pushes: same verdicts, rows and counters."""
        rng = random.Random(7)
        faults = [random_fault(rng, 3.1 + 0.0625 * i) for i in range(300)]
        buf = FaultBuffer(200)
        oracle = ScalarFaultBuffer(200)
        assert write_window(buf, faults) == [oracle.push(f) for f in faults]
        assert buf.total_overflow_dropped == 100
        assert rows_of(buf.fetch(300)) == rows_of(oracle.fetch(300))
        assert buffer_fingerprint(buf) == buffer_fingerprint(oracle)

    def test_partial_fetch_preserves_remainder(self):
        """take_front slices rows off the front; the remainder keeps
        arrival order (the peek → requeue regression family)."""
        arrs = FaultArrays()
        for i in range(10):
            arrs.append(i, AccessType.READ, 0, 0, i, float(i))
        front = arrs.take_front(4)
        assert [r.page for r in front] == [0, 1, 2, 3]
        assert [r.page for r in arrs] == [4, 5, 6, 7, 8, 9]
        assert arrs.take_front(99) is not arrs  # full drain hands lists over
        assert len(arrs) == 0


# -------------------------------------------------------- engine equivalence


def assert_sanitized_golden(case_id: str) -> None:
    """The case under UVMSan (report mode) reproduces its golden digest
    with zero invariant violations."""
    system = run_case(**CASES[case_id], sanitize=True)
    assert system.engine.sanitizer.total_violations == 0
    assert timeline_digest(system) == load_table()[case_id]


class TestEngineBitIdentity:
    # vecadd: replay-heavy streaming; stream: eviction under fault at
    # 16 MiB (oversubscribed); sgemm: reuse + write faults; bfs: irregular;
    # prefetch-kernel: PTX prefetch storms through the µTLB bypass path.
    @pytest.mark.parametrize(
        "workload", ["vecadd", "stream", "sgemm", "bfs", "prefetch-kernel"]
    )
    def test_soa_timeline_identity(self, workload):
        assert_sanitized_golden(f"{workload}/s0")

    def test_evict_under_fault_pressure(self):
        """4 MiB GPU forces continuous evict-under-fault: flush and
        re-demand on every batch."""
        assert_sanitized_golden("stream/4MiB/s0")


class TestChaosProfileBitIdentity:
    """Injection drives the buffer's admission sites (forced drops and
    duplicates inside a window) and the µTLB stall/cancel sites."""

    @pytest.mark.parametrize("profile", sorted(BUILTIN_PROFILES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_builtin_profiles(self, profile, seed):
        assert_sanitized_golden(f"vecadd/{profile}/s{seed}")

    @pytest.mark.parametrize(
        "profile_file", sorted(p.name for p in CHAOS_DIR.glob("*.json"))
    )
    def test_example_profile_files(self, profile_file):
        assert_sanitized_golden(f"stream/{profile_file}/s3")
