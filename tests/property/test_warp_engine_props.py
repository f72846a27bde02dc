"""Property-based tests on warp execution and end-to-end engine invariants
over randomly generated small workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import UvmSystem
from repro.config import default_config
from repro.gpu.fault import AccessType
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram, WarpState, wake
from repro.units import MB, PAGE_SIZE

page_st = st.integers(min_value=0, max_value=63)


def issue_all(warp):
    """Issue a warp's whole queue through a µTLB with headroom."""
    occs = []
    while (occ := warp.issue_next(frozenset(), False)) is not None:
        occs.append(occ)
    return occs


def phases_strategy(max_phases=4, max_pages=6):
    phase = st.builds(
        Phase.of,
        reads=st.lists(page_st, max_size=max_pages),
        writes=st.lists(page_st, max_size=max_pages),
        compute_usec=st.floats(min_value=0, max_value=5, allow_nan=False),
    )
    return st.lists(phase, min_size=1, max_size=max_phases)


class TestWarpStateProps:
    @given(phases_strategy())
    def test_warp_completes_with_all_resident(self, phases):
        warp = WarpState(WarpProgram(phases), uid=1, sm_id=0)
        resident = set(range(64))
        result = warp.advance(resident)
        assert result.finished

    @given(phases_strategy())
    @settings(max_examples=50)
    def test_manual_service_loop_terminates(self, phases):
        """Simulate a perfect driver: every demanded page gets serviced.

        The warp must finish within a bounded number of service rounds and
        its issued faults must cover every page it ever waited on.
        """
        warp = WarpState(WarpProgram(phases), uid=1, sm_id=0)
        resident = set()
        result = warp.advance(resident)
        rounds = 0
        issued = []
        while not result.finished:
            rounds += 1
            assert rounds < 100
            occs = issue_all(warp)
            issued.extend(occs)
            pages = {p for p, _ in occs} | set(warp.missing)
            resident |= pages
            assert wake({p: [warp] for p in pages}, pages) == [warp]
            result = warp.advance(resident)
        # Everything the program touches ends resident.
        assert warp.program.touched_pages <= resident or not warp.program.touched_pages

    @given(phases_strategy())
    def test_issued_pages_were_missing(self, phases):
        warp = WarpState(WarpProgram(phases), uid=1, sm_id=0)
        warp.advance(set())
        if warp.missing:
            missing_before = set(warp.missing)
            occs = issue_all(warp)
            assert {p for p, _ in occs} <= missing_before


def small_kernels():
    """Random small kernels over a 64-page allocation."""
    return st.lists(
        phases_strategy(max_phases=3, max_pages=5),
        min_size=1,
        max_size=6,
    )


class TestEngineProps:
    def run_kernel(self, programs_phases, prefetch, gpu_mem_mb=4):
        cfg = default_config(prefetch_enabled=prefetch)
        cfg.gpu.num_sms = 4
        cfg.gpu.memory_bytes = gpu_mem_mb * MB
        system = UvmSystem(cfg)
        alloc = system.managed_alloc(64 * PAGE_SIZE)
        base = alloc.start_page

        def shift(phase):
            return Phase.of(
                [base + p for p in phase.reads],
                [base + p for p in phase.writes],
                compute_usec=phase.compute_usec,
            )

        programs = [
            WarpProgram([shift(ph) for ph in phases])
            for phases in programs_phases
        ]
        kernel = KernelLaunch("prop", programs)
        result = system.launch(kernel)
        return system, alloc, result

    @given(small_kernels(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_kernel_terminates_with_pages_resident(self, programs, prefetch):
        system, alloc, result = self.run_kernel(programs, prefetch)
        pt = system.engine.device.page_table
        touched = set()
        for phases in programs:
            for ph in phases:
                touched |= set(ph.reads) | set(ph.writes)
        for off in touched:
            assert pt.is_resident(alloc.start_page + off)
        assert system.engine.device.idle

    @given(small_kernels(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_full_invariant_suite_holds(self, programs, prefetch):
        """Every random workload leaves the system in a validated state."""
        from repro.validate import validate_system

        system, _, _ = self.run_kernel(programs, prefetch)
        violations = validate_system(system)
        assert violations == [], "\n".join(str(v) for v in violations)

    @given(small_kernels())
    @settings(max_examples=25, deadline=None)
    def test_invariants_under_eviction_pressure(self, programs):
        """The validator also passes when the run thrashes (2-chunk device)."""
        from repro.validate import validate_system

        system, _, _ = self.run_kernel(programs, prefetch=False, gpu_mem_mb=4)
        violations = validate_system(system)
        assert violations == [], "\n".join(str(v) for v in violations)

    @given(small_kernels())
    @settings(max_examples=30, deadline=None)
    def test_batch_times_are_ordered_and_positive(self, programs):
        system, _, result = self.run_kernel(programs, prefetch=False)
        prev_end = 0.0
        for r in result.records:
            assert r.t_start >= prev_end
            assert r.duration > 0
            prev_end = r.t_end

    @given(small_kernels())
    @settings(max_examples=30, deadline=None)
    def test_unique_faults_bounded_by_touched_pages(self, programs):
        """Without eviction pressure, each page faults at most once per
        distinct µTLB demand; unique faults per batch never exceed the
        touched footprint."""
        system, _, result = self.run_kernel(programs, prefetch=False, gpu_mem_mb=4)
        touched = set()
        for phases in programs:
            for ph in phases:
                touched |= set(ph.reads) | set(ph.writes)
        for r in result.records:
            assert r.num_faults_unique <= max(1, len(touched))

    @given(small_kernels(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_component_times_sum_to_duration(self, programs, prefetch):
        """With the serial driver, duration == sum of component timers."""
        system, _, result = self.run_kernel(programs, prefetch)
        for r in result.records:
            assert abs(r.duration - r.service_time) < 1e-6 * max(1.0, r.duration)
