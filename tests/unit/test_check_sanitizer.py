"""UVMSan unit tests: each invariant rule fires on deliberately corrupted
driver / µTLB / fault-buffer / VABlock state, modes behave as configured,
and the disabled path is the shared null object."""

from __future__ import annotations

import pytest

from repro.api import UvmSystem
from repro.check.sanitizer import NULL_SANITIZER, Sanitizer, make_sanitizer
from repro.config import CheckConfig, default_config
from repro.core.vablock import VABlockPhase, legal_transition, phase_of
from repro.errors import InvariantViolation
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.utlb import UTlb
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram
from repro.sim.clock import SimClock
from repro.units import MB, PAGE_SIZE, PAGES_PER_VABLOCK
from repro.workloads import VecAddPageStride
from tests.blocks import make_block, page_table_with
from tests.property.fault_oracle import write, write_window


def make_san(mode: str = "raise") -> Sanitizer:
    cfg = CheckConfig(enabled=True, mode=mode)
    return Sanitizer(cfg, SimClock())


def run_system(system_factory, **kw):
    system = system_factory(**kw)
    VecAddPageStride(tsize=8).run(system)
    return system


@pytest.fixture
def sanitized_system(system_factory):
    """A small run with UVMSan attached in report mode, ready to corrupt."""
    system = system_factory(gpu_mem_mb=8)
    system.config.check.enabled = True
    system.config.check.mode = "report"
    # Rebuild so the engine wires the sanitizer through every component.
    from repro.api import UvmSystem

    system = UvmSystem(system.config)
    VecAddPageStride(tsize=8).run(system)
    assert system.sanitizer.enabled
    assert system.sanitizer.total_violations == 0
    return system


class TestPhaseMachine:
    def test_forbidden_edge_is_registered_to_resident(self):
        assert not legal_transition(VABlockPhase.REGISTERED, VABlockPhase.RESIDENT)

    @pytest.mark.parametrize("phase", list(VABlockPhase))
    def test_self_transitions_legal(self, phase):
        assert legal_transition(phase, phase)

    def test_lifecycle_edges_legal(self):
        assert legal_transition(VABlockPhase.REGISTERED, VABlockPhase.ALLOCATED)
        assert legal_transition(VABlockPhase.ALLOCATED, VABlockPhase.RESIDENT)
        assert legal_transition(VABlockPhase.RESIDENT, VABlockPhase.REGISTERED)

    def test_phase_derived_from_state(self):
        block = make_block(valid_pages={0, 1})
        page_table = page_table_with()
        assert phase_of(block, page_table) is VABlockPhase.REGISTERED
        block.gpu_chunk = 3
        assert phase_of(block, page_table) is VABlockPhase.ALLOCATED
        page_table.map_remote([1])
        assert phase_of(block, page_table) is VABlockPhase.ALLOCATED
        page_table.map_pages([0])
        assert phase_of(block, page_table) is VABlockPhase.RESIDENT


class TestUtlbRule:
    def test_cap_violation_fires(self):
        san = make_san()
        utlb = UTlb(utlb_id=0, limit=56)
        utlb.attach_sanitizer(san)
        utlb.pending_pages = set(range(57))
        with pytest.raises(InvariantViolation, match="utlb-cap"):
            san.on_utlb(utlb)

    def test_hooked_mutations_checked(self):
        """request/cancel/replay call the sanitizer when attached."""
        san = make_san(mode="report")
        utlb = UTlb(utlb_id=0, limit=2)
        utlb.attach_sanitizer(san)
        assert utlb.request(10) and utlb.request(11)
        utlb.cancel(10)
        utlb.replay()
        assert san.total_violations == 0

    def test_healthy_utlb_passes(self):
        san = make_san()
        utlb = UTlb(utlb_id=0, limit=56)
        utlb.request(4)
        san.on_utlb(utlb)


class TestFaultBufferRule:
    def _fault(self, page=0):
        from repro.gpu.fault import AccessType, Fault

        return Fault(page=page, access=AccessType.READ, sm_id=0, utlb_id=0,
                     warp_uid=0, timestamp=0.0)

    def test_occupancy_over_capacity_fires(self):
        san = make_san()
        buf = FaultBuffer(capacity=2)
        buf.attach_sanitizer(san)
        for p in range(3):  # bypass admission
            buf._entries.append(*self._fault(p))
        buf.total_pushed = 3
        with pytest.raises(InvariantViolation, match="exceeds capacity"):
            san.on_fault_buffer(buf)

    def test_conservation_violation_fires(self):
        san = make_san()
        buf = FaultBuffer(capacity=8)
        write(buf, self._fault(1))
        buf.total_pushed += 5  # phantom pushes never fetched/flushed/residual
        with pytest.raises(InvariantViolation, match="conservation"):
            san.on_fault_buffer(buf)

    def test_push_fetch_flush_conserve(self):
        san = make_san()
        buf = FaultBuffer(capacity=4)
        buf.attach_sanitizer(san)
        write_window(buf, [self._fault(p) for p in range(6)])  # two overflow-drop
        assert buf.total_overflow_dropped == 2
        buf.fetch(2)
        buf.flush()
        assert san.total_violations == 0


class TestCopyEngineRule:
    def test_byte_mismatch_fires(self):
        san = make_san()
        with pytest.raises(InvariantViolation, match="ce-bytes"):
            san.on_ce_burst("h2d", [2, 3], nbytes=PAGE_SIZE, cost=1.0)

    def test_zero_cost_transfer_fires(self):
        san = make_san()
        with pytest.raises(InvariantViolation, match="non-positive cost"):
            san.on_ce_burst("d2h", [1], nbytes=PAGE_SIZE, cost=0.0)

    def test_healthy_burst_passes(self):
        san = make_san()
        san.on_ce_burst("h2d", [2, 0, 3], nbytes=5 * PAGE_SIZE, cost=4.2)
        san.on_ce_burst("h2d", [], nbytes=0, cost=0.0)


class TestBlockEvents:
    def _block(self, block_id=0, chunk=1, stamp=1):
        return make_block(
            block_id, valid_pages={0, 1}, gpu_chunk=chunk, alloc_stamp=stamp,
        )

    def test_alloc_without_chunk_fires(self):
        san = make_san()
        block = self._block(chunk=None)
        with pytest.raises(InvariantViolation, match="without a chunk"):
            san.on_block_allocated(block, page_table_with())

    def test_alloc_with_resident_pages_fires(self):
        san = make_san()
        with pytest.raises(InvariantViolation, match="already resident"):
            san.on_block_allocated(self._block(), page_table_with([0]))

    def test_stamp_must_be_monotonic(self):
        san = make_san()
        san.on_block_allocated(self._block(block_id=0, stamp=5), page_table_with())
        with pytest.raises(InvariantViolation, match="not monotonic"):
            san.on_block_allocated(self._block(block_id=1, stamp=5), page_table_with())

    def test_evict_with_chunk_still_held_fires(self):
        san = make_san()
        block = self._block()
        block.evict_count = 1
        with pytest.raises(InvariantViolation, match="still holds chunk"):
            san.on_block_evicted(block, page_table_with())

    def test_evict_with_resident_pages_fires(self):
        san = make_san()
        block = self._block(chunk=None)
        block.evict_count = 1
        with pytest.raises(InvariantViolation, match="still resident"):
            san.on_block_evicted(block, page_table_with([0]))

    def test_evict_without_count_fires(self):
        san = make_san()
        block = self._block(chunk=None)
        with pytest.raises(InvariantViolation, match="evict_count"):
            san.on_block_evicted(block, page_table_with())

    def test_double_allocation_is_illegal_transition(self):
        san = make_san()
        san.on_block_allocated(self._block(stamp=1), page_table_with())
        with pytest.raises(InvariantViolation, match="illegal transition"):
            san.on_block_allocated(self._block(stamp=2), page_table_with())


class TestSystemScans:
    """Corrupt a real post-run system and assert the batch-boundary scan
    catches each inconsistency class."""

    def _scan(self, system):
        san = system.sanitizer
        san._scan_blocks(system.engine.driver)

    def _resident_block(self, system):
        page_table = system.engine.device.page_table
        for block in system.engine.driver.vablocks.blocks():
            if page_table.has_pages(block.block_id):
                return block
        raise AssertionError("run left no resident block to corrupt")

    def test_clean_system_scans_clean(self, sanitized_system):
        self._scan(sanitized_system)
        assert sanitized_system.sanitizer.total_violations == 0

    def test_orphaned_page_table_entry(self, sanitized_system):
        sanitized_system.engine.device.page_table.map_pages([10_000_000])
        self._scan(sanitized_system)
        rules = {v.rule for v in sanitized_system.sanitizer.violations}
        assert "residency" in rules

    def test_double_mapped_chunk(self, sanitized_system):
        driver = sanitized_system.engine.driver
        allocated = [b for b in driver.vablocks.blocks() if b.is_gpu_allocated]
        assert len(allocated) >= 2, "need two allocated blocks to alias"
        allocated[1].gpu_chunk = allocated[0].gpu_chunk
        self._scan(sanitized_system)
        rules = {v.rule for v in sanitized_system.sanitizer.violations}
        assert "memory" in rules

    def test_resident_page_outside_valid_range(self, sanitized_system):
        block = self._resident_block(sanitized_system)
        stray = block.valid_page_ids()[-1] + 1
        assert stray not in sanitized_system.engine.device.page_table.resident
        sanitized_system.engine.device.page_table.map_pages([stray])
        self._scan(sanitized_system)
        rules = {v.rule for v in sanitized_system.sanitizer.violations}
        assert "residency" in rules

    def test_resident_without_chunk(self, sanitized_system):
        block = self._resident_block(sanitized_system)
        sanitized_system.engine.device.chunks.free(block.gpu_chunk)
        block.gpu_chunk = None
        self._scan(sanitized_system)
        rules = {v.rule for v in sanitized_system.sanitizer.violations}
        assert "vablock-state" in rules

    def test_clock_regression_detected(self, sanitized_system):
        san = sanitized_system.sanitizer
        san._last_clock = sanitized_system.clock.now + 100.0
        san.on_round(sanitized_system.engine)
        assert any(v.rule == "clock" for v in san.violations)


# ------------------------------------------------ differential block checks
#
# Each corruption is (precondition on the block, the corruption, the rule
# it breaks, whether the violation names the block).  The sweeps below
# never touch the last page of a VABlock, so a corruption may map that page
# without a warp waiting on it.


def _lower_allocated(engine, block):
    """An allocated block with a lower id than ``block``, or None."""
    for other in engine.driver.vablocks.blocks():
        if other.is_gpu_allocated and other.block_id < block.block_id:
            return other
    return None


def _share_chunk(engine, block):
    block.gpu_chunk = _lower_allocated(engine, block).gpu_chunk


def _invalidate_mapped_page(engine, block):
    page = engine.device.page_table.pages_of(block.block_id)[0]
    block.valid_pages[page - block.first_page] = False


def _drop_chunk(engine, block):
    engine.device.chunks.free(block.gpu_chunk)
    block.gpu_chunk = None


def _jump_to_resident(engine, block):
    block.gpu_chunk = engine.device.chunks.allocate()
    engine.device.page_table.map_pages([block.valid_page_ids()[-1]])


def _phase_is(phase):
    return lambda engine, block: phase_of(block, engine.device.page_table) is phase


_is_resident = _phase_is(VABlockPhase.RESIDENT)


CORRUPTIONS = {
    "shared-chunk": (
        lambda engine, block: block.is_gpu_allocated
        and _lower_allocated(engine, block) is not None,
        _share_chunk, "memory", True,
    ),
    "resident-outside-valid": (_is_resident, _invalidate_mapped_page, "residency", True),
    "resident-without-chunk": (_is_resident, _drop_chunk, "vablock-state", True),
    "illegal-phase-jump": (
        _phase_is(VABlockPhase.REGISTERED), _jump_to_resident, "vablock-state", True,
    ),
}


def _sweep(alloc, num_pages, name, per_warp=16):
    """A kernel touching each of ``alloc``'s first ``num_pages`` pages once,
    ``per_warp`` pages per warp, except the last page of each VABlock."""
    pages = [
        alloc.page(p) for p in range(num_pages)
        if (p + 1) % PAGES_PER_VABLOCK
    ]
    programs = [
        WarpProgram([Phase.of(pages[i:i + per_warp])])
        for i in range(0, len(pages), per_warp)
    ]
    return KernelLaunch(name, programs)


def _run_two_kernels(batch_hook=None):
    """``cold`` (3 VABlocks) is swept by the first kernel only, up to the
    middle of its second block; ``hot`` (4 VABlocks) by the second kernel.
    ``batch_hook`` runs after every batch of the second kernel."""
    cfg = default_config(prefetch_enabled=False)
    cfg.gpu.memory_bytes = 32 * MB
    cfg.check = CheckConfig(enabled=True, mode="report")
    system = UvmSystem(cfg)
    cold = system.managed_alloc(6 * MB, "cold")
    hot = system.managed_alloc(8 * MB, "hot")
    system.launch(_sweep(cold, 768, "warm"))
    warm_batches = len(system.records)
    if batch_hook is not None:
        system.engine._batch_hooks.append(batch_hook)
    system.launch(_sweep(hot, hot.num_pages, "sweep"))
    return system, warm_batches


def _reported(system, rule, block_id):
    return [
        v for v in system.sanitizer.violations
        if v.rule == rule and v.context.get("block") == block_id
    ]


class TestIncrementalBlockChecks:
    """Differential UVMSan: a corruption of a block the next batch touches
    is reported in that batch; a corruption of a block no later batch
    touches is reported by the next full scan."""

    @pytest.fixture(scope="class")
    def clean_touches(self):
        """Per batch id of a clean run, the blocks its batch end checked."""
        touched = {}

        def spy_once(engine, batch_id):
            san = engine.sanitizer
            if "on_batch_end" in vars(san):
                return
            check = san.on_batch_end

            def spy(driver, record, outcome=None):
                touched[record.batch_id] = list(san._touched)
                check(driver, record, outcome)

            san.on_batch_end = spy

        system, warm_batches = _run_two_kernels(spy_once)
        assert system.sanitizer.total_violations == 0
        return touched, warm_batches

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_touched_block_reported_in_the_next_batch(self, clean_touches, kind):
        touched, _ = clean_touches
        applies, corrupt, rule, names_block = CORRUPTIONS[kind]
        done = {}

        def hook(engine, batch_id):
            for block_id in [] if done else touched.get(batch_id + 1, ()):
                block = engine.driver.vablocks.get(block_id)
                if applies(engine, block):
                    corrupt(engine, block)
                    done.update(batch=batch_id + 1, block=block_id)
                    return

        system, _ = _run_two_kernels(hook)
        assert done, f"no batch of the sweep touches a block {kind} applies to"
        found = _reported(system, rule, done["block"] if names_block else None)
        assert found, f"{kind} on block {done['block']} was never reported"
        assert found[0].batch_id == done["batch"]
        assert system.sanitizer.violations[0].batch_id == done["batch"]

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_untouched_block_reported_by_the_full_scan(self, clean_touches, kind):
        touched, warm_batches = clean_touches
        applies, corrupt, rule, names_block = CORRUPTIONS[kind]
        swept = {b for batch, ids in touched.items() if batch >= warm_batches for b in ids}
        done = {}

        def hook(engine, batch_id):
            blocks = [] if done else list(engine.driver.vablocks.blocks())
            for block in blocks:
                if block.block_id not in swept and applies(engine, block):
                    corrupt(engine, block)
                    done.update(block=block.block_id)
                    return

        system, _ = _run_two_kernels(hook)
        assert done, f"no untouched block {kind} applies to"
        found = _reported(system, rule, done["block"] if names_block else None)
        # The launch-end full scan runs outside any batch.
        assert any(v.batch_id is None for v in found), (
            f"the full scan missed {kind} on untouched block {done['block']}"
        )


class TestRecordChecks:
    def _san_and_driver(self, sanitized_system):
        return sanitized_system.sanitizer, sanitized_system.engine.driver

    def test_count_identity_violation(self, sanitized_system):
        san, driver = self._san_and_driver(sanitized_system)
        record = sanitized_system.records[0]
        record.num_faults_unique = record.num_faults_raw + 1
        san._check_record(driver, record, None)
        assert any(v.rule == "batch-record" for v in san.violations)

    def test_bytes_pages_mismatch(self, sanitized_system):
        san, driver = self._san_and_driver(sanitized_system)
        record = sanitized_system.records[0]
        record.bytes_h2d += 1
        san._check_record(driver, record, None)
        assert any("h2d bytes" in v.detail for v in san.violations)

    def test_time_reconciliation_violation(self, sanitized_system):
        san, driver = self._san_and_driver(sanitized_system)
        record = sanitized_system.records[0]
        record.time_fetch += 5.0  # timer no longer tiles the envelope
        san._check_record(driver, record, None)
        assert any(v.rule == "time-reconcile" for v in san.violations)

    def test_records_reconcile_untouched(self, sanitized_system):
        san, driver = self._san_and_driver(sanitized_system)
        for record in sanitized_system.records:
            san._check_record(driver, record, None)
        assert san.total_violations == 0


class TestModesAndContext:
    def test_raise_mode_raises_with_context(self):
        san = make_san(mode="raise")
        utlb = UTlb(utlb_id=3, limit=56)
        utlb.pending_pages = set(range(57))
        with pytest.raises(InvariantViolation) as exc:
            san.on_utlb(utlb)
        violation = exc.value
        assert violation.rule == "utlb-cap"
        assert violation.context["utlb"] == 3
        assert violation.clock_usec == 0.0
        payload = violation.to_dict()
        assert payload["rule"] == "utlb-cap"

    def test_report_mode_accumulates(self):
        san = make_san(mode="report")
        utlb = UTlb(utlb_id=0, limit=56)
        utlb.pending_pages = set(range(57))
        san.on_utlb(utlb)
        san.on_utlb(utlb)
        assert san.total_violations == 2
        assert len(san.violations) == 2
        summary = san.summary()
        assert summary["violations"] == 2
        assert summary["by_rule"] == {"utlb-cap": 2}

    def test_report_mode_caps_stored_violations(self):
        cfg = CheckConfig(enabled=True, mode="report", max_violations=3)
        san = Sanitizer(cfg, SimClock())
        utlb = UTlb(utlb_id=0, limit=56)
        utlb.pending_pages = set(range(57))
        for _ in range(5):
            san.on_utlb(utlb)
        assert len(san.violations) == 3
        assert san.total_violations == 5

    def test_make_sanitizer_disabled_is_null(self):
        assert make_sanitizer(CheckConfig(), SimClock()) is NULL_SANITIZER
        assert make_sanitizer(None, SimClock()) is NULL_SANITIZER

    def test_null_sanitizer_hooks_are_noops(self):
        n = NULL_SANITIZER
        assert not n.enabled
        n.on_batch_start(None, None)
        n.on_batch_end(None, None)
        n.on_block_allocated(None, None)
        n.on_block_evicted(None, None)
        n.on_block_touched(None)
        n.on_utlb(None)
        n.on_fault_buffer(None)
        n.on_ce_burst("h2d", [], 0, 0.0)
        n.on_round(None)
        n.check_system(None)
        assert n.summary() == {
            "enabled": False,
            "violations": 0,
            "by_rule": {},
            "full_scans": 0,
            "blocks_checked": 0,
        }

    def test_violation_metric_incremented(self, sanitized_system):
        san = sanitized_system.sanitizer
        sanitized_system.engine.device.page_table.map_pages([10_000_001])
        san._scan_blocks(sanitized_system.engine.driver)
        snapshot = sanitized_system.metrics_snapshot()
        series = snapshot["uvm_san_violations_total"]["series"]
        by_rule = {s["labels"]["rule"]: s["value"] for s in series}
        assert by_rule.get("residency", 0) >= 1


class TestCheckConfig:
    def test_defaults_off(self):
        cfg = CheckConfig()
        assert not cfg.enabled and cfg.mode == "raise"

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("UVM_REPRO_SANITIZE", raising=False)
        assert not CheckConfig.from_env().enabled
        monkeypatch.setenv("UVM_REPRO_SANITIZE", "0")
        assert not CheckConfig.from_env().enabled
        monkeypatch.setenv("UVM_REPRO_SANITIZE", "1")
        cfg = CheckConfig.from_env()
        assert cfg.enabled and cfg.mode == "raise"
        monkeypatch.setenv("UVM_REPRO_SANITIZE", "report")
        cfg = CheckConfig.from_env()
        assert cfg.enabled and cfg.mode == "report"

    def test_validate_rejects_bad_mode(self):
        cfg = CheckConfig(enabled=True, mode="explode")
        with pytest.raises(Exception):
            cfg.validate()

    def test_system_config_replace_clones_check(self):
        cfg = default_config()
        cfg.check.enabled = True
        clone = cfg.replace()
        clone.check.enabled = False
        assert cfg.check.enabled

    def test_validate_cli_reports_clean(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["validate", "vecadd", "--gpu-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert "UVMSan" in out and "validation OK" in out
