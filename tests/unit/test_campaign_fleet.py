"""Unit tests for the fleet's pure pieces: retry policy, chaos parsing,
failure taxonomy, row shaping, mode routing, and cell-checkpoint loading.

The process-level behavior (real kills, escalation, resume) lives in
``tests/integration/test_campaign_fleet.py``; everything here is
deterministic single-process logic.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.campaign import (
    CampaignCell,
    FleetChaos,
    FleetConfig,
    FleetRetryPolicy,
    classify_error_type,
    make_row,
)
from repro.campaign.runner import _uses_fleet
from repro.campaign.worker import (
    CHECKPOINT_VERSION,
    FAILURE_CLASSES,
    cell_key,
    run_cell,
    write_cell_checkpoint,
)


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = FleetRetryPolicy(
            backoff_base_sec=0.25, backoff_factor=2.0, backoff_max_sec=1.0
        )
        assert [policy.backoff_sec(n) for n in (1, 2, 3, 4)] == [
            0.25, 0.5, 1.0, 1.0,
        ]

    def test_retries_only_transient_classes_within_budget(self):
        policy = FleetRetryPolicy(max_attempts=3)
        for cls in ("crash", "hang", "oom"):
            assert policy.should_retry(cls, attempts=1)
            assert policy.should_retry(cls, attempts=2)
            assert not policy.should_retry(cls, attempts=3)
        for cls in ("injected", "interrupt", "error"):
            assert not policy.should_retry(cls, attempts=1)

    def test_budget_of_one_never_retries(self):
        policy = FleetRetryPolicy(max_attempts=1)
        assert not policy.should_retry("crash", attempts=1)


class TestChaosParse:
    def test_parse_index_batch_specs(self):
        chaos = FleetChaos.parse(["0:10", "3:2"], ["1:5"])
        assert chaos.kill_at == {0: 10, 3: 2}
        assert chaos.hang_at == {1: 5}
        assert not chaos.empty

    def test_empty_specs_are_empty(self):
        assert FleetChaos.parse().empty

    @pytest.mark.parametrize("bad", ["10", "a:b", "1:"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FleetChaos.parse([bad])


class TestFailureTaxonomy:
    @pytest.mark.parametrize(
        ("error_type", "expected"),
        [
            ("WorkerCrash", "crash"),
            ("WorkerHang", "hang"),
            ("KeyboardInterrupt", "interrupt"),
            ("InjectedCrash", "injected"),
            ("TransferFault", "injected"),
            ("DmaMapFault", "injected"),
            # PopulateEnomem is both injected and OOM-like; injected wins
            # because it replays deterministically — retrying is wasted.
            ("PopulateEnomem", "injected"),
            ("OutOfDeviceMemory", "oom"),
            ("MemoryError", "oom"),
            ("AllocationError", "oom"),
            ("ValueError", "error"),
            ("SimulationError", "error"),
        ],
    )
    def test_classification(self, error_type, expected):
        assert classify_error_type(error_type) == expected

    def test_classes_are_the_documented_vocabulary(self):
        assert set(FAILURE_CLASSES) == {
            "crash", "hang", "oom", "injected", "interrupt", "error",
        }
        for error_type in ("WorkerCrash", "InjectedCrash", "ValueError"):
            assert classify_error_type(error_type) in FAILURE_CLASSES


class TestMakeRow:
    CELL = CampaignCell(
        index=3, workload="vecadd", config_label="base", seed=7, overrides={}
    )

    def test_ok_row(self):
        row = make_row(self.CELL, {"batches": 2, "clock_usec": 10})
        assert row == {
            "index": 3,
            "workload": "vecadd",
            "config": "base",
            "seed": 7,
            "status": "ok",
            "result": {"batches": 2, "clock_usec": 10},
        }

    def test_failed_row_carries_failure_class(self):
        row = make_row(
            self.CELL,
            {
                "failed": True,
                "error_type": "InjectedCrash",
                "error": "boom",
                "bundle": "/tmp/bundle",
            },
        )
        assert row["status"] == "failed"
        assert row["error"] == {
            "class": "injected",
            "message": "boom",
            "type": "InjectedCrash",
        }
        assert row["bundle"] == "/tmp/bundle"


class TestModeRouting:
    def test_serial_stays_inline(self):
        assert not _uses_fleet(1, None)
        assert not _uses_fleet(1, FleetConfig())

    def test_parallel_uses_fleet(self):
        assert _uses_fleet(2, None)

    def test_armed_chaos_forces_fleet_even_serial(self):
        config = FleetConfig(chaos=FleetChaos(kill_at={0: 5}))
        assert _uses_fleet(1, config)
        config = FleetConfig(chaos=FleetChaos())
        assert not _uses_fleet(1, config)


class TestCellCheckpointFile:
    """A resumable cell never fails on a bad checkpoint file: it reruns."""

    PAYLOAD = {
        "index": 0,
        "workload": "vecadd",
        "config_label": "base",
        "seed": 0,
        "overrides": {},
    }

    @pytest.mark.parametrize(
        "engine_blob",
        [
            b"not a checkpoint",
            pickle.dumps({"clock_now": 0.0}),
            pickle.dumps(
                (pickle.dumps(()), pickle.dumps({"clock_now": 0.0, "log_records": []}))
            ),
        ],
        ids=["garbage", "single-pickle-layout", "two-pickle-layout"],
    )
    def test_undecodable_engine_blob_reruns_from_scratch(self, tmp_path, engine_blob):
        path = str(tmp_path / "cell-0.ckpt")
        write_cell_checkpoint(
            path,
            {
                "version": CHECKPOINT_VERSION,
                "cell_key": cell_key(self.PAYLOAD),
                "cell_index": 0,
                "next_step": 1,
                "in_launch": False,
                "engine_blob": engine_blob,
                "launches": pickle.dumps([]),
                "counters": {},
                "t0_usec": 0.0,
                "batches": 0,
            },
        )
        events = []
        resumed = run_cell(
            dict(self.PAYLOAD, checkpoint_path=path, resume=True),
            telemetry=SimpleNamespace(put=events.append),
        )
        assert "job.resume" not in [event["type"] for event in events]
        assert resumed == run_cell(dict(self.PAYLOAD))
