"""Persistent SQLite run ledger: per-job state, attempts, and transitions.

The ledger is what makes a campaign *restartable as a unit of work* instead
of a process: every job's state machine (``pending → running → done|failed``
with retries looping back through ``pending``) is committed as it happens,
so a coordinator that dies — power cut, OOM kill, Ctrl-C — leaves behind an
exact record of what finished, what was mid-flight, and where each job's
latest engine checkpoint lives.  ``uvm-repro campaign --resume`` replays
that record: ``done`` rows are emitted verbatim (their canonical JSON is
stored, preserving byte-identity of the merged NDJSON), stale ``running``
rows are marked failed with class ``interrupt`` (the orchestrator-postmortem
rule: a coordinator restart must never trust in-flight state it cannot
observe), and everything else runs again — from its checkpoint when one
exists.

Single-writer by design: only the coordinator process touches the ledger
(workers write checkpoint *files* and emit telemetry; the coordinator folds
both into SQLite), so there is no cross-process locking to get wrong.

Every row mutation also appends to the ``transitions`` audit table — the
forensic trail chaos tests assert on ("the killed job was retried and
resumed, not rerun from scratch").
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError
from .spec import CampaignSpec

SCHEMA_VERSION = 1

#: Job states (the ledger's vocabulary; transitions carry finer events).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    idx INTEGER PRIMARY KEY,
    workload TEXT NOT NULL,
    config TEXT NOT NULL,
    seed INTEGER NOT NULL,
    state TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    failure_class TEXT,
    checkpoint_path TEXT,
    checkpoint_batches INTEGER,
    row_json TEXT,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS transitions (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    job_idx INTEGER NOT NULL,
    attempt INTEGER NOT NULL,
    event TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT '',
    at REAL NOT NULL
);
"""


def spec_hash(spec: CampaignSpec) -> str:
    """Stable identity of a campaign spec (name + every expanded cell)."""
    doc = {
        "name": spec.name,
        "cells": [
            {
                "index": cell.index,
                "workload": cell.workload,
                "config": cell.config_label,
                "seed": cell.seed,
                "overrides": cell.overrides,
            }
            for cell in spec.cells
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class JobInfo:
    """One job row as the coordinator sees it."""

    index: int
    state: str
    attempts: int
    failure_class: Optional[str]
    checkpoint_path: Optional[str]
    checkpoint_batches: Optional[int]
    row: Optional[dict]


class RunLedger:
    """Coordinator-owned persistent record of one campaign's execution."""

    def __init__(self, path) -> None:
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise ConfigError(f"ledger {self.path}: cannot open ({exc})") from exc
        try:
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise ConfigError(
                f"ledger {self.path}: not a run ledger ({exc})"
            ) from exc
        except BaseException:
            self._conn.close()
            raise
        #: Committed mutations (the fleet's ledger-writes metric source).
        self.writes = 0

    # ------------------------------------------------------------ lifecycle

    def begin(self, spec: CampaignSpec, resume: bool = False) -> None:
        """Bind the ledger to ``spec``.

        Fresh runs reset every table.  Resume runs validate the stored spec
        hash (resuming a different sweep into the same ledger would corrupt
        both) and mark stale in-flight rows failed.
        """
        digest = spec_hash(spec)
        stored = self._get_meta("spec_hash")
        if resume:
            if stored is None:
                raise ConfigError(
                    f"ledger {self.path}: nothing to resume (no prior run)"
                )
            if stored != digest:
                raise ConfigError(
                    f"ledger {self.path}: spec hash mismatch — it records a "
                    f"different campaign ({stored[:12]}… vs {digest[:12]}…)"
                )
            self._fail_stale_running()
            return
        with self._conn:
            self._conn.execute("DELETE FROM jobs")
            self._conn.execute("DELETE FROM transitions")
            self._conn.execute("DELETE FROM meta")
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [
                    ("spec_hash", digest),
                    ("name", spec.name),
                    ("schema_version", str(SCHEMA_VERSION)),
                    ("created_at", repr(time.time())),
                ],
            )
            now = time.time()
            self._conn.executemany(
                "INSERT INTO jobs (idx, workload, config, seed, state, "
                "attempts, updated_at) VALUES (?, ?, ?, ?, ?, 0, ?)",
                [
                    (c.index, c.workload, c.config_label, c.seed, PENDING, now)
                    for c in spec.cells
                ],
            )
        self.writes += 1

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- queries

    def _get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    @property
    def campaign_name(self) -> Optional[str]:
        return self._get_meta("name")

    @property
    def stored_spec_hash(self) -> Optional[str]:
        return self._get_meta("spec_hash")

    def job(self, index: int) -> Optional[JobInfo]:
        row = self._conn.execute(
            "SELECT idx, state, attempts, failure_class, checkpoint_path, "
            "checkpoint_batches, row_json FROM jobs WHERE idx = ?",
            (index,),
        ).fetchone()
        return self._to_info(row) if row else None

    def jobs(self) -> List[JobInfo]:
        rows = self._conn.execute(
            "SELECT idx, state, attempts, failure_class, checkpoint_path, "
            "checkpoint_batches, row_json FROM jobs ORDER BY idx"
        ).fetchall()
        return [self._to_info(row) for row in rows]

    def completed_rows(self) -> Dict[int, dict]:
        """``{index: merged row}`` for every job already ``done`` — the rows
        a resume emits verbatim (stored canonical JSON round-trips to the
        same bytes under the runner's sorted/compact dump)."""
        out: Dict[int, dict] = {}
        for info in self.jobs():
            if info.state == DONE and info.row is not None:
                out[info.index] = info.row
        return out

    def transitions(self, index: Optional[int] = None) -> List[dict]:
        """The audit trail, oldest first (optionally for one job)."""
        if index is None:
            rows = self._conn.execute(
                "SELECT job_idx, attempt, event, detail, at FROM transitions "
                "ORDER BY seq"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT job_idx, attempt, event, detail, at FROM transitions "
                "WHERE job_idx = ? ORDER BY seq",
                (index,),
            ).fetchall()
        return [
            {
                "index": r[0],
                "attempt": r[1],
                "event": r[2],
                "detail": r[3],
                "at": r[4],
            }
            for r in rows
        ]

    @staticmethod
    def _to_info(row) -> JobInfo:
        return JobInfo(
            index=row[0],
            state=row[1],
            attempts=row[2],
            failure_class=row[3],
            checkpoint_path=row[4],
            checkpoint_batches=row[5],
            row=json.loads(row[6]) if row[6] else None,
        )

    # ----------------------------------------------------------- mutations

    def _event(self, index: int, attempt: int, event: str, detail: str) -> None:
        self._conn.execute(
            "INSERT INTO transitions (job_idx, attempt, event, detail, at) "
            "VALUES (?, ?, ?, ?, ?)",
            (index, attempt, event, detail, time.time()),
        )

    def _update(self, index: int, **fields) -> None:
        fields["updated_at"] = time.time()
        keys = sorted(fields)
        sql = ", ".join(f"{k} = ?" for k in keys)
        self._conn.execute(
            f"UPDATE jobs SET {sql} WHERE idx = ?",
            [fields[k] for k in keys] + [index],
        )

    def job_started(self, index: int, attempt: int, resume: bool) -> None:
        with self._conn:
            self._update(index, state=RUNNING, attempts=attempt)
            self._event(
                index, attempt, "start", "resume" if resume else "scratch"
            )
        self.writes += 1

    def job_checkpoint(self, index: int, attempt: int, path: str,
                       batches: int) -> None:
        with self._conn:
            self._update(
                index, checkpoint_path=path, checkpoint_batches=batches
            )
            self._event(index, attempt, "checkpoint", f"batches={batches}")
        self.writes += 1

    def job_resumed(self, index: int, attempt: int, batches: int) -> None:
        with self._conn:
            self._event(index, attempt, "resume", f"batches={batches}")
        self.writes += 1

    def job_killed(self, index: int, attempt: int, sig: str) -> None:
        with self._conn:
            self._event(index, attempt, "kill", sig)
        self.writes += 1

    def job_retry(self, index: int, attempt: int, failure_class: str,
                  detail: str, backoff_sec: float) -> None:
        with self._conn:
            self._update(index, state=PENDING, failure_class=failure_class)
            self._event(
                index,
                attempt,
                "retry",
                f"{failure_class}: {detail} (backoff {backoff_sec:.2f}s)",
            )
        self.writes += 1

    def job_done(self, index: int, attempt: int, row: dict) -> None:
        with self._conn:
            self._update(
                index,
                state=DONE,
                failure_class=None,
                row_json=_canonical(row),
            )
            self._event(index, attempt, "done", "")
        self.writes += 1

    def job_cached(self, index: int, row: dict) -> None:
        with self._conn:
            self._update(index, state=DONE, row_json=_canonical(row))
            self._event(index, 0, "done", "cache")
        self.writes += 1

    def job_failed(self, index: int, attempt: int, failure_class: str,
                   row: Optional[dict], detail: str = "") -> None:
        with self._conn:
            self._update(
                index,
                state=FAILED,
                failure_class=failure_class,
                row_json=_canonical(row) if row is not None else None,
            )
            self._event(index, attempt, "failed", f"{failure_class}: {detail}")
        self.writes += 1

    def _fail_stale_running(self) -> None:
        """A restarted coordinator cannot trust rows it left in-flight."""
        stale = self._conn.execute(
            "SELECT idx, attempts FROM jobs WHERE state = ?", (RUNNING,)
        ).fetchall()
        if not stale:
            return
        with self._conn:
            for idx, attempts in stale:
                self._update(idx, state=FAILED, failure_class="interrupt")
                self._event(
                    idx,
                    attempts,
                    "stale-failed",
                    "in-flight at coordinator restart",
                )
        self.writes += 1


def _canonical(row: dict) -> str:
    """The exact byte form the merged NDJSON uses (minus the newline), so a
    stored row re-emits identically on resume."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))
