"""Resource protocols hold at every raise.

A function that opens a resource closes it on every way out, exceptions
included: a batch the driver opens reaches its batch log (completed, or
flagged ``aborted``), an atomic-write temp file is renamed into place
or removed, a crash-bundle directory gets its ``manifest.json`` last or
is removed, and a ``RunLedger`` (with its sqlite connection) or a
``CampaignMonitor`` is closed.

Each test drives a real call to the function that owns a resource: once
to count its calls to the collaborators it lists, then once for every k
up to that count with the k-th call raising.  After every run it checks
what the call left behind:

* no ``*.tmp*`` file;
* no bundle directory without its ``manifest.json``, and, as a process
  killed at the raise would leave it, no destination file half-written;
* ``len(driver.log) == driver._batch_id``, and the last record aborted;
* every sqlite connection and every ``CampaignMonitor`` closed.

On the driver the raises come from the injection sites that end a batch
under ``failure_mode="fail-fast"`` (``dma.map_fail``, ``ce.transfer_fault``
and ``ce.stuck``; ``host.populate_enomem`` recovers in place and never
raises) and from a spy on the flight recorder, UVMSan and the cost model.
Only calls made while a batch is open count there.  Calls a collaborator
makes on its own (``Path.write_text`` opening its file) never count.
sqlite connections are tracked with a ``factory=`` subclass: only Python
3.13 and later warn about one left open.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
import pickle
import sqlite3
from pathlib import Path

import pytest

import repro.campaign as campaign_pkg
from repro.api import UvmSystem
from repro.campaign import CampaignSpec, ResultCache, RunLedger, run_campaign
from repro.campaign import runner as runner_mod
from repro.campaign.telemetry import CampaignMonitor
from repro.campaign.worker import write_cell_checkpoint
from repro.cli import main as cli_main
from repro.config import default_config
from repro.errors import ConfigError, UvmError
from repro.gpu.fault import AccessType, Fault
from repro.obs.bundle import MANIFEST_NAME, _finalize_bundle, write_bundle
from repro.units import MB, PAGES_PER_VABLOCK, VABLOCK_SIZE
from repro.workloads import VecAddPageStride
from tests.property.fault_oracle import write_window


class RaiseAt:
    """Counts the calls that pass through its spies; the ``k``-th raises.

    ``k=0`` never raises, so that run counts the calls.  ``armed`` decides
    whether a call counts at all.  ``at_kill`` runs at the raise, before
    any handler, and checks what a process killed there would leave.
    """

    def __init__(self, k, exc, armed=None, at_kill=None):
        self.k = k
        self.exc = exc
        self.armed = armed
        self.at_kill = at_kill
        self.calls = 0
        self.raised = None
        self._depth = 0

    def hit(self, name):
        if self._depth or (self.armed is not None and not self.armed()):
            return False
        self.calls += 1
        if self.calls != self.k:
            return False
        self.raised = name
        return True

    def fire(self):
        if self.at_kill is not None:
            self.at_kill()
        return self.exc()

    def _call(self, fn, *args, **kwargs):
        self._depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._depth -= 1

    def wrap(self, name, fn, after=False):
        """``fn`` behind the counter: the k-th call raises instead of
        running, or with ``after`` once it returned (a close that fails
        after releasing)."""

        def spy(*args, **kwargs):
            if not after and self.hit(name):
                raise self.fire()
            result = self._call(fn, *args, **kwargs)
            if after and self.hit(name):
                raise self.fire()
            return result

        return spy

    def torn(self, name, fn):
        """A ``write_text``/``write_bytes`` that runs out of space: the
        k-th call writes half its data, then raises."""

        def spy(path, data, *args, **kwargs):
            if self.hit(name):
                self._call(fn, path, data[: len(data) // 2], *args, **kwargs)
                raise self.fire()
            return self._call(fn, path, data, *args, **kwargs)

        return spy


def each_raise(attempt):
    """``attempt(k)`` for the counting run (k=0), then for every k up to
    its count; ``attempt`` checks what its run left and returns its
    :class:`RaiseAt`.  Returns the count."""
    calls = attempt(0).calls
    assert calls > 0, "the call reached no collaborator"
    for k in range(1, calls + 1):
        assert attempt(k).raised, f"collaborator call {k} of {calls} never came"
    return calls


def call_raising(spy, exc_type, fn, *args):
    """Call ``fn``: it must let the spy's exception out, and raise nothing
    else."""
    try:
        fn(*args)
    except exc_type:
        assert spy.raised, "raised with no injected failure"
        return
    assert not spy.raised, f"the failure at {spy.raised} was swallowed"


def enospc():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def tmp_leftovers(root):
    return sorted(str(p) for p in Path(root).rglob("*") if ".tmp" in p.name)


# ------------------------------------------------------------------ driver


class ScriptedInjector:
    """The injection sites that end a fail-fast batch, firing at the spy's
    k-th opportunity."""

    RAISING = ("ce.stuck", "ce.transfer_fault", "dma.map_fail")

    def __init__(self, spy):
        self.spy = spy

    def fire(self, site):
        return site in self.RAISING and self.spy.hit(site)

    def waste_frac(self, site):
        return 0.5

    def factor(self, site):
        return 1.0


class SpyProxy:
    """``target`` with every method call routed through ``spy``."""

    def __init__(self, name, target, spy):
        self._name = name
        self._target = target
        self._spy = spy

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if callable(value):
            return self._spy.wrap(f"{self._name}.{attr}", value)
        return value


def fail_fast_system(gpu_mb):
    cfg = default_config(failure_mode="fail-fast")
    cfg.driver.retry_max_attempts = 1
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = gpu_mb * MB
    cfg.cost_overrides = {"jitter_frac": 0.0}
    cfg.check.enabled = True
    cfg.check.mode = "report"
    cfg.validate()
    return UvmSystem(cfg)


def spy_on_driver(system, k):
    """A spy on ``system``'s driver collaborators, counting only while a
    batch is open."""
    driver = system.engine.driver
    spy = RaiseAt(
        k, lambda: UvmError("injected"),
        armed=lambda: len(driver.log) < driver._batch_id,
    )
    injector = ScriptedInjector(spy)
    driver.dma.attach_injector(injector)
    for ce in driver.device.copy_engines:
        ce.attach_injector(injector)
    for name in ("flight", "san", "cost"):
        setattr(driver, name, SpyProxy(name, getattr(driver, name), spy))
    return spy


def drive_batches(system, spy, run):
    """``run()`` under the spy, then check every opened batch was closed."""
    call_raising(spy, UvmError, run)
    driver = system.engine.driver
    assert len(driver.log) == driver._batch_id
    if spy.raised:
        assert driver.log.records[-1].aborted, spy.raised
    return spy


def fault(system, pages):
    utlb = system.engine.device.config.utlb_of_sm(0)
    faults = [
        Fault(page, AccessType.WRITE, 0, utlb, 0, float(i))
        for i, page in enumerate(pages)
    ]
    assert all(write_window(system.engine.device.gmmu, faults))


class TestBatchRecords:
    def test_service_next_batch_closes_its_record_at_every_raise(self):
        def attempt(k):
            # One device chunk: the second block's batch evicts the first
            # (dirty) block, so the write-back burst is on the path too.
            system = fail_fast_system(gpu_mb=2)
            alloc = system.managed_alloc(2 * VABLOCK_SIZE)
            system.host_touch(alloc)
            spy = spy_on_driver(system, k)
            driver = system.engine.driver

            def run():
                for block in range(2):
                    base = block * PAGES_PER_VABLOCK
                    fault(system, [alloc.page(base), alloc.page(base + 1)])
                    driver.service_next_batch(slept=block == 0)

            return drive_batches(system, spy, run)

        assert each_raise(attempt) > 10

    def test_bulk_migrate_closes_its_record_at_every_raise(self):
        def attempt(k):
            system = fail_fast_system(gpu_mb=4)
            alloc = system.managed_alloc(2 * VABLOCK_SIZE)
            system.host_touch(alloc)
            spy = spy_on_driver(system, k)
            return drive_batches(system, spy, lambda: system.mem_prefetch(alloc))

        assert each_raise(attempt) > 5

    def test_advise_accessed_by_closes_its_record_at_every_raise(self):
        def attempt(k):
            system = fail_fast_system(gpu_mb=4)
            alloc = system.managed_alloc(VABLOCK_SIZE)
            system.host_touch(alloc)
            spy = spy_on_driver(system, k)
            return drive_batches(
                system, spy, lambda: system.mem_advise_accessed_by(alloc)
            )

        assert each_raise(attempt) > 2


# ------------------------------------------------------------ atomic files


def spy_on_io(m, spy):
    for owner, name in (
        (builtins, "open"), (os, "replace"), (pickle, "dump"),
        (json, "dump"), (Path, "mkdir"), (Path, "open"),
    ):
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        m.setattr(owner, name, spy.wrap(label, getattr(owner, name)))
    for name in ("write_text", "write_bytes"):
        m.setattr(Path, name, spy.torn(f"Path.{name}", getattr(Path, name)))


def whole_or_absent(path, read):
    """At a kill: ``path`` is missing, or ``read(path)`` gets all of it."""
    if path.exists():
        read(path)


@pytest.fixture(scope="module")
def finished_engine():
    """An engine after a short run, with a launch checkpoint to bundle."""
    cfg = default_config()
    cfg.gpu.num_sms = 8
    cfg.gpu.memory_bytes = 16 * MB
    cfg.inject.enabled = True
    cfg.validate()
    system = UvmSystem(cfg)
    VecAddPageStride(rounds=1).run(system)
    return system.engine


class TestAtomicFiles:
    def test_write_cell_checkpoint_leaves_no_temp_file(self, tmp_path, monkeypatch):
        state = {"version": 1, "blob": bytes(range(256)) * 64}

        def attempt(k):
            root = tmp_path / f"k{k}"
            root.mkdir()
            path = root / "cell-0.ckpt"

            def at_kill():
                whole_or_absent(path, lambda p: pickle.loads(p.read_bytes()))

            spy = RaiseAt(k, enospc, at_kill=at_kill)
            with monkeypatch.context() as m:
                spy_on_io(m, spy)
                call_raising(spy, OSError, write_cell_checkpoint, str(path), state)
            assert tmp_leftovers(root) == []
            if not spy.raised:
                assert pickle.loads(path.read_bytes()) == state
            return spy

        assert each_raise(attempt) == 3

    def test_result_cache_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        blob = json.dumps({"result": list(range(512))}).encode()
        key = "ab" + "0" * 62

        def attempt(k):
            cache = ResultCache(tmp_path / f"k{k}")
            final = cache._path(key, ".json")

            def at_kill():
                whole_or_absent(final, lambda p: json.loads(p.read_bytes()))

            spy = RaiseAt(k, enospc, at_kill=at_kill)
            with monkeypatch.context() as m:
                spy_on_io(m, spy)
                call_raising(spy, OSError, cache._write, key, ".json", blob)
            assert tmp_leftovers(cache.root) == []
            assert spy.raised or final.read_bytes() == blob
            return spy

        assert each_raise(attempt) == 3


class TestCrashBundles:
    @staticmethod
    def check_bundles(root):
        """At a kill: every manifest present parses whole."""
        for manifest in Path(root).rglob(MANIFEST_NAME):
            json.loads(manifest.read_text(encoding="utf-8"))

    def test_write_bundle_never_leaves_a_partial_bundle(
        self, tmp_path, monkeypatch, finished_engine
    ):
        def attempt(k):
            root = tmp_path / f"k{k}"
            bundle = root / "crash"
            spy = RaiseAt(k, enospc, at_kill=lambda: self.check_bundles(root))
            with monkeypatch.context() as m:
                spy_on_io(m, spy)
                call_raising(
                    spy, OSError, write_bundle, bundle, finished_engine,
                    RuntimeError("boom"),
                )
            assert tmp_leftovers(root) == []
            assert not bundle.exists() or (bundle / MANIFEST_NAME).exists()
            assert spy.raised or (bundle / "checkpoint.bin").exists()
            return spy

        assert each_raise(attempt) > 6

    def test_finalize_bundle_lands_the_manifest_whole(self, tmp_path, monkeypatch):
        manifest = {"schema": "test", "files": {"events": "events.ndjson"},
                    "pad": "x" * 4096}

        def attempt(k):
            bundle = tmp_path / f"k{k}"
            bundle.mkdir()
            spy = RaiseAt(k, enospc, at_kill=lambda: self.check_bundles(bundle))
            with monkeypatch.context() as m:
                spy_on_io(m, spy)
                call_raising(spy, OSError, _finalize_bundle, bundle, manifest)
            assert tmp_leftovers(bundle) == []
            if not spy.raised:
                landed = json.loads((bundle / MANIFEST_NAME).read_text())
                assert landed == manifest
            return spy

        assert each_raise(attempt) == 2


# ------------------------------------------------------ ledgers and monitors


def track_sqlite(m, made, spy=None):
    """Route ``sqlite3.connect`` through a connection subclass that records
    its close; with ``spy``, connect/executescript/commit count as calls."""
    real_connect = sqlite3.connect

    def hit(name):
        return spy is not None and spy.hit(name)

    class SpyConnection(sqlite3.Connection):
        closed = False

        def executescript(self, script):
            if hit("Connection.executescript"):
                raise spy.fire()
            return super().executescript(script)

        def commit(self):
            if hit("Connection.commit"):
                raise spy.fire()
            return super().commit()

        def close(self):
            super().close()
            self.closed = True

    def connect(*args, **kwargs):
        if hit("sqlite3.connect"):
            raise spy.fire()
        conn = real_connect(*args, factory=SpyConnection, **kwargs)
        made.append(conn)
        return conn

    m.setattr(sqlite3, "connect", connect)


def track_monitors(m, made, spy):
    """Count ``CampaignMonitor`` construction, ``poll`` and ``close`` as
    calls (a close raises after it released) and record every close."""
    real_init = CampaignMonitor.__init__
    real_close = CampaignMonitor.close

    def init(self, *args, **kwargs):
        if spy.hit("CampaignMonitor"):
            raise spy.fire()
        spy._call(real_init, self, *args, **kwargs)
        made.append(self)

    def close(self):
        spy._call(real_close, self)
        self.closed_in_test = True
        if spy.hit("CampaignMonitor.close"):
            raise spy.fire()

    m.setattr(CampaignMonitor, "__init__", init)
    m.setattr(CampaignMonitor, "close", close)
    m.setattr(CampaignMonitor, "poll",
              spy.wrap("CampaignMonitor.poll", CampaignMonitor.poll))


def all_closed(monitors, conns):
    return (
        all(getattr(mon, "closed_in_test", False) for mon in monitors)
        and all(conn.closed for conn in conns)
    )


@pytest.fixture()
def one_cell_spec(tmp_path):
    path = tmp_path / "one-cell.json"
    path.write_text(json.dumps({
        "name": "one-cell",
        "workloads": ["vecadd"],
        "configs": [{"label": "base", "overrides": {}}],
        "seeds": [0],
        "base_overrides": {"gpu.memory_bytes": 16 * MB},
    }))
    return path


class TestLedgerAndMonitors:
    def test_run_ledger_init_closes_its_connection_at_every_raise(
        self, tmp_path, monkeypatch
    ):
        def attempt(k):
            spy = RaiseAt(k, lambda: sqlite3.DatabaseError("disk I/O error"))
            conns = []
            with monkeypatch.context() as m:
                track_sqlite(m, conns, spy)
                try:
                    RunLedger(tmp_path / f"k{k}.ledger").close()
                except (sqlite3.DatabaseError, ConfigError):
                    assert spy.raised
            assert all_closed([], conns)
            return spy

        assert each_raise(attempt) == 3

    def test_a_file_that_is_not_a_ledger_is_a_config_error(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "junk.ledger"
        path.write_bytes(bytes(range(256)) * 16)
        conns = []
        with monkeypatch.context() as m:
            track_sqlite(m, conns)
            with pytest.raises(ConfigError, match="not a run ledger"):
                RunLedger(path)
        assert conns and all_closed([], conns)

    def test_campaign_cli_rejects_a_non_ledger_in_one_line(
        self, tmp_path, one_cell_spec, capsys
    ):
        junk = tmp_path / "junk.ledger"
        junk.write_bytes(bytes(range(256)) * 16)
        rc = cli_main([
            "campaign", str(one_cell_spec), "--ledger", str(junk), "--resume",
            "--out", str(tmp_path / "out.ndjson"), "--no-cache",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "not a run ledger" in err

    def test_campaign_cli_rejects_an_unopenable_ledger_in_one_line(
        self, tmp_path, one_cell_spec, capsys
    ):
        rc = cli_main([
            "campaign", str(one_cell_spec),
            "--ledger", str(tmp_path / "no" / "such" / "dir" / "x.ledger"),
            "--out", str(tmp_path / "out.ndjson"), "--no-cache",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "cannot open" in err

    def test_monitor_close_releases_its_file_when_the_drain_raises(
        self, tmp_path, monkeypatch
    ):
        class Manager:
            down = False

            def shutdown(self):
                self.down = True

        monitor = CampaignMonitor(1, path=tmp_path / "t.ndjson", mp_safe=False)
        fh, manager = monitor._fh, Manager()
        monitor._manager = manager

        def full_disk():
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(monitor, "poll", full_disk)
        with pytest.raises(OSError):
            monitor.close()
        assert fh.closed and monitor._fh is None
        assert manager.down and monitor._manager is None

    def test_run_campaign_closes_its_own_monitor_at_every_raise(
        self, tmp_path, monkeypatch, one_cell_spec
    ):
        spec = CampaignSpec.from_file(one_cell_spec)

        def attempt(k):
            spy = RaiseAt(k, lambda: UvmError("injected"))
            ledger = RunLedger(tmp_path / f"k{k}.ledger")
            monitors = []
            with monkeypatch.context() as m:
                track_monitors(m, monitors, spy)
                m.setattr(runner_mod, "telemetry_emit", spy.wrap(
                    "telemetry_emit", runner_mod.telemetry_emit))
                m.setattr(runner_mod._SerialRunner, "run", spy.wrap(
                    "_SerialRunner.run", runner_mod._SerialRunner.run))
                call_raising(
                    spy, UvmError,
                    lambda: run_campaign(spec, jobs=1, ledger=ledger),
                )
            ledger.close()
            assert all_closed(monitors, [])
            assert monitors or spy.raised
            return spy

        assert each_raise(attempt) == 7

    def test_campaign_cli_closes_ledger_and_monitor_at_every_raise(
        self, tmp_path, monkeypatch, one_cell_spec, capsys
    ):
        closes = ("RunLedger.close", "CampaignMonitor.close")

        def attempt(k):
            spy = RaiseAt(k, lambda: ConfigError("injected"))
            monitors, conns = [], []
            argv = [
                "campaign", str(one_cell_spec), "--jobs", "1", "--no-cache",
                "--out", str(tmp_path / f"k{k}.ndjson"),
                "--ledger", str(tmp_path / f"k{k}.ledger"),
                "--telemetry", str(tmp_path / f"k{k}.telemetry"),
            ]
            with monkeypatch.context() as m:
                track_sqlite(m, conns)
                track_monitors(m, monitors, spy)
                m.setattr(RunLedger, "__init__",
                          spy.wrap("RunLedger", RunLedger.__init__))
                m.setattr(RunLedger, "close",
                          spy.wrap("RunLedger.close", RunLedger.close, after=True))
                m.setattr(campaign_pkg, "run_campaign",
                          spy.wrap("run_campaign", campaign_pkg.run_campaign))
                try:
                    rc = cli_main(argv)
                except ConfigError:
                    # A close that fails still propagates, after the other
                    # resource was closed.
                    assert spy.raised in closes
                else:
                    # Acquiring or running fails into the CLI's one-line
                    # ConfigError exit.
                    assert spy.raised not in closes
                    assert rc == (2 if spy.raised else 0), spy.raised
            capsys.readouterr()
            assert all_closed(monitors, conns)
            assert monitors or spy.raised
            return spy

        assert each_raise(attempt) == 5
