"""Tests of the benchmark's own logic.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
The last two groups build real systems (about half a minute in total).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run as bench  # noqa: E402
from benchstats import Rep, end_to_end_metrics, error_rate, judge, percentile  # noqa: E402
from layertrace import Hook, LayerTracer, per_layer_metrics  # noqa: E402
from matrix import WORKLOADS  # noqa: E402


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        # ceil(0.95 * 199) = 190 leaves 9 samples beyond the 95th.
        with pytest.raises(ValueError):
            percentile(list(range(199)), 95)
        with pytest.raises(ValueError):
            percentile([1.0, 2.0, 3.0], 50)

    def test_nearest_rank_with_ten_beyond(self):
        samples = list(range(200))[::-1]
        assert percentile(samples, 95) == 189
        assert percentile(samples, 50) == 99


class TestErrorRate:
    def test_digest_mismatch_and_raised_run_each_count(self):
        reps = [Rep(digest="aa"), Rep(digest="bb"), Rep(error="raised RuntimeError")]
        judge(reps, reference="aa")
        assert [r.error is None for r in reps] == [True, False, False]
        assert error_rate(reps) == pytest.approx(2 / 3)

    def test_without_reference_runs_must_agree(self):
        reps = [Rep(digest="aa"), Rep(digest="aa"), Rep(digest="cc")]
        judge(reps, reference=None)
        assert error_rate(reps) == pytest.approx(1 / 3)

    def test_sanitizer_violations_count(self):
        reps = [Rep(digest="aa", violations=2)]
        judge(reps, reference="aa")
        assert error_rate(reps) == 1.0

    def test_run_that_raises_is_a_failed_rep(self):
        class Broken:
            name = "broken"

            def config(self, seed, **toggles):
                raise RuntimeError("boom")

        rep = bench.run_rep(Broken(), seed=0)
        assert rep.error is not None and "boom" in rep.error


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Toy:
    clock = FakeClock()

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.inner()
        self.clock.now += 2.0

    def inner(self):
        self.clock.now += 0.5
        self.leaf()

    def leaf(self):
        self.clock.now += 0.25

    def fail(self):
        raise ValueError("aborted burst")

    @classmethod
    def make(cls):
        cls.clock.now += 0.125
        return cls()


def toy_tracer(*names):
    Toy.clock = FakeClock()
    return LayerTracer([Hook(name, Toy, name) for name in names], clock=Toy.clock)


class TestLayerTracer:
    def test_self_time_subtracts_nested_wrapped_calls(self):
        tracer = toy_tracer("outer", "inner", "leaf")
        with tracer:
            Toy().outer()
        stats = tracer.stats
        assert (stats["leaf"].self_s, stats["leaf"].calls) == (0.5, 2)
        assert (stats["inner"].self_s, stats["inner"].calls) == (1.0, 2)
        assert (stats["outer"].self_s, stats["outer"].calls) == (3.0, 1)
        assert tracer.attributed_s() == Toy.clock.now == 4.5

    def test_unwrapped_middle_layer_counts_toward_its_caller(self):
        tracer = toy_tracer("outer", "leaf")
        with tracer:
            Toy().outer()
        assert tracer.stats["outer"].self_s == 4.0
        assert tracer.attributed_s() == 4.5

    def test_raises_are_counted_and_wrappers_removed(self):
        originals = {name: vars(Toy)[name] for name in ("fail", "make")}
        tracer = toy_tracer("fail", "make")
        with pytest.raises(ValueError):
            with tracer:
                assert isinstance(Toy.make(), Toy)
                Toy().fail()
        assert tracer.stats["fail"].raised == 1
        assert tracer.stats["make"].self_s == 0.125
        assert {name: vars(Toy)[name] for name in originals} == originals


class TestBenchmarkJson:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads(self):
        assert [w["name"] for w in self.spec["workloads"]] == list(WORKLOADS)

    def test_end_to_end_names_and_units(self):
        printed = end_to_end_metrics([Rep(run_s=1.0, batches=1)], peak_rss_mib=1.0)
        assert {k: unit for k, (_, unit) in printed.items()} == {
            m["name"]: m["unit"] for m in self.spec["end_to_end"]
        }

    def test_per_layer_names_and_units(self):
        printed = per_layer_metrics({}, 1.0, 1.0, 1.0, 1.0, 0)
        assert {k: unit for k, (_, unit) in printed.items()} == {
            m["name"]: m["unit"] for m in self.spec["per_layer"]
        }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_committed_size_yields_200_batches_and_reference_timeline(name):
    rep = bench.run_rep(WORKLOADS[name], seed=0)
    assert rep.error is None, rep.error
    assert rep.batches >= 200
    assert rep.digest == bench.reference_digest(name, 0)


def test_traced_pass_keeps_timeline_and_reconciles():
    from repro.sim.engine import Engine

    original = vars(Engine)["_gpu_round"]
    reps, metrics = bench.traced_pass(WORKLOADS["chaos-hpgmg"], seed=0)
    assert [r.error for r in reps] == [None] * 4
    assert vars(Engine)["_gpu_round"] is original
    traced_s = reps[1].run_s
    unattributed = metrics["layers.unattributed_s"][0]
    assert 0 <= unattributed <= bench.UNATTRIBUTED_MAX_SHARE * traced_s
    assert metrics["checkpoint.captures"][0] > 0
    assert metrics["sanitizer.calls"][0] > 0
