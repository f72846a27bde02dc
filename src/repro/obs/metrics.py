"""Lightweight metrics registry: counters, gauges, fixed-bucket histograms.

The paper's modified driver exposes "targeted high-precision timers and
event counters" (§3.1); :class:`MetricsRegistry` is the aggregate side of
that instrumentation — cumulative counters and distributions over a whole
run, complementing the per-batch :class:`~repro.core.batch_record.BatchRecord`.

Design goals:

* **one description per family** — a family's help text is its
  :data:`~repro.obs.catalog.METRIC_CATALOG` entry, so the ``# HELP`` line
  and the catalog cannot disagree;
* **labeled series** — a family (one metric name) holds one child per label
  tuple, Prometheus-style (``uvm_pages_total{op="evicted"}``);
* **machine-readable export** — :meth:`MetricsRegistry.snapshot` returns a
  plain dict; :meth:`MetricsRegistry.to_prometheus` renders the
  Prometheus text exposition format for cross-run scraping/diffing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .catalog import METRIC_CATALOG

#: Default histogram buckets for microsecond durations (fault-path scale:
#: tens of µs for small batches up to multi-ms eviction storms).
DEFAULT_TIME_BUCKETS_USEC: Tuple[float, ...] = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 100_000.0,
)

#: Default buckets for per-batch counts (batch sizes cap at a few thousand).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
)


def _validate_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds or list(bounds) != sorted(set(bounds)):
        raise ConfigError("histogram buckets must be sorted, unique, non-empty")
    return bounds


class Counter:
    """Monotonically increasing value (one labeled series)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """Instantaneous value that can move in either direction (it reads as
    the type it was set to: a count stays an int)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    Bucket boundaries are upper bounds (``le``); an implicit +Inf bucket
    catches the tail.  Buckets are fixed at creation so ``observe`` is a
    bisect plus two adds — cheap enough for per-batch observation.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_USEC) -> None:
        self.bounds = _validate_buckets(buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +Inf tail
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left keeps ``le`` inclusive (Prometheus semantics): a value
        # exactly on a bound lands in that bound's bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self):
        cumulative = []
        running = 0
        for i, bound in enumerate(self.bounds):
            running += self.counts[i]
            cumulative.append({"le": bound, "count": running})
        cumulative.append({"le": float("inf"), "count": self.count})
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (Prometheus ``histogram_quantile``
        semantics: linear interpolation within the landing bucket, values in
        the +Inf tail clamp to the highest finite bound).  None when empty.

        >>> h = Histogram(buckets=(10.0, 20.0))
        >>> for v in (5.0, 15.0, 15.0, 15.0): h.observe(v)
        >>> h.quantile(0.5)
        15.0
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        running = 0
        for i, bound in enumerate(self.bounds):
            prev = running
            running += self.counts[i]
            if running >= rank:
                if self.counts[i] == 0:
                    return bound
                lower = self.bounds[i - 1] if i > 0 else 0.0
                frac = (rank - prev) / self.counts[i]
                return lower + (bound - lower) * frac
        # Tail bucket: no finite upper edge to interpolate against.
        return self.bounds[-1]

    def quantiles(self, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> Dict[str, Optional[float]]:
        """The standard latency percentiles as a ``{"p50": ...}`` dict."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}


class MetricFamily:
    """All series of one metric name (one per label-value tuple)."""

    __slots__ = ("name", "help", "kind", "label_names", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        if kind == "histogram":
            buckets = _validate_buckets(
                buckets if buckets is not None else DEFAULT_TIME_BUCKETS_USEC
            )
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values) -> object:
        """The child series for ``values`` (created on first use)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {key}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_TIME_BUCKETS_USEC)

    # Label-less convenience: a family used without labels delegates to its
    # single ()-child, so `registry.counter("x").inc()` just works.

    def _default(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def series(self) -> Dict[Tuple[str, ...], object]:
        return dict(self._children)


class MetricsRegistry:
    """Registry of metric families; the run's aggregate instrument panel.

    >>> reg = MetricsRegistry()
    >>> reg.counter("uvm_batches_total", labels=("kind",)).labels("fault").inc()
    >>> reg.snapshot()["uvm_batches_total"]["series"][0]["value"]
    1.0
    >>> reg.snapshot()["uvm_batches_total"]["help"]
    'Batches through the servicing path'
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._folds: List[Callable[["MetricsRegistry"], None]] = []

    def add_fold(self, fold: Callable[["MetricsRegistry"], None]) -> None:
        """Register ``fold(registry)``: every read runs each fold against
        one fresh registry, so folds registering the same family add up
        (multi-GPU engines share a registry)."""
        self._folds.append(fold)

    def _read(self) -> Dict[str, MetricFamily]:
        """Every family, the folded ones rebuilt from their counters now."""
        if not self._folds:
            return self._families
        derived = MetricsRegistry()
        for fold in self._folds:
            fold(derived)
        return {**self._families, **derived._families}

    # ------------------------------------------------------------- creation

    def _register(
        self,
        name: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ):
        """Get or create family ``name``; its help text is its catalog
        entry's (empty for an undeclared name)."""
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family
        help = METRIC_CATALOG.get(name, {}).get("help", "")
        family = MetricFamily(name, kind, help, labels, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, labels: Sequence[str] = ()):
        """Get or create a counter family."""
        return self._register(name, "counter", labels)

    def gauge(self, name: str, labels: Sequence[str] = ()):
        return self._register(name, "gauge", labels)

    def histogram(
        self,
        name: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_USEC,
    ):
        return self._register(name, "histogram", labels, buckets)

    # --------------------------------------------------------------- export

    def __contains__(self, name: str) -> bool:
        return name in self._read()

    def family(self, name: str) -> MetricFamily:
        return self._read()[name]

    def snapshot(self) -> Dict:
        """Plain-dict dump of every family and series (JSON-serializable)."""
        out: Dict = {}
        for name, family in sorted(self._read().items()):
            series = []
            for key, child in sorted(family.series.items()):
                series.append(
                    {
                        "labels": dict(zip(family.label_names, key)),
                        "value": child.snapshot(),
                    }
                )
            out[name] = {"kind": family.kind, "help": family.help, "series": series}
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one run = one scrape)."""
        lines: List[str] = []
        for name, family in sorted(self._read().items()):
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in sorted(family.series.items()):
                labels = _fmt_labels(family.label_names, key)
                if family.kind == "histogram":
                    snap = child.snapshot()
                    for bucket in snap["buckets"]:
                        le = "+Inf" if bucket["le"] == float("inf") else _fmt_num(bucket["le"])
                        extra = _fmt_labels(
                            family.label_names + ("le",), key + (le,)
                        )
                        lines.append(f"{name}_bucket{extra} {bucket['count']}")
                    lines.append(f"{name}_sum{labels} {_fmt_num(snap['sum'])}")
                    lines.append(f"{name}_count{labels} {snap['count']}")
                else:
                    lines.append(f"{name}{labels} {_fmt_num(child.snapshot())}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(f'{n}="{v}"' for n, v in zip(names, values))
    return "{" + pairs + "}"


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
