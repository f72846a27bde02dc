"""Per-layer self-time tracing by wrapping the calls into each layer.

The benchmark installs these wrappers at run time, around one traced run,
and removes them afterwards: the simulator's sources carry no tracing code.
A layer's self time is the time inside its wrapped calls minus the time in
wrapped calls nested inside them, so the self times of every layer plus the
unattributed remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``owner.attr`` counted toward ``layer``."""

    layer: str
    #: Class or module whose attribute is replaced by the wrapper.
    owner: Any
    attr: str
    #: ``probe(args, result, start)`` returns counter increments for a call.
    probe: Optional[Callable[..., Dict[str, float]]] = None
    #: ``start(args)`` is read before the call and handed to ``probe``.
    start: Optional[Callable[[tuple], Any]] = None


@dataclass
class LayerStat:
    self_s: float = 0.0
    calls: int = 0
    #: Calls that raised (aborted copy-engine bursts, failed DMA maps).
    raised: int = 0
    counts: Dict[str, float] = field(default_factory=dict)


class LayerTracer:
    """Installs :class:`Hook` wrappers and accumulates per-layer stats.

    Use as a context manager: entering resets the stats and installs every
    wrapper, leaving restores the original attributes.
    """

    def __init__(self, hooks, clock: Callable[[], float] = time.perf_counter):
        self.hooks = list(hooks)
        self.clock = clock
        self.stats: Dict[str, LayerStat] = {}
        #: Nested-time accumulators, one per wrapped call in progress.
        self._stack: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {hook.layer: LayerStat() for hook in self.hooks}
        self._stack.clear()

    def attributed_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def __enter__(self) -> "LayerTracer":
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for hook in self.hooks:
                raw = vars(hook.owner)[hook.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(hook, raw.__func__))
                else:
                    wrapped = self._wrap(hook, raw)
                self._saved.append((hook.owner, hook.attr, raw))
                setattr(hook.owner, hook.attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        stack = self._stack
        clock = self.clock
        layer, probe, start = hook.layer, hook.probe, hook.start

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin = start(args) if start is not None else None
            stack.append(0.0)
            t0 = clock()
            raised = False
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                elapsed = clock() - t0
                nested = stack.pop()
                stat = self.stats[layer]
                stat.self_s += elapsed - nested
                stat.calls += 1
                stat.raised += raised
                if stack:
                    stack[-1] += elapsed
            if probe is not None:
                for key, value in probe(args, result, begin).items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        return wrapper


def simulator_hooks() -> List[Hook]:
    """The simulator calls each benchmark layer is measured at."""
    from repro.check.sanitizer import Sanitizer
    from repro.core import driver as driver_module
    from repro.core.driver import UvmDriver
    from repro.core.prefetch import PREFETCH_POLICIES
    from repro.gpu.copy_engine import CopyEngine
    from repro.gpu.fault_buffer import FaultBuffer, SoaFaultBuffer
    from repro.hostos.dma import DmaMapper
    from repro.hostos.host_vm import HostVm
    from repro.sim.checkpoint import EngineCheckpoint
    from repro.sim.engine import Engine

    def pushed(args) -> int:
        return args[0].device.fault_buffer.total_pushed

    def evicted(args) -> int:
        # _evict_one(self, exclude, record, outcome, spend)
        return len(args[3].evicted_pages)

    hooks = [
        Hook(
            "engine.issue", Engine, "_gpu_round", start=pushed,
            probe=lambda a, r, before: {"faults": pushed(a) - before},
        ),
        Hook("engine.wake", Engine, "_apply_outcome"),
        Hook("engine.idle_jump", Engine, "_next_ready_time"),
        Hook("engine.host_touch", Engine, "host_touch"),
        Hook("driver.batch", UvmDriver, "service_next_batch"),
        Hook(
            "batch.assemble", driver_module, "assemble_batch",
            probe=lambda a, r, _: {"unique": r.num_unique, "raw": r.num_raw},
        ),
        Hook(
            "driver.vablock", UvmDriver, "_service_block",
            probe=lambda a, r, _: {"deferred": int(r[1])},
        ),
        Hook(
            "eviction", UvmDriver, "_evict_one", start=evicted,
            probe=lambda a, r, before: {"pages": evicted(a) - before},
        ),
        Hook("hostos.residency", HostVm, "mapped_pages_of"),
        Hook(
            "hostos.unmap", HostVm, "unmap_range",
            probe=lambda a, r, _: {"pages": r.pages_unmapped},
        ),
        Hook("hostos.dma", DmaMapper, "map_pages"),
        Hook("ce", CopyEngine, "host_to_device"),
        Hook("ce", CopyEngine, "device_to_host"),
        Hook("checkpoint.capture", EngineCheckpoint, "capture"),
        Hook("checkpoint.restore", EngineCheckpoint, "restore_into"),
    ]
    for buffer_cls in (FaultBuffer, SoaFaultBuffer):
        hooks.append(Hook("fault_buffer", buffer_cls, "fetch"))
        hooks.append(
            Hook(
                "fault_buffer", buffer_cls, "flush",
                probe=lambda a, r, _: {"dropped": len(r)},
            )
        )
    for policy in PREFETCH_POLICIES.values():
        if "expand" in vars(policy):
            hooks.append(
                Hook("prefetch", policy, "expand", probe=lambda a, r, _: {"pages": len(r)})
            )
    for name in ("on_batch_start", "on_batch_end", "on_round", "check_system"):
        hooks.append(Hook("sanitizer", Sanitizer, name))
    return hooks


#: Layers reported with ``.self_s`` and ``.calls``, in table order.
TIMED_LAYERS = (
    "engine.issue",
    "engine.wake",
    "engine.idle_jump",
    "engine.host_touch",
    "driver.batch",
    "fault_buffer",
    "batch.assemble",
    "driver.vablock",
    "prefetch",
    "eviction",
    "hostos.residency",
    "hostos.unmap",
    "hostos.dma",
    "ce",
    "sanitizer",
)


def per_layer_metrics(
    stats: Dict[str, LayerStat],
    traced_s: float,
    untraced_s: float,
    obs_ratio: float,
    sanitizer_ratio: float,
    violations: int,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.  A layer that
    never ran reports zeros, so every workload prints the same names."""

    def stat(layer: str) -> LayerStat:
        return stats.get(layer) or LayerStat()

    def count(layer: str, key: str) -> float:
        return stat(layer).counts.get(key, 0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (stat(layer).self_s, "s")
        out[f"{layer}.calls"] = (stat(layer).calls, "count")
    issue = stat("engine.issue")
    out["engine.issue.faults_per_call"] = (
        share(count("engine.issue", "faults"), issue.calls),
        "faults/call",
    )
    out["fault_buffer.dropped"] = (count("fault_buffer", "dropped"), "count")
    out["batch.assemble.unique_ratio"] = (
        share(count("batch.assemble", "unique"), count("batch.assemble", "raw")),
        "ratio",
    )
    out["driver.vablock.deferred"] = (count("driver.vablock", "deferred"), "count")
    out["prefetch.pages"] = (count("prefetch", "pages"), "pages")
    out["eviction.pages"] = (count("eviction", "pages"), "pages")
    out["hostos.unmap.pages"] = (count("hostos.unmap", "pages"), "pages")
    out["hostos.dma.retries"] = (stat("hostos.dma").raised, "count")
    out["ce.retries"] = (stat("ce").raised, "count")
    out["checkpoint.capture_s"] = (stat("checkpoint.capture").self_s, "s")
    out["checkpoint.captures"] = (stat("checkpoint.capture").calls, "count")
    out["checkpoint.restore_s"] = (stat("checkpoint.restore").self_s, "s")
    out["sanitizer.violations"] = (violations, "count")
    out["obs.overhead_ratio"] = (obs_ratio, "ratio")
    out["sanitizer.overhead_ratio"] = (sanitizer_ratio, "ratio")
    attributed = sum(s.self_s for s in stats.values())
    out["layers.unattributed_s"] = (traced_s - attributed, "s")
    out["trace.overhead_ratio"] = (share(traced_s, untraced_s), "ratio")
    return out


def render_layer_table(stats: Dict[str, LayerStat], traced_s: float) -> str:
    """Self time per layer, largest first, reconciled to the traced wall."""
    rows = sorted(stats.items(), key=lambda item: -item[1].self_s)
    lines = [f"{'layer':<20} {'calls':>9} {'self_s':>9} {'share':>7}"]
    for layer, stat in rows:
        lines.append(
            f"{layer:<20} {stat.calls:>9} {stat.self_s:>9.3f} "
            f"{stat.self_s / traced_s:>7.1%}"
        )
    rest = traced_s - sum(stat.self_s for stat in stats.values())
    lines.append(f"{'(unattributed)':<20} {'':>9} {rest:>9.3f} {rest / traced_s:>7.1%}")
    lines.append(f"{'traced wall':<20} {'':>9} {traced_s:>9.3f} {1:>7.1%}")
    return "\n".join(lines)
