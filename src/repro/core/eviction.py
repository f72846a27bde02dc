"""VABlock eviction policies.

The paper's driver uses LRU: "Oversubscription allows applications to exceed
GPU memory capacity by using a form of LRU eviction ... at the granularity
of 2MB VABlock" (§5.1) — and because "the UVM driver has no information
about page hits", LRU degenerates to *earliest allocated* for dense access
(§5.4, Fig 16c/17c).  The driver only observes faults, so a block's recency
refreshes on allocation and fault service; in-memory hits are invisible.

Alternative policies from the literature the paper discusses are provided
for ablation (``DriverConfig.eviction_policy``):

* ``"lru"`` — the paper's driver (default).
* ``"fifo"`` — strict allocation order, never refreshed: what §5.4 says LRU
  *effectively is* for dense access; comparing the two isolates the value of
  fault-visible recency.
* ``"random"`` — seeded random victim, a common hardware-cheap baseline.
* ``"access-counter"`` — uses the GPU's (sparsely utilized, §2.3) access
  counters to approximate true recency: hits bump a per-block counter that
  decays each eviction, following Ganguly et al. [15]'s direction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Set

import numpy as np

from ..errors import ConfigError, OutOfDeviceMemory


class LruEvictionPolicy:
    """Fault-visible LRU over GPU-allocated VABlocks (the paper's driver)."""

    name = "lru"

    def __init__(self) -> None:
        #: block_id → None, ordered least- to most-recently fault-touched.
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self.total_evictions = 0
        #: Gauge handle installed by :meth:`attach_obs` (null-safe: the
        #: driver always attaches, pointing at a no-op instrument when the
        #: metrics registry is disabled).  ``uvm_evictions_total`` is folded
        #: from the batch log (``BatchRecord.evictions``), not counted here.
        self._m_resident = None

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._order

    def on_gpu_allocated(self, block_id: int) -> None:
        """A block received a physical chunk: becomes most-recently-used."""
        self._order.pop(block_id, None)
        self._order[block_id] = None
        if self._m_resident is not None:
            self._m_resident.set(len(self._order))

    def on_fault_service(self, block_id: int) -> None:
        """Faults were serviced for a resident block: refresh recency."""
        if block_id in self._order:
            self._order.move_to_end(block_id)

    def attach_obs(self, obs) -> None:
        """Register this policy's metric series with ``obs.metrics``."""
        self._m_resident = obs.metrics.gauge(
            "uvm_resident_vablocks",
            "GPU-allocated VABlocks tracked by the eviction policy",
        )

    def on_evicted(self, block_id: int) -> None:
        """A block lost its chunk: drop from the order."""
        self._order.pop(block_id, None)
        self.total_evictions += 1
        if self._m_resident is not None:
            self._m_resident.set(len(self._order))

    def pick_victim(self, exclude: Set[int]) -> Optional[int]:
        """Least-recently-used allocated block not in ``exclude``.

        ``exclude`` must contain every block being serviced in the current
        batch (the driver cannot evict a block it is actively migrating
        into).  Returns None when no victim exists.
        """
        for block_id in self._order:
            if block_id not in exclude:
                return block_id
        return None

    def require_victim(self, exclude: Set[int]) -> int:
        victim = self.pick_victim(exclude)
        if victim is None:
            raise OutOfDeviceMemory(
                "device memory exhausted and every resident VABlock is "
                "pinned by the current batch"
            )
        return victim

    def lru_order(self) -> Iterable[int]:
        """Blocks from least- to most-recently used (for inspection/tests)."""
        return iter(self._order)

    def on_access_hit(self, block_id: int) -> None:
        """In-memory hit notification — invisible to the real driver (§5.4),
        so the base policy ignores it; counter policies override."""


class FifoEvictionPolicy(LruEvictionPolicy):
    """Strict allocation order: recency is never refreshed.

    This is what §5.4 says the driver's LRU *effectively* becomes for dense
    access; the ablation comparing it to "lru" isolates fault-visible
    recency's value on reuse-heavy patterns.
    """

    name = "fifo"

    def on_fault_service(self, block_id: int) -> None:  # noqa: D102
        pass  # faults do not refresh FIFO order


class RandomEvictionPolicy(LruEvictionPolicy):
    """Seeded random victim selection (hardware-cheap baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = np.random.default_rng(seed)

    def pick_victim(self, exclude: Set[int]) -> Optional[int]:
        candidates = [b for b in self._order if b not in exclude]
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]


class AccessCounterEvictionPolicy(LruEvictionPolicy):
    """Hit-aware eviction via (modelled) GPU access counters.

    The hardware exposes per-region access counters that the stock driver
    barely uses (§2.3 / Ganguly et al. [15]).  This policy credits a block
    on every in-memory hit, halves all counters at each eviction (aging),
    and evicts the allocated block with the lowest score — approaching true
    LRU rather than "earliest allocated".
    """

    name = "access-counter"

    def __init__(self) -> None:
        super().__init__()
        self._counters: Dict[int, float] = {}

    def on_gpu_allocated(self, block_id: int) -> None:
        super().on_gpu_allocated(block_id)
        self._counters[block_id] = 1.0

    def on_fault_service(self, block_id: int) -> None:
        super().on_fault_service(block_id)
        if block_id in self._counters:
            self._counters[block_id] += 1.0

    def on_access_hit(self, block_id: int) -> None:
        if block_id in self._counters:
            self._counters[block_id] += 1.0

    def on_evicted(self, block_id: int) -> None:
        super().on_evicted(block_id)
        self._counters.pop(block_id, None)
        # Aging: older activity decays.
        for block in self._counters:
            self._counters[block] *= 0.5

    def pick_victim(self, exclude: Set[int]) -> Optional[int]:
        candidates = [b for b in self._order if b not in exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda b: (self._counters.get(b, 0.0), b))


#: Registry for ``DriverConfig.eviction_policy``.
EVICTION_POLICIES = {
    "lru": LruEvictionPolicy,
    "fifo": FifoEvictionPolicy,
    "random": RandomEvictionPolicy,
    "access-counter": AccessCounterEvictionPolicy,
}


def make_eviction_policy(name: str) -> LruEvictionPolicy:
    """Instantiate a registered eviction policy by name."""
    try:
        return EVICTION_POLICIES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown eviction policy {name!r}; choose from {sorted(EVICTION_POLICIES)}"
        )
