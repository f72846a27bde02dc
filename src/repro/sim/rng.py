"""Deterministic random-number utilities.

Every stochastic component (random-access workloads, cost jitter, host
first-touch interleaving) draws from a generator derived from the single
``SystemConfig.seed`` through named streams, so adding a new consumer never
perturbs the draws of existing ones.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Root generator for ``seed``."""
    return np.random.default_rng(seed)


def spawn_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for the named ``stream`` under ``seed``.

    The stream name is hashed (stable across processes and Python versions,
    unlike ``hash()``) and combined with the seed via ``SeedSequence``.

    >>> a = spawn_rng(0, "workload")
    >>> b = spawn_rng(0, "jitter")
    >>> bool((a.random(8) == b.random(8)).all())
    False
    """
    tag = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


#: Normals a :class:`JitterStream` draws at a time.
_BLOCK = 1024


class JitterStream:
    """Multiplicative cost jitter from one generator, drawn in blocks.

    A cost of ``usec`` µs jitters to ``usec * max(0.1, 1 + frac * z)`` for
    the stream's next standard normal ``z``.  Only a positive cost draws,
    and nothing draws without a generator or with ``frac <= 0``.

    ``Generator.standard_normal(n)`` yields the same values as ``n`` scalar
    draws and leaves the generator in the same state, so the stream draws
    ``_BLOCK`` values at a time into :attr:`block`, a list of Python floats
    (one ``tolist()`` per block), and hands them out by :attr:`cursor`:
    each jittered cost is the one a scalar draw per cost gives.  Besides
    :meth:`apply`, a caller that jitters a run of costs in its own loop
    (the driver's settle) reads ``block[cursor]`` itself, calls
    :meth:`refill` when the block runs out, and stores the cursor back.

    :meth:`state` is the generator state the current block was drawn from,
    the block's length and the cursor; :meth:`restore` redraws the block
    from it, so a checkpoint taken mid-block resumes on the same values.
    """

    __slots__ = ("rng", "_start", "block", "cursor")

    def __init__(self, rng: Optional[np.random.Generator]) -> None:
        self.rng = rng
        #: Generator state ``block`` was drawn from (the current state while
        #: nothing is drawn).
        self._start = rng.bit_generator.state if rng is not None else None
        #: The current block of standard normals, as Python floats.
        self.block: List[float] = []
        #: Index of the next unused normal in :attr:`block`.
        self.cursor = 0

    def _draw(self, n: int) -> None:
        self._start = self.rng.bit_generator.state
        self.block = self.rng.standard_normal(n).tolist()
        self.cursor = 0

    def refill(self) -> List[float]:
        """Draw the next block (cursor 0) and return it."""
        self._draw(_BLOCK)
        return self.block

    def apply(self, usec: float, frac: float) -> float:
        """``usec`` jittered (one draw when it applies)."""
        if self.rng is None or frac <= 0.0 or usec <= 0.0:
            return usec
        if self.cursor == len(self.block):
            self.refill()
        scale = 1.0 + frac * self.block[self.cursor]
        self.cursor += 1
        return usec * (scale if scale > 0.1 else 0.1)

    def state(self) -> Optional[dict]:
        """Where the stream stands, as JSON-ready values (None without a
        generator)."""
        if self.rng is None:
            return None
        return {"block_start": self._start, "drawn": len(self.block), "cursor": self.cursor}

    def restore(self, state: Optional[dict]) -> None:
        """Return to a :meth:`state`: redraw its block, then seek."""
        if self.rng is None or state is None:
            return
        self.rng.bit_generator.state = state["block_start"]
        if state["drawn"]:
            self._draw(state["drawn"])
        else:
            self._start, self.block = state["block_start"], []
        self.cursor = state["cursor"]
