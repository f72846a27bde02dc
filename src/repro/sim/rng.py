"""Deterministic random-number utilities.

Every stochastic component (random-access workloads, cost jitter, host
first-touch interleaving) draws from a generator derived from the single
``SystemConfig.seed`` through named streams, so adding a new consumer never
perturbs the draws of existing ones.
"""

from __future__ import annotations

import zlib
from typing import Optional

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


_EMPTY = np.empty(0)
#: Normals a :class:`JitterStream` draws at a time.
_BLOCK = 1024


class JitterStream:
    """Multiplicative cost jitter from one generator, drawn in blocks.

    A cost of ``usec`` µs jitters to ``usec * max(0.1, 1 + frac * z)`` for
    the stream's next standard normal ``z``.  Only a positive cost draws,
    and nothing draws without a generator or with ``frac <= 0``.

    ``Generator.standard_normal(n)`` yields the same values as ``n`` scalar
    draws and leaves the generator in the same state, so the stream draws
    ``_BLOCK`` values at a time and hands them out by cursor: each jittered
    cost is the one a scalar draw per cost gives.  :meth:`state` is the
    generator state the current block was drawn from, the block's length
    and the cursor; :meth:`restore` redraws the block from it, so a
    checkpoint taken mid-block resumes on the same values.
    """

    __slots__ = ("rng", "_start", "_buf", "_pos")

    def __init__(self, rng: Optional[np.random.Generator]) -> None:
        self.rng = rng
        #: Generator state ``_buf`` was drawn from (the current state while
        #: nothing is drawn).
        self._start = rng.bit_generator.state if rng is not None else None
        self._buf = _EMPTY
        self._pos = 0

    def _draw(self, n: int) -> None:
        self._start = self.rng.bit_generator.state
        self._buf = self.rng.standard_normal(n)
        self._pos = 0

    def normals(self, n: int) -> np.ndarray:
        """The stream's next ``n`` standard normals."""
        pos = self._pos
        end = pos + n
        if end <= len(self._buf):
            self._pos = end
            return self._buf[pos:end]
        rest = self._buf[pos:]
        need = n - len(rest)
        self._draw(max(_BLOCK, need))
        self._pos = need
        return np.concatenate((rest, self._buf[:need]))

    def apply(self, usec: float, frac: float) -> float:
        """``usec`` jittered (one draw when it applies)."""
        if self.rng is None or frac <= 0.0 or usec <= 0.0:
            return usec
        if self._pos == len(self._buf):
            self._draw(_BLOCK)
        z = float(self._buf[self._pos])
        self._pos += 1
        return usec * max(0.1, 1.0 + frac * z)

    def apply_all(self, usecs: np.ndarray, frac: float) -> np.ndarray:
        """:meth:`apply` over ``usecs`` in order, as one array op."""
        if self.rng is None or frac <= 0.0:
            return usecs
        drawn = usecs > 0.0
        out = usecs.copy()
        z = self.normals(int(np.count_nonzero(drawn)))
        out[drawn] *= np.maximum(0.1, 1.0 + frac * z)
        return out

    def state(self) -> Optional[dict]:
        """Where the stream stands, as JSON-ready values (None without a
        generator)."""
        if self.rng is None:
            return None
        return {"block_start": self._start, "drawn": len(self._buf), "cursor": self._pos}

    def restore(self, state: Optional[dict]) -> None:
        """Return to a :meth:`state`: redraw its block, then seek."""
        if self.rng is None or state is None:
            return
        self.rng.bit_generator.state = state["block_start"]
        if state["drawn"]:
            self._draw(state["drawn"])
        else:
            self._start, self._buf = state["block_start"], _EMPTY
        self._pos = state["cursor"]
