"""GPU page-fault records.

A :class:`Fault` is the unit written by the GMMU into the hardware fault
buffer (paper §2.1): the faulting page, the access type, and the origin SM /
µTLB, plus the simulated arrival timestamp the paper's per-fault
instrumentation records (Fig 4).
"""

from __future__ import annotations

import enum
from array import array
from typing import Iterator, List, NamedTuple, Sequence

import numpy as np


class AccessType(enum.IntEnum):
    """Kind of access that missed translation.

    ``PREFETCH`` models PTX ``prefetch.global.L2`` instructions (§3.2,
    Fig 5): they fault like loads but bypass the register scoreboard, the
    µTLB outstanding cap, and the SM rate throttle, and are *not* reissued if
    dropped (prefetches are hints).
    """

    READ = 0
    WRITE = 1
    PREFETCH = 2


class Fault(NamedTuple):
    """One entry in the GPU fault buffer: a read-only row of a
    :class:`FaultArrays`.

    Attributes:
        page: global 4 KiB page id of the faulting address.
        access: the :class:`AccessType`.
        sm_id: originating SM (per-fault metadata logged for Table 2).
        utlb_id: µTLB that holds the miss (``sm_id // sms_per_utlb``).
        warp_uid: id of the issuing warp; duplicate classification compares
            µTLBs, not warps, but the warp is needed to re-demand dropped
            faults.
        timestamp: simulated arrival time at the fault buffer (µs), Fig 4.
    """

    page: int
    access: AccessType
    sm_id: int
    utlb_id: int
    warp_uid: int
    timestamp: float

    @property
    def is_prefetch(self) -> bool:
        return self.access == AccessType.PREFETCH

    @property
    def is_write(self) -> bool:
        return self.access == AccessType.WRITE


class FaultArrays:
    """Structure-of-arrays fault storage: one row per fault occurrence, in
    arrival order.

    The fault buffer's storage, the engine's issuance window and the
    driver's fetched batch are all this type: the µTLB→GMMU path appends
    scalars (no per-fault object allocation), and batch assembly converts
    whole columns to NumPy arrays for mask-algebra dedup/classification
    (§4.2).  Iteration and indexing yield :class:`Fault` rows for the cold
    paths (tracing, re-demand after a replay flush).

    Internally the five integer-ish fields live *flat interleaved* in one
    list — ``(sm_id, utlb_id, page, access, warp_uid)`` five-tuples
    concatenated — so a whole issuance window appends to the fault buffer
    with a single ``list.extend`` and columns
    materialize only on demand as C-speed strided slices (``flat[2::5]``).
    Timestamps keep their own float column.
    """

    #: Flat-layout field offsets (matches :meth:`FaultBuffer.admit`'s records).
    _SM, _UTLB, _PAGE, _ACCESS, _UID = range(5)

    __slots__ = ("flat", "timestamps")

    def __init__(self) -> None:
        #: Interleaved (sm_id, utlb_id, page, access, warp_uid) records;
        #: ``access`` entries are :class:`AccessType` members stored
        #: as-given (coercion deferred to :meth:`accesses_array`).
        self.flat: List = []
        self.timestamps: List[float] = []

    def append(
        self,
        page: int,
        access: AccessType,
        sm_id: int,
        utlb_id: int,
        warp_uid: int,
        timestamp: float,
    ) -> None:
        self.flat.extend((sm_id, utlb_id, page, access, warp_uid))
        self.timestamps.append(timestamp)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> Fault:
        if i < 0:
            i += len(self.timestamps)
        if not 0 <= i < len(self.timestamps):
            raise IndexError(i)
        base = i * 5
        flat = self.flat
        return Fault(
            flat[base + self._PAGE],
            flat[base + self._ACCESS],
            flat[base + self._SM],
            flat[base + self._UTLB],
            flat[base + self._UID],
            self.timestamps[i],
        )

    def __iter__(self) -> Iterator[Fault]:
        flat = self.flat
        return map(
            Fault,
            flat[self._PAGE :: 5],
            flat[self._ACCESS :: 5],
            flat[self._SM :: 5],
            flat[self._UTLB :: 5],
            flat[self._UID :: 5],
            self.timestamps,
        )

    def take_front(self, n: int) -> "FaultArrays":
        """Remove and return the oldest ``n`` rows (driver-side fetch)."""
        out = FaultArrays()
        if n >= len(self.timestamps):
            # Full drain: hand over the backing lists wholesale (O(1)).
            out.flat = self.flat
            out.timestamps = self.timestamps
            self.flat = []
            self.timestamps = []
        else:
            out.flat = self.flat[: n * 5]
            out.timestamps = self.timestamps[:n]
            del self.flat[: n * 5]
            del self.timestamps[:n]
        return out

    def drain(self) -> "FaultArrays":
        """Remove and return every row (pre-replay flush)."""
        return self.take_front(len(self.timestamps))

    # ------------------------------------------------------ numpy views

    def pages_array(self) -> np.ndarray:
        return np.asarray(self.flat[self._PAGE :: 5], dtype=np.int64)

    def accesses_array(self) -> np.ndarray:
        # array('q') coerces IntEnum members via the __index__ fast path,
        # ~3x quicker than np.asarray on a member list; frombuffer wraps the
        # result zero-copy.  The view is read-only by convention: it borrows
        # the temporary array's buffer.
        return np.frombuffer(
            array("q", self.flat[self._ACCESS :: 5]), dtype=np.int64
        )

    def sm_ids_array(self) -> np.ndarray:
        return np.asarray(self.flat[self._SM :: 5], dtype=np.int64)

    def utlb_ids_array(self) -> np.ndarray:
        return np.asarray(self.flat[self._UTLB :: 5], dtype=np.int64)

    def rows_for_pages(self, pages: Sequence[int]) -> List[Fault]:
        """Rows whose page lies in ``pages`` (order preserved): the driver's
        defer/unserviced filters."""
        wanted = set(pages)
        return [row for row in self if row.page in wanted]

    @classmethod
    def from_faults(cls, faults: Sequence[Fault]) -> "FaultArrays":
        out = cls()
        for f in faults:
            out.append(f.page, f.access, f.sm_id, f.utlb_id, f.warp_uid, f.timestamp)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultArrays({len(self)} rows)"
