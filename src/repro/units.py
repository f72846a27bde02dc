"""Size/time units and address arithmetic used throughout the simulator.

The UVM driver operates at three granularities (paper §2.2):

* 4 KiB *OS pages* — the unit of fault generation and migration tracking on
  x86 hosts.
* 64 KiB *upgrade regions* — pages are upgraded from 4 KiB to 64 KiB within
  the UVM runtime as a component of prefetching (emulating the Power9 page
  size).
* 2 MiB *Virtual Address Blocks (VABlocks)* — the logical unit of driver
  processing, DMA-mapping bursts, CPU unmapping, and eviction.

All byte addresses in the simulator are plain Python ints into a single flat
managed virtual address space.  Helper functions here convert between byte
addresses, page ids, region ids, and VABlock ids; they are intentionally tiny
so hot paths can inline the shifts directly where profiling warrants it.
"""

from __future__ import annotations

from typing import Iterable

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: x86 host OS page size adopted by UVM for migration and tracking.
PAGE_SIZE = 4 * KB
PAGE_SHIFT = 12

#: 64 KiB internal upgrade-region size (16 OS pages).
REGION_SIZE = 64 * KB
REGION_SHIFT = 16
PAGES_PER_REGION = REGION_SIZE // PAGE_SIZE  # 16

#: 2 MiB VABlock size (512 OS pages, 32 regions).
VABLOCK_SIZE = 2 * MB
VABLOCK_SHIFT = 21
PAGES_PER_VABLOCK = VABLOCK_SIZE // PAGE_SIZE  # 512
REGIONS_PER_VABLOCK = VABLOCK_SIZE // REGION_SIZE  # 32

#: Simulated time is kept in microseconds (float).
USEC = 1.0
MSEC = 1e3
SEC = 1e6


def fold_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, one rounding per add, as the clock
    adds.  Builtin ``sum`` compensates float rounding from Python 3.12 on,
    so a total of simulated µs made with it differs in its last bits
    between Python versions."""
    total = 0
    for value in values:
        total += value
    return total


def page_of(addr: int) -> int:
    """Page id containing byte address ``addr``."""
    return addr >> PAGE_SHIFT


def page_base(page: int) -> int:
    """First byte address of page ``page``."""
    return page << PAGE_SHIFT


def region_of_page(page: int) -> int:
    """64 KiB upgrade-region id containing ``page``."""
    return page >> (REGION_SHIFT - PAGE_SHIFT)


def vablock_of(addr: int) -> int:
    """VABlock id containing byte address ``addr``."""
    return addr >> VABLOCK_SHIFT


def vablock_of_page(page: int) -> int:
    """VABlock id containing page ``page``."""
    return page >> (VABLOCK_SHIFT - PAGE_SHIFT)


def page_index_in_vablock(page: int) -> int:
    """Offset of ``page`` within its VABlock, in [0, PAGES_PER_VABLOCK)."""
    return page & (PAGES_PER_VABLOCK - 1)


def first_page_of_vablock(vablock: int) -> int:
    """Global page id of the first page in VABlock ``vablock``."""
    return vablock << (VABLOCK_SHIFT - PAGE_SHIFT)


def pages_spanned(addr: int, nbytes: int) -> range:
    """Range of page ids touched by ``nbytes`` starting at ``addr``."""
    if nbytes <= 0:
        return range(0)
    first = page_of(addr)
    last = page_of(addr + nbytes - 1)
    return range(first, last + 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    return value - (value % alignment)


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(3 * MB) == '3.0MB'``."""
    nbytes = float(nbytes)
    for unit, name in ((GB, "GB"), (MB, "MB"), (KB, "KB")):
        if abs(nbytes) >= unit:
            return f"{nbytes / unit:.1f}{name}"
    return f"{nbytes:.0f}B"


def fmt_usec(usec: float) -> str:
    """Human-readable duration from microseconds."""
    if abs(usec) >= SEC:
        return f"{usec / SEC:.3f}s"
    if abs(usec) >= MSEC:
        return f"{usec / MSEC:.3f}ms"
    return f"{usec:.2f}us"
