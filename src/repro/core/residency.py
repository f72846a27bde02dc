"""Page/region residency helpers: the 4 KiB → 64 KiB upgrade.

"For x86, pages are upgraded from 4KB to 64KB within the UVM runtime as a
component of prefetching, emulating the 64KB Power9 page size." (paper §2.2)

When prefetching is enabled, a fault on any 4 KiB page promotes its whole
64 KiB region (16 pages) to the migration set; the tree/density prefetcher
then works on regions.  With prefetching disabled only the faulted 4 KiB
pages migrate.
"""

from __future__ import annotations

from typing import Iterable, Set

from ..units import PAGES_PER_REGION


def region_upgrade(page_offsets: Iterable[int]) -> Set[int]:
    """Expand page offsets (within a VABlock) to full 64 KiB regions.

    >>> sorted(region_upgrade([0]))[:4]
    [0, 1, 2, 3]
    >>> len(region_upgrade([0, 5]))
    16
    """
    out: Set[int] = set()
    for off in page_offsets:
        base = (off // PAGES_PER_REGION) * PAGES_PER_REGION
        out.update(range(base, base + PAGES_PER_REGION))
    return out
