"""HPGMG-FV: geometric multigrid V-cycles (paper Table 1, Figs 11 & 17).

Models NVIDIA's UVM-optimized HPGMG port [32]: a hierarchy of grids
(each level ¼ the points of the finer one in 2-D), V-cycles of
smooth → restrict → coarse-solve → prolong → smooth, with two traits the
paper exploits:

* **a setup phase with few GPU faults** — the host initializes every level
  (OpenMP-parallel when ``HostConfig.num_threads > 1``), so faults only
  start when the first kernel runs (Fig 17a/b cut the x-axis for this);
* **host work between V-cycles** (residual norms, boundary exchanges) that
  re-touches part of the fine grid on the CPU, re-arming
  ``unmap_mapping_range()`` on the fault path — the behaviour whose cost
  multithreaded first-touch doubles in Fig 11.
"""

from __future__ import annotations

from typing import List, Optional

from ..api import UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from ..units import PAGE_SIZE
from .base import Workload, pages_of_byte_range


class Hpgmg(Workload):
    """2-D geometric multigrid with V-cycles on float64 grids."""

    name = "hpgmg"

    def __init__(
        self,
        n: int = 1024,
        levels: int = 3,
        cycles: int = 2,
        pre_smooth: int = 1,
        post_smooth: int = 1,
        coarse_smooth: int = 4,
        num_programs: int = 8,
        band_rows: int = 32,
        host_phase_rows: Optional[int] = None,
        host_interleaved: bool = True,
        compute_usec_per_row: float = 2.0,
    ):
        if (8 * n) % PAGE_SIZE:
            raise ValueError("n must give page-aligned float64 rows (n % 512 == 0)")
        if (n >> (levels - 1)) <= 0:
            raise ValueError("too many levels for this grid size")
        self.n = n
        self.levels = levels
        self.cycles = cycles
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        self.coarse_smooth = coarse_smooth
        self.num_programs = num_programs
        self.band_rows = band_rows
        #: Rows of the fine grid the host re-touches between cycles
        #: (default: one band of boundary rows).
        self.host_phase_rows = host_phase_rows if host_phase_rows is not None else n // 4
        self.host_interleaved = host_interleaved
        self.compute_usec_per_row = compute_usec_per_row

    def required_bytes(self) -> int:
        total = 0
        for l in range(self.levels):
            nl = self.n >> l
            total += 2 * 8 * nl * nl
        return total

    # ------------------------------------------------------------- helpers

    def _row_pages(self, alloc, level_n: int, row: int) -> List[int]:
        # Coarse-level rows can be smaller than a page; map byte extents.
        row_bytes = 8 * level_n
        b0 = row * row_bytes
        return pages_of_byte_range(alloc, b0, b0 + row_bytes)

    def _smooth_phases(self, u, f, level_n: int, programs: List[List[Phase]]) -> None:
        """One Gauss-Seidel-like smoother sweep over a level."""
        rows_per_prog = max(1, self.band_rows // self.num_programs)
        for band0 in range(0, level_n, self.band_rows):
            for k in range(self.num_programs):
                lo = band0 + k * rows_per_prog
                hi = min(lo + rows_per_prog, level_n, band0 + self.band_rows)
                if lo >= hi:
                    continue
                reads: List[int] = []
                writes: List[int] = []
                for row in range(lo, hi):
                    reads.extend(self._row_pages(f, level_n, row))
                    if row > 0:
                        reads.extend(self._row_pages(u, level_n, row - 1))
                    if row + 1 < level_n:
                        reads.extend(self._row_pages(u, level_n, row + 1))
                    writes.extend(self._row_pages(u, level_n, row))
                programs[k].append(
                    Phase.of(reads, writes, compute_usec=self.compute_usec_per_row * (hi - lo))
                )

    def _transfer_phases(
        self, src, src_n: int, dst, dst_n: int, programs: List[List[Phase]]
    ) -> None:
        """Restriction (fine→coarse) or prolongation (coarse→fine)."""
        coarse_n = min(src_n, dst_n)
        rows_per_prog = max(1, self.band_rows // self.num_programs)
        ratio_src = src_n // coarse_n
        ratio_dst = dst_n // coarse_n
        for band0 in range(0, coarse_n, self.band_rows):
            for k in range(self.num_programs):
                lo = band0 + k * rows_per_prog
                hi = min(lo + rows_per_prog, coarse_n, band0 + self.band_rows)
                if lo >= hi:
                    continue
                reads: List[int] = []
                writes: List[int] = []
                for row in range(lo, hi):
                    for rr in range(ratio_src):
                        reads.extend(self._row_pages(src, src_n, row * ratio_src + rr))
                    for rr in range(ratio_dst):
                        writes.extend(self._row_pages(dst, dst_n, row * ratio_dst + rr))
                programs[k].append(
                    Phase.of(reads, writes, compute_usec=self.compute_usec_per_row * (hi - lo))
                )

    # --------------------------------------------------------------- steps

    def steps(self, system: UvmSystem) -> List:
        # Allocate the level hierarchy: u (solution) and f (rhs) per level.
        us, fs, ns = [], [], []
        for l in range(self.levels):
            nl = self.n >> l
            ns.append(nl)
            us.append(system.managed_alloc(8 * nl * nl, f"u{l}"))
            fs.append(system.managed_alloc(8 * nl * nl, f"f{l}"))

        steps: List = []

        # Setup: host initializes every level (OpenMP first-touch — the
        # knob Fig 11 turns).  Few GPU faults until the first kernel.
        for l in range(self.levels):
            u, f = us[l], fs[l]
            steps.append(
                lambda s, u=u: s.host_touch(u, interleaved=self.host_interleaved)
            )
            steps.append(
                lambda s, f=f: s.host_touch(f, interleaved=self.host_interleaved)
            )

        # Every V-cycle runs the same warp programs; programs are
        # immutable, so one set is built and each cycle's kernel submits it.
        phases: List[List[Phase]] = [[] for _ in range(self.num_programs)]
        # Downstroke: smooth + restrict per level.
        for l in range(self.levels - 1):
            for _ in range(self.pre_smooth):
                self._smooth_phases(us[l], fs[l], ns[l], phases)
            self._transfer_phases(us[l], ns[l], fs[l + 1], ns[l + 1], phases)
        # Coarse solve.
        for _ in range(self.coarse_smooth):
            self._smooth_phases(us[-1], fs[-1], ns[-1], phases)
        # Upstroke: prolong + smooth.
        for l in range(self.levels - 2, -1, -1):
            self._transfer_phases(us[l + 1], ns[l + 1], us[l], ns[l], phases)
            for _ in range(self.post_smooth):
                self._smooth_phases(us[l], fs[l], ns[l], phases)
        programs = [WarpProgram(ph, label=f"mg{k}") for k, ph in enumerate(phases) if ph]

        pr_fine = (8 * self.n) // PAGE_SIZE
        for cycle in range(self.cycles):
            kernel = KernelLaunch(f"{self.name}-vcycle{cycle}", programs)
            steps.append(kernel)
            # Host work between cycles: norm/boundary handling re-touches
            # part of the fine grid, re-arming the unmap cost (§4.4).
            if self.host_phase_rows > 0 and cycle + 1 < self.cycles:
                stop = self.host_phase_rows * pr_fine
                steps.append(
                    lambda s, u0=us[0], stop=stop: s.host_touch(
                        u0, 0, stop, interleaved=self.host_interleaved
                    )
                )
        return steps
