"""Unit tests for the tree/density prefetcher (§5.2)."""

import pytest

from repro.core.prefetch import DensityPrefetcher
from repro.units import PAGES_PER_REGION, PAGES_PER_VABLOCK
from tests.blocks import make_block, page_table_with

EMPTY = page_table_with()


class TestRegionUpgradeBehaviour:
    def test_single_fault_pulls_its_region(self):
        pf = DensityPrefetcher(threshold=0.5)
        block = make_block()
        expanded = pf.expand(block, [0], EMPTY)
        # The 64 KiB upgrade covers the rest of the first region.
        assert expanded >= set(range(1, PAGES_PER_REGION))

    def test_expansion_excludes_faulted_pages(self):
        pf = DensityPrefetcher()
        block = make_block()
        expanded = pf.expand(block, [3], EMPTY)
        assert 3 not in expanded

    def test_expansion_excludes_resident_pages(self):
        pf = DensityPrefetcher()
        expanded = pf.expand(make_block(), [0], page_table_with([1, 2]))
        assert 1 not in expanded and 2 not in expanded

    def test_no_faults_no_expansion(self):
        pf = DensityPrefetcher()
        assert pf.expand(make_block(), [], EMPTY) == set()


class TestDensityTree:
    def test_sparse_faults_stay_local(self):
        """One fault in one region must not pull the whole block."""
        pf = DensityPrefetcher(threshold=0.51)
        block = make_block()
        expanded = pf.expand(block, [0], EMPTY)
        # Only the first region (minus the faulted page).
        assert len(expanded) == PAGES_PER_REGION - 1

    def test_half_density_does_not_cascade(self):
        """Exactly-half evidence must NOT promote the parent (strict >):
        otherwise a single upgraded region would cascade to the full block."""
        pf = DensityPrefetcher(threshold=0.5)
        block = make_block()
        expanded = pf.expand(block, list(range(PAGES_PER_REGION)), EMPTY)
        assert not (set(range(PAGES_PER_REGION, 2 * PAGES_PER_REGION)) & expanded)

    def test_beyond_half_promotes_parent(self):
        """Evidence strictly above the threshold promotes the enclosing node."""
        pf = DensityPrefetcher(threshold=0.5)
        block = make_block()
        # Region 0 fully faulted + one fault in region 1: the pair node has
        # (16 + 16-upgraded) / 32 = 100 % evidence → promoted, and the
        # 4-region node has 32/64 = 50 % → not promoted.
        faults = list(range(PAGES_PER_REGION)) + [PAGES_PER_REGION]
        expanded = pf.expand(block, faults, EMPTY)
        assert set(range(PAGES_PER_REGION + 1, 2 * PAGES_PER_REGION)) <= expanded
        assert not (set(range(2 * PAGES_PER_REGION, 4 * PAGES_PER_REGION)) & expanded)

    def test_full_density_pulls_whole_block(self):
        pf = DensityPrefetcher(threshold=0.5)
        block = make_block()
        # Fault one page in 20 of 32 regions: upgrades give 62.5 % evidence
        # at the root → the whole block is flagged.
        faults = [r * PAGES_PER_REGION for r in range(20)]
        expanded = pf.expand(block, faults, EMPTY)
        assert len(expanded) + len(faults) == PAGES_PER_VABLOCK

    def test_threshold_one_disables_tree_growth(self):
        pf = DensityPrefetcher(threshold=1.0)
        block = make_block()
        expanded = pf.expand(block, [0], EMPTY)
        # Region upgrade fills region 0 → density 1.0 there promotes it,
        # but the half-empty parent never qualifies.
        assert len(expanded) == PAGES_PER_REGION - 1

    def test_resident_pages_count_toward_density(self):
        pf = DensityPrefetcher(threshold=0.4)
        # Regions 0-1 resident; faulting region 2 upgrades it: the 4-region
        # node has 48/64 = 75 % evidence > 0.4 → regions 0-3 all flagged.
        resident = set(range(2 * PAGES_PER_REGION))
        expanded = pf.expand(make_block(), [2 * PAGES_PER_REGION], page_table_with(resident))
        assert set(range(3 * PAGES_PER_REGION, 4 * PAGES_PER_REGION)) <= expanded


class TestPartialBlocks:
    def test_never_prefetches_invalid_pages(self):
        """Scope limited to the allocation's pages in a tail block."""
        pf = DensityPrefetcher(threshold=0.5)
        valid = set(range(40))  # tail block with 40 valid pages
        block = make_block(valid_pages=valid)
        expanded = pf.expand(block, [0], EMPTY)
        assert expanded <= valid
        assert expanded == set(range(1, PAGES_PER_REGION))

    def test_partial_block_density_uses_valid_count(self):
        pf = DensityPrefetcher(threshold=0.5)
        valid = set(range(PAGES_PER_REGION))  # only one region valid
        block = make_block(valid_pages=valid)
        expanded = pf.expand(block, [0], EMPTY)
        assert expanded == valid - {0}


class TestScope:
    def test_default_scope_no_neighbours(self):
        assert DensityPrefetcher().neighbour_blocks(5) == []

    def test_enlarged_scope(self):
        pf = DensityPrefetcher(scope_blocks=3)
        assert pf.neighbour_blocks(5) == [6, 7]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DensityPrefetcher(threshold=0.0)
        with pytest.raises(ValueError):
            DensityPrefetcher(threshold=1.5)
