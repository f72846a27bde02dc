"""Unit tests for the cost model's composite functions and calibration
relationships the figures depend on."""

import numpy as np
import pytest

from repro.hostos.cost_model import CostModel
from repro.sim.rng import JitterStream
from repro.units import PAGE_SIZE


class TestComposites:
    def make(self):
        return CostModel()

    def test_fetch_cost_affine(self):
        cm = self.make()
        assert cm.fetch_cost(0) == cm.fetch_base_usec
        assert cm.fetch_cost(10) == pytest.approx(
            cm.fetch_base_usec + 10 * cm.fetch_per_fault_usec
        )

    def test_preprocess_cost_affine(self):
        cm = self.make()
        assert cm.preprocess_cost(100) > cm.preprocess_cost(0)

    def test_population_linear(self):
        cm = self.make()
        assert cm.population_cost(10) == pytest.approx(10 * cm.population_per_page_usec)

    def test_unmap_zero_pages_free(self):
        assert self.make().unmap_cost(0, 5) == 0.0

    def test_unmap_single_thread_baseline(self):
        cm = self.make()
        cost = cm.unmap_cost(100, 1)
        assert cost == pytest.approx(cm.unmap_base_usec + 100 * cm.unmap_per_page_usec)

    def test_unmap_inflates_with_threads(self):
        cm = self.make()
        assert cm.unmap_cost(100, 8) > cm.unmap_cost(100, 1)

    def test_unmap_thread_cap(self):
        cm = self.make()
        assert cm.unmap_cost(100, cm.unmap_thread_cap) == pytest.approx(
            cm.unmap_cost(100, cm.unmap_thread_cap + 50)
        )

    def test_dma_cost_components(self):
        cm = self.make()
        base = cm.dma_cost(10, 0, 0)
        with_nodes = cm.dma_cost(10, 3, 0)
        with_refill = cm.dma_cost(10, 3, 1)
        assert with_nodes == pytest.approx(base + 3 * cm.radix_node_alloc_usec)
        assert with_refill == pytest.approx(with_nodes + cm.radix_slab_refill_usec)

    def test_link_bandwidth_conversion(self):
        cm = self.make()
        assert cm.link_bandwidth_bytes_per_usec == pytest.approx(
            cm.link_bandwidth_bytes_per_sec / 1e6
        )


class TestJitter:
    """``CostModel.jitter_frac`` as the driver's jitter stream applies it."""

    def test_no_rng_passthrough(self):
        assert JitterStream(None).apply(10.0, CostModel().jitter_frac) == 10.0

    def test_zero_frac_passthrough(self):
        cm = CostModel(jitter_frac=0.0)
        stream = JitterStream(np.random.default_rng(0))
        assert stream.apply(10.0, cm.jitter_frac) == 10.0

    def test_jitter_bounded_positive(self):
        cm = CostModel(jitter_frac=0.5)
        stream = JitterStream(np.random.default_rng(0))
        values = [stream.apply(10.0, cm.jitter_frac) for _ in range(200)]
        assert all(v > 0 for v in values)

    def test_jitter_centered(self):
        cm = CostModel(jitter_frac=0.05)
        stream = JitterStream(np.random.default_rng(0))
        values = [stream.apply(10.0, cm.jitter_frac) for _ in range(2000)]
        assert np.mean(values) == pytest.approx(10.0, rel=0.02)

    def test_zero_base_passthrough(self):
        stream = JitterStream(np.random.default_rng(0))
        assert stream.apply(0.0, CostModel().jitter_frac) == 0.0


class TestOverrides:
    def test_apply_overrides(self):
        cm = CostModel().apply_overrides({"replay_usec": 99.0})
        assert cm.replay_usec == 99.0

    def test_unknown_override_rejected(self):
        with pytest.raises(AttributeError):
            CostModel().apply_overrides({"nope": 1})


class TestCalibration:
    """Relationships the paper's figures rely on."""

    def test_management_dominates_wire_time(self):
        """Fig 7: per-page management cost exceeds 3x the wire time, so
        transfer stays below ~25 % of batch time."""
        cm = CostModel()
        wire = PAGE_SIZE / cm.link_bandwidth_bytes_per_usec
        per_page_mgmt = (
            cm.fetch_per_fault_usec
            + cm.preprocess_per_fault_usec
            + cm.fault_service_per_page_usec
            + cm.migration_prep_per_page_usec
            + cm.pagetable_per_page_usec
        )
        assert per_page_mgmt > 3 * wire

    def test_batch_overhead_beats_duplicate_cost(self):
        """Fig 9: one extra batch costs more than fetching a modest number
        of extra duplicates, so larger batch caps win."""
        cm = CostModel()
        per_batch_fixed = cm.fetch_base_usec + cm.preprocess_base_usec + cm.replay_usec
        dup_cost_100 = 100 * (cm.fetch_per_fault_usec + cm.preprocess_per_fault_usec)
        assert per_batch_fixed > dup_cost_100

    def test_unmap_is_significant_per_block(self):
        """§4.4: a fully-mapped block's unmap cost is a significant fraction
        of its transfer cost."""
        cm = CostModel()
        unmap = cm.unmap_cost(512, 1)
        transfer = 512 * PAGE_SIZE / cm.link_bandwidth_bytes_per_usec
        assert unmap > 0.3 * transfer

    def test_dma_block_init_is_heavy(self):
        """§5.2: first-access DMA-state creation for a full block rivals the
        block's transfer time."""
        cm = CostModel()
        dma = cm.dma_cost(512, 9, 0)
        transfer = 512 * PAGE_SIZE / cm.link_bandwidth_bytes_per_usec
        assert dma > 0.8 * transfer
