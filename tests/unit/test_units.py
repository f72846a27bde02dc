"""Unit tests for address/size arithmetic in repro.units."""

import math

import pytest

from repro import units as u
from repro.analysis.stats import batch_size_summary
from repro.core.batch_record import BatchRecord
from repro.core.instrumentation import BatchLog
from repro.obs.analyze import build_report
from repro.sim.engine import LaunchResult


class TestConstants:
    def test_page_size(self):
        assert u.PAGE_SIZE == 4096
        assert 1 << u.PAGE_SHIFT == u.PAGE_SIZE

    def test_region_size(self):
        assert u.REGION_SIZE == 64 * 1024
        assert u.PAGES_PER_REGION == 16

    def test_vablock_size(self):
        assert u.VABLOCK_SIZE == 2 * 1024 * 1024
        assert u.PAGES_PER_VABLOCK == 512
        assert u.REGIONS_PER_VABLOCK == 32

    def test_hierarchy_consistency(self):
        assert u.PAGES_PER_REGION * u.REGIONS_PER_VABLOCK == u.PAGES_PER_VABLOCK


class TestPageMath:
    def test_page_of_zero(self):
        assert u.page_of(0) == 0

    def test_page_of_last_byte_in_page(self):
        assert u.page_of(4095) == 0

    def test_page_of_first_byte_in_second_page(self):
        assert u.page_of(4096) == 1

    def test_page_base_roundtrip(self):
        for page in (0, 1, 7, 513, 10_000):
            assert u.page_of(u.page_base(page)) == page

    def test_region_of_page(self):
        assert u.region_of_page(0) == 0
        assert u.region_of_page(15) == 0
        assert u.region_of_page(16) == 1

    def test_vablock_of(self):
        assert u.vablock_of(0) == 0
        assert u.vablock_of(u.VABLOCK_SIZE - 1) == 0
        assert u.vablock_of(u.VABLOCK_SIZE) == 1

    def test_vablock_of_page(self):
        assert u.vablock_of_page(511) == 0
        assert u.vablock_of_page(512) == 1

    def test_page_index_in_vablock(self):
        assert u.page_index_in_vablock(0) == 0
        assert u.page_index_in_vablock(511) == 511
        assert u.page_index_in_vablock(512) == 0
        assert u.page_index_in_vablock(1000) == 1000 - 512

    def test_first_page_of_vablock(self):
        assert u.first_page_of_vablock(0) == 0
        assert u.first_page_of_vablock(3) == 3 * 512

    def test_block_page_roundtrip(self):
        for block in (0, 1, 5, 31):
            first = u.first_page_of_vablock(block)
            assert u.vablock_of_page(first) == block
            assert u.page_index_in_vablock(first) == 0


class TestSpans:
    def test_pages_spanned_empty(self):
        assert list(u.pages_spanned(0, 0)) == []

    def test_pages_spanned_within_one_page(self):
        assert list(u.pages_spanned(10, 100)) == [0]

    def test_pages_spanned_crossing(self):
        assert list(u.pages_spanned(4000, 200)) == [0, 1]

    def test_pages_spanned_exact_pages(self):
        assert list(u.pages_spanned(4096, 8192)) == [1, 2]

    def test_negative_bytes(self):
        assert list(u.pages_spanned(0, -5)) == []


class TestAlign:
    def test_align_up_exact(self):
        assert u.align_up(8192, 4096) == 8192

    def test_align_up_rounds(self):
        assert u.align_up(1, 4096) == 4096

    def test_align_down(self):
        assert u.align_down(4097, 4096) == 4096
        assert u.align_down(4095, 4096) == 0


class TestFormatting:
    def test_fmt_bytes(self):
        assert u.fmt_bytes(3 * u.MB) == "3.0MB"
        assert u.fmt_bytes(512) == "512B"
        assert u.fmt_bytes(2 * u.GB) == "2.0GB"
        assert u.fmt_bytes(10 * u.KB) == "10.0KB"

    def test_fmt_usec(self):
        assert u.fmt_usec(0.5) == "0.50us"
        assert u.fmt_usec(1500) == "1.500ms"
        assert u.fmt_usec(2_500_000) == "2.500s"


#: Batch durations whose left-to-right total (1e16: each 1.0 is lost to
#: rounding) differs from the compensated total (1e16 + 2) that builtin
#: ``sum`` returns from Python 3.12 on.
DURATIONS = (1e16, 1.0, 1.0)


class TestFoldSum:
    def test_adds_left_to_right(self):
        assert math.fsum(DURATIONS) == 1e16 + 2
        assert u.fold_sum(DURATIONS) == 1e16
        assert u.fold_sum([]) == 0

    def test_batch_totals_fold_on_every_python(self):
        records = [
            BatchRecord(batch_id=i, t_start=0.0, t_end=d)
            for i, d in enumerate(DURATIONS)
        ]
        log = BatchLog()
        for record in records:
            log.append(record)
        assert log.total_batch_time == 1e16
        assert LaunchResult("k", 0.0, records).batch_time_usec == 1e16
        assert batch_size_summary(records).total_batch_time_usec == 1e16
        report = build_report([r.to_dict() for r in records])
        assert report["total_batch_usec"] == 1e16
        assert report["gpu_stall"]["stall_usec"] == 1e16
