"""Tests for test-time models and task construction."""

from hypothesis import given, strategies as st

from repro.sched import (
    ScanTimeModel,
    best_width_time,
    core_scan_time,
    functional_test_time,
    scan_max_width,
    scan_test_time,
    tasks_from_core,
    tasks_from_soc,
)
from repro.soc import CoreType
from repro.soc.dsc import build_dsc_chip, build_jpeg_core, build_tv_core, build_usb_core


class TestScanTestTime:
    def test_formula(self):
        # (1 + max(si,so)) * p + min(si,so)
        assert scan_test_time(10, 8, 5) == 11 * 5 + 8

    def test_zero_patterns(self):
        assert scan_test_time(10, 8, 0) == 0

    def test_symmetric(self):
        assert scan_test_time(10, 8, 5) == scan_test_time(8, 10, 5)

    def test_usb_width4_matches_hand_calc(self):
        # USB at width 4: longest chain 1629 dominates; 716 patterns
        assert core_scan_time(build_usb_core(), 4) == (1 + 1629) * 716 + 1629

    def test_usb_width1_matches_hand_calc(self):
        # serialized: si = 2045 flops + 221 input cells, so = 2045 + 104
        si, so = 2045 + 221, 2045 + 104
        assert core_scan_time(build_usb_core(), 1) == (1 + si) * 716 + so

    def test_tv_width2(self):
        tv = build_tv_core()
        t = core_scan_time(tv, 2)
        # chains 577/576 plus balanced boundary cells; 229 patterns
        assert t < core_scan_time(tv, 1)

    @given(
        si=st.integers(1, 3000),
        so=st.integers(1, 3000),
        p=st.integers(1, 1000),
    )
    def test_property_time_positive_and_dominated_by_shift(self, si, so, p):
        t = scan_test_time(si, so, p)
        assert t >= max(si, so) * p
        assert t == (1 + max(si, so)) * p + min(si, so)


class TestFunctionalTime:
    def test_includes_setup(self):
        assert functional_test_time(100) == 100 + functional_test_time(1) - 1

    def test_zero(self):
        assert functional_test_time(0) == 0

    def test_jpeg(self):
        t = functional_test_time(235_696)
        assert 235_696 < t < 235_696 + 100


class TestWidthHelpers:
    def test_best_width_collapses_plateau(self):
        usb = build_usb_core()
        width, t = best_width_time(usb, 4)
        # 1629-flop chain dominates from width 2 on
        assert t == core_scan_time(usb, 4)
        assert width <= 4
        assert core_scan_time(usb, width) == t

    def test_scan_max_width_hard_core(self):
        assert scan_max_width(build_usb_core()) == 4
        assert scan_max_width(build_tv_core()) == 2

    def test_scan_max_width_legacy(self):
        assert scan_max_width(build_jpeg_core()) == 1

    def test_scan_max_width_soft_core(self):
        usb = build_usb_core()
        usb.core_type = CoreType.SOFT
        assert scan_max_width(usb) == 16

    @given(w=st.integers(1, 8))
    def test_property_monotone_nonincreasing(self, w):
        tv = build_tv_core()
        assert core_scan_time(tv, w + 1) <= core_scan_time(tv, w)


class TestScanTimeModel:
    def test_tasks_carry_declarative_models(self):
        """Scan tasks ship :class:`ScanTimeModel` tables, not closures —
        the property the process batch backend rests on."""
        for task in tasks_from_soc(build_dsc_chip()):
            if task.is_scan:
                assert isinstance(task.time_fn, ScanTimeModel)
                assert task.time_fn.max_width == task.max_width

    def test_table_is_monotone_nonincreasing(self):
        model = ScanTimeModel.for_core(build_usb_core())
        assert list(model.times) == sorted(model.times, reverse=True)

    def test_for_core_explicit_patterns_matches_core_scan_time(self):
        usb = build_usb_core()
        fn = ScanTimeModel.for_core(usb, 716)
        assert isinstance(fn, ScanTimeModel)
        assert fn(4) == core_scan_time(usb, 4, 716)

    def test_default_patterns_and_width(self):
        usb = build_usb_core()
        model = ScanTimeModel.for_core(usb)
        assert model.patterns == usb.scan_patterns
        assert model.max_width == scan_max_width(usb)

    def test_table_memoized_per_core_and_patterns(self):
        usb = build_usb_core()
        assert ScanTimeModel.for_core(usb, 716) is ScanTimeModel.for_core(usb, 716)
        assert ScanTimeModel.for_core(usb, 716) is not ScanTimeModel.for_core(usb, 10)
        # a fresh but structurally identical core object shares the table
        # via the process-level digest-keyed cache (corpus memoization)
        assert ScanTimeModel.for_core(build_usb_core(), 716) is ScanTimeModel.for_core(usb, 716)

    def test_accounting_only_tasks_skip_time_models(self):
        """tasks_from_soc(time_models=False) keeps the control-IO fields
        (same pin accounting) without any design_wrapper sweep."""
        from repro.sched import SharingPolicy, control_pins

        soc = build_dsc_chip()
        full = tasks_from_soc(soc)
        cheap = tasks_from_soc(soc, time_models=False)
        assert [t.name for t in cheap] == [t.name for t in full]
        assert all(t.time_fn is None for t in cheap)
        for policy in (SharingPolicy(), SharingPolicy.none()):
            assert control_pins(cheap, policy) == control_pins(full, policy)


class TestTasks:
    def test_tasks_from_core_tv(self):
        tasks = tasks_from_core(build_tv_core())
        assert [t.kind.value for t in tasks] == ["scan", "functional"]
        scan, func = tasks
        assert scan.is_scan and not func.is_scan
        assert func.uses_functional_pins
        assert scan.max_width == 2

    def test_task_time_widths(self):
        scan = tasks_from_core(build_usb_core())[0]
        assert scan.time(4) <= scan.time(2) <= scan.time(1)
        assert scan.min_time == scan.time(scan.max_width)
        assert scan.serial_time == scan.time(1)

    def test_width_clamped_to_max(self):
        scan = tasks_from_core(build_usb_core())[0]
        assert scan.time(100) == scan.time(scan.max_width)

    def test_tasks_from_soc_covers_wrapped_cores_only(self):
        soc = build_dsc_chip()
        tasks = tasks_from_soc(soc)
        names = {t.core_name for t in tasks}
        assert names == {"USB", "TV", "JPEG"}
        assert len(tasks) == 4

    def test_clock_domains_propagated(self):
        tasks = tasks_from_soc(build_dsc_chip())
        usb = next(t for t in tasks if t.core_name == "USB")
        assert len(usb.clock_domains) == 4
