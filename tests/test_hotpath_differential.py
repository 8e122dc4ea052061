"""Differential tests: the closed-form / heap hot paths against verbatim
copies of the loops they replaced (``tests/hotpath_oracles.py``).

Every property demands exact equality — the same bins, the same wrapper
plans, the same ``ScanTimeModel`` tables, and the same width dicts with
the same insertion order (or the same ``None``) — so the optimized code
can never drift from the straightforward one, on random inputs or on
any core of the generated corpus, DSC and d695.
"""

import hotpath_oracles as oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gen import SocGenerator
from repro.sched import (
    ScanTimeModel,
    assign_widths,
    clear_scan_time_cache,
    scan_max_width,
    scan_test_time,
    tasks_from_soc,
)
from repro.sched.result import TestTask as Task
from repro.soc import Core, CoreType, Direction, Port, ScanChain, SignalKind
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc
from repro.soc.tests import TestKind as Kind
from repro.wrapper import design_wrapper, partition_greedy

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # tier-1 must be reproducible run to run
)


def _core(chain_lengths, pi, po, soft=False) -> Core:
    ports = [
        Port("clk", Direction.IN, SignalKind.CLOCK),
        Port("se", Direction.IN, SignalKind.SCAN_ENABLE),
    ]
    chains = []
    for i, length in enumerate(chain_lengths):
        ports.append(Port(f"si{i}", Direction.IN, SignalKind.SCAN_IN))
        ports.append(Port(f"so{i}", Direction.OUT, SignalKind.SCAN_OUT))
        chains.append(ScanChain(f"c{i}", length, f"si{i}", f"so{i}"))
    if pi:
        ports.append(Port("d", Direction.IN, width=pi))
    if po:
        ports.append(Port("q", Direction.OUT, width=po))
    core_type = CoreType.SOFT if soft else CoreType.HARD
    return Core("c", core_type=core_type, ports=ports, scan_chains=chains)


# -- partition_greedy ---------------------------------------------------------


@settings(max_examples=300, **COMMON)
@given(
    lengths=st.lists(st.one_of(st.integers(0, 4), st.integers(1, 500)), max_size=14),
    width=st.integers(1, 12),
)
def test_partition_greedy_matches_min_scan(lengths, width):
    # small values force load ties; widths above len(lengths) leave bins empty
    assert partition_greedy(lengths, width) == oracle.partition_greedy(lengths, width)


# -- design_wrapper (boundary-cell water-fill) ---------------------------------


@settings(max_examples=300, **COMMON)
@given(
    chains=st.lists(st.one_of(st.integers(1, 5), st.integers(1, 300)), max_size=7),
    pi=st.one_of(st.just(0), st.integers(0, 12), st.integers(0, 400)),
    po=st.one_of(st.just(0), st.integers(0, 12), st.integers(0, 400)),
    width=st.integers(1, 12),
    soft=st.booleans(),
)
def test_design_wrapper_matches_per_cell_loop(chains, pi, po, width, soft):
    core = _core(chains, pi, po, soft)
    assert design_wrapper(core, width) == oracle.design_wrapper(core, width)


def test_design_wrapper_edge_cases():
    cases = [
        ([], 0, 0, 3),  # no chains, no cells
        ([], 7, 5, 3),  # boundary cells only: every base is 0
        ([4, 4, 4], 5, 2, 3),  # equal bases: remainder by chain index
        ([9, 1], 3, 20, 5),  # width > chains: empty chains fill first
        ([10, 2], 6, 0, 2),  # cells stop exactly at the tallest chain
        ([10, 2], 7, 9, 2),  # ... and one more spills onto chain 0
    ]
    for chains, pi, po, width in cases:
        for soft in (False, True):
            core = _core(chains, pi, po, soft)
            assert design_wrapper(core, width) == oracle.design_wrapper(core, width)


# -- assign_widths (heap grant loop) -------------------------------------------


def _scan_task(i, times, max_width) -> Task:
    return Task(
        name=f"t{i}", core_name=f"c{i}", kind=Kind.SCAN,
        time_fn=ScanTimeModel(f"c{i}", 1, tuple(times)), max_width=max_width,
    )


def _fixed_task(i, cycles) -> Task:
    return Task(name=f"t{i}", core_name=f"c{i}", kind=Kind.FUNCTIONAL, fixed_time=cycles)


def _same(tasks, data_pins):
    got = assign_widths(tasks, data_pins)
    want = oracle.assign_widths(tasks, data_pins)
    assert (got is None) == (want is None)
    if want is not None:
        assert list(got.items()) == list(want.items())
    return got


def _nonincreasing(start_and_drops):
    start, drops = start_and_drops
    times, t = [], start
    for drop in drops:
        t = max(0, t - drop)
        times.append(t)
    return times


#: flat tables (all drops 0), plateaus (mostly-0 drops) and arbitrary
#: tables (the grant rule never assumes monotone times)
TABLES = st.one_of(
    st.tuples(st.integers(0, 60), st.lists(st.sampled_from([0, 0, 0, 1, 5]), min_size=1,
                                           max_size=9)).map(_nonincreasing),
    st.tuples(st.integers(0, 400), st.lists(st.integers(0, 40), min_size=1,
                                            max_size=9)).map(_nonincreasing),
    st.lists(st.integers(0, 30), min_size=1, max_size=9),
)
TASKS = st.lists(
    st.one_of(
        st.tuples(st.just("scan"), TABLES, st.integers(1, 11)),
        st.tuples(st.just("fixed"), st.integers(0, 50), st.just(1)),
    ),
    max_size=7,
)


@settings(max_examples=500, **COMMON)
@given(specs=TASKS, data_pins=st.integers(0, 48))
def test_assign_widths_matches_sorted_loop(specs, data_pins):
    tasks = [
        _scan_task(i, spec, mw) if kind == "scan" else _fixed_task(i, spec)
        for i, (kind, spec, mw) in enumerate(specs)
    ]
    _same(tasks, data_pins)


def test_assign_widths_too_few_pins_is_none():
    tasks = [_scan_task(i, [50, 40, 30], 3) for i in range(3)]
    for pins in range(0, 6):  # data_pins < 2 * scan tasks
        assert _same(tasks, pins) is None
    assert _same(tasks, 6) == {"t0": 1, "t1": 1, "t2": 1}


def test_assign_widths_flat_tables_grant_nothing():
    tasks = [_scan_task(i, [70] * 6, 6) for i in range(3)]
    assert _same(tasks, 30) == {"t0": 1, "t1": 1, "t2": 1}


def test_assign_widths_saturated_critical_task_stops_grants():
    # t0 is critical from the start and saturated: t1 could use wires
    tasks = [_scan_task(0, [100], 1), _scan_task(1, [90, 50], 2)]
    assert _same(tasks, 20) == {"t0": 1, "t1": 1}


def test_assign_widths_task_turns_saturated_critical():
    # t0 is widened until it drops below t1 (saturated): then grants stop
    tasks = [_scan_task(0, [100, 90, 80, 70], 4), _scan_task(1, [85], 1)]
    assert _same(tasks, 20) == {"t0": 3, "t1": 1}


def test_assign_widths_plateau_critical_is_dropped_not_saturated():
    # t0's next drop needs more wires than remain, so it is dropped for
    # good while unsaturated; t1 still gets the spare pairs
    tasks = [_scan_task(0, [100, 100, 100, 100, 10], 5), _scan_task(1, [60, 50, 40], 3)]
    assert _same(tasks, 8) == {"t0": 1, "t1": 3}


def test_assign_widths_ties_break_by_membership_order():
    tasks = [_scan_task(i, [40, 30, 20], 3) for i in range(4)]
    for pins in range(8, 26):
        _same(tasks, pins)
        _same(list(reversed(tasks)), pins)


# -- whole chips: every core's plans, tables and session widths --------------

CHIPS = [(profile, seed) for profile in ("tiny", "small", "d695-like") for seed in range(12)]
CHIPS += [("dsc", None), ("d695", None)]


def _chip(profile, seed):
    if profile == "dsc":
        return build_dsc_chip()
    if profile == "d695":
        return d695_soc()
    return SocGenerator(seed, profile).generate()


@pytest.mark.parametrize("profile,seed", CHIPS)
def test_chip_plans_tables_and_widths_match(profile, seed):
    clear_scan_time_cache()  # every table below is a fresh width sweep
    soc = _chip(profile, seed)
    for core in soc.wrapped_cores:
        max_width = max(1, scan_max_width(core))
        plans = [oracle.design_wrapper(core, w) for w in range(1, max_width + 1)]
        assert [design_wrapper(core, w) for w in range(1, max_width + 1)] == plans
        if core.scan_chains:
            want = tuple(
                scan_test_time(p.scan_in_depth, p.scan_out_depth, core.scan_patterns)
                for p in plans
            )
            assert ScanTimeModel.for_core(core).times == want
    tasks = tasks_from_soc(soc)
    scan = [t for t in tasks if t.is_scan]
    budgets = sorted({0, 2 * len(scan) - 1, 2 * len(scan), 2 * len(scan) + 7, soc.test_pins,
                      2 * sum(t.max_width for t in scan) + 3})
    for size in (2, 3, len(tasks)):
        for start in range(0, max(1, len(tasks) - size + 1)):
            members = tasks[start:start + size]
            for pins in budgets:
                _same(members, pins)
