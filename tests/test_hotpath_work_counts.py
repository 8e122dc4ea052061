"""Exact work counts of the wrapper-sweep and netlist-build hot paths.

Counts, not timings: each test patches a module attribute with a
counter and asserts the number of calls exactly, so the regressions they
catch (a per-width recount, a re-validated net name) can never hide in
timing noise.
"""

from collections import Counter

import pytest

import repro.netlist.netlist as netlist_mod
import repro.sched.timecalc as timecalc
import repro.wrapper.balance as balance
from repro.core import FlowContext, Pipeline, SteacConfig
from repro.netlist import Module
from repro.sched import ScanTimeModel, clear_scan_time_cache, scan_time_cache_stats
from repro.soc.dsc import build_usb_core
from repro.soc.itc02 import d695_soc


def _counting(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_for_core_miss_counts_wrapper_cells_once(monkeypatch):
    calls = Counter()
    counter = _counting(calls, "cells", balance.wrapper_cell_counts)
    monkeypatch.setattr(balance, "wrapper_cell_counts", counter)
    monkeypatch.setattr(timecalc, "wrapper_cell_counts", counter)
    monkeypatch.setattr(
        timecalc, "design_wrapper", _counting(calls, "design", timecalc.design_wrapper)
    )
    clear_scan_time_cache()
    model = ScanTimeModel.for_core(build_usb_core())
    assert model.max_width > 1
    assert scan_time_cache_stats()["misses"] == 1
    # the sweep runs design_wrapper once per width but counts cells once
    assert calls == {"cells": 1, "design": model.max_width}
    # a structurally identical core hits the process cache: no work
    assert ScanTimeModel.for_core(build_usb_core()) == model
    assert calls == {"cells": 1, "design": model.max_width}


def test_d695_netlist_checks_each_name_once_per_module(monkeypatch):
    ctx = FlowContext(soc=d695_soc(), config=SteacConfig())
    Pipeline.default().until("schedule").run(ctx)
    calls = Counter()
    monkeypatch.setattr(
        netlist_mod, "check_name", _counting(calls, "check", netlist_mod.check_name)
    )
    Pipeline.default().since("insert_dft").until("insert_dft").run(ctx)
    modules = ctx.netlist.modules.values()
    distinct = sum(
        1  # the module name
        + len(m.ports)
        + len(m.nets - {p.name for p in m.ports})
        + len(m.instances)
        for m in modules
    )
    assert calls["check"] == distinct


def test_redeclared_net_is_not_rechecked(monkeypatch):
    m = Module("m")
    calls = Counter()
    monkeypatch.setattr(
        netlist_mod, "check_name", _counting(calls, "check", netlist_mod.check_name)
    )
    for _ in range(3):
        m.add_net("n1")
    m.add_instance("u0", "INV", A="n1", Y="n2")
    m.add_instance("u1", "INV", A="n2", Y="n1")
    # n1, n2, u0, u1 — one check each
    assert calls["check"] == 4


def test_port_may_reuse_a_declared_net_name():
    m = Module("m")
    m.add_net("a")
    m.add_input("a")
    assert [p.name for p in m.ports] == ["a"]
    with pytest.raises(ValueError):
        m.add_input("a")


@pytest.mark.parametrize("bad", ["1abc", "a b", "", "a-b"])
def test_invalid_names_raise_through_every_entry_point(bad):
    m = Module("m")
    with pytest.raises(ValueError, match="invalid port name"):
        m.add_input(bad)
    for _ in range(2):  # a rejected net is not remembered as checked
        with pytest.raises(ValueError, match="invalid net name"):
            m.add_net(bad)
    with pytest.raises(ValueError, match="invalid instance name"):
        m.add_instance(bad, "INV", A="x", Y="y")
    with pytest.raises(ValueError, match="invalid net name"):
        m.add_instance("u0", "INV", A=bad, Y="y")
    assert bad not in m.nets
