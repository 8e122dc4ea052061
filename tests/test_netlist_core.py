"""Tests for the netlist model: modules, instances, area, validation,
flattening and the Verilog writer."""

import pytest

from repro.netlist import (
    LIBRARY,
    Module,
    Netlist,
    PortDir,
    cell,
    flatten,
    module_to_verilog,
    netlist_to_verilog,
)


def make_half_adder() -> Module:
    m = Module("half_adder")
    m.add_input("a")
    m.add_input("b")
    m.add_output("s")
    m.add_output("c")
    m.add_instance("u_xor", "XOR2", A="a", B="b", Y="s")
    m.add_instance("u_and", "AND2", A="a", B="b", Y="c")
    return m


class TestLibrary:
    def test_nand2_is_unit_area(self):
        assert cell("NAND2").area == 1.0

    def test_lookup_missing_raises(self):
        with pytest.raises(KeyError):
            cell("FOO99")

    def test_sequential_flags(self):
        assert cell("DFF").sequential
        assert not cell("NAND2").sequential

    def test_cell_functions(self):
        nand = cell("NAND2")
        assert nand.func(1, 1) == 0
        assert nand.func(0, 1) == 1
        mux = cell("MUX2")
        assert mux.func(0, 1, 0) == 0
        assert mux.func(0, 1, 1) == 1
        # X select with agreeing inputs stays known
        assert mux.func(1, 1, 2) == 1
        assert mux.func(0, 1, 2) == 2

    def test_all_comb_cells_have_funcs(self):
        for c in LIBRARY.values():
            if not c.sequential:
                assert c.func is not None


class TestModule:
    def test_ports_and_nets(self):
        m = make_half_adder()
        assert m.input_ports == ["a", "b"]
        assert m.output_ports == ["s", "c"]
        assert "a" in m.nets

    def test_duplicate_port_rejected(self):
        m = Module("m")
        m.add_input("a")
        m.add_output("b")
        with pytest.raises(ValueError, match="duplicate port 'a'"):
            m.add_output("a")
        with pytest.raises(ValueError, match="duplicate port 'b'"):
            m.add_port("b", PortDir.OUT)
        assert [p.name for p in m.ports] == ["a", "b"]

    def test_duplicate_instance_rejected(self):
        m = make_half_adder()
        with pytest.raises(ValueError):
            m.add_instance("u_xor", "XOR2", A="a", B="b", Y="x")

    def test_instance_lookup(self):
        m = make_half_adder()
        assert m.instance("u_xor").ref == "XOR2"
        with pytest.raises(KeyError):
            m.instance("nope")

    def test_area(self):
        m = make_half_adder()
        assert m.area() == pytest.approx(2.5 + 1.5)

    def test_cell_counts(self):
        counts = make_half_adder().cell_counts()
        assert counts == {"XOR2": 1, "AND2": 1}


class TestValidate:
    def test_clean_module(self):
        assert make_half_adder().validate() == []

    def test_multiple_drivers_detected(self):
        m = make_half_adder()
        m.add_instance("u_bad", "INV", A="a", Y="s")  # s already driven
        assert any("multiple drivers" in p for p in m.validate())

    def test_undriven_output_detected(self):
        m = Module("m")
        m.add_input("a")
        m.add_output("y")
        assert any("undriven" in p for p in m.validate())

    def test_unknown_pin_detected(self):
        m = Module("m")
        m.add_input("a")
        m.add_output("y")
        m.add_instance("u0", "INV", A="a", Y="y", Z="a")
        assert any("no pin" in p for p in m.validate())

    def test_unconnected_input_detected(self):
        m = Module("m")
        m.add_input("a")
        m.add_output("y")
        m.add_instance("u0", "AND2", A="a", Y="y")
        assert any("unconnected" in p for p in m.validate())


class TestNetlist:
    def test_top_defaults_to_first(self):
        nl = Netlist()
        nl.add(make_half_adder())
        assert nl.top.name == "half_adder"

    def test_duplicate_module_rejected(self):
        nl = Netlist()
        nl.add(make_half_adder())
        with pytest.raises(ValueError):
            nl.add(make_half_adder())

    def test_hierarchical_area(self):
        nl = Netlist()
        nl.add(make_half_adder())
        top = Module("top")
        top.add_input("x")
        top.add_input("y")
        top.add_output("s")
        top.add_output("c")
        top.add_instance("u_ha", "half_adder", a="x", b="y", s="s", c="c")
        nl.add(top)
        nl.top_name = "top"
        assert nl.area() == pytest.approx(4.0)

    def test_empty_netlist_top_raises(self):
        with pytest.raises(ValueError):
            Netlist().top


class TestFlatten:
    def _hier(self) -> Netlist:
        nl = Netlist()
        nl.add(make_half_adder())
        top = Module("top")
        for p in ("x", "y"):
            top.add_input(p)
        for p in ("s0", "c0", "s1", "c1"):
            top.add_output(p)
        top.add_instance("u0", "half_adder", a="x", b="y", s="s0", c="c0")
        top.add_instance("u1", "half_adder", a="x", b="y", s="s1", c="c1")
        nl.add(top)
        nl.top_name = "top"
        return nl

    def test_flatten_counts(self):
        flat = flatten(self._hier())
        assert len(flat.instances) == 4
        assert flat.area() == pytest.approx(8.0)

    def test_flatten_prefixes_names(self):
        flat = flatten(self._hier())
        names = {i.name for i in flat.instances}
        assert "u0.u_xor" in names and "u1.u_and" in names

    def test_flatten_preserves_ports(self):
        flat = flatten(self._hier())
        assert set(flat.input_ports) == {"x", "y"}
        assert set(flat.output_ports) == {"s0", "c0", "s1", "c1"}

    def test_flat_module_validates(self):
        flat = flatten(self._hier())
        assert flat.validate() == []


class TestVerilog:
    def test_module_text(self):
        text = module_to_verilog(make_half_adder())
        assert "module half_adder" in text
        assert "XOR2 u_xor" in text
        assert text.strip().endswith("endmodule")

    def test_netlist_text_top_last(self):
        nl = Netlist()
        nl.add(make_half_adder())
        text = netlist_to_verilog(nl)
        assert "top: half_adder" in text

    def test_stubs_included(self):
        nl = Netlist()
        nl.add(make_half_adder())
        text = netlist_to_verilog(nl, include_stubs=True)
        assert "module XOR2" in text
        assert "area: 2.5" in text

    def test_escaped_identifiers(self):
        m = Module("m")
        m.add_input("data[0]")
        m.add_output("y")
        m.add_instance("u0", "INV", A="data[0]", Y="y")
        text = module_to_verilog(m)
        assert "\\data[0] " in text
