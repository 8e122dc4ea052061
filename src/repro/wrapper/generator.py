"""Gate-level wrapper generation ("Wrapper Generator" in paper Fig. 1).

Builds a wrapper module around a core: WBC cells on every functional IO
bit, wrapper chains per the balance plan, a WIR, a WBY, and the serial /
parallel access plumbing.  The core itself is instantiated by reference —
a blackbox for real IPs, or a real module (for simulation-based
verification in the tests).

Wrapper ports:

* chip-side functional mirrors of the core's functional IOs (bit-expanded);
* pass-throughs for the core's control/test pins (clock, reset, SE, TE,
  dedicated test signals);
* the IEEE-1500-style serial interface ``wsi, wso, wrck, selectwir,
  shiftwr, capturewr, updatewr``;
* the parallel TAM interface ``wpi0..wpi{w-1}`` / ``wpo0..wpo{w-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist import Module, Netlist
from repro.netlist.cells import LIBRARY
from repro.soc.core import Core
from repro.soc.ports import Direction, SignalKind
from repro.soc.bits import expand_port_bits
from repro.wrapper.balance import WrapperPlan, design_wrapper
from repro.wrapper.cells import make_wbc_cell, make_wby_cell
from repro.wrapper.wir import WrapperInstruction, make_wir


@dataclass
class GeneratedWrapper:
    """Result of :func:`generate_wrapper`."""

    module: Module
    plan: WrapperPlan
    wbc_count: int

    def area(self, netlist: Netlist) -> float:
        """Wrapper area excluding the wrapped core itself.

        Each sub-module's area is computed once per call, not once per
        instance (a wrapper instantiates ``WBC`` once per boundary bit).
        """
        module_area: dict[str, float] = {}
        total = 0.0
        for inst in self.module.instances:
            if inst.ref == self.plan.core_name:
                continue
            if inst.ref in netlist.modules:
                if inst.ref not in module_area:
                    module_area[inst.ref] = netlist.module(inst.ref).area(netlist)
                total += module_area[inst.ref]
            elif inst.ref in LIBRARY:
                total += LIBRARY[inst.ref].area
        return total


def generate_wrapper(
    core: Core,
    netlist: Netlist,
    width: int = 1,
    plan: WrapperPlan | None = None,
) -> GeneratedWrapper:
    """Generate the wrapper module for ``core`` and add it to ``netlist``.

    Shared cells (``WBC``, ``WBY``, ``WIR``) are added to the netlist once
    and instantiated per use.
    """
    if plan is None:
        plan = design_wrapper(core, width)
    for maker, ref in ((make_wbc_cell, "WBC"), (make_wby_cell, "WBY"), (make_wir, "WIR")):
        if ref not in netlist.modules:
            netlist.add(maker(ref))

    m = Module(f"{core.name}_wrapper")
    # -- ports ---------------------------------------------------------------
    serial_ports = ("wsi", "wrck", "selectwir", "shiftwr", "capturewr", "updatewr")
    for port in serial_ports:
        m.add_input(port)
    m.add_output("wso")
    for k in range(plan.width):
        m.add_input(f"wpi{k}")
        m.add_output(f"wpo{k}")
    m.add_input("parallel_sel")  # INTEST_PARALLEL vs serial chain feed

    core_conns: dict[str, str] = {}
    in_bits: list[str] = []
    out_bits: list[str] = []
    for port in core.ports:
        bits = expand_port_bits(port)
        if port.kind is SignalKind.FUNCTIONAL:
            if port.direction is Direction.IN:
                for bit in bits:
                    m.add_input(bit)
                    in_bits.append(bit)
            else:
                for bit in bits:
                    m.add_output(bit)
                    out_bits.append(bit)
        elif port.kind in (SignalKind.SCAN_IN, SignalKind.SCAN_OUT):
            # internal scan IO stays inside the wrapper (net per bit)
            for bit in bits:
                m.add_net(f"n_core_{bit}")
        else:
            # control/test pins pass straight through
            for bit in bits:
                m.add_input(bit)
                core_conns[bit] = bit

    # -- WIR -------------------------------------------------------------------
    wir_conns = {p: p for p in ("wsi", "wrck", "selectwir", "shiftwr", "updatewr")}
    wir_conns["wso"] = "n_wir_so"
    for instr in WrapperInstruction:
        wir_conns[f"dec_{instr.name}"] = f"n_dec_{instr.name}"
    m.add_instance("u_wir", "WIR", **wir_conns)

    # mode/safe/shift controls derived from the decoded instruction
    m.add_instance(
        "u_mode_or1", "OR2",
        A=f"n_dec_{WrapperInstruction.INTEST_SCAN.name}",
        B=f"n_dec_{WrapperInstruction.INTEST_PARALLEL.name}",
        Y="n_intest",
    )
    m.add_instance(
        "u_mode_or2", "OR2",
        A="n_intest",
        B=f"n_dec_{WrapperInstruction.EXTEST.name}",
        Y="n_test_mode",
    )
    m.add_instance(
        "u_safe_buf", "BUF", A=f"n_dec_{WrapperInstruction.SAFE.name}", Y="n_safe_en"
    )
    m.add_instance("u_nsel_inv", "INV", A="selectwir", Y="n_sel_wr")
    m.add_instance("u_shift_dr", "AND2", A="shiftwr", B="n_sel_wr", Y="n_shift_dr")
    m.add_instance("u_capture_dr", "AND2", A="capturewr", B="n_sel_wr", Y="n_capture_dr")
    m.add_instance("u_update_dr", "AND2", A="updatewr", B="n_sel_wr", Y="n_update_dr")

    # -- WBY ---------------------------------------------------------------------
    m.add_instance("u_wby", "WBY", wsi="wsi", wrck="wrck", wso="n_wby_so")

    # -- wrapper chains -------------------------------------------------------------
    chain_by_name = {c.name: c for c in core.scan_chains}
    in_iter = iter(in_bits)
    out_iter = iter(out_bits)
    serial_prev = "wsi"
    chain_tails: list[str] = []
    wbc_count = 0
    for k, chain in enumerate(plan.chains):
        head = m.add_net(f"n_ch{k}_head")
        m.add_instance(
            f"u_ch{k}_src", "MUX2", D0="n_serial_prev_" + str(k), D1=f"wpi{k}", S="parallel_sel",
            Y=head,
        )
        m.add_instance(f"u_ch{k}_serbuf", "BUF", A=serial_prev, Y=f"n_serial_prev_{k}")
        cursor = head
        # input cells first
        for i in range(chain.input_cells):
            bit = next(in_iter)
            cto = m.add_net(f"n_ch{k}_i{i}_cto")
            m.add_instance(
                f"u_wbc_{bit}", "WBC",
                cfi=bit, cti=cursor, wrck="wrck",
                shift="n_shift_dr", capture="n_capture_dr", update="n_update_dr",
                mode="n_test_mode", safe_en="n_safe_en",
                cfo=f"n_core_{bit}", cto=cto,
            )
            core_conns[bit] = f"n_core_{bit}"
            cursor = cto
            wbc_count += 1
        # then the internal chains (through the core)
        if plan.rebalanced:
            # soft core: one synthesized chain per wrapper chain; the
            # re-stitched core exposes si/so per wrapper chain index
            if chain.internal_length > 0:
                si_net = f"n_core_rebal_si{k}"
                so_net = f"n_core_rebal_so{k}"
                m.add_net(si_net)
                m.add_net(so_net)
                m.add_instance(f"u_ch{k}_si", "BUF", A=cursor, Y=si_net)
                core_conns[f"rebal_si{k}"] = si_net
                core_conns[f"rebal_so{k}"] = so_net
                cursor = so_net
        else:
            for name in chain.internal_chains:
                ichain = chain_by_name[name]
                # a chain whose scan-out shares a functional output pin
                # simply taps the same core net the output WBC taps
                si_net = m.add_net(f"n_core_{ichain.scan_in}_drv")
                so_net = m.add_net(f"n_core_{ichain.scan_out}")
                m.add_instance(f"u_{name}_si", "BUF", A=cursor, Y=si_net)
                core_conns[ichain.scan_in] = si_net
                core_conns[ichain.scan_out] = so_net
                cursor = so_net
        # output cells last
        for i in range(chain.output_cells):
            bit = next(out_iter)
            cto = m.add_net(f"n_ch{k}_o{i}_cto")
            m.add_instance(
                f"u_wbc_{bit}", "WBC",
                cfi=f"n_core_{bit}", cti=cursor, wrck="wrck",
                shift="n_shift_dr", capture="n_capture_dr", update="n_update_dr",
                mode="n_test_mode", safe_en="n_safe_en",
                cfo=bit, cto=cto,
            )
            core_conns[bit] = f"n_core_{bit}"
            cursor = cto
            wbc_count += 1
        m.add_instance(f"u_ch{k}_wpo", "BUF", A=cursor, Y=f"wpo{k}")
        chain_tails.append(cursor)
        serial_prev = cursor

    # -- WSO selection: WIR when selectwir, else bypass vs chain tail -----------
    last_tail = chain_tails[-1] if chain_tails else "n_wby_so"
    m.add_instance(
        "u_wso_mux1", "MUX2",
        D0=last_tail, D1="n_wby_so", S=f"n_dec_{WrapperInstruction.BYPASS.name}",
        Y="n_wso_dr",
    )
    m.add_instance("u_wso_mux2", "MUX2", D0="n_wso_dr", D1="n_wir_so", S="selectwir", Y="wso")

    # -- the core itself -----------------------------------------------------------
    # functional outputs come straight from the core (output WBCs tap them)
    for bit in out_bits:
        core_conns.setdefault(bit, f"n_core_{bit}")
    for bit in in_bits:
        core_conns.setdefault(bit, f"n_core_{bit}")
    # shared scan-out chains: the core drives the shared functional net,
    # already mapped above via core_conns[chain.scan_out]
    m.add_instance("u_core", core.name, **core_conns)

    netlist.add(m)
    return GeneratedWrapper(module=m, plan=plan, wbc_count=wbc_count)
