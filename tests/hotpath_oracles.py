"""Differential oracles for the wrapper-balancing and width-grant hot paths.

Verbatim copies of the straightforward implementations the library used
before its closed-form / heap versions: the per-cell boundary loop of
``design_wrapper``, the ``min``-scan ``partition_greedy`` and the
re-sorting ``assign_widths``.  ``tests/test_hotpath_differential.py``
requires the library to return exactly what these return (same values,
same dict insertion order, same ``None``).  They live here, not in
``src/``, because no product code may call them; ``repro.sched.session_ref``
cannot serve as the ``assign_widths`` oracle since it imports
``build_session`` (and hence ``assign_widths``) from the engine under test.
"""

from __future__ import annotations

from typing import Optional

from repro.sched.result import TestTask
from repro.soc.core import Core
from repro.soc.scan import rebalance_lengths
from repro.util import check_positive
from repro.wrapper.balance import (
    WrapperChain,
    WrapperPlan,
    partition_optimal,
    wrapper_cell_counts,
)


def partition_greedy(lengths: list[int], width: int) -> list[list[int]]:
    """Partition item indices into ``width`` bins, minimizing max load
    (LPT/BFD heuristic).  Returns bins of item indices (some may be
    empty); deterministic for reproducibility."""
    check_positive(width, "partition width")
    bins: list[list[int]] = [[] for _ in range(width)]
    loads = [0] * width
    for index in sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)):
        target = min(range(width), key=lambda b: (loads[b], b))
        bins[target].append(index)
        loads[target] += lengths[index]
    return bins


def design_wrapper(core: Core, width: int, exact: bool = False) -> WrapperPlan:
    """Build a balanced wrapper plan for ``core`` with ``width`` TAM wires.

    Internal scan chains are re-stitched into ``width`` balanced chains
    for soft cores, or partitioned (greedy or exact) for hard cores.
    Wrapper input/output cells (one per functional input/output bit) are
    then distributed to equalize scan-in and scan-out depths.
    """
    check_positive(width, "TAM width")
    n_in_cells, n_out_cells = wrapper_cell_counts(core)

    chains = [WrapperChain() for _ in range(width)]
    rebalanced = False
    if core.scan_chains:
        if core.is_soft:
            new_lengths = rebalance_lengths(core.scan_flops, width)
            for i, length in enumerate(new_lengths):
                chains[i].internal_chains.append(f"{core.name}_rebal{i}")
                chains[i].internal_length = length
            rebalanced = True
        else:
            lengths = core.chain_lengths
            partition = (
                partition_optimal(lengths, width) if exact else partition_greedy(lengths, width)
            )
            for b, items in enumerate(partition):
                for i in items:
                    chains[b].internal_chains.append(core.scan_chains[i].name)
                    chains[b].internal_length += lengths[i]

    # distribute boundary cells: input cells balance scan-in depth,
    # output cells balance scan-out depth (independent greedy passes)
    for _ in range(n_in_cells):
        target = min(chains, key=lambda c: c.in_length)
        target.input_cells += 1
    for _ in range(n_out_cells):
        target = min(chains, key=lambda c: c.out_length)
        target.output_cells += 1

    return WrapperPlan(core_name=core.name, width=width, chains=chains, rebalanced=rebalanced)


def assign_widths(tasks: list[TestTask], data_pins: int) -> Optional[dict[str, int]]:
    """Assign TAM wire pairs to the scan tasks of one session.

    A width-``w`` connection costs ``2w`` data pins (w in + w out).
    Returns task-name → width, or ``None`` if the scan tasks cannot all
    get at least one wire pair.
    """
    scan_tasks = [t for t in tasks if t.is_scan]
    if not scan_tasks:
        return {}
    pairs = data_pins // 2
    if pairs < len(scan_tasks):
        return None
    widths = {t.name: 1 for t in scan_tasks}
    remaining = pairs - len(scan_tasks)
    while remaining > 0:
        # the session is as long as its slowest member: widen that one
        order = sorted(scan_tasks, key=lambda t: -t.time(widths[t.name]))
        granted = False
        for task in order:
            w = widths[task.name]
            current = task.time(w)
            # smallest extra wires that actually shorten this task
            for extra in range(1, remaining + 1):
                if w + extra > task.max_width:
                    break
                if task.time(w + extra) < current:
                    widths[task.name] = w + extra
                    remaining -= extra
                    granted = True
                    break
            if granted:
                break
            if task is order[0] and w >= task.max_width:
                # critical task saturated: no grant can shorten the session
                return widths
        if not granted:
            break
    return widths
