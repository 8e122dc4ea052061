"""Wrapper scan-chain balancing.

A wrapped core's test time is governed by its longest wrapper chain, so
the generator must partition the core's internal scan chains plus its
boundary cells into ``w`` balanced wrapper chains (the classic
*Design_wrapper* problem).  The paper's scheduler additionally
"rebalances scan chains for each assigned TAM width" for soft cores.

Provided algorithms:

* :func:`partition_greedy` — longest-processing-time/best-fit-decreasing
  heuristic (sort descending, place on least-loaded chain); the standard
  Design_wrapper heuristic.
* :func:`partition_optimal` — exact branch-and-bound minimizing the max
  chain length; exponential, intended for small instances and for
  validating the heuristic in tests.
* :func:`design_wrapper` — the full flow: internal chains (re-stitched
  for soft cores), then wrapper input/output cells distributed to balance
  scan-in/scan-out lengths separately.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.soc.core import Core
from repro.soc.scan import rebalance_lengths
from repro.util import check_positive


def partition_greedy(lengths: list[int], width: int) -> list[list[int]]:
    """Partition item indices into ``width`` bins, minimizing max load
    (LPT/BFD heuristic).  Returns bins of item indices (some may be
    empty); deterministic for reproducibility.

    The least-loaded bin comes off a heap keyed ``(load, bin)``, so ties
    go to the lowest bin index.
    """
    check_positive(width, "partition width")
    bins: list[list[int]] = [[] for _ in range(width)]
    heap = [(0, b) for b in range(width)]  # sorted, hence already a heap
    for index in sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)):
        load, target = heap[0]
        bins[target].append(index)
        heapq.heapreplace(heap, (load + lengths[index], target))
    return bins


def partition_optimal(lengths: list[int], width: int, node_limit: int = 200_000) -> list[list[int]]:
    """Exact minimum-makespan partition via branch-and-bound.

    Sorted-descending DFS with two prunes: (a) bound the partial makespan
    by the best complete solution found, (b) skip equal-load bins
    (symmetry).  Falls back to the greedy answer if ``node_limit`` is
    exhausted (guards pathological inputs in property tests).
    """
    check_positive(width, "partition width")
    n = len(lengths)
    if n == 0:
        return [[] for _ in range(width)]
    order = sorted(range(n), key=lambda i: (-lengths[i], i))
    best_bins = partition_greedy(lengths, width)
    best_makespan = max((sum(lengths[i] for i in b) for b in best_bins), default=0)
    lower = max(max(lengths, default=0), (sum(lengths) + width - 1) // width)
    if best_makespan == lower:
        return best_bins
    assign = [0] * n
    loads = [0] * width
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal best_makespan, nodes
        if nodes > node_limit:
            return True  # abort: keep best found so far
        nodes += 1
        if pos == n:
            makespan = max(loads)
            if makespan < best_makespan:
                best_makespan = makespan
                for i in range(n):
                    best_bins_flat[order[i]] = assign[i]
            return best_makespan == lower
        item = lengths[order[pos]]
        seen_loads: set[int] = set()
        for b in range(width):
            if loads[b] in seen_loads:
                continue  # symmetric bin
            seen_loads.add(loads[b])
            if loads[b] + item >= best_makespan:
                continue
            loads[b] += item
            assign[pos] = b
            if dfs(pos + 1):
                loads[b] -= item
                return True
            loads[b] -= item
        return False

    best_bins_flat = [0] * n
    for b, items in enumerate(best_bins):
        for i in items:
            best_bins_flat[i] = b
    dfs(0)
    result: list[list[int]] = [[] for _ in range(width)]
    for i, b in enumerate(best_bins_flat):
        result[b].append(i)
    return result


@dataclass
class WrapperChain:
    """One wrapper chain: some internal scan chains plus boundary cells.

    ``in_length`` (scan-in depth) counts input cells + internal flops;
    ``out_length`` counts internal flops + output cells.
    """

    internal_chains: list[str] = field(default_factory=list)
    internal_length: int = 0
    input_cells: int = 0
    output_cells: int = 0

    @property
    def in_length(self) -> int:
        return self.input_cells + self.internal_length

    @property
    def out_length(self) -> int:
        return self.internal_length + self.output_cells

    @property
    def total_cells(self) -> int:
        """Flops on this wrapper chain (input cells + internal + output)."""
        return self.input_cells + self.internal_length + self.output_cells


@dataclass
class WrapperPlan:
    """A complete wrapper-chain assignment for one core at one TAM width."""

    core_name: str
    width: int
    chains: list[WrapperChain]
    rebalanced: bool = False

    @property
    def scan_in_depth(self) -> int:
        """si: the longest wrapper scan-in path."""
        return max((c.in_length for c in self.chains), default=0)

    @property
    def scan_out_depth(self) -> int:
        """so: the longest wrapper scan-out path."""
        return max((c.out_length for c in self.chains), default=0)

    @property
    def boundary_cells(self) -> int:
        """Total wrapper boundary cells in the plan."""
        return sum(c.input_cells + c.output_cells for c in self.chains)


def wrapper_cell_counts(core: Core) -> tuple[int, int]:
    """(input cells, output cells) a wrapper needs for ``core``.

    One cell per functional bit; INOUT pads get an output-side
    observation cell only (their drive side rides the mission
    interconnect) — the same accounting
    :func:`repro.wrapper.generator.generate_wrapper` stitches, so plans
    and generated netlists always agree.
    """
    from repro.soc.ports import Direction, SignalKind

    n_in = n_out = 0
    for port in core.ports:
        if port.kind is not SignalKind.FUNCTIONAL:
            continue
        if port.direction is Direction.IN:
            n_in += port.width
        else:
            n_out += port.width
    return n_in, n_out


def _water_fill(bases: list[int], cells: int) -> list[int]:
    """Cells per chain when ``cells`` unit cells are placed one at a time
    on the chain of lowest ``base + cells so far`` (lowest index on ties).

    Closed form of that loop: every chain is filled up to the level
    ``L``, the largest one with ``sum(max(0, L - base)) <= cells``, and
    the remainder (fewer than the chains at ``L``) goes one each to the
    lowest-index chains whose base is ``<= L``.  The loop never lifts a
    chain above ``L`` while another sits below it, and among chains at
    ``L`` it picks the lowest index first, so the two agree exactly.

    >>> _water_fill([10, 5], 4)
    [0, 4]
    >>> _water_fill([3, 3], 3)
    [2, 1]
    """
    if cells <= 0:
        return [0] * len(bases)
    ordered = sorted(bases)
    prefix = 0
    for k, base in enumerate(ordered, 1):
        prefix += base
        level = (cells + prefix) // k
        if k == len(ordered) or level < ordered[k]:
            break
    spare = cells + prefix - k * level
    fill = []
    for base in bases:
        if base > level:
            fill.append(0)
        elif spare:
            fill.append(level - base + 1)
            spare -= 1
        else:
            fill.append(level - base)
    return fill


def design_wrapper(
    core: Core,
    width: int,
    exact: bool = False,
    *,
    _cells: tuple[int, int] | None = None,
) -> WrapperPlan:
    """Build a balanced wrapper plan for ``core`` with ``width`` TAM wires.

    Internal scan chains are re-stitched into ``width`` balanced chains
    for soft cores, or partitioned (greedy or exact) for hard cores.
    Wrapper input/output cells (one per functional input/output bit) are
    then distributed to equalize scan-in and scan-out depths.

    ``_cells`` is :func:`wrapper_cell_counts` of ``core`` when the
    caller already has it (a width sweep counts once, not per width).
    """
    check_positive(width, "TAM width")
    n_in_cells, n_out_cells = wrapper_cell_counts(core) if _cells is None else _cells

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
    # output cells balance scan-out depth (independent greedy passes,
    # both filling on top of the internal lengths)
    bases = [c.internal_length for c in chains]
    for chain, cells in zip(chains, _water_fill(bases, n_in_cells)):
        chain.input_cells = cells
    for chain, cells in zip(chains, _water_fill(bases, n_out_cells)):
        chain.output_cells = cells

    return WrapperPlan(core_name=core.name, width=width, chains=chains, rebalanced=rebalanced)
