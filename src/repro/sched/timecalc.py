"""Test-time models.

The wrapped-core scan-test formula is the standard cycle-accurate model
(Iyengar/Chakrabarty/Marinissen) the whole TAM literature uses::

    T = (1 + max(si, so)) * p + min(si, so)

for ``p`` patterns through wrapper scan-in/out depths ``si``/``so``: each
pattern needs ``max(si, so)`` shift cycles (load of pattern *i* overlaps
unload of pattern *i-1*) plus one capture cycle, and the last response
needs a final ``min(si, so)`` flush (the shorter side finishes inside the
next-to-last overlap).  The pattern translator reproduces exactly these
cycle counts, and an integration test pins the two together.

Functional tests are cycle-based: one vector per tester cycle plus the
wrapper-programming preamble.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.soc.core import Core
from repro.wrapper.balance import design_wrapper, wrapper_cell_counts
from repro.wrapper.wir import WIR_BITS

#: Cycles to program one wrapper's WIR (shift opcode + update + select).
WIR_PROGRAM_CYCLES = WIR_BITS + 2

#: Cycles to reconfigure the chip between sessions (re-program WIRs,
#: switch TAM muxes, settle clocks).  Modelled, not published.
SESSION_RECONFIG_CYCLES = 32

#: Preamble cycles before a functional test (wrapper to FUNCTIONAL mode).
FUNCTIONAL_SETUP_CYCLES = WIR_PROGRAM_CYCLES


def scan_test_time(si: int, so: int, patterns: int) -> int:
    """Cycle count for a scan test through a wrapper (see module doc)."""
    if patterns <= 0:
        return 0
    return (1 + max(si, so)) * patterns + min(si, so)


def functional_test_time(patterns: int, setup: int = FUNCTIONAL_SETUP_CYCLES) -> int:
    """Cycle count for a cycle-based functional test."""
    if patterns <= 0:
        return 0
    return patterns + setup


#: Cap on the process-level scan-time-table cache (distinct core
#: structures, not chips — identical cores across a corpus share one
#: entry, so even a 10^5-chip sweep stays far below this unless every
#: chip's every core is structurally unique).
SCAN_TIME_CACHE_CAP = 4096

#: Process-level ``(core digest, patterns, max_width) -> ScanTimeModel``
#: LRU.  The per-``Core``-object memo dies with the object; a generated
#: corpus builds fresh ``Core`` instances for every chip even when the
#: structures repeat, and a ``repro.core.batch`` worker process outlives
#: thousands of chips — this cache makes each distinct core structure
#: pay for its ``design_wrapper`` sweep once per process, not once per
#: chip.
_SCAN_TIME_CACHE: OrderedDict[tuple[str, int, int], "ScanTimeModel"] = OrderedDict()
_SCAN_TIME_LOCK = threading.Lock()
_SCAN_TIME_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _core_structural_digest(core: Core) -> str:
    """The core's content digest (cached on the object): identical
    structures — however many times the generator rebuilds them —
    share one key.  The canonical form includes the core name, so two
    look-alike cores with different names never alias (a
    :class:`ScanTimeModel` records ``core_name`` and task/result
    equality depends on it)."""
    digest = core.__dict__.get("_canonical_digest")
    if digest is None:
        from repro.soc.digest import canonical_core, digest_document

        digest = core.__dict__["_canonical_digest"] = digest_document(
            canonical_core(core)
        )
    return digest


def scan_time_cache_stats() -> dict:
    """Counters for the process-level table cache (benchmark/test aid)."""
    with _SCAN_TIME_LOCK:
        return {
            **_SCAN_TIME_STATS,
            "entries": len(_SCAN_TIME_CACHE),
            "capacity": SCAN_TIME_CACHE_CAP,
        }


def clear_scan_time_cache() -> None:
    """Drop every process-level table and reset the counters (tests)."""
    with _SCAN_TIME_LOCK:
        _SCAN_TIME_CACHE.clear()
        _SCAN_TIME_STATS.update(hits=0, misses=0, evictions=0)


def core_scan_time(core: Core, width: int, patterns: int | None = None) -> int:
    """Scan test time of ``core`` at TAM width ``width``.

    Uses the balanced wrapper plan for that width; ``patterns`` defaults
    to the core's total scan pattern count.
    """
    if patterns is None:
        patterns = core.scan_patterns
    plan = design_wrapper(core, width)
    return scan_test_time(plan.scan_in_depth, plan.scan_out_depth, patterns)


@dataclass(frozen=True)
class ScanTimeModel:
    """Declarative ``width -> cycles`` model for one core's scan test.

    The monotone non-increasing time table is computed **once** per
    (core, patterns) pair — running :func:`design_wrapper` for every
    useful width up front — and stored as a plain tuple, so the model is

    * **picklable** — tasks and schedule results built from it cross
      process boundaries (the ``repro.core.batch`` process backend),
      unlike the closure-over-``Core`` + ``lru_cache`` it replaced, and
    * **O(1) in the scheduler hot loop** — the session local search
      re-evaluates ``task.time()`` thousands of times per chip; every
      call is a tuple index, never a wrapper redesign.

    ``times[w - 1]`` is the cycle count at TAM width ``w``; widths above
    the table clamp to the last entry (extra wires buy nothing past the
    task's own maximum useful width).
    """

    core_name: str
    patterns: int
    times: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError(
                f"scan-time model for {self.core_name!r} needs at least one width"
            )

    @classmethod
    def for_core(
        cls, core: Core, patterns: int | None = None, max_width: int | None = None
    ) -> "ScanTimeModel":
        """Precompute the table for ``core`` over widths ``1..max_width``
        (default: the core's largest useful scan width).

        Tables are memoized at two levels.  A memo **on the core
        object** (keyed by ``(patterns, max_width)``) makes repeat
        calls for a live core free.  Behind it, a **process-level LRU**
        keyed by the core's structural digest shares tables across
        *distinct but identical* core objects — the common case in
        corpus sweeps, where the generator rebuilds the same structures
        for every chip and a batch worker process integrates thousands
        of them.  Both levels assume the core's wrapper-relevant
        structure (ports, chains, core type) is not mutated between
        calls; the model itself is frozen, so sharing one instance
        across cores and threads is safe.
        """
        if patterns is None:
            patterns = core.scan_patterns
        if max_width is None:
            from repro.sched.tasks import scan_max_width

            max_width = scan_max_width(core)
        cache = core.__dict__.setdefault("_scan_time_models", {})
        key = (patterns, max_width)
        model = cache.get(key)
        if model is not None:
            return model
        shared_key = (_core_structural_digest(core), patterns, max_width)
        with _SCAN_TIME_LOCK:
            model = _SCAN_TIME_CACHE.get(shared_key)
            if model is not None:
                _SCAN_TIME_CACHE.move_to_end(shared_key)
                _SCAN_TIME_STATS["hits"] += 1
        if model is None:
            # the cell counts do not depend on the width: count once
            cells = wrapper_cell_counts(core)
            plans = (
                design_wrapper(core, width, _cells=cells)
                for width in range(1, max(1, max_width) + 1)
            )
            times = tuple(
                scan_test_time(plan.scan_in_depth, plan.scan_out_depth, patterns)
                for plan in plans
            )
            model = cls(core_name=core.name, patterns=patterns, times=times)
            with _SCAN_TIME_LOCK:
                _SCAN_TIME_STATS["misses"] += 1
                _SCAN_TIME_CACHE[shared_key] = model
                _SCAN_TIME_CACHE.move_to_end(shared_key)
                while len(_SCAN_TIME_CACHE) > SCAN_TIME_CACHE_CAP:
                    _SCAN_TIME_CACHE.popitem(last=False)
                    _SCAN_TIME_STATS["evictions"] += 1
        cache[key] = model
        return model

    @property
    def max_width(self) -> int:
        """Largest width the table covers (wider queries clamp to it)."""
        return len(self.times)

    def __call__(self, width: int) -> int:
        """Cycle count at TAM width ``width`` (clamped into the table)."""
        if width < 1:
            width = 1
        return self.times[min(width, len(self.times)) - 1]


def best_width_time(core: Core, max_width: int, patterns: int | None = None) -> tuple[int, int]:
    """(width, cycles) minimizing scan time with width <= ``max_width``.

    Scan time is non-increasing in width, so this is simply the time at
    ``max_width`` — but the function also returns the *smallest* width
    achieving that time (extra wires that buy nothing are wasted pins).

    Reads the precomputed (and corpus-wide memoized)
    :class:`ScanTimeModel` table instead of re-running
    ``design_wrapper`` per width: the first call per core structure
    pays for the sweep once; every later call — any ``max_width`` ≤ the
    table, any caller — is tuple indexing.
    """
    model = ScanTimeModel.for_core(core, patterns, max_width=max_width)
    best_time = model(max_width)
    width = max_width
    while width > 1 and model(width - 1) == best_time:
        width -= 1
    return width, best_time
