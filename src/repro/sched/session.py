"""Session-based test scheduling (the paper's core contribution).

"The Scheduler partitions core tests into several test sessions, and
assigns the TAM wires to each core to meet the power and IO resource
constraints" (Section 2).  A *session* is a set of tests that run
concurrently; the chip is reconfigured between sessions, so control pins
are only needed for the session's members — the whole reason
session-based scheduling beats non-session scheduling under tight IO
budgets (Section 3).

Algorithm: for each candidate session count ``k``, seed with a
longest-first greedy placement, then improve with first-improvement
local search (single-task moves and pairwise swaps).  Width assignment
inside a session is exact given the membership: wires go to the critical
(longest) scan task until it stops improving.

The search is **incremental**: a candidate move touches exactly two
sessions, so only those two memberships are re-evaluated (through a
memo keyed by ordered membership — the greedy seed's k-way trial
placement and the O(n²) swap neighborhood revisit identical memberships
constantly) and the running makespan is updated by delta instead of
re-summed.  The candidate-``k`` loop and the local-search rounds are
additionally pruned against the five-floor session lower bound
(:func:`repro.sched.bounds.session_schedule_floor`): once the incumbent
reaches the floor, nothing can *strictly* improve, so stopping early
cannot change the answer.  The pre-incremental search is retained in
:mod:`repro.sched.session_ref` as the differential-test oracle — the
two engines are bit-identical by construction and by test.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.obs import METRICS, span
from repro.sched.bounds import session_schedule_floor
from repro.sched.ioalloc import SharingPolicy, control_pins
from repro.sched.power import fits_power_budget
from repro.sched.result import ScheduledTest, ScheduleResult, Session, TestTask
from repro.sched.timecalc import SESSION_RECONFIG_CYCLES
from repro.soc.soc import Soc


class InfeasibleScheduleError(ValueError):
    """Raised when no feasible schedule exists for the given resources."""


# Search telemetry (see repro.obs): the hot loop counts into plain local
# ints and flushes here once per scheduling run, so the instrumented
# path costs additions, not lock round-trips.
_M_RUNS = METRICS.counter("sched.runs", "session-search invocations")
_M_ROUNDS = METRICS.counter("sched.rounds", "local-search improvement rounds run")
_M_MOVES = METRICS.counter(
    "sched.moves.evaluated", "single-task moves and pairwise swaps evaluated"
)
_M_MOVES_PRUNED = METRICS.counter(
    "sched.moves.pruned",
    "neighborhood moves skipped because the incumbent hit session_schedule_floor",
)
_M_CANDIDATES_PRUNED = METRICS.counter(
    "sched.candidates.pruned",
    "candidate session counts skipped once the incumbent hit the floor",
)
_M_FLOOR_EXITS = METRICS.counter(
    "sched.floor_exits", "local-search terminations by reason"
)
for _reason in ("floor", "converged", "max_rounds"):
    _M_FLOOR_EXITS.inc(0, reason=_reason)
_M_MEMO_HITS = METRICS.counter(
    "cache.evaluator_memo.hits", "session-evaluator membership-memo hits"
)
_M_MEMO_MISSES = METRICS.counter(
    "cache.evaluator_memo.misses", "session-evaluator membership-memo misses"
)


def assign_widths(tasks: list[TestTask], data_pins: int) -> Optional[dict[str, int]]:
    """Assign TAM wire pairs to the scan tasks of one session.

    A width-``w`` connection costs ``2w`` data pins (w in + w out).
    Returns task-name → width, or ``None`` if the scan tasks cannot all
    get at least one wire pair.

    The session is as long as its slowest member, so each grant goes to
    the longest task (membership order on ties) that some extra wires
    shorten, and it gets the fewest wires that do.  Tasks sit on a heap
    keyed ``(-time, membership index)``.  A task the top of the heap
    cannot grant is dropped for good: its width no longer changes and
    ``remaining`` only shrinks, so no later grant can shorten it either.
    A grant only raises its task's key, so the first task dropped keeps
    the smallest key and stays the critical task: if it is saturated
    nothing can shorten the session and the grants stop; otherwise that
    exit can never fire again.
    """
    scan_tasks = [t for t in tasks if t.is_scan]
    if not scan_tasks:
        return {}
    pairs = data_pins // 2
    if pairs < len(scan_tasks):
        return None
    widths = {t.name: 1 for t in scan_tasks}
    remaining = pairs - len(scan_tasks)
    heap = [(-t.time(1), i) for i, t in enumerate(scan_tasks)]
    heapq.heapify(heap)
    dropped = False
    while remaining > 0 and heap:
        neg_time, i = heap[0]
        task = scan_tasks[i]
        w = widths[task.name]
        # smallest extra wires that actually shorten this task
        for extra in range(1, min(remaining, task.max_width - w) + 1):
            if task.time(w + extra) < -neg_time:
                widths[task.name] = w + extra
                remaining -= extra
                heapq.heapreplace(heap, (-task.time(w + extra), i))
                break
        else:
            if not dropped and w >= task.max_width:
                # critical task saturated: no grant can shorten the session
                return widths
            heapq.heappop(heap)
            dropped = True
    return widths


def build_session(
    index: int,
    tasks: list[TestTask],
    soc: Soc,
    policy: SharingPolicy = SharingPolicy(),
) -> Optional[Session]:
    """Materialize a session from a membership set, or ``None`` if the
    membership violates a constraint (mutexes, power, pins)."""
    if not tasks:
        return Session(index=index)
    # per-core mutex: a core's tests cannot run concurrently
    cores = [t.core_name for t in tasks]
    if len(cores) != len(set(cores)):
        return None
    # the chip functional interface serves one functional test at a time
    if sum(1 for t in tasks if t.uses_functional_pins) > 1:
        return None
    if not fits_power_budget(tasks, soc.power_budget):
        return None
    ctrl = control_pins(tasks, policy)
    if ctrl > soc.test_pins:
        return None
    data = soc.test_pins - ctrl
    widths = assign_widths(tasks, data)
    if widths is None:
        return None
    scheduled = [
        ScheduledTest(task=t, width=widths.get(t.name, 1), start=0) for t in tasks
    ]
    return Session(index=index, tests=scheduled, control_pins=ctrl, data_pins=data)


def _total_time(sessions: list[Session], reconfig: int) -> int:
    """Makespan of a session sequence: lengths plus one reconfiguration
    between consecutive *non-trivial* sessions.  A zero-length session
    (every member test has zero patterns) applies no cycles, so the chip
    is never actually reconfigured for it — charging it
    ``SESSION_RECONFIG_CYCLES`` would inflate the makespan."""
    used = [s for s in sessions if s.tests and s.length > 0]
    if not used:
        return 0
    return sum(s.length for s in used) + reconfig * (len(used) - 1)


def _finalize_sessions(
    sessions: list[Session], reconfig: int
) -> tuple[list[Session], int]:
    """Assemble the final session list: drop empty sessions, merge all
    zero-length sessions into one trailing no-op session, renumber, and
    set test start offsets.

    Zero-length tests stay in the schedule (the verifier's coverage rule
    demands every input task placed exactly once) but cost nothing: the
    merged session sits at the makespan with zero duration and no
    reconfiguration charge.  Returns ``(sessions, total_time)``;
    ``total_time`` equals :func:`_total_time` on the input.
    """
    real = [s for s in sessions if s.tests and s.length > 0]
    zero_tests = [t for s in sessions if s.tests and s.length == 0 for t in s.tests]
    offset = 0
    for i, session in enumerate(real):
        session.index = i
        for test in session.tests:
            test.start = offset
        offset += session.length
        if i < len(real) - 1:
            offset += reconfig
    finalized = list(real)
    if zero_tests:
        for test in zero_tests:
            test.start = offset
        # control/data pins deliberately 0: a no-op session programs
        # nothing, and the verifier skips accounting on zeroed sessions
        finalized.append(Session(index=len(real), tests=zero_tests))
    return finalized, offset


class _SessionEvaluator:
    """Memoized membership → session length, the search's inner oracle.

    ``length(members)`` answers the only two questions the search asks
    of a membership — is it feasible, and how long is the session — by
    running the same checks as :func:`build_session` (same call order,
    same width assignment) without allocating ``Session`` /
    ``ScheduledTest`` objects.  Results are memoized keyed by the
    *ordered* identity tuple of the members: order is semantic (width
    assignment breaks ties by membership order, and the final test list
    preserves it), and the greedy seed's k-way trials, the O(n²) swap
    neighborhood, and every post-improvement re-scan revisit identical
    memberships, so the memo absorbs most of the search.  Task objects
    are fixed for the lifetime of one scheduling run, so ``id()`` is a
    stable, collision-free key component.
    """

    __slots__ = ("soc", "policy", "_memo", "hits", "misses")

    def __init__(self, soc: Soc, policy: SharingPolicy):
        self.soc = soc
        self.policy = policy
        self._memo: dict[tuple[int, ...], Optional[int]] = {}
        self.hits = 0
        self.misses = 0

    def length(self, members: list[TestTask]) -> Optional[int]:
        """Session length of ``members``, or ``None`` if infeasible."""
        if not members:
            return 0
        key = tuple(map(id, members))
        try:
            cached = self._memo[key]
            self.hits += 1
            return cached
        except KeyError:
            self.misses += 1
        result = self._evaluate(members)
        self._memo[key] = result
        return result

    def _evaluate(self, members: list[TestTask]) -> Optional[int]:
        # mirrors build_session's feasibility checks exactly
        cores = [t.core_name for t in members]
        if len(cores) != len(set(cores)):
            return None
        if sum(1 for t in members if t.uses_functional_pins) > 1:
            return None
        if not fits_power_budget(members, self.soc.power_budget):
            return None
        ctrl = control_pins(members, self.policy)
        if ctrl > self.soc.test_pins:
            return None
        widths = assign_widths(members, self.soc.test_pins - ctrl)
        if widths is None:
            return None
        return max(t.time(widths.get(t.name, 1)) for t in members)


def _makespan(sum_len: int, active: int, reconfig: int) -> int:
    """Makespan from the two running aggregates: total length of the
    non-trivial sessions and their count (reconfig between each pair)."""
    return sum_len + reconfig * (active - 1) if active else 0


def _greedy_seed(
    tasks: list[TestTask],
    k: int,
    evaluator: _SessionEvaluator,
    reconfig: int,
) -> Optional[tuple[list[list[TestTask]], list[int]]]:
    """Longest-first greedy placement over ``k`` sessions.

    Each trial placement touches exactly one session, so only that
    session is re-evaluated (the other ``k-1`` are unchanged and known
    feasible) and the trial makespan is the incumbent adjusted by the
    one session's length delta — O(1) bookkeeping per trial where the
    reference rebuilds all ``k`` sessions.
    """
    members: list[list[TestTask]] = [[] for _ in range(k)]
    lengths = [0] * k
    sum_len = 0
    active = 0
    for task in sorted(tasks, key=lambda t: -t.min_time):
        best_idx: Optional[int] = None
        best_total: Optional[int] = None
        best_len = 0
        for i in range(k):
            new_len = evaluator.length(members[i] + [task])
            if new_len is None:
                continue
            s, a = sum_len, active
            if lengths[i]:
                s -= lengths[i]
                a -= 1
            if new_len:
                s += new_len
                a += 1
            total = _makespan(s, a, reconfig)
            if best_total is None or total < best_total:
                best_idx, best_total, best_len = i, total, new_len
        if best_idx is None:
            return None
        if lengths[best_idx]:
            sum_len -= lengths[best_idx]
            active -= 1
        if best_len:
            sum_len += best_len
            active += 1
        lengths[best_idx] = best_len
        members[best_idx].append(task)
    return members, lengths


def _local_search(
    members: list[list[TestTask]],
    lengths: list[int],
    evaluator: _SessionEvaluator,
    reconfig: int,
    floor: int,
    max_rounds: int = 60,
    stats: Optional[dict] = None,
) -> tuple[list[list[TestTask]], int]:
    """First-improvement local search (moves, then swaps), incremental.

    A move or swap touches two sessions: only those two memberships are
    evaluated (memoized) and the makespan is updated by delta.  Rounds
    stop early once the incumbent reaches ``floor`` — every feasible
    makespan is ≥ the floor, so no *strict* improvement exists and the
    reference search's remaining rounds would scan and accept nothing.
    Returns the improved memberships and their makespan.

    ``stats`` (when given) accumulates search telemetry — plain local
    integer counters, flushed by the caller, so the hot loop never
    touches a lock: ``rounds``, ``moves`` (move and swap candidates
    evaluated), ``moves_pruned`` (on a floor exit, the size of the
    neighborhood — ``(k-1)·n`` single-task moves plus the pairwise swap
    space — that the reference search would have scanned next without
    accepting anything), and ``exits[reason]`` for reason ``floor`` /
    ``converged`` / ``max_rounds``.  Telemetry never influences the
    search — bit-identity with the reference is unconditional.
    """
    k = len(members)
    sum_len = sum(ln for ln in lengths if ln)
    active = sum(1 for ln in lengths if ln)
    best_total = _makespan(sum_len, active, reconfig)
    rounds = moves = pruned = 0
    exit_reason = "max_rounds"
    for _ in range(max_rounds):
        if best_total <= floor:
            exit_reason = "floor"
            n_tasks = sum(len(m) for m in members)
            pruned = (k - 1) * n_tasks + sum(
                len(members[a]) * len(members[b])
                for a, b in itertools.combinations(range(k), 2)
            )
            break
        rounds += 1
        improved = False
        # single-task moves
        for src, dst in itertools.permutations(range(k), 2):
            for ti in range(len(members[src])):
                moves += 1
                task = members[src][ti]
                new_src = members[src][:ti] + members[src][ti + 1:]
                len_src = evaluator.length(new_src)
                if len_src is None:
                    continue
                new_dst = members[dst] + [task]
                len_dst = evaluator.length(new_dst)
                if len_dst is None:
                    continue
                s, a = sum_len, active
                for i, new_len in ((src, len_src), (dst, len_dst)):
                    if lengths[i]:
                        s -= lengths[i]
                        a -= 1
                    if new_len:
                        s += new_len
                        a += 1
                total = _makespan(s, a, reconfig)
                if total < best_total:
                    members[src], members[dst] = new_src, new_dst
                    lengths[src], lengths[dst] = len_src, len_dst
                    sum_len, active, best_total = s, a, total
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        # pairwise swaps
        for sa, sb in itertools.combinations(range(k), 2):
            for ti in range(len(members[sa])):
                ta = members[sa][ti]
                base_a = members[sa][:ti] + members[sa][ti + 1:]
                for tj in range(len(members[sb])):
                    moves += 1
                    tb = members[sb][tj]
                    new_a = base_a + [tb]
                    len_a = evaluator.length(new_a)
                    if len_a is None:
                        continue
                    new_b = members[sb][:tj] + members[sb][tj + 1:] + [ta]
                    len_b = evaluator.length(new_b)
                    if len_b is None:
                        continue
                    s, a = sum_len, active
                    for i, new_len in ((sa, len_a), (sb, len_b)):
                        if lengths[i]:
                            s -= lengths[i]
                            a -= 1
                        if new_len:
                            s += new_len
                            a += 1
                    total = _makespan(s, a, reconfig)
                    if total < best_total:
                        members[sa], members[sb] = new_a, new_b
                        lengths[sa], lengths[sb] = len_a, len_b
                        sum_len, active, best_total = s, a, total
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            exit_reason = "converged"
            break
    if stats is not None:
        stats["rounds"] += rounds
        stats["moves"] += moves
        stats["moves_pruned"] += pruned
        stats["exits"][exit_reason] += 1
    return members, best_total


def schedule_sessions(
    soc: Soc,
    tasks: list[TestTask],
    n_sessions: int | None = None,
    policy: SharingPolicy = SharingPolicy(),
    reconfig: int = SESSION_RECONFIG_CYCLES,
    max_sessions: int = 8,
) -> ScheduleResult:
    """Session-based schedule for ``tasks`` on ``soc``.

    When ``n_sessions`` is None, a window of ``max_sessions`` candidate
    session counts is searched, starting at the mutex-forced floor
    (functional tests serialize on the chip's functional interface,
    BIST groups on the engine, a core's tests on the core) and capped
    at the task count — ``floor .. min(#tasks, floor + max_sessions - 1)``.
    For small chips (floor 1) this is the classic ``1 .. max_sessions``
    search; large chips with many functional tests start higher and
    stay schedulable.  ``max_sessions`` sizes the search window — it is
    not a hard cap on the returned session count; pass ``n_sessions``
    to pin the count exactly.  The best feasible result is returned.

    Candidate counts are pruned against the session lower bound: once
    the incumbent makespan reaches
    :func:`~repro.sched.bounds.session_schedule_floor`, no remaining
    candidate can strictly improve it (ties keep the earlier candidate,
    exactly as the unpruned loop would), so the loop stops.  The result
    is bit-identical to :func:`~repro.sched.session_ref.
    schedule_sessions_reference`.
    """
    if not tasks:
        return ScheduleResult(soc_name=soc.name, strategy="session-based",
                              pin_budget=soc.test_pins)
    if n_sessions is not None:
        candidates = [n_sessions]
    else:
        per_core: dict[str, int] = {}
        for t in tasks:
            per_core[t.core_name] = per_core.get(t.core_name, 0) + 1
        forced = max(
            1,
            sum(1 for t in tasks if t.uses_functional_pins),
            sum(1 for t in tasks if t.uses_bist_port),
            max(per_core.values()),
        )
        # a window of max_sessions candidate counts starting at the floor
        # (degenerates to the classic 1..max_sessions for small chips)
        candidates = list(range(forced, min(len(tasks), forced + max_sessions - 1) + 1))
    evaluator = _SessionEvaluator(soc, policy)
    floor = session_schedule_floor(soc, tasks, reconfig)
    stats = {"rounds": 0, "moves": 0, "moves_pruned": 0,
             "exits": {"floor": 0, "converged": 0, "max_rounds": 0}}
    candidates_pruned = 0
    best_members: Optional[list[list[TestTask]]] = None
    best_total: Optional[int] = None
    sp = span("sched.session_search", soc=soc.name, tasks=len(tasks))
    try:
        with sp:
            for ci, k in enumerate(candidates):
                if best_total is not None and best_total <= floor:
                    # bound pruning: every remaining k yields >= floor >= incumbent
                    candidates_pruned = len(candidates) - ci
                    break
                seeded = _greedy_seed(tasks, k, evaluator, reconfig)
                if seeded is None:
                    continue
                members, lengths = seeded
                members, total = _local_search(
                    members, lengths, evaluator, reconfig, floor, stats=stats
                )
                if best_total is None or total < best_total:
                    best_members, best_total = members, total
            if sp.id is not None:
                sp.set(
                    floor=floor, makespan=best_total,
                    rounds=stats["rounds"], moves=stats["moves"],
                    moves_pruned=stats["moves_pruned"],
                    candidates_pruned=candidates_pruned,
                    memo_hits=evaluator.hits, memo_misses=evaluator.misses,
                )
    finally:
        # one flush per scheduling run — the search itself only ever
        # bumps plain local ints (see _local_search)
        _M_RUNS.inc()
        _M_ROUNDS.inc(stats["rounds"])
        _M_MOVES.inc(stats["moves"])
        _M_MOVES_PRUNED.inc(stats["moves_pruned"])
        _M_CANDIDATES_PRUNED.inc(candidates_pruned)
        for reason, count in stats["exits"].items():
            if count:
                _M_FLOOR_EXITS.inc(count, reason=reason)
        _M_MEMO_HITS.inc(evaluator.hits)
        _M_MEMO_MISSES.inc(evaluator.misses)
    if best_members is None:
        raise InfeasibleScheduleError(
            f"no feasible session schedule for {soc.name!r} with "
            f"{soc.test_pins} pins (tried {candidates} sessions)"
        )
    best_sessions = []
    for i, membership in enumerate(best_members):
        session = build_session(i, membership, soc, policy)
        if session is None:  # pragma: no cover — search only keeps feasible sets
            raise InfeasibleScheduleError(
                f"internal error: winning membership infeasible for {soc.name!r}"
            )
        best_sessions.append(session)
    used, total = _finalize_sessions(best_sessions, reconfig)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="session-based",
        sessions=used,
        total_time=total,
        pin_budget=soc.test_pins,
        notes=f"{len(used)} sessions, reconfig {reconfig} cycles each",
    )


def schedule_serial(
    soc: Soc,
    tasks: list[TestTask],
    policy: SharingPolicy = SharingPolicy(),
    reconfig: int = SESSION_RECONFIG_CYCLES,
) -> ScheduleResult:
    """Fully serial baseline: one task per session, each at max width."""
    memberships = [[t] for t in sorted(tasks, key=lambda t: -t.min_time)]
    sessions = []
    for i, membership in enumerate(memberships):
        session = build_session(i, membership, soc, policy)
        if session is None:
            raise InfeasibleScheduleError(
                f"serial schedule infeasible for {soc.name!r}: some single test "
                f"does not fit in {soc.test_pins} pins"
            )
        sessions.append(session)
    used, total = _finalize_sessions(sessions, reconfig)
    return ScheduleResult(
        soc_name=soc.name,
        strategy="serial",
        sessions=used,
        total_time=total,
        pin_budget=soc.test_pins,
        notes=f"{len(used)} single-test sessions",
    )
