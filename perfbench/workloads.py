"""The three workloads: what each runs in one pass and how a pass is timed.

Every workload replays a fixed set of operations whose chips come from
``CONTENT_SEED``; the run's ``--seed`` shuffles the order the operations
are issued in.  The content is fixed so that the deterministic outputs
(test cycles, area overhead, call counts, result digests) are identical
across runs and the timings vary only with the host.

A run repeats passes until ``--seconds`` is used up.  Each pass starts
cold: fresh chip objects, an empty scan-time-table cache (emptied again
before each chip, or each ladder of ``sweep-large``) and, for
``serve-mixed``, a freshly started server with an empty result cache.
Timings are scaled by the host's slowness (:mod:`hostspeed`).
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checker, golden_anchor
from hostspeed import NOMINAL_MS, Reference
from tracer import Tracer, layer_metrics, median
from repro.core import Steac, SteacConfig
from repro.gen import SocGenerator
from repro.sched.timecalc import clear_scan_time_cache, scan_time_cache_stats
from repro.serve.client import ServeClient
from repro.soc.dsc import build_dsc_chip
from repro.soc.itc02 import d695_soc
from repro.verify import verify_schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where a traced run leaves its spans (``Tracer.export`` format).
SPANS_FILE = ROOT / ".perfbench_out" / "spans.json"

#: Seed of every generated chip the workloads use.
CONTENT_SEED = 1

#: Seed of the one tiny chip integrated before the first in-process pass
#: (its stream is never part of a workload).
WARMUP_SEED = 999

#: corpus: chips per profile, plus the DSC and d695 anchors.  A pass takes
#: 5-7 s, so a run has several passes to take the median of (see
#: ``end_to_end``).
CORPUS_MIX = (("tiny", 44), ("small", 44), ("d695-like", 12))

#: sweep-large: chips ``large`` 1..3, each at its generated pin budget
#: and at the budgets above it.  Chip 0 is left out: its ladder alone
#: takes ~8 s, which would leave room for two passes per run.
SWEEP_CHIPS = (1, 2, 3)
SWEEP_EXTRA_PINS = (0, 8, 16)

#: serve-mixed: the pool holds chips 0..n-1 of each profile.  Every pooled
#: chip is integrated once as generated and once with extra pins (a
#: variant); batch job ``i`` integrates chip ``i`` of every profile; each
#: of these jobs is then sent ``SERVE_REPEATS`` more times.  The profiles'
#: counts differ so that the latency medians fall inside one profile's
#: times, not in the gap between the two.
SERVE_POOL = (("small", 5), ("d695-like", 3))
SERVE_VARIANT_PINS = 4
SERVE_BATCHES = 2
SERVE_REPEATS = 2
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Fixed interval between a client's polls of a running job.
POLL_SECONDS = 0.010


def p90(values) -> float:
    """90th percentile (``statistics.quantiles`` exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


@dataclass
class PassResult:
    """Measurements of one pass (latencies in milliseconds).  ``chip_s``
    and ``job_s`` are the time the chip and job throughputs divide by:
    summed call times in process, the pass's wall time in serve-mixed.
    ``slowness`` is the host's slowness over the pass
    (:mod:`hostspeed`); the timings are stored as measured."""

    setup_s: float = 0.0
    chip_s: float = 0.0
    job_s: float = 0.0
    chips: int = 0
    chip_ms: list = field(default_factory=list)
    job_ms: list = field(default_factory=list)
    hit_ms: list = field(default_factory=list)
    miss_ms: list = field(default_factory=list)
    test_cycles: int = 0
    overheads: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    slowness: float = 1.0


def end_to_end(passes: list[PassResult], fixed_setup_s: float, rss_kb: int) -> dict:
    """The end-to-end metrics of a run, ``name -> (value, samples)``.

    Every timing is scaled by the slowness of the pass it was measured
    in (a time is divided by it, a rate multiplied).  A rate is the
    median over the run's passes; a latency percentile is taken over the
    scaled latencies of all passes together.  ``setup_s`` is scaled by
    the median slowness of the run."""

    def rate(count, seconds) -> tuple:
        rates = [count(p) / seconds(p) * p.slowness for p in passes]
        return statistics.median(rates), len(rates)

    def latency(statistic, samples) -> tuple:
        pooled = [ms / p.slowness for p in passes for ms in samples(p)]
        return statistic(pooled), len(pooled)

    setups = [p.setup_s for p in passes]
    slowness = statistics.median(p.slowness for p in passes)
    return {
        "setup_s": ((fixed_setup_s + statistics.median(setups)) / slowness, len(setups)),
        "chips_per_s": rate(lambda p: p.chips, lambda p: p.chip_s),
        "chip_latency_p50_ms": latency(statistics.median, lambda p: p.chip_ms),
        "chip_latency_p90_ms": latency(p90, lambda p: p.chip_ms),
        "jobs_per_s": rate(lambda p: len(p.job_ms), lambda p: p.job_s),
        "job_latency_p50_ms": latency(statistics.median, lambda p: p.job_ms),
        "job_latency_p90_ms": latency(p90, lambda p: p.job_ms),
        "miss_latency_p50_ms": latency(statistics.median, lambda p: p.miss_ms),
        "test_cycles_total": (passes[0].test_cycles, len(passes)),
        "dft_area_overhead_pct": (statistics.mean(passes[0].overheads), len(passes[0].overheads)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }


def schedule_cycles(doc: dict) -> tuple[int, list[float]]:
    """Makespans and area overheads of every integration result in a
    result document (an integration result or a batch result)."""
    results = [item["result"] for item in doc["items"]] if "items" in doc else [doc]
    return (sum(r["schedule"]["total_time"] for r in results),
            [r["dft_area"]["overhead_percent"] for r in results])


# -- in-process workloads -----------------------------------------------------


def corpus_ops(size: str) -> list[list]:
    """Operation groups ``[(key, build)]``; a group is issued in order."""
    mix = CORPUS_MIX if size == "full" else (("tiny", 2), ("small", 2), ("d695-like", 1))
    ops = [[("anchor/dsc", lambda: build_dsc_chip(test_pins=28, power_budget=8.0))],
           [("anchor/d695", lambda: d695_soc(test_pins=48))]]
    for profile, count in mix:
        generator = SocGenerator(CONTENT_SEED, profile)
        for index in range(count):
            ops.append([(f"{profile}/{index}", lambda g=generator, i=index: g.generate(i))])
    return ops


def sweep_ops(size: str) -> list[list]:
    """One group per chip: its pin-budget ladder, lowest budget first."""
    chips = SWEEP_CHIPS if size == "full" else (2,)
    extras = SWEEP_EXTRA_PINS if size == "full" else SWEEP_EXTRA_PINS[:2]
    generator = SocGenerator(CONTENT_SEED, "large")

    def build(index: int, extra: int):
        soc = generator.generate(index)
        soc.test_pins += extra
        return soc

    return [[(f"large/{index}/pins+{extra}", lambda i=index, e=extra: build(i, e))
             for extra in extras] for index in chips]


def warm_up() -> float:
    """Integrate one chip outside every workload so lazy imports and
    first-call costs are paid before timing; returns the seconds spent."""
    started = time.monotonic()
    Steac().integrate(SocGenerator(WARMUP_SEED, "tiny").generate(0)).to_json()
    clear_scan_time_cache()
    return time.monotonic() - started


def in_process_pass(groups: list[list], checker: Checker, tracer: Tracer | None,
                    reference: Reference) -> PassResult:
    """Integrate every operation once, serially, from cold caches,
    sampling the host's speed after each."""
    result = PassResult()
    reference.take()
    if tracer is not None:
        tracer.install()
    try:
        started = time.monotonic()
        chips = [(index, key, build()) for index, group in enumerate(groups)
                 for key, build in group]
        clear_scan_time_cache()
        result.setup_s = time.monotonic() - started
        steac = Steac()
        cache_hits = cache_misses = 0
        group = None
        for index, key, soc in chips:
            if index != group:
                # each group starts cold, so an op's time does not depend on
                # the order the groups were issued in
                stats = scan_time_cache_stats()
                cache_hits += stats["hits"]
                cache_misses += stats["misses"]
                clear_scan_time_cache()
                group = index
            if tracer is not None:
                tracer.set_op(key)
            try:
                t0 = time.perf_counter()
                integration = steac.integrate(soc)
                t1 = time.perf_counter()
                text = integration.to_json()
                t2 = time.perf_counter()
                doc = json.loads(text)
                report = verify_schedule(soc, integration.schedule)
                problems = [f"verify_schedule: {v.rule}: {v.message}" for v in report.errors]
                schedule_doc = {"schema": "repro/schedule-result/v1", "soc": soc.name,
                                **integration.schedule.to_dict()}
                problems.append(golden_anchor(key, doc, schedule_doc))
                cycles, overheads = schedule_cycles(doc)
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                checker.check(key, None, [f"{type(exc).__name__}: {exc}"])
                continue
            reference.after_op(t1 - t0)
            result.chips += 1
            result.chip_s += t1 - t0
            result.job_s += t2 - t0
            result.chip_ms.append((t1 - t0) * 1e3)
            result.job_ms.append((t2 - t0) * 1e3)
            if checker.check(key, doc, problems):
                result.test_cycles += cycles
                result.overheads.extend(overheads)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.slowness = reference.take()
    # every in-process job runs the flow: there is no result cache
    result.miss_ms = result.job_ms
    if tracer is not None:
        exported = tracer.export()
        SPANS_FILE.parent.mkdir(exist_ok=True)
        SPANS_FILE.write_text(json.dumps(exported))
        result.layers = layer_metrics(exported["spans"], exported["counts"])
        stats = scan_time_cache_stats()
        result.layers.update(scan_cache_layers({"hits": cache_hits + stats["hits"],
                                                "misses": cache_misses + stats["misses"]}))
    return result


def scan_cache_layers(stats: dict) -> dict:
    """The scan-time-table cache counters of a pass."""
    hits, misses = stats["hits"], stats["misses"]
    return {"sched.timecalc.cache_hits": hits, "sched.timecalc.cache_misses": misses,
            "sched.timecalc.hit_ratio": hits / max(1, hits + misses)}


# -- serve-mixed --------------------------------------------------------------


@dataclass
class Request:
    """One job of the serve-mixed pass.  ``key`` names the work (equal
    keys are equal payloads); ``deps`` are keys whose first job must have
    finished before this one is sent, so repeats always hit the result
    cache and variants always find their tables cached."""

    key: str
    payload: dict
    deps: tuple = ()
    chips: int = 1


def serve_requests(size: str, pins: dict) -> list[Request]:
    """The fixed job list; ``pins`` maps a pooled chip to its generated
    pin budget."""
    first: list[Request] = []
    specs = serve_pool(size)
    for key, spec in specs.items():
        first.append(Request(f"integrate/{key}", {"kind": "integrate", "soc": {"spec": spec}}))
        variant = {"spec": spec, "test_pins": pins[key] + SERVE_VARIANT_PINS}
        first.append(Request(f"integrate/{key}/pins+{SERVE_VARIANT_PINS}",
                             {"kind": "integrate", "soc": variant}, (f"integrate/{key}",)))
    for index in range(min(SERVE_BATCHES, *(count for _, count in pool_counts(size)))):
        keys = [f"{profile}/{index}" for profile, _ in SERVE_POOL]
        first.append(Request("batch/" + "+".join(keys),
                             {"kind": "batch", "socs": [{"spec": specs[k]} for k in keys]},
                             tuple(f"integrate/{k}" for k in keys), len(keys)))
    repeats = SERVE_REPEATS if size == "full" else 1
    return first + [Request(r.key, r.payload, (r.key,), r.chips)
                    for r in first for _ in range(repeats)]


def pool_counts(size: str) -> tuple:
    return SERVE_POOL if size == "full" else tuple((profile, 1) for profile, _ in SERVE_POOL)


def serve_pool(size: str) -> dict:
    """Pooled chip key -> generator spec reference."""
    return {f"{profile}/{index}": {"profile": profile, "seed": CONTENT_SEED, "index": index}
            for profile, count in pool_counts(size) for index in range(count)}


def pooled_pins(size: str) -> dict:
    return {key: SocGenerator(spec["seed"], spec["profile"]).generate(spec["index"]).test_pins
            for key, spec in serve_pool(size).items()}


def record_serve(size: str, checker: Checker) -> None:
    """Record the digest of every distinct serve-mixed job from an
    in-process run of the same configuration the server uses, with every
    integration result checked by ``verify_schedule``."""
    from repro.gen import ScenarioSpec

    steac = Steac(SteacConfig(compare_strategies=False))
    for request in serve_requests(size, pooled_pins(size)):
        if request.deps == (request.key,):
            continue
        refs = request.payload.get("socs") or [request.payload["soc"]]
        specs = [ScenarioSpec(**ref["spec"], test_pins=ref.get("test_pins")) for ref in refs]
        if request.payload["kind"] == "batch":
            batch = steac.integrate_many(specs, backend="serial")
            results, doc = batch.results, batch.to_dict()
        else:
            results = [steac.integrate(specs[0].build())]
            doc = results[0].to_dict()
        problems = [f"verify_schedule: {v.rule}: {v.message}"
                    for spec, r in zip(specs, results)
                    for v in verify_schedule(spec.build(), r.schedule).errors]
        if len(results) != len(specs):
            problems.append("batch item failed")
        checker.check(request.key, doc, problems)


class Server:
    """A ``repro serve`` child process on a free local port."""

    def __init__(self, trace_file: Path | None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--workers", str(SERVE_WORKERS), "--backend", "serial"]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_file), *serve_args]
        self.process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                        stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"on (http://\S+)", line)
        if match is None:
            self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServeClient(match.group(1), timeout=120.0)
        self.client.wait_healthy(timeout=30.0, interval=0.01)

    def stop(self) -> None:
        """Drain and stop the server; kill it if it does not exit."""
        try:
            if self.process.poll() is None:
                self.client.shutdown()
            self.process.wait(timeout=60)
        except Exception:  # noqa: BLE001 — fall through to kill
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


@dataclass
class JobRecord:
    request: Request
    latency_ms: float
    submit_ms: float
    polls: int
    doc: dict


def client_loop(client: ServeClient, pending: list, done: set, lock: threading.Lock,
                records: list, reference: Reference) -> None:
    """One closed-loop client: send the next eligible job, wait for it to
    end, sample the host's speed, repeat until the list is empty."""
    while True:
        with lock:
            if not pending:
                return
            index = next((i for i, r in enumerate(pending) if done.issuperset(r.deps)), None)
            request = pending.pop(index) if index is not None else None
        if request is None:
            time.sleep(POLL_SECONDS)
            continue
        t0 = time.perf_counter()
        submit_ms, polls = 0.0, 0
        try:
            doc = client.submit(request.payload)
            submit_ms = (time.perf_counter() - t0) * 1e3
            while doc["status"] not in ("done", "failed"):
                time.sleep(POLL_SECONDS)
                doc = client.job(doc["id"])
                polls += 1
        except Exception as exc:  # noqa: BLE001 — counted as a failed job
            doc = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        latency_ms = (time.perf_counter() - t0) * 1e3
        with lock:
            records.append(JobRecord(request, latency_ms, submit_ms, polls, doc))
            done.add(request.key)
        reference.sample()


def serve_pass(requests: list[Request], checker: Checker, traced: bool,
               reference: Reference) -> PassResult:
    """Run every job through a fresh server with ``SERVE_CLIENTS`` clients."""
    result = PassResult()
    reference.take()
    if traced:
        SPANS_FILE.parent.mkdir(exist_ok=True)
    started = time.monotonic()
    server = Server(SPANS_FILE if traced else None)
    result.setup_s = time.monotonic() - started
    records: list[JobRecord] = []
    try:
        pending, done, lock = list(requests), set(), threading.Lock()
        threads = [threading.Thread(target=client_loop,
                                    args=(server.client, pending, done, lock, records,
                                          reference))
                   for _ in range(SERVE_CLIENTS)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.chip_s = result.job_s = time.perf_counter() - t0
        result.slowness = reference.take()
        stats = server.client.stats()
    finally:
        server.stop()
    queued_ms, run_ms, overhead_ms, failed = [], [], [], 0
    for record in records:
        doc, hit = record.doc, record.doc.get("cached", False)
        result.job_ms.append(record.latency_ms)
        (result.hit_ms if hit else result.miss_ms).append(record.latency_ms)
        timing = doc.get("timing", {})
        queued, run = timing.get("queued_seconds") or 0.0, timing.get("run_seconds") or 0.0
        overhead_ms.append(record.latency_ms - (queued + run) * 1e3)
        if not hit:
            queued_ms.append(queued * 1e3)
            run_ms.append(run * 1e3)
            result.chips += record.request.chips
            if record.request.payload["kind"] == "integrate":
                result.chip_ms.append(run * 1e3)
        problems = []
        if doc["status"] != "done":
            failed += 1
            problems.append(f"job {doc['status']}: {doc.get('error')}")
        if checker.check(record.request.key, doc.get("result"), problems):
            cycles, overheads = schedule_cycles(doc["result"])
            result.test_cycles += cycles
            result.overheads.extend(overheads)
    if traced:
        exported = json.loads(SPANS_FILE.read_text())
        result.layers = layer_metrics(exported["spans"], exported["counts"])
        cache = stats["cache"]
        result.layers.update(scan_cache_layers(stats["scan_time_cache"]))
        result.layers.update({
            "serve.cache.hits": cache["hits"],
            "serve.cache.misses": cache["misses"],
            "serve.cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "serve.submit_ms_p50": median([r.submit_ms for r in records]),
            "serve.queued_ms_p50": median(queued_ms),
            "serve.run_ms_p50": median(run_ms),
            "serve.http_overhead_ms_p50": median(overhead_ms),
            "serve.polls_per_job": sum(r.polls for r in records) / max(1, len(records)),
            "serve.jobs_failed": failed,
            "hit_latency_p50_ms": median(result.hit_ms),
        })
    return result


#: Per-layer metrics only serve-mixed has; the other workloads report 0.
SERVE_LAYERS = (
    "serve.submit_ms_p50", "serve.queued_ms_p50", "serve.run_ms_p50",
    "serve.http_overhead_ms_p50", "serve.cache.hits", "serve.cache.misses",
    "serve.cache.hit_ratio", "serve.polls_per_job", "serve.jobs_failed", "hit_latency_p50_ms",
)


# -- runs ---------------------------------------------------------------------


def run_passes(one_pass, seed: int, seconds: float, trace: bool) -> list[PassResult]:
    """Untraced passes until ``seconds`` are used (at least one), each
    issuing the operations in its own seeded order; with ``trace``, one
    untraced and one traced pass in the same order instead."""
    if trace:
        return [one_pass(random.Random(f"{seed}/0"), traced) for traced in (False, True)]
    passes = []
    started = time.monotonic()
    while True:
        passes.append(one_pass(random.Random(f"{seed}/{len(passes)}"), False))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def run_in_process(ops, seed: int, seconds: float, trace: bool, checker: Checker,
                   reference: Reference):
    """Returns ``(passes, set-up seconds paid once, peak RSS in KiB)``."""
    warmup_s = warm_up()
    passes = run_passes(
        lambda rng, traced: in_process_pass(shuffled(ops, rng), checker,
                                            Tracer() if traced else None, reference),
        seed, seconds, trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - reference.rss_kb
    return passes, warmup_s, peak_kb


def run_serve(size: str, seed: int, seconds: float, trace: bool, checker: Checker,
              reference: Reference):
    """Returns ``(passes, set-up seconds paid once, peak RSS in KiB)``."""
    started = time.monotonic()
    requests = serve_requests(size, pooled_pins(size))
    pool_s = time.monotonic() - started
    passes = run_passes(
        lambda rng, traced: serve_pass(shuffled(requests, rng), checker, traced, reference),
        seed, seconds, trace)
    # the largest of the server processes waited for so far
    return passes, pool_s, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def import_seconds(runs: int = 3) -> float:
    """Median time a fresh interpreter takes to start and import the
    program (with the benchmark's modules), over ``runs`` interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    times = []
    for _ in range(runs):
        started = time.monotonic()
        subprocess.run([sys.executable, "-c", "import workloads"], cwd=ROOT, env=env, check=True)
        times.append(time.monotonic() - started)
    return statistics.median(times)


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool,
                 checker: Checker) -> dict:
    """Run one workload; returns ``name -> (value, samples)``: the
    end-to-end metrics, or with ``trace`` the per-layer ones.  Building
    the host-speed reference is not part of ``setup_s``: it is the
    benchmark's, not the program's."""
    reference = Reference()
    if name == "serve-mixed":
        passes, setup_s, rss_kb = run_serve(size, seed, seconds, trace, checker, reference)
    else:
        ops = corpus_ops(size) if name == "corpus" else sweep_ops(size)
        passes, setup_s, rss_kb = run_in_process(ops, seed, seconds, trace, checker, reference)
    slowness = [round(p.slowness, 3) for p in passes]
    print(f"host slowness per pass {slowness} (1.0: a reference sample takes "
          f"{NOMINAL_MS} ms; every timing is scaled by it)")
    if not trace:
        return end_to_end(passes, import_seconds() + setup_s, rss_kb)
    untraced, traced = passes
    layers = dict.fromkeys(SERVE_LAYERS, 0)
    layers.update(traced.layers)
    layers["trace.overhead_pct"] = (traced.job_s / traced.slowness
                                    / (untraced.job_s / untraced.slowness) - 1.0) * 100.0
    return {name: (value, 1) for name, value in layers.items()}
