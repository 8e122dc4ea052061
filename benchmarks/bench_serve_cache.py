"""Serving-layer performance: cold integrate latency vs warm cache-hit
latency, the chip work each costs, and cached-job throughput under
concurrent clients.

Unlike the pytest-benchmark modules around it, this is a standalone
harness (the quantity under test is a *service* round-trip, not a
library call)::

    PYTHONPATH=src python benchmarks/bench_serve_cache.py [-o BENCH_serve.json]
    PYTHONPATH=src python benchmarks/bench_serve_cache.py --check BENCH_serve.json -o out.json

It boots an in-process server on a loopback port, submits one d695
integrate job twice — the second answered from the content-addressed
cache — and then hammers the cached entry from 1/4/8 concurrent
clients.  While the cold job and the warm hits run it counts the chip
work the server does: ``Soc`` constructions (generation, parsing or a
named build) and ``Soc.digest`` calls.  The numbers land in
``BENCH_serve.json`` (schema ``repro/bench-serve/v2``), the repo's
performance-trajectory file for the serving layer.

The acceptance is a >= 10x cold/warm latency ratio with a bit-identical
hit.  ``--check BASELINE`` adds the gate on the deterministic counts: a
warm hit must construct and digest no chip, the cold job may not do
more chip work than the baseline recorded, and the baseline must
describe the current result schema (a schema bump makes it stale).
Wall-clock numbers are reported, never gated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import threading
import time

D695_JOB = {"kind": "integrate", "soc": {"name": "d695"}}
WARM_SAMPLES = 20
JOBS_PER_CLIENT = 25
CLIENT_COUNTS = (1, 4, 8)
SPEEDUP_TARGET = 10.0
#: Chip work (constructions, digests) a warm hit may do: none.
WARM_HIT_WORK_LIMIT = 0


@contextlib.contextmanager
def count_chip_work():
    """Count ``Soc`` constructions and ``Soc.digest`` calls, in any
    thread of this process, while the block runs."""
    from repro.soc import Soc

    counts = {"soc_builds": 0, "soc_digests": 0}
    post_init, digest = Soc.__post_init__, Soc.digest

    def counting_post_init(self):
        counts["soc_builds"] += 1
        post_init(self)

    def counting_digest(self):
        counts["soc_digests"] += 1
        return digest(self)

    Soc.__post_init__, Soc.digest = counting_post_init, counting_digest
    try:
        yield counts
    finally:
        Soc.__post_init__, Soc.digest = post_init, digest


def measure_latency(client) -> dict:
    """Cold (miss) vs warm (hit) round-trip latency for the d695 job,
    and the chip work each does."""
    with count_chip_work() as cold_work:
        t0 = time.perf_counter()
        first = client.submit(D695_JOB)
        first = client.wait(first["id"])
        cold_seconds = time.perf_counter() - t0
    assert first["status"] == "done" and first["cached"] is False
    first_text = client.result_text(first["id"])

    warm = []
    with count_chip_work() as warm_work:
        for _ in range(WARM_SAMPLES):
            t0 = time.perf_counter()
            job = client.submit(D695_JOB)
            warm.append(time.perf_counter() - t0)
            assert job["status"] == "done" and job["cached"] is True
    # bit-identical guarantee: the hit serves the stored bytes
    assert client.result_text(job["id"]) == first_text

    warm_median = statistics.median(warm)
    return {
        "job": D695_JOB,
        "result_schema": json.loads(first_text)["schema"],
        "cold_ms": round(cold_seconds * 1000, 3),
        "warm_ms": {
            "median": round(warm_median * 1000, 3),
            "min": round(min(warm) * 1000, 3),
            "max": round(max(warm) * 1000, 3),
            "samples": WARM_SAMPLES,
        },
        "speedup": round(cold_seconds / warm_median, 1),
        "bit_identical": True,
        "chip_work": {
            "cold": dict(cold_work),
            "per_warm_hit": {
                name: count / WARM_SAMPLES for name, count in warm_work.items()
            },
        },
    }


def measure_throughput(base_url: str) -> list[dict]:
    """Cached-job round-trips per second at several client counts."""
    from repro.serve import ServeClient

    rows = []
    for clients in CLIENT_COUNTS:
        errors = []

        def hammer():
            try:
                local = ServeClient(base_url, timeout=30.0)
                for _ in range(JOBS_PER_CLIENT):
                    job = local.submit(D695_JOB)
                    if not job["cached"]:
                        raise RuntimeError("expected a cache hit")
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(clients)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]
        jobs = clients * JOBS_PER_CLIENT
        rows.append({
            "clients": clients,
            "jobs": jobs,
            "seconds": round(elapsed, 4),
            "jobs_per_sec": round(jobs / elapsed, 1),
        })
    return rows


def run(out_path: str) -> dict:
    from repro.serve import ServeClient, create_server

    server = create_server(workers=4)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=60.0)
    client.wait_healthy()
    try:
        latency = measure_latency(client)
        throughput = measure_throughput(server.url)
        stats = client.stats()
    finally:
        server.stop()
        thread.join(timeout=10)

    doc = {
        "schema": "repro/bench-serve/v2",
        "generated": time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime()) + "Z",
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "server_workers": 4,
        },
        "latency": latency,
        "throughput_cached": throughput,
        "cache": {
            key: stats["cache"][key] for key in ("hits", "misses", "entries")
        },
        "acceptance": {
            "speedup_target": SPEEDUP_TARGET,
            "speedup_measured": latency["speedup"],
            "ok": latency["speedup"] >= SPEEDUP_TARGET and latency["bit_identical"],
        },
    }
    with open(out_path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def check_baseline(doc: dict, baseline_path: str) -> list[str]:
    """The gate's findings against a committed baseline (empty = pass)."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    problems = []
    schema = doc["latency"]["result_schema"]
    if baseline["latency"]["result_schema"] != schema:
        problems.append(
            f"{baseline_path} records {baseline['latency']['result_schema']}, "
            f"the server answers {schema}: regenerate the baseline"
        )
    work = doc["latency"]["chip_work"]
    for name, count in work["per_warm_hit"].items():
        if count > WARM_HIT_WORK_LIMIT:
            problems.append(f"a warm hit did {count} {name} (limit {WARM_HIT_WORK_LIMIT})")
    for name, limit in baseline["latency"]["chip_work"]["cold"].items():
        if work["cold"][name] > limit:
            problems.append(
                f"the cold job did {work['cold'][name]} {name} (baseline {limit})"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out", default="BENCH_serve.json",
                        help="output path (default: ./BENCH_serve.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="gate on a committed BENCH_serve.json: exit 1 if a "
                             "warm hit does chip work or the cold job does more "
                             "than the baseline")
    args = parser.parse_args(argv)
    doc = run(args.out)
    latency = doc["latency"]
    work = latency["chip_work"]
    print(f"cold d695 integrate : {latency['cold_ms']:9.1f} ms"
          f"  ({work['cold']['soc_builds']} chip build(s),"
          f" {work['cold']['soc_digests']} digest(s))")
    print(f"warm cache hit      : {latency['warm_ms']['median']:9.2f} ms (median)"
          f"  ({work['per_warm_hit']['soc_builds']:g} chip builds,"
          f" {work['per_warm_hit']['soc_digests']:g} digests per hit)")
    print(f"speedup             : {latency['speedup']:9.1f} x"
          f"  (target >= {doc['acceptance']['speedup_target']:.0f}x)")
    for row in doc["throughput_cached"]:
        print(f"{row['clients']} client(s)         : {row['jobs_per_sec']:9.1f}"
              f" cached jobs/sec")
    print(f"wrote {args.out}")
    ok = doc["acceptance"]["ok"]
    if args.check:
        problems = check_baseline(doc, args.check)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        if not problems:
            print(f"check against {args.check}: ok")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
