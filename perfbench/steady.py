"""Steadiness check: run workloads repeatedly with different seeds and
report, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.

    python3 perfbench/steady.py --runs 10                    # every workload
    python3 perfbench/steady.py --workload corpus --runs 5 --first-seed 11
    python3 perfbench/steady.py --runs 10 --sets 2           # and compare two sets

With ``--sets 2`` the second set (seeds 100 higher) runs after the
first, and a table gives, per workload and metric, both medians and how
much worse the second is than the first, as a share of the first, next
to the bound.

Runs are sequential, one ``run.py`` process at a time.  The host (CPU
count and model, Python version, load average before and after) is
printed with the results; the last line of stdout is the whole report
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict) -> dict:
    report = {}
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        report[name] = {"median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med if med else 0.0, "bound": bound,
                        "values": values}
    return report


def compare(sets: list[dict], bounds: dict, better: dict) -> dict:
    """Per workload and metric: the first and last set's medians and how
    much worse the last is, as a share of the first median."""
    first, last = sets[0]["workloads"], sets[-1]["workloads"]
    table = {}
    print(f"\n{'workload':12} {'metric':24} {'set 1':>12} {f'set {len(sets)}':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in first:
        for name, bound in bounds.items():
            a, b = first[workload]["metrics"][name]["median"], last[workload]["metrics"][name]["median"]
            worse = ((b - a) if better[name] == "lower" else (a - b)) / a if a else 0.0
            table.setdefault(workload, {})[name] = {"first": a, "last": b, "worse": worse,
                                                    "bound": bound}
            flag = "" if worse <= bound else "  <-- outside bound"
            print(f"{workload:12} {name:24} {a:12.6g} {b:12.6g} {worse:9.4f} {bound:6.2f}{flag}")
    return table


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    before = host()
    sets = []
    for index in range(args.sets):
        first_seed = args.first_seed + 100 * index
        results = {}
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            runs = [run_once(workload, seed, args.seconds)
                    for seed in range(first_seed, first_seed + args.runs)]
            results[workload] = {
                "failed": sum(run["failed"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "metrics": summarize(runs, bounds),
            }
            print(f"\nset {index + 1}, {workload}: {args.runs} runs from seed {first_seed}, "
                  f"{results[workload]['failed']} of {results[workload]['attempted']} "
                  "operations failed")
            print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for name, row in results[workload]["metrics"].items():
                flag = "" if name == "setup_s" or row["spread"] <= row["bound"] / 3 else "  <-- wide"
                print(f"{name:24} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                      f"{row['spread']:8.4f} {row['bound']:6.2f}{flag}")
        sets.append({"first_seed": first_seed, "workloads": results})
    comparison = compare(sets, bounds, better) if len(sets) > 1 else {}
    report = {"host_before": before, "host_after": host(), "runs": args.runs,
              "seconds": args.seconds, "sets": sets, "comparison": comparison}
    print(f"\nhost: {before['nproc']} CPUs, {before['cpu']}, Python {before['python']}, "
          f"load {before['loadavg']} -> {report['host_after']['loadavg']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
