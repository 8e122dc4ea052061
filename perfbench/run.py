"""Chip-integration benchmark: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Workloads (see ``perfbench/README.md``): ``corpus`` and ``serve-mixed``,
declared in ``BENCHMARK.json``, and ``sweep-large``, which runs the same
way but is left out of ``BENCHMARK.json``: its run-to-run spread is wider
than the bounds.  With ``--trace 0`` the run measures the end-to-end
metrics with the program untouched; with ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; a table with each
metric's unit and sample count is printed above it.

``--size smoke`` runs a few operations of each workload (for tests);
``--record`` rewrites ``perfbench/expected.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "sweep-large", "serve-mixed")


def declared_units(trace: bool) -> dict:
    """``name -> unit`` of the per-layer (``trace``) or end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    return args


def record() -> int:
    """Write the result digests of every operation of every workload."""
    import workloads
    from checks import EXPECTED_PATH, Checker
    from hostspeed import Reference

    expected = {}
    for name in WORKLOADS:
        checker = Checker({}, record=True)
        if name == "serve-mixed":
            workloads.record_serve("full", checker)
        else:
            ops = workloads.corpus_ops("full") if name == "corpus" else workloads.sweep_ops("full")
            workloads.in_process_pass(ops, checker, None, Reference())
        if checker.failed:
            print("\n".join(checker.errors), file=sys.stderr)
            return 1
        expected[name] = dict(sorted(checker.recorded.items()))
        print(f"{name}: {len(checker.recorded)} digests", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the program
    from checks import Checker, load_expected

    if args.record:
        return record()
    units = declared_units(bool(args.trace))
    checker = Checker(load_expected().get(args.workload, {}))
    metrics = workloads.run_workload(args.workload, args.size, args.seed, args.seconds,
                                     bool(args.trace), checker)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                         "declared in BENCHMARK.json, or declared but not measured")
    for message in checker.errors:
        print(f"FAILED {message}")
    print(f"{'metric':32} {'value':>16} {'unit':8} samples")
    for name in units:
        value, samples = metrics[name]
        print(f"{name:32} {value:16.6g} {units[name]:8} {samples}")
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
