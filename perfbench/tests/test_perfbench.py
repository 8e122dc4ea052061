"""Tests of the benchmark itself: smoke runs, metric names, self-time
arithmetic and failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from checks import Checker, digest
from tracer import Tracer, covered, layer_metrics, self_times

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(workload: str, trace: int) -> dict:
    command = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["sweep-large"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    out = run_bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = out["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_readme_predicts_every_layer_metric():
    readme = (PERFBENCH / "README.md").read_text()
    for metric in SPEC["per_layer"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


def span(name, start, end, span_id, parent=None):
    """A record in the ``repro.obs.trace.Tracer`` layout."""
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "dur": end - start, "attrs": {"op": 1}}


def test_covered_merges_overlaps():
    assert covered([]) == 0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        span("pipeline.schedule", 0.0, 10.0, 1),
        span("sched.session", 1.0, 4.0, 2, parent=1),
        span("sched.assign_widths", 2.0, 3.0, 3, parent=2),   # grandchild: not subtracted from 1
        span("sched.nonsession", 3.0, 6.0, 4, parent=1),      # overlaps child 2 by 1 s
        span("sched.serial", 9.0, 12.0, 5, parent=1),         # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)   # children cover [1, 6] and [9, 10]
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    metrics = layer_metrics(spans, {})
    assert metrics["pipeline.schedule.self_s"] == pytest.approx(4.0)
    assert metrics["sched.session_s"] == pytest.approx(3.0)
    assert metrics["sched.assign_widths.calls"] == 1


def test_tracer_wrappers_nest_count_and_tag_ops():
    tracer = Tracer()
    inner = tracer.spanned("sched.assign_widths", lambda: 1)
    outer = tracer.spanned("pipeline.schedule", lambda: inner() + 1)
    counted = tracer.counted("netlist.add_port.calls", lambda: None)
    tracer.set_op("chip/0")
    assert outer() == 2
    counted()
    counted()
    tracer.set_op(None)
    outer()
    exported = tracer.export()
    spans = exported["spans"]
    assert [s["name"] for s in spans] == ["sched.assign_widths", "pipeline.schedule"] * 2
    assert spans[0]["parent"] == spans[1]["id"] and spans[1]["parent"] is None
    assert [s["attrs"]["op"] for s in spans] == ["chip/0", "chip/0", spans[3]["id"], spans[3]["id"]]
    assert exported["counts"] == {"netlist.add_port.calls": 2}
    metrics = layer_metrics(spans, exported["counts"])
    assert metrics["sched.assign_widths.calls"] == 2
    assert metrics["netlist.add_port.calls"] == 2


def test_corrupted_result_is_a_failed_op():
    doc = {"schedule": {"total_time": 100}, "runtime_seconds": 1.5}
    checker = Checker({"chip": digest(doc)})
    assert checker.check("chip", dict(doc, runtime_seconds=9.0))  # volatile key only
    corrupted = {"schedule": {"total_time": 99}, "runtime_seconds": 1.5}
    assert not checker.check("chip", corrupted)
    assert not checker.check("unknown", doc)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_corrupted_result_in_a_pass_counts_every_op(monkeypatch):
    import workloads
    from hostspeed import Reference
    from repro.core.results import IntegrationResult

    original = IntegrationResult.to_dict

    def corrupt(self):
        doc = original(self)
        doc["schedule"]["total_time"] += 1
        return doc

    monkeypatch.setattr(IntegrationResult, "to_dict", corrupt)
    expected = json.loads((PERFBENCH / "expected.json").read_text())["corpus"]
    checker = Checker(expected)
    ops = [group for group in workloads.corpus_ops("smoke") if group[0][0].startswith("tiny/")]
    workloads.in_process_pass(ops, checker, None, Reference())
    assert checker.attempted == len(ops) > 0
    assert checker.failed == checker.attempted
