"""Output checks: every result the benchmark receives is compared with
what the program is known to produce.

* Result documents are digested (sha256 over sorted-key JSON) after the
  keys that depend on the clock are dropped, and the digest must equal
  the one recorded in ``expected.json`` for that operation.
* The DSC and d695 anchors must equal ``tests/golden/*.json`` the way
  ``tests/test_golden_json.py`` normalizes them.
* In-process results must pass ``repro.verify.verify_schedule`` with no
  errors (the recorded digests of served results were produced from
  results that passed it).

A check that fails counts its operation as failed; the benchmark keeps
going so the failure is reported against the operations attempted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
GOLDEN_DIR = HERE.parent / "tests" / "golden"

#: Keys whose values depend on the clock (or on tracing being enabled),
#: dropped at any depth before digesting.
VOLATILE = frozenset({"runtime_seconds", "stage_seconds", "elapsed_seconds", "trace"})


def strip_volatile(doc):
    """A copy of ``doc`` without :data:`VOLATILE` keys, at any depth."""
    if isinstance(doc, dict):
        return {k: strip_volatile(v) for k, v in doc.items() if k not in VOLATILE}
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


def digest(doc: dict) -> str:
    """sha256 of the normalized document."""
    text = json.dumps(strip_volatile(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def golden_anchor(op_key: str, doc: dict, schedule_doc: dict) -> str | None:
    """Compare an anchor chip's output with its golden fixture; returns
    an error message or None.  ``schedule_doc`` is the schedule section
    in the ``repro d695 --json`` layout."""
    if op_key == "anchor/dsc":
        golden = json.loads((GOLDEN_DIR / "dsc_integration.json").read_text())
        normalized = dict(doc, runtime_seconds=0.0, stage_seconds={})
        if normalized != golden:
            return "DSC result differs from tests/golden/dsc_integration.json"
    elif op_key == "anchor/d695":
        golden = json.loads((GOLDEN_DIR / "d695_schedule.json").read_text())
        if schedule_doc != golden:
            return "d695 schedule differs from tests/golden/d695_schedule.json"
    return None


class Checker:
    """Counts attempted and failed operations and keeps the first few
    failure messages.  ``record=True`` stores digests instead of
    comparing them (used to produce ``expected.json``)."""

    def __init__(self, expected: dict, record: bool = False):
        self.expected = expected
        self.record = record
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, op_key: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{op_key}: {message}")

    def check(self, op_key: str, doc: dict | None, problems=()) -> bool:
        """Count one operation; it fails on any ``problems`` or when the
        document's digest differs from the recorded one."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if doc is None and not problems:
            problems.append("no result document")
        if doc is not None:
            got = digest(doc)
            if self.record:
                if self.recorded.setdefault(op_key, got) != got:
                    problems.append("result differs between repetitions")
            elif op_key not in self.expected:
                problems.append("no recorded digest for this operation")
            elif self.expected[op_key] != got:
                problems.append(f"result digest {got[:12]} != recorded {self.expected[op_key][:12]}")
        if problems:
            self.fail(op_key, "; ".join(problems))
            return False
        return True
