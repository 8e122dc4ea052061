"""Span tracer that wraps the program's public layer functions.

The program itself is not instrumented: :meth:`Tracer.install` replaces
selected functions and methods (at every module that imported them by
name) with wrappers that open a span per call, and restores them on
:meth:`Tracer.uninstall`.  Spans are recorded by a private
:class:`repro.obs.trace.Tracer` (not the program's global ``TRACER``,
so the program's own spans and the ``trace`` section of its results
stay off): a record carries ``name``, ``start``, ``dur``, ``id``,
``parent`` (the enclosing span on the same thread) and, in ``attrs``,
``op``, the chip or job the span belongs to.  Records stay in memory
until the run ends.  Two very hot calls (``Module.add_port`` and the
netlist's ``check_name``) are counted without spans.

``start`` comes from ``time.monotonic`` so spans recorded in a server
process line up with the client's clock on the same host.
"""

from __future__ import annotations

import functools
import statistics
import threading
from collections import Counter, defaultdict

from repro.obs.trace import Tracer as SpanRecorder

#: The five Fig.-1 stages, in flow order.
STAGES = ("parse_stil", "compile_bist", "schedule", "insert_dft", "translate_patterns")

#: Scheduling strategies timed through ``resolve_schedule`` (the default
#: comparison set).
STRATEGIES = ("session", "nonsession", "serial")


class Tracer:
    """Span recorder and counters plus the wrapper installer."""

    def __init__(self) -> None:
        self.obs = SpanRecorder()
        self.obs.enable()
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def set_op(self, op) -> None:
        """Tag spans opened on this thread with ``op``; without it a span
        is tagged with the id of its outermost ancestor."""
        self._local.op = op

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def spanned(self, name, fn, after=None):
        """A wrapper of ``fn`` recording a span; ``name`` may be a
        callable of the call's arguments, and ``after(result, args)``
        may add counters once the call returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.obs.span(label, op=getattr(self._local, "op", None)):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """A wrapper of ``fn`` that only counts calls."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap the layer boundaries the per-layer metrics are read at."""
        import repro.controller.generator as controller_generator
        import repro.core.pipeline as pipeline
        import repro.core.steac as steac
        import repro.netlist.netlist as netlist
        import repro.sched.session as session
        import repro.sched.timecalc as timecalc
        import repro.wrapper.generator as wrapper_generator
        import repro.wrapper.wrapper as wrapper_wrapper
        from repro.bist.compiler import Brains
        from repro.core.results import IntegrationResult
        from repro.gen.generator import SocGenerator
        from repro.soc.soc import Soc

        def netlist_size(_result, args) -> None:
            ctx = args[1]
            if args[0].name == "insert_dft" and ctx.netlist is not None:
                modules = ctx.netlist.modules.values()
                self.add("netlist.ports", sum(len(m.ports) for m in modules))
                self.add("netlist.instances", sum(len(m.instances) for m in modules))

        def bist_groups(engine, _args) -> None:
            self.add("bist.groups", len(engine.plan.groups))

        def batch_items(batch, _args) -> None:
            self.add("batch.items", len(batch.items))
            self.add("batch.items_failed", len(batch.failures))

        self._patch(pipeline.Stage, "run", self.spanned(
            lambda stage, ctx: "pipeline." + stage.name,
            pipeline.Stage.run, netlist_size))
        self._patch(pipeline, "tasks_from_soc",
                    self.spanned("sched.tasks_from_soc", pipeline.tasks_from_soc))
        self._patch(pipeline, "resolve_schedule", self.spanned(
            lambda strategy, *a, **k: "sched." + strategy, pipeline.resolve_schedule))
        self._patch(session, "assign_widths",
                    self.spanned("sched.assign_widths", session.assign_widths))
        design = self.spanned("wrapper.design_wrapper", timecalc.design_wrapper)
        for module in (timecalc, wrapper_generator, wrapper_wrapper):
            self._patch(module, "design_wrapper", design)
        self._patch(Brains, "compile",
                    self.spanned("bist.compile", Brains.compile, bist_groups))
        self._patch(pipeline, "generate_wrapper",
                    self.spanned("wrapper.generate_wrapper", pipeline.generate_wrapper))
        self._patch(pipeline, "build_tam", self.spanned("tam.build", pipeline.build_tam))
        self._patch(controller_generator, "make_test_controller", self.spanned(
            "controller.generate", controller_generator.make_test_controller))
        self._patch(netlist.Module, "add_port",
                    self.counted("netlist.add_port.calls", netlist.Module.add_port))
        self._patch(netlist, "check_name",
                    self.counted("netlist.check_name.calls", netlist.check_name))
        assemble = IntegrationResult.__dict__["from_context"].__func__
        self._patch(IntegrationResult, "from_context",
                    classmethod(self.spanned("results.assemble", assemble)))
        self._patch(IntegrationResult, "to_dict",
                    self.spanned("results.to_dict", IntegrationResult.to_dict))
        self._patch(Soc, "digest", self.spanned("soc.digest", Soc.digest))
        self._patch(SocGenerator, "generate",
                    self.spanned("gen.build", SocGenerator.generate))
        self._patch(steac, "integrate_many", self.spanned(
            "batch.integrate_many", steac.integrate_many, batch_items))
        return self

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        """Span records and counters as a JSON-ready document; a span not
        tagged by :meth:`set_op` gets its outermost ancestor's id."""
        records = self.obs.records()
        parents = {r["id"]: r["parent"] for r in records}
        for record in records:
            if record["attrs"].get("op") is None:
                root = record["id"]
                while parents.get(root) in parents:
                    root = parents[root]
                record["attrs"]["op"] = root
        with self._lock:
            return {"spans": records, "counts": dict(self.counts)}


# -- arithmetic ---------------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover
    (children are clipped to the parent's interval, overlaps counted once).
    ``spans`` are :class:`repro.obs.trace.Tracer` records."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["start"] + span["dur"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["start"] + span["dur"]
        clipped = [
            (max(s, start), min(e, end)) for s, e in children[span["id"]] if e > start and s < end
        ]
        result[span["id"]] = span["dur"] - covered(clipped)
    return result


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics (seconds, calls, sizes) from spans and counters;
    see ``perfbench/README.md`` for what each one should move."""
    busy = Counter()
    calls = Counter()
    for span in spans:
        busy[span["name"]] += span["dur"]
        calls[span["name"]] += 1
    own = self_times(spans)
    stage_self = Counter()
    for span in spans:
        if span["name"].startswith("pipeline."):
            stage_self[span["name"]] += own[span["id"]]
    metrics = {f"pipeline.{stage}.self_s": stage_self[f"pipeline.{stage}"] for stage in STAGES}
    metrics["sched.tasks_from_soc_s"] = busy["sched.tasks_from_soc"]
    metrics["wrapper.design_wrapper.calls"] = calls["wrapper.design_wrapper"]
    metrics["wrapper.design_wrapper_s"] = busy["wrapper.design_wrapper"]
    for strategy in STRATEGIES:
        metrics[f"sched.{strategy}_s"] = busy[f"sched.{strategy}"]
    metrics["sched.assign_widths.calls"] = calls["sched.assign_widths"]
    metrics["sched.assign_widths_s"] = busy["sched.assign_widths"]
    metrics["bist.compile_s"] = busy["bist.compile"]
    metrics["bist.groups"] = counts.get("bist.groups", 0)
    metrics["wrapper.generate_wrapper_s"] = busy["wrapper.generate_wrapper"]
    metrics["tam.build_s"] = busy["tam.build"]
    metrics["controller.generate_s"] = busy["controller.generate"]
    for name in ("netlist.add_port.calls", "netlist.check_name.calls"):
        metrics[name] = counts.get(name, 0)
    metrics["netlist.ports"] = counts.get("netlist.ports", 0)
    metrics["netlist.instances"] = counts.get("netlist.instances", 0)
    metrics["results.assemble_s"] = busy["results.assemble"]
    metrics["results.to_dict_s"] = busy["results.to_dict"]
    metrics["soc.digest.calls"] = calls["soc.digest"]
    metrics["soc.digest_s"] = busy["soc.digest"]
    metrics["gen.build_s"] = busy["gen.build"]
    metrics["batch.integrate_many_s"] = busy["batch.integrate_many"]
    metrics["batch.items"] = counts.get("batch.items", 0)
    metrics["batch.items_failed"] = counts.get("batch.items_failed", 0)
    return metrics


def median(values, default: float = 0.0) -> float:
    """Median, or ``default`` for an empty sample."""
    return statistics.median(values) if values else default
