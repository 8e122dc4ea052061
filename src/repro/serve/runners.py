"""From normalized job documents to result documents.

A submit runs in two steps, so a result-cache hit does no chip work:

1. :func:`content_address` computes the job's cache key.  Each chip
   reference is looked up in the server's reference index first (see
   :mod:`repro.serve.keys`); a hit costs one hash of the reference.  A
   miss builds the chip (generate / parse / construct), takes its
   :meth:`repro.soc.Soc.digest` and indexes it.
2. Only when the result cache misses does :func:`materialize` turn the
   references into work items, reusing every chip step 1 built — a
   missed chip is built once, not once for its digest and again for
   execution.  ``batch`` items stay :class:`repro.gen.ScenarioSpec`
   coordinates, so the process backend pickles bytes, not models.

:func:`execute` then dispatches the job to the same library entry
points the CLI uses (``Steac.integrate``, ``integrate_many``,
``run_fuzz``, ``repair_report``), so a served result is the verbatim
wire document of the matching shell command.  All three raise
:class:`repro.serve.keys.JobError` for user-caused failures (a
malformed ``.soc``, an unknown strategy) — the job manager records
those as *failed jobs*, distinct from server bugs.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional, Union

from repro.gen import ScenarioSpec
from repro.serve.cache import ResultCache
from repro.serve.keys import JobError, cache_key, soc_refs
from repro.soc import Soc
from repro.soc.digest import digest_document

#: A job's unit of chip work: a live model, or coordinates built in the
#: worker (kept as a spec so the process backend pickles bytes, not
#: models).
WorkItem = Union[Soc, ScenarioSpec]


def result_schema(kind: str) -> str:
    """The wire-schema version a job kind produces (part of its cache
    key: bumping a schema invalidates that kind's cached entries)."""
    if kind == "integrate":
        from repro.core.results import RESULT_SCHEMA

        return RESULT_SCHEMA
    if kind == "batch":
        from repro.core.results import BATCH_SCHEMA

        return BATCH_SCHEMA
    if kind == "fuzz":
        from repro.gen import FUZZ_SCHEMA

        return FUZZ_SCHEMA
    if kind == "repair":
        from repro.repair import REPAIR_REPORT_SCHEMA

        return REPAIR_REPORT_SCHEMA
    raise JobError(f"unknown job kind {kind!r}")


def _profile(spec: dict):
    """The registered generator profile a ``spec`` reference names."""
    from repro.gen import available_profiles, get_profile

    if spec["profile"] not in available_profiles():
        raise JobError(
            f"unknown generator profile {spec['profile']!r} "
            f"(available: {', '.join(available_profiles())})"
        )
    return get_profile(spec["profile"])


def _scenario_spec(ref: dict) -> ScenarioSpec:
    spec = ref["spec"]
    _profile(spec)
    return ScenarioSpec(
        profile=spec["profile"],
        seed=spec["seed"],
        index=spec["index"],
        test_pins=ref.get("test_pins"),
        power_budget=ref.get("power_budget"),
    )


def build_soc(ref: dict) -> Soc:
    """Build the chip one normalized reference names (raising
    :class:`JobError` on semantic problems, e.g. unparsable ``.soc``
    text or an unknown generator profile)."""
    test_pins = ref.get("test_pins")
    power_budget = ref.get("power_budget")
    if "soc_text" in ref:
        from repro.soc.itc02 import soc_from_text

        try:
            return soc_from_text(
                ref["soc_text"],
                test_pins=test_pins if test_pins is not None else 64,
                power_budget=power_budget if power_budget is not None else 0.0,
            )
        except ValueError as exc:
            raise JobError(f"unparsable soc_text: {exc}") from exc
    if "spec" in ref:
        return _scenario_spec(ref).build()
    name = ref["name"]
    overrides = {}
    if test_pins is not None:
        overrides["test_pins"] = test_pins
    if power_budget is not None:
        overrides["power_budget"] = power_budget
    if name == "d695":
        from repro.soc.itc02 import d695_soc

        return d695_soc(**overrides)
    from repro.soc.dsc import build_dsc_chip

    return build_dsc_chip(**overrides)


def ref_index_key(ref: dict) -> str:
    """The reference-index key of one normalized chip reference: the
    reference's document digest, plus the resolved generator profile
    for a ``spec`` (re-registering a profile name changes the chip)."""
    if "spec" in ref:
        return digest_document(dict(ref, profile=asdict(_profile(ref["spec"]))))
    return digest_document(ref)


def content_address(
    normalized: dict, index: Optional[ResultCache] = None
) -> tuple[str, list[Optional[Soc]]]:
    """A normalized job's cache key, and the chips built to find it.

    ``index`` maps :func:`ref_index_key` to ``Soc.digest()`` (a
    memory-only :class:`ResultCache`).  Returns ``(key, built)``:
    ``built[i]`` is the chip built for the job's ``i``-th reference, or
    ``None`` where ``index`` knew its digest.  Without ``index`` every
    distinct reference is built.  A reference is indexed only after it
    built, so one that fails (raising :class:`JobError`) fails again on
    every submit.
    """
    if index is None:
        index = ResultCache()  # this job's own: only repeats within it hit
    digests: list[str] = []
    built: list[Optional[Soc]] = []
    for ref in soc_refs(normalized):
        key = ref_index_key(ref)
        digest = index.get(key)
        soc = None
        if digest is None:
            soc = build_soc(ref)
            digest = soc.digest()
            index.put(key, digest)
        digests.append(digest)
        built.append(soc)
    return cache_key(normalized, digests, result_schema(normalized["kind"])), built


def materialize(normalized: dict, built: list[Optional[Soc]]) -> list[WorkItem]:
    """The work items of a job the result cache missed.

    Chips :func:`content_address` built are reused; an indexed ``spec``
    reference becomes a :class:`ScenarioSpec` the worker builds, and an
    indexed ``name`` / ``soc_text`` reference is built here.  A
    ``batch`` keeps every ``spec`` reference as coordinates.
    """
    batch = normalized["kind"] == "batch"
    work: list[WorkItem] = []
    for ref, soc in zip(soc_refs(normalized), built):
        if "spec" in ref and (batch or soc is None):
            work.append(_scenario_spec(ref))
        else:
            work.append(soc if soc is not None else build_soc(ref))
    return work


def _as_soc(item: WorkItem) -> Soc:
    return item.build() if isinstance(item, ScenarioSpec) else item


def execute(
    normalized: dict, work: list[WorkItem], execution: dict, progress=None
) -> dict:
    """Run a normalized job, returning its wire document.

    ``execution`` carries the non-semantic knobs (``backend`` /
    ``workers``); they steer *how fast* the answer arrives, never what
    it is — the cache relies on that.  ``progress`` is an optional
    :class:`repro.obs.JobProgress` threaded into the batch and fuzz
    engines so long jobs expose live per-scenario counters while
    running; the other kinds (one chip, one report) ignore it.
    """
    from repro.obs import span

    kind = normalized["kind"]
    backend = execution.get("backend") or "auto"
    workers = execution.get("workers")
    try:
        with span("serve.job", kind=kind, backend=backend):
            return _dispatch(normalized, work, kind, backend, workers, progress)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, JobError):
            raise
        # registry lookups (unknown strategy / allocator / backend) and
        # model validation raise KeyError/ValueError — user input, not
        # a server fault
        raise JobError(str(exc)) from exc


def _dispatch(
    normalized: dict, work: list[WorkItem], kind, backend, workers, progress
) -> dict:
    if kind == "integrate":
        from repro.core import Steac, SteacConfig

        config = SteacConfig(
            strategy=normalized["strategy"],
            compare_strategies=normalized["compare"],
            verify_schedule=normalized["verify"],
        )
        return Steac(config).integrate(_as_soc(work[0])).to_dict()
    if kind == "batch":
        from repro.core import Steac, SteacConfig

        config = SteacConfig(
            strategy=normalized["strategy"],
            compare_strategies=False,
            verify_schedule=normalized["verify"],
        )
        return (
            Steac(config)
            .integrate_many(
                work, workers=workers, backend=backend, progress=progress
            )
            .to_dict()
        )
    if kind == "fuzz":
        from repro.gen import run_fuzz

        return run_fuzz(
            profile=normalized["profile"],
            seeds=normalized["seeds"],
            seed_base=normalized["seed_base"],
            strategies=normalized["strategies"],
            ilp_max_tasks=normalized["ilp_max_tasks"],
            workers=workers,
            backend=backend,
            progress=progress,
        )
    if kind == "repair":
        from repro.repair import repair_report

        return repair_report(
            _as_soc(work[0]),
            seed=normalized["seed"],
            trials=normalized["trials"],
            workers=workers or 0,
            allocator=normalized["allocator"],
            defects=normalized["defects"],
            defect_density=normalized["defect_density"],
            spare_rows=normalized["spare_rows"],
            spare_cols=normalized["spare_cols"],
            model_rows=normalized["model_rows"],
        )
    raise JobError(f"unknown job kind {kind!r}")
