"""Result cache (repro.serve.cache) and content addressing
(repro.serve.keys / repro.serve.runners): LRU behaviour, disk
persistence, the normalization rules the cache's correctness rests on,
and the chip-reference index that lets a hit skip all chip work."""

import json
import threading
import time
from collections import Counter

import pytest

from repro.serve import JobManager
from repro.serve.cache import ResultCache
from repro.serve.keys import JobError, cache_key, normalize_payload
from repro.serve.runners import content_address, materialize

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestResultCacheMemory:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, '{"x": 1}')
        assert cache.get(KEY_A) == '{"x": 1}'
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put(KEY_A, "a")
        cache.put(KEY_B, "b")
        assert cache.get(KEY_A) == "a"  # refresh A: B is now the LRU entry
        cache.put(KEY_C, "c")
        assert cache.evictions == 1
        assert cache.get(KEY_B) is None
        assert cache.get(KEY_A) == "a" and cache.get(KEY_C) == "c"

    def test_len_and_contains(self):
        cache = ResultCache(capacity=4)
        assert len(cache) == 0 and KEY_A not in cache
        cache.put(KEY_A, "a")
        assert len(cache) == 1 and KEY_A in cache

    def test_zero_capacity_disables_memory_tier(self):
        cache = ResultCache(capacity=0)
        cache.put(KEY_A, "a")
        assert cache.get(KEY_A) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_clear_drops_memory(self):
        cache = ResultCache(capacity=4)
        cache.put(KEY_A, "a")
        cache.clear()
        assert cache.get(KEY_A) is None

    def test_stats_shape(self):
        cache = ResultCache(capacity=4)
        cache.put(KEY_A, "a")
        cache.get(KEY_A)
        cache.get(KEY_B)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["disk"] is None


class TestResultCacheDisk:
    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(capacity=4, cache_dir=tmp_path / "store")
        first.put(KEY_A, '{"x": 1}')
        second = ResultCache(capacity=4, cache_dir=tmp_path / "store")
        assert second.get(KEY_A) == '{"x": 1}'
        assert second.disk_hits == 1

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        cache.clear()
        assert cache.get(KEY_A) == "a"  # from disk
        assert cache.get(KEY_A) == "a"  # now from memory
        assert cache.disk_hits == 1 and cache.hits == 2

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultCache(capacity=1, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        cache.put(KEY_B, "b")  # evicts A from memory
        assert cache.get(KEY_A) == "a"

    def test_zero_capacity_pure_disk_cache(self, tmp_path):
        cache = ResultCache(capacity=0, cache_dir=tmp_path)
        cache.put(KEY_A, "a")
        assert cache.get(KEY_A) == "a"
        assert cache.disk_hits == 1

    def test_non_hex_key_rejected(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        with pytest.raises(ValueError):
            cache.put("../escape", "x")

    def test_entries_are_named_by_key(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, "payload")
        assert (tmp_path / f"{KEY_A}.json").read_text() == "payload"


class TestNormalization:
    def test_defaults_fill_in(self):
        explicit, _ = normalize_payload({
            "kind": "integrate", "soc": {"name": "d695"},
            "strategy": "session", "verify": False, "compare": False,
        })
        minimal, _ = normalize_payload({
            "kind": "integrate", "soc": {"name": "d695"},
        })
        assert explicit == minimal

    def test_execution_params_split_out(self):
        normalized, execution = normalize_payload({
            "kind": "batch", "socs": [{"name": "dsc"}],
            "backend": "process", "workers": 4,
        })
        assert execution == {"backend": "process", "workers": 4}
        assert "backend" not in json.dumps(normalized)

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="strateggy"):
            normalize_payload({
                "kind": "integrate", "soc": {"name": "d695"},
                "strateggy": "serial",
            })

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="kind"):
            normalize_payload({"kind": "compile"})

    def test_soc_ref_needs_exactly_one_form(self):
        with pytest.raises(JobError, match="exactly one"):
            normalize_payload({
                "kind": "integrate",
                "soc": {"name": "d695", "soc_text": "SocName x"},
            })
        with pytest.raises(JobError, match="exactly one"):
            normalize_payload({"kind": "integrate", "soc": {}})

    def test_unknown_named_soc_rejected(self):
        with pytest.raises(JobError, match="s38417"):
            normalize_payload({"kind": "integrate", "soc": {"name": "s38417"}})

    def test_spec_needs_profile_and_seed(self):
        with pytest.raises(JobError, match="profile and seed"):
            normalize_payload({
                "kind": "integrate", "soc": {"spec": {"profile": "tiny"}},
            })

    def test_bool_is_not_an_int(self):
        with pytest.raises(JobError, match="bool"):
            normalize_payload({
                "kind": "fuzz", "seeds": True,
            })

    def test_empty_batch_rejected(self):
        with pytest.raises(JobError, match="non-empty"):
            normalize_payload({"kind": "batch", "socs": []})

    def test_fuzz_strategies_resolved_at_submit(self):
        from repro.sched import available_strategies

        normalized, _ = normalize_payload({"kind": "fuzz"})
        assert normalized["strategies"] == list(available_strategies())


class TestCacheKeys:
    def _key(self, payload):
        normalized, _ = normalize_payload(payload)
        key, _ = content_address(normalized)
        return key

    def test_key_is_hex_sha256(self):
        key = self._key({"kind": "integrate", "soc": {"name": "d695"}})
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_defaulted_and_explicit_payloads_share_a_key(self):
        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) == self._key({
            "kind": "integrate", "soc": {"name": "d695"},
            "strategy": "session", "verify": False, "compare": False,
        })

    def test_execution_params_do_not_change_the_key(self):
        """backend/workers steer speed, never results — sweeps from
        differently-parallel clients must share cache entries."""
        assert self._key({
            "kind": "batch", "socs": [{"name": "dsc"}],
        }) == self._key({
            "kind": "batch", "socs": [{"name": "dsc"}],
            "backend": "process", "workers": 8,
        })

    def test_strategy_changes_the_key(self):
        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) != self._key({
            "kind": "integrate", "soc": {"name": "d695"}, "strategy": "serial",
        })

    def test_chip_identity_is_content_not_spelling(self):
        """The same chip by name and as inline .soc text addresses the
        same cache entry (the key holds the model digest, not the ref)."""
        from repro.soc.itc02 import d695_soc_text

        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) == self._key({
            "kind": "integrate",
            "soc": {"soc_text": d695_soc_text(), "test_pins": 64},
        })

    def test_different_pins_change_the_key(self):
        assert self._key({
            "kind": "integrate", "soc": {"name": "d695"},
        }) != self._key({
            "kind": "integrate", "soc": {"name": "d695", "test_pins": 32},
        })

    def test_schema_version_salts_the_key(self):
        normalized, _ = normalize_payload(
            {"kind": "integrate", "soc": {"name": "d695"}}
        )
        _, work = content_address(normalized)
        digests = [item.digest() for item in work]
        assert cache_key(normalized, digests, "repro/integration-result/v3") != \
            cache_key(normalized, digests, "repro/integration-result/v4")

    def test_unknown_profile_is_a_job_error(self):
        with pytest.raises(JobError, match="profile"):
            self._key({
                "kind": "integrate",
                "soc": {"spec": {"profile": "galactic", "seed": 1}},
            })

    def test_unparsable_soc_text_is_a_job_error(self):
        with pytest.raises(JobError, match="soc_text"):
            self._key({"kind": "integrate", "soc": {"soc_text": "garbage"}})


# -- the chip-reference index -------------------------------------------------


def _settle(job, timeout: float = 60.0):
    """Wait until a job submitted to a live JobManager is terminal."""
    deadline = time.monotonic() + timeout
    while job.status not in ("done", "failed"):
        assert time.monotonic() < deadline, f"job {job.id} still {job.status}"
        time.sleep(0.005)
    return job


def _tiny_soc_text() -> str:
    from repro.gen import SocGenerator
    from repro.gen.writer import soc_to_text

    return soc_to_text(SocGenerator(5, "tiny").generate(0))


TINY_SPEC = {"spec": {"profile": "tiny", "seed": 11}}

#: One reference per form, each with and without budget overrides.
REF_FORMS = {
    "spec": TINY_SPEC,
    "spec+overrides": {**TINY_SPEC, "test_pins": 40, "power_budget": 2.5},
    "name": {"name": "d695"},
    "name+overrides": {"name": "dsc", "test_pins": 30, "power_budget": 8},
    "soc_text": {"soc_text": _tiny_soc_text()},
    "soc_text+overrides": {"soc_text": _tiny_soc_text(), "test_pins": 48,
                           "power_budget": 1.5},
}


@pytest.fixture()
def chip_work(monkeypatch):
    """Counts every chip build, digest and ``.soc`` parse while a test
    runs (``socs`` counts every ``Soc`` constructed, whatever the path)."""
    import repro.soc.itc02 as itc02
    from repro.gen import ScenarioSpec, SocGenerator
    from repro.soc import Soc

    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ScenarioSpec, "build", counting("build", ScenarioSpec.build))
    monkeypatch.setattr(SocGenerator, "generate",
                        counting("generate", SocGenerator.generate))
    monkeypatch.setattr(Soc, "digest", counting("digest", Soc.digest))
    monkeypatch.setattr(Soc, "__post_init__", counting("socs", Soc.__post_init__))
    monkeypatch.setattr(itc02, "soc_from_text", counting("parse", itc02.soc_from_text))
    return counts


@pytest.fixture()
def manager():
    manager = JobManager(workers=1)
    yield manager
    manager.close()


class TestRefIndex:
    def test_first_spec_integrate_builds_and_digests_once(self, manager, chip_work):
        job = _settle(manager.submit({"kind": "integrate", "soc": TINY_SPEC}))
        assert job.status == "done" and job.cached is False
        # the chip built for the digest is the one the worker integrates
        assert chip_work["build"] == chip_work["generate"] == 1
        assert chip_work["digest"] == 1
        assert chip_work["socs"] == 1

    @pytest.mark.parametrize("form", ["spec", "name", "soc_text+overrides"])
    def test_repeat_does_no_chip_work(self, manager, chip_work, form):
        payload = {"kind": "integrate", "soc": REF_FORMS[form]}
        first = _settle(manager.submit(payload))
        assert first.status == "done"
        chip_work.clear()
        hit = manager.submit(payload)
        assert hit.status == "done" and hit.cached is True
        assert hit.cache_key == first.cache_key
        assert hit.result_text == first.result_text
        assert hit.work == []
        assert sum(chip_work.values()) == 0, dict(chip_work)

    def test_indexed_chip_on_a_result_miss_is_built_once(self, manager, chip_work):
        _settle(manager.submit({"kind": "integrate", "soc": TINY_SPEC}))
        chip_work.clear()
        job = _settle(manager.submit(
            {"kind": "integrate", "soc": TINY_SPEC, "strategy": "serial"}
        ))
        assert job.status == "done" and job.cached is False
        assert chip_work["build"] == 1 and chip_work["digest"] == 0

    @pytest.mark.parametrize("form", sorted(REF_FORMS))
    def test_index_assisted_key_equals_a_fresh_key(self, form):
        ref = REF_FORMS[form]
        for payload in ({"kind": "integrate", "soc": ref},
                        {"kind": "batch", "socs": [ref, {"name": "dsc"}]}):
            normalized, _ = normalize_payload(payload)
            index = ResultCache()
            cold, _ = content_address(normalized, index)
            warm, built = content_address(normalized, index)
            fresh, _ = content_address(normalized)
            assert built == [None] * len(built)
            assert warm == cold == fresh

    def test_chip_identity_holds_with_a_warm_index(self):
        from repro.soc.itc02 import d695_soc_text

        by_name, _ = normalize_payload({"kind": "integrate", "soc": {"name": "d695"}})
        by_text, _ = normalize_payload({
            "kind": "integrate",
            "soc": {"soc_text": d695_soc_text(), "test_pins": 64},
        })
        for warmed, other in ((by_name, by_text), (by_text, by_name)):
            index = ResultCache()
            content_address(warmed, index)
            assert content_address(warmed, index)[0] == content_address(other, index)[0]

    def test_reregistering_a_profile_changes_the_key(self, monkeypatch):
        from repro.gen import GenProfile, profiles

        name = "ref-index-probe"
        monkeypatch.setitem(profiles._REGISTRY, name, GenProfile(name=name, cores=(2, 2)))
        normalized, _ = normalize_payload({
            "kind": "integrate", "soc": {"spec": {"profile": name, "seed": 3}},
        })
        index = ResultCache()
        before, _ = content_address(normalized, index)
        monkeypatch.setitem(profiles._REGISTRY, name, GenProfile(name=name, cores=(6, 6)))
        after, built = content_address(normalized, index)
        assert built[0] is not None, "a re-registered profile must not hit the index"
        assert after != before
        assert after == content_address(normalized)[0]

    def test_unparsable_soc_text_is_never_indexed(self, manager, chip_work):
        payload = {"kind": "integrate", "soc": {"soc_text": "garbage"}}
        for _ in range(3):
            job = manager.submit(payload)
            assert job.status == "failed" and "soc_text" in job.error
        assert chip_work["parse"] == 3
        stats = manager.ref_index.stats()
        assert stats["entries"] == 0 and stats["hits"] == 0 and stats["misses"] == 3

    def test_index_holds_at_most_cap_entries(self, monkeypatch, chip_work):
        from repro.serve import jobs

        monkeypatch.setattr(jobs, "REF_INDEX_CAP", 2)
        manager = JobManager(workers=1)
        try:
            payloads = [
                {"kind": "integrate", "soc": {"spec": {"profile": "tiny", "seed": s}}}
                for s in range(3)
            ]
            jobs = [_settle(manager.submit(p)) for p in payloads]
            assert manager.stats()["ref_index"]["entries"] == 2
            assert manager.stats()["ref_index"]["capacity"] == 2
            # the evicted reference costs one build + digest again, and
            # still addresses its cached result
            chip_work.clear()
            again = manager.submit(payloads[0])
            assert again.cached is True and again.cache_key == jobs[0].cache_key
            assert chip_work["build"] == 1 and chip_work["digest"] == 1
        finally:
            manager.close()

    def test_concurrent_submits_agree_on_the_key(self, manager):
        payload = {"kind": "integrate", "soc": TINY_SPEC}
        barrier = threading.Barrier(8)
        jobs = []

        def submit():
            barrier.wait()
            jobs.append(manager.submit(payload))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        normalized, _ = normalize_payload(payload)
        assert len(jobs) == 8
        assert {job.cache_key for job in jobs} == {content_address(normalized)[0]}
        assert len(manager.ref_index) == 1

    def test_batch_keeps_spec_items_as_coordinates(self):
        from repro.gen import ScenarioSpec
        from repro.soc import Soc

        normalized, _ = normalize_payload({
            "kind": "batch", "socs": [TINY_SPEC, {"name": "d695"}],
        })
        _, built = content_address(normalized, ResultCache())
        work = materialize(normalized, built)
        assert isinstance(work[0], ScenarioSpec)
        assert work[1] is built[1] and isinstance(work[1], Soc)
