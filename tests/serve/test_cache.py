"""PlanCache: counters, JSON persistence, concurrent access."""

import json
import threading

import pytest

from repro.errors import PlanCacheError
from repro.runtime import DEFAULT_BACKEND
from repro.serve.cache import PlanCache
from repro.serve.planner import Plan


def make_plan(key: str = "k", l_bits: int = 8, r_bits: int = 8) -> Plan:
    return Plan(
        op="spmm", l_bits=l_bits, r_bits=r_bits, config={"bsn": 64},
        predicted_time_s=1.5e-6, key=key,
    )


class TestCounters:
    def test_miss_then_hit(self):
        cache = PlanCache()
        assert cache.get("a") is None
        cache.put("a", make_plan("a"))
        assert cache.get("a") is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_peek_does_not_count(self):
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        assert cache.peek("a") is not None
        assert cache.peek("b") is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_empty_hit_rate(self):
        assert PlanCache().hit_rate == 0.0

    def test_reset_counters(self):
        cache = PlanCache()
        cache.get("a")
        cache.reset_counters()
        assert (cache.hits, cache.misses) == (0, 0)

    def test_get_or_build_builds_once(self):
        cache = PlanCache()
        calls = []

        def builder():
            calls.append(1)
            return make_plan("a")

        p1 = cache.get_or_build("a", builder)
        p2 = cache.get_or_build("a", builder)
        assert p1 is p2
        assert len(calls) == 1

    def test_stats_dict(self):
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        cache.get("a")
        s = cache.stats()
        assert s == {"entries": 1, "hits": 1, "misses": 0, "hit_rate": 1.0}


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        cache = PlanCache()
        cache.put("a", make_plan("a", 8, 8))
        cache.put("b", make_plan("b", 4, 4))
        path = cache.save(tmp_path / "plans.json")

        fresh = PlanCache()
        assert fresh.load(path) == 2
        for key in ("a", "b"):
            plan = fresh.peek(key)
            original = cache.peek(key)
            assert plan.to_dict() == original.to_dict()

    def test_hits_after_reload(self, tmp_path):
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        path = cache.save(tmp_path / "plans.json")
        fresh = PlanCache(path)
        assert fresh.get("a") is not None
        assert fresh.hits == 1

    def test_constructor_path_becomes_default(self, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache(path)
        cache.put("a", make_plan("a"))
        cache.save()
        assert json.loads(path.read_text())["plans"]["a"]["l_bits"] == 8

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            PlanCache().save()

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 99, "plans": {}}))
        with pytest.raises(ValueError):
            PlanCache().load(path)

    def test_saved_files_carry_current_version(self, tmp_path):
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        path = cache.save(tmp_path / "plans.json")
        assert json.loads(path.read_text())["version"] == 2

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        cache.save(tmp_path / "plans.json")
        assert [p.name for p in tmp_path.iterdir()] == ["plans.json"]

    def test_save_replaces_existing_file_atomically(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("garbage that a torn write would leave behind")
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        cache.save(path)
        assert json.loads(path.read_text())["plans"]["a"]["op"] == "spmm"


_V1_KEY = "spmm|256x512|n=64|v=8|s=0.900|A100|latency[L4-16,R4-16]"
_V2_KEY = (
    f"spmm|256x512|n=64|v=8|s=0.900|{DEFAULT_BACKEND}@A100|latency[L4-16,R4-16]"
)


class TestV1Migration:
    """There is no v1 migration: a v1 file is refused like any other
    unsupported schema."""

    def test_v1_file_is_refused(self, tmp_path):
        plan = {
            "op": "spmm", "l_bits": 4, "r_bits": 4, "config": {"bsn": 64},
            "predicted_time_s": 1.5e-6, "key": _V1_KEY,
        }
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 1, "plans": {_V1_KEY: plan}}))
        with pytest.raises(PlanCacheError, match="version 1"):
            PlanCache().load(path)
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        with pytest.warns(RuntimeWarning, match="version 1"):
            assert cache.load(path, strict=False) == 0
        assert cache.keys() == ["a"]  # unchanged
        with pytest.warns(RuntimeWarning, match="version 1"):
            assert len(PlanCache(path)) == 0  # auto-load starts cold

    def test_v2_round_trip_preserves_backend_fields(self, tmp_path):
        from repro.serve.planner import Plan

        plan = Plan(
            op="spmm", l_bits=8, r_bits=8, config={"bsn": 96},
            predicted_time_s=2e-6, key=_V2_KEY,
            backend="magicube-strict", device="H100",
        )
        cache = PlanCache()
        cache.put(_V2_KEY, plan)
        path = cache.save(tmp_path / "plans.json")
        fresh = PlanCache(path)
        loaded = fresh.peek(_V2_KEY)
        assert loaded.backend == "magicube-strict"
        assert loaded.device == "H100"


class TestThreadSafety:
    def test_concurrent_lookups_count_consistently(self):
        cache = PlanCache()
        cache.put("a", make_plan("a"))

        def worker():
            for _ in range(200):
                cache.get("a")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits == 8 * 200


class TestCorruptFiles:
    """PlanCache.load hardening: typed errors, forgiving auto-load."""

    CASES = {
        "truncated": '{"version": 2, "plans": {"a": {"op": "spm',
        "not-json": "plan cache? never heard of it",
        "empty": "",
        "wrong-top-level": '["version", 2]',
        "no-plans-key": '{"version": 2}',
        "plans-not-a-dict": '{"version": 2, "plans": [1, 2]}',
        "malformed-entry": '{"version": 2, "plans": {"a": {"l_bits": 8}}}',
        # a knob no kernel config has: the engine cannot run this plan
        "non-kernel-knob": (
            '{"version": 2, "plans": {"a": {"op": "spmm", "l_bits": 4, '
            '"r_bits": 4, "config": {"bsn": 128, "tp": 4}}}}'
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_strict_load_raises_typed_error(self, tmp_path, name):
        path = tmp_path / "plans.json"
        path.write_text(self.CASES[name])
        with pytest.raises(PlanCacheError):
            PlanCache().load(path)

    def test_plan_cache_error_is_a_value_error(self, tmp_path):
        """Callers that caught the old untyped rejection keep working."""
        path = tmp_path / "plans.json"
        path.write_text("{broken")
        with pytest.raises(ValueError):
            PlanCache().load(path)

    def test_lenient_load_warns_and_keeps_going(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{broken")
        cache = PlanCache()
        cache.put("existing", make_plan("existing"))
        with pytest.warns(RuntimeWarning, match="unreadable plan cache"):
            assert cache.load(path, strict=False) == 0
        assert cache.peek("existing") is not None  # untouched

    def test_constructor_autoload_survives_corruption(self, tmp_path):
        """A torn shared cache file degrades startup to a cold cache."""
        path = tmp_path / "plans.json"
        path.write_text('{"version": 2, "plans": {"a"')
        with pytest.warns(RuntimeWarning):
            cache = PlanCache(path)
        assert len(cache) == 0
        # the cache is fully usable afterwards, including saving back
        cache.put("a", make_plan("a"))
        cache.save()
        assert PlanCache(path).peek("a") is not None

    def test_missing_file_still_raises_typed_error(self, tmp_path):
        with pytest.raises(PlanCacheError):
            PlanCache().load(tmp_path / "nope.json")


class TestPromote:
    def test_promote_installs_and_counts_changes(self):
        cache = PlanCache()
        cache.put("a", make_plan("a"))
        fresh_a = make_plan("a", l_bits=4, r_bits=4)   # differs
        same_a = make_plan("a")                         # identical
        new_b = make_plan("b")
        assert cache.promote({"a": fresh_a, "b": new_b}) == 2
        assert cache.peek("a").l_bits == 4
        assert cache.peek("b") is not None
        # re-promoting identical plans changes nothing
        assert cache.promote({"a": fresh_a, "b": new_b}) == 0
        assert cache.promote({"a": same_a}) == 1

    def test_promote_empty_is_a_no_op(self):
        cache = PlanCache()
        assert cache.promote({}) == 0
        assert len(cache) == 0

    def test_promote_is_safe_under_concurrent_reads(self):
        """Regression test: hammer get()/peek() from reader threads while
        promotions continuously swap the live plan set. Readers must only
        ever observe a fully-consistent generation (every key from the
        same promote), never a torn mix or a crash."""
        keys = [f"k{i}" for i in range(8)]
        generations = [
            {k: make_plan(k, l_bits=bits, r_bits=bits) for k in keys}
            for bits in (4, 8, 16)
        ]
        cache = PlanCache()
        cache.promote(generations[0])
        stop = threading.Event()
        errors: list[str] = []

        def reader():
            while not stop.is_set():
                seen = {cache.get(k).l_bits for k in keys if cache.get(k)}
                # a *single* lookup set may legitimately span a promote
                # boundary, but every individual plan must be complete
                for k in keys:
                    plan = cache.peek(k)
                    if plan is None:
                        errors.append(f"{k} vanished mid-promote")
                        return
                    if plan.l_bits not in (4, 8, 16):
                        errors.append(f"{k} torn: {plan.l_bits}")
                        return
                if not seen:
                    errors.append("all keys vanished")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        for _ in range(200):
            for gen in generations:
                cache.promote(gen)
        stop.set()
        for t in readers:
            t.join(timeout=5.0)
        assert errors == []

    def test_promote_atomic_per_batch(self):
        """A reader holding the lock between two promotes sees one whole
        generation: keys() snapshotted under the lock can never show a
        half-applied promotion batch."""
        cache = PlanCache()
        first = {f"g1-{i}": make_plan(f"g1-{i}") for i in range(16)}
        second = {f"g2-{i}": make_plan(f"g2-{i}") for i in range(16)}
        done = threading.Event()
        observed: list[set] = []

        def promoter():
            for _ in range(100):
                cache.promote(first)
                cache.promote(second)
            done.set()

        t = threading.Thread(target=promoter)
        t.start()
        while not done.is_set() or not observed:
            snapshot = set(cache.keys())
            g1 = {k for k in snapshot if k.startswith("g1-")}
            g2 = {k for k in snapshot if k.startswith("g2-")}
            observed.append(snapshot)
            # promotions only add/replace; a generation, once promoted,
            # is either fully present or not yet present
            assert len(g1) in (0, 16)
            assert len(g2) in (0, 16)
        t.join(timeout=5.0)
        assert observed  # at least one snapshot was checked
