"""The content-addressed result cache: keys, round-trips, counters."""

import json

import pytest

from repro.obs import recorder
from repro.parallel.cache import (
    MISS,
    CacheStats,
    ResultCache,
    code_fingerprint,
    unit_key,
)


class TestUnitKey:
    def test_deterministic(self):
        a = unit_key("sweep_point", {"mode": "single", "platform": "Tegra2"})
        b = unit_key("sweep_point", {"platform": "Tegra2", "mode": "single"})
        assert a == b  # dict insertion order must not matter
        assert len(a) == 64 and int(a, 16) >= 0  # sha256 hex

    def test_sensitive_to_every_coordinate(self):
        base = unit_key("k", {"x": 1}, seed=0, fingerprint="f")
        assert unit_key("k2", {"x": 1}, seed=0, fingerprint="f") != base
        assert unit_key("k", {"x": 2}, seed=0, fingerprint="f") != base
        assert unit_key("k", {"x": 1}, seed=1, fingerprint="f") != base
        assert unit_key("k", {"x": 1}, seed=0, fingerprint="g") != base

    def test_float_vs_int_params_distinct(self):
        # 1 and 1.0 are == in Python but serialise differently; the key
        # must not conflate an int node count with a float frequency.
        assert unit_key("k", {"x": 1}) != unit_key("k", {"x": 1.0})

    def test_default_fingerprint_is_code_fingerprint(self):
        fp = code_fingerprint()
        assert len(fp) == 64
        assert unit_key("k", {}) == unit_key("k", {}, fingerprint=fp)


class TestResultCache:
    def test_miss_then_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {"x": 1}, fingerprint="f")
        assert cache.get(key) is MISS
        value = {"freq_ghz": 1.0, "speedup": 1.2345678901234567}
        cache.put(key, value, kind="k")
        assert cache.get(key) == value
        # Floats survive the JSON round-trip bit-exactly.
        assert cache.get(key)["speedup"] == value["speedup"]

    def test_none_is_a_cacheable_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {}, fingerprint="f")
        cache.put(key, None)
        assert cache.get(key) is None  # and is NOT the MISS sentinel

    def test_corrupt_object_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {}, fingerprint="f")
        cache.put(key, 42)
        path = cache._path(key)
        path.write_text(path.read_text()[:10])  # truncate mid-document
        assert cache.get(key) is MISS
        cache.put(key, 43)  # overwrites the corpse
        assert cache.get(key) == 43

    def test_alien_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {}, fingerprint="f")
        cache._path(key).parent.mkdir(parents=True)
        cache._path(key).write_text(json.dumps({"schema": 99, "value": 1}))
        assert cache.get(key) is MISS

    def test_stored_bytes_are_the_sorted_json_document(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {}, fingerprint="f")
        value = {"speedup": 1.2345678901234567, "freq_ghz": 0.5, "n": [1, None]}
        cache.put(key, value, kind="sweep_point")
        assert cache._path(key).read_bytes() == json.dumps(
            {"schema": 1, "kind": "sweep_point", "value": value},
            sort_keys=True,
        ).encode()
        assert not list(tmp_path.rglob("*.tmp"))  # no temp file left

    def test_put_after_the_root_is_removed(self, tmp_path):
        import shutil

        root = tmp_path / "cache"
        cache = ResultCache(root)
        key = unit_key("k", {"x": 1}, fingerprint="f")
        cache.put(key, 1)
        shutil.rmtree(root)  # e.g. an operator clearing the cache
        cache.put(key, 2)
        assert cache.get(key) == 2
        other = unit_key("k", {"x": 2}, fingerprint="f")
        cache.put(other, 3)  # a shard directory never seen before
        assert cache.get(other) == 3

    def test_size_accounting_tracks_rewrites(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**6)
        key = unit_key("k", {}, fingerprint="f")
        cache.put(key, 1)
        cache.put(key, "x" * 100)  # overwrite: old size is subtracted
        on_disk = sum(p.stat().st_size for p in cache._object_files())
        assert cache._total_bytes == on_disk

    def test_stats_count_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {}, fingerprint="f")
        cache.get(key)
        cache.put(key, 1)
        cache.get(key)
        cache.get(key)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.total == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert "2 hits / 1 misses" in cache.stats.describe()

    def test_empty_stats(self):
        s = CacheStats()
        assert s.hit_rate == 0.0 and s.total == 0

    def test_obs_totals_bumped_while_recording(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = unit_key("k", {}, fingerprint="f")
        with recorder.recording() as rec:
            cache.get(key)          # miss
            cache.put(key, 1)
            cache.get(key)          # hit
        assert rec.totals.get("cache.miss") == 1.0
        assert rec.totals.get("cache.hit") == 1.0
        # and nothing leaks when tracing is off
        assert recorder.current() is None


class TestGetMany:
    def _keys(self, n):
        return [unit_key("k", {"i": i}, fingerprint="f") for i in range(n)]

    def test_order_preserved_with_miss_sentinels(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._keys(4)
        cache.put(keys[1], "one")
        cache.put(keys[3], "three")
        values = cache.get_many(keys)
        assert values[0] is MISS and values[2] is MISS
        assert values[1] == "one" and values[3] == "three"

    def test_counts_aggregate_once_per_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._keys(5)
        for key in keys[:3]:
            cache.put(key, 1)
        with recorder.recording() as rec:
            cache.get_many(keys)
        assert cache.stats.hits == 3 and cache.stats.misses == 2
        assert rec.totals["cache.hit"] == 3.0
        assert rec.totals["cache.miss"] == 2.0

    def test_empty_batch_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        with recorder.recording() as rec:
            assert cache.get_many([]) == []
        assert cache.stats.total == 0
        assert "cache.hit" not in rec.totals

    def test_matches_get_semantics_for_corrupt_objects(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._keys(2)
        cache.put(keys[0], "good")
        cache.put(keys[1], "bad")
        cache._path(keys[1]).write_text("{broken")
        assert cache.get_many(keys) == ["good", MISS]
        assert not cache._path(keys[1]).exists()  # corpse unlinked
