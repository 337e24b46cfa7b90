"""Tests for the service's memo LRU: hits, eviction, racing misses."""

import threading

import pytest

from repro.service import ResultCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache()
        value, hit = cache.get_or_compute("k", lambda: "v")
        assert (value, hit) == ("v", False)
        value, hit = cache.get_or_compute("k", lambda: "other")
        assert (value, hit) == ("v", True)

    def test_none_key_is_uncacheable(self):
        cache = ResultCache()
        calls = []
        for _ in range(3):
            value, hit = cache.get_or_compute(None, lambda: calls.append(1) or "v")
            assert not hit
        assert len(calls) == 3
        assert len(cache) == 0

    def test_info_counts(self):
        cache = ResultCache(maxsize=8)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (1, 2, 2)
        assert info.hit_ratio == pytest.approx(1 / 3)

    def test_lookup_counts_only_hits(self):
        from repro.service.cache import MISS

        cache = ResultCache(maxsize=2)
        assert cache.lookup("a") is MISS
        cache.put("a", None)
        cache.put("b", 2)
        assert cache.lookup("a") is None  # a cached None is a hit
        cache.put("c", 3)  # "a" was touched, so "b" is evicted
        assert cache.lookup("b") is MISS
        info = cache.info()
        assert (info.hits, info.misses) == (1, 0)

    def test_put_and_contains(self):
        cache = ResultCache()
        cache.put("warm", "value")
        assert "warm" in cache
        value, hit = cache.get_or_compute("warm", lambda: "never")
        assert (value, hit) == ("value", True)

    def test_clear(self):
        cache = ResultCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.info().misses == 0

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)

    def test_none_values_are_cached(self):
        cache = ResultCache()
        calls = []
        value, hit = cache.get_or_compute("k", lambda: calls.append(1))
        assert (value, hit) == (None, False)
        value, hit = cache.get_or_compute("k", lambda: calls.append(1))
        assert (value, hit) == (None, True)
        assert calls == [1]

    def test_racing_put_of_none_is_adopted(self):
        # regression: the post-compute re-check must treat a stored None
        # as present, not recount a miss and overwrite the winner
        cache = ResultCache()

        def compute():
            cache.put("k", None)  # another thread wins mid-compute
            return "loser"

        value, hit = cache.get_or_compute("k", compute)
        assert value is None and not hit
        in_cache, _ = cache.get_or_compute("k", lambda: "never")
        assert in_cache is None


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # touch a: b is now oldest
        cache.get_or_compute("c", lambda: 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_size_never_exceeds_maxsize(self):
        cache = ResultCache(maxsize=4)
        for i in range(20):
            cache.get_or_compute(f"k{i}", lambda i=i: i)
        assert len(cache) == 4


class TestRacing:
    def test_racing_misses_converge_on_one_value(self):
        cache = ResultCache()
        gate = threading.Barrier(4)
        results = []

        def compute():
            return object()  # distinct per call: losers must adopt winner's

        def racer():
            gate.wait()
            value, _hit = cache.get_or_compute("k", compute)
            results.append(value)

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert len({id(v) for v in results}) == 1


class TestEncoded:
    """``encoded()``: a line's wire encoding, made once per value."""

    @staticmethod
    def counting_encoder():
        calls = []

        def encode(value):
            calls.append(value)
            return f"enc-{len(calls)}"

        return encode, calls

    def test_reused_for_the_same_value(self):
        cache = ResultCache(journal=None)
        value = object()
        cache.put("k", value)
        encode, calls = self.counting_encoder()
        assert {cache.encoded("k", value, encode) for _ in range(5)} == {"enc-1"}
        assert calls == [value]
        assert cache.info().hits == 0  # encoding counts nothing

    def test_re_encoded_after_eviction(self):
        cache = ResultCache(maxsize=1, journal=None)
        first = object()
        cache.put("k", first)
        encode, calls = self.counting_encoder()
        assert cache.encoded("k", first, encode) == "enc-1"
        cache.put("other", object())  # evicts k
        second = object()
        cache.put("k", second)
        assert cache.encoded("k", second, encode) == "enc-2"
        assert calls == [first, second]

    def test_re_encoded_after_invalidate(self):
        cache = ResultCache(journal=None)
        first = object()
        cache.put("k", first)
        encode, calls = self.counting_encoder()
        assert cache.encoded("k", first, encode) == "enc-1"
        assert cache.invalidate("k", rejected=True)
        recomputed, hit = cache.get_or_compute("k", object)
        assert not hit
        assert cache.encoded("k", recomputed, encode) == "enc-2"
        assert cache.encoded("k", recomputed, encode) == "enc-2"

    def test_re_encoded_after_put_of_a_different_value(self):
        cache = ResultCache(journal=None)
        first, second = object(), object()
        cache.put("k", first)
        encode, calls = self.counting_encoder()
        assert cache.encoded("k", first, encode) == "enc-1"
        cache.put("k", second)
        assert cache.encoded("k", second, encode) == "enc-2"
        # a stale value no longer on the line is encoded, never stored
        assert cache.encoded("k", first, encode) == "enc-3"
        assert cache.encoded("k", second, encode) == "enc-2"

    def test_absent_key_encodes_without_storing(self):
        cache = ResultCache(journal=None)
        value = object()
        encode, calls = self.counting_encoder()
        assert cache.encoded("absent", value, encode) == "enc-1"
        assert cache.encoded("absent", value, encode) == "enc-2"
        assert cache.encoded(None, value, encode) == "enc-3"
        assert "absent" not in cache and len(cache) == 0

    def test_bytes_estimate_adds_the_encoding_length(self):
        cache = ResultCache(journal=None)
        value = object()
        cache.put("k", value)
        before = cache.stats().bytes_estimate
        cache.encoded("k", value, lambda v: "x" * 1000)
        assert cache.stats().bytes_estimate == before + 1000
        assert cache.lines()[0]["bytes_estimate"] == before + 1000
        # a wire payload dict counts its keys' and values' characters
        other = object()
        cache.put("k", other)
        before = cache.stats().bytes_estimate
        cache.encoded("k", other, lambda v: {"t": "pickle", "b64": "x" * 990})
        assert cache.stats().bytes_estimate == before + 1 + 6 + 3 + 990


class TestStats:
    """The typed introspection surface behind /debug/cache."""

    def test_stats_full_breakdown(self):
        cache = ResultCache(maxsize=2, journal=None)
        cache.get_or_compute("a", lambda: "x")
        cache.get_or_compute("a", lambda: "x")
        cache.get_or_compute("b", lambda: "y")
        cache.get_or_compute("c", lambda: "z")  # evicts a
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 3
        assert stats.evictions == 1
        assert stats.rejected == 0
        assert stats.entries == 2
        assert stats.maxsize == 2
        assert stats.bytes_estimate > 0
        assert stats.hit_ratio == pytest.approx(1 / 4)

    def test_rejected_invalidation_is_counted_separately(self):
        cache = ResultCache(journal=None)
        cache.put("poisoned", "value")
        cache.put("stale", "value")
        assert cache.invalidate("poisoned", rejected=True)
        assert cache.invalidate("stale")
        assert not cache.invalidate("absent", rejected=True)
        stats = cache.stats()
        assert stats.rejected == 1
        assert stats.evictions == 0

    def test_to_dict_is_json_shaped(self):
        cache = ResultCache(journal=None)
        cache.get_or_compute("a", lambda: 1)
        payload = cache.stats().to_dict()
        assert payload["misses"] == 1
        assert set(payload) == {
            "hits", "misses", "rejected", "evictions", "entries",
            "maxsize", "bytes_estimate", "hit_ratio",
        }

    def test_lines_report_age_hits_and_size(self):
        cache = ResultCache(journal=None)
        cache.get_or_compute("hot", lambda: "v")
        cache.get_or_compute("hot", lambda: "v")
        cache.get_or_compute("cold", lambda: "w")
        lines = {line["key"]: line for line in cache.lines()}
        assert lines["hot"]["hits"] == 1
        assert lines["cold"]["hits"] == 0
        assert all(line["age_seconds"] >= 0 for line in lines.values())
        assert all(line["bytes_estimate"] > len(key)
                   for key, line in lines.items())

    def test_lines_are_lru_ordered_coldest_first(self):
        cache = ResultCache(journal=None)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # touch: a is now hottest
        assert [line["key"] for line in cache.lines()] == ["b", "a"]

    def test_clear_resets_all_counters(self):
        cache = ResultCache(maxsize=1, journal=None)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.invalidate("b", rejected=True)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.rejected,
                stats.evictions, stats.entries) == (0, 0, 0, 0, 0)

    def test_evictions_are_journaled_outside_the_lock(self):
        from repro.ops.journal import EventJournal

        journal = EventJournal()
        cache = ResultCache(maxsize=1, journal=journal)
        cache.get_or_compute("a", lambda: 1)
        cache.put("b", 2)
        events = journal.events(name="cache.evicted")
        assert len(events) == 1
        assert dict(events[0].fields)["key"] == "a"

    def test_verify_on_hit_rejection_updates_stats(self):
        """End-to-end: a poisoned certificate on a cache hit bumps
        ``stats().rejected`` via the service's replay path."""
        import dataclasses
        import random

        from repro.buchi.random_automata import random_automaton
        from repro.service import AnalysisService, DecomposeRequest

        automaton = random_automaton(random.Random(3), 4, name="stats")
        with AnalysisService(workers=1, verify_on_hit=True,
                             journal=None) as service:
            good = service.request(DecomposeRequest(automaton, certify=True))
            bad_cert = dataclasses.replace(
                good.value.certificate,
                digest="0" * len(good.value.certificate.digest),
            )
            service.cache.put(
                good.key, dataclasses.replace(good.value, certificate=bad_cert)
            )
            assert service.request(
                DecomposeRequest(automaton, certify=True)
            ).cached is False
            stats = service.cache.stats()
            assert stats.rejected == 1
            # the fresh recompute was re-inserted
            assert stats.entries == 1
