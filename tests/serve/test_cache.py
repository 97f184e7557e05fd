"""Result cache (CRC discipline) and single-flight dedup."""

import asyncio
import json
import zlib

import pytest

from repro.errors import CorruptCacheWarning
from repro.resilience.faults import FAULTS
from repro.serve.cache import ResultCache, SingleFlight
from repro.serve.canonical import canonical_json

KEY = "k" * 64
PAYLOAD = {"served": "solve", "design": {"devices": []}, "metrics": {"w": 3}}


class TestMemoryCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup(KEY) is None
        cache.store(KEY, PAYLOAD)
        assert cache.lookup(KEY) == PAYLOAD
        assert cache.stats()["hits"] == 1.0
        assert cache.stats()["misses"] == 1.0
        assert cache.stats()["hit_rate"] == 0.5

    def test_refused_payload_counts_a_miss(self):
        cache = ResultCache()
        cache.store(KEY, PAYLOAD)
        assert cache.lookup(KEY, lambda payload: None) is None
        assert cache.lookup(KEY, lambda payload: {"n": 1}) == {"n": 1}
        assert (cache.hits, cache.misses) == (1, 1)


class TestMemoryBound:
    def test_lru_trim_keeps_the_cap(self):
        cache = ResultCache(max_entries=2)
        for i in range(3):
            cache.store(f"{i}" * 64, {"n": i})
        assert len(cache) == 2
        assert cache.lookup("0" * 64) is None  # oldest trimmed
        assert cache.lookup("2" * 64) == {"n": 2}
        assert cache.stats()["trimmed"] == 1.0

    def test_lookup_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.store("a" * 64, {"n": 0})
        cache.store("b" * 64, {"n": 1})
        cache.lookup("a" * 64)  # a becomes most recent
        cache.store("c" * 64, {"n": 2})  # so b is the one trimmed
        assert cache.lookup("a" * 64) == {"n": 0}
        assert cache.lookup("b" * 64) is None

    def test_trimmed_disk_entry_reloads(self, tmp_path):
        """Memory trimming never loses a disk-backed result."""
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory, max_entries=1)
        cache.store(KEY, PAYLOAD)
        cache.store("x" * 64, {"n": 1})  # trims KEY from memory
        assert cache.lookup(KEY) == PAYLOAD  # reloaded from disk


class TestDiskCache:
    def test_survives_a_new_instance(self, tmp_path):
        directory = str(tmp_path / "cache")
        ResultCache(directory).store(KEY, PAYLOAD)
        fresh = ResultCache(directory)
        assert fresh.lookup(KEY) == PAYLOAD

    def test_corrupt_entry_evicted_never_served(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.store(KEY, PAYLOAD)
        path = tmp_path / "cache" / f"{KEY}.json"
        raw = path.read_text()
        middle = len(raw) // 2
        path.write_text(raw[:middle] + ("#" if raw[middle] != "#" else "@") + raw[middle + 1:])
        fresh = ResultCache(directory)
        with pytest.warns(CorruptCacheWarning, match="evicting"):
            assert fresh.lookup(KEY) is None
        assert not path.exists()
        assert fresh.stats()["evicted"] == 1.0

    def test_wrong_key_in_record_evicted(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        body = {"key": "x" * 64, "payload": PAYLOAD}
        record = dict(body, crc=zlib.crc32(canonical_json(body).encode()))
        (tmp_path / "cache" / f"{KEY}.json").write_text(
            canonical_json(record)
        )
        with pytest.warns(CorruptCacheWarning, match="key mismatch"):
            assert cache.lookup(KEY) is None

    def test_truncated_record_evicted(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.store(KEY, PAYLOAD)
        path = tmp_path / "cache" / f"{KEY}.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        fresh = ResultCache(directory)
        with pytest.warns(CorruptCacheWarning):
            assert fresh.lookup(KEY) is None

    def test_chaos_site_corrupts_the_write(self, tmp_path):
        """``serve.cache_corrupt`` rots the entry; the CRC catches it."""
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        with FAULTS.inject({"serve.cache_corrupt": 1}):
            cache.store(KEY, PAYLOAD)
        assert FAULTS.fired("serve.cache_corrupt") == 1
        with pytest.warns(CorruptCacheWarning):
            assert cache.lookup(KEY) is None

    def test_record_format_matches_journal_discipline(self, tmp_path):
        directory = str(tmp_path / "cache")
        ResultCache(directory).store(KEY, PAYLOAD)
        record = json.loads((tmp_path / "cache" / f"{KEY}.json").read_text())
        assert set(record) == {"key", "payload", "crc"}
        body = {"key": record["key"], "payload": record["payload"]}
        assert record["crc"] == zlib.crc32(canonical_json(body).encode())


class TestSingleFlight:
    def test_leader_then_followers(self):
        async def run():
            flights = SingleFlight()
            leader, fut1 = flights.claim(KEY)
            follower, fut2 = flights.claim(KEY)
            assert leader and not follower
            assert fut1 is fut2
            flights.resolve(KEY, {"answer": 1})
            assert await fut2 == {"answer": 1}
            assert flights.coalesced == 1

        asyncio.run(run())

    def test_settled_flight_makes_a_new_leader(self):
        async def run():
            flights = SingleFlight()
            leader, fut = flights.claim(KEY)
            flights.resolve(KEY, "done")
            again, fut2 = flights.claim(KEY)
            assert leader and again
            assert fut2 is not fut

        asyncio.run(run())

    def test_failure_delivered_as_value(self):
        """Exceptions travel as results, so nothing warns unobserved."""

        async def run():
            flights = SingleFlight()
            _, fut = flights.claim(KEY)
            flights.claim(KEY)
            error = RuntimeError("solver died")
            flights.resolve(KEY, error)
            assert await fut is error

        asyncio.run(run())
