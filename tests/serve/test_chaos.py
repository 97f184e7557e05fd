"""Chaos suite for the serve tier (DESIGN.md §15).

Arms the ``serve.*`` fault sites (and ``certify.audit``, which makes a
design fail its audit) and proves the availability claims: the server
keeps answering under failed audits, cache corruption and queue
overflow; every *served* result passes its audit; and the breaker's
degrade-probe-recover cycle actually cycles.
"""

import asyncio

import pytest

from repro.errors import CorruptCacheWarning
from repro.geometry import GridSpec
from repro.resilience.faults import FAULTS
from repro.serve.breaker import CLOSED, OPEN
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.protocol import JobState

ASSAY = """# assay chaos
input a volume=4
input b volume=4
mix m1 a b duration=6 volume=8 ratio=1:1
detect d1 m1 duration=2
"""


def config(**overrides):
    defaults = dict(grid=GridSpec(8, 8), workers=1, time_budget=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def run(coro):
    return asyncio.run(coro)


class TestBreakerCycle:
    def test_degrade_probe_recover(self):
        async def body():
            engine_config = config(
                breaker_threshold=2,
                breaker_cooldown=3600.0,
            )
            async with ServeEngine(engine_config) as engine:
                # Two consecutive failed audits trip the per-problem
                # breaker.
                with FAULTS.inject({"certify.audit": 2}):
                    for _ in range(2):
                        job = await engine.submit(ASSAY)
                        await job.wait()
                        assert job.state == JobState.FAILED
                key = job.key
                assert engine.breaker.state(key) == OPEN
                # While open: answered degraded-greedy, not rejected.
                degraded = await engine.submit(ASSAY)
                await degraded.wait()
                assert degraded.state == JobState.DONE, degraded.error
                assert degraded.source == "degraded"
                rungs = degraded.payload["resilience"]["rungs"]
                assert rungs.get("serve_breaker") == 1
                # Even the degraded answer is audited.
                assert degraded.payload["audit"]["ok"] is True
                # Degraded answers are never cached.
                assert engine.cache.lookup(key) is None
                assert engine.cache.hits == 0
                # Cooldown over: the next submission is the probe; it
                # succeeds and closes the breaker.
                engine.breaker.cooldown = 0.0
                probe = await engine.submit(ASSAY)
                await probe.wait()
                assert probe.state == JobState.DONE, probe.error
                assert probe.source == "solve"
                assert engine.breaker.state(key) == CLOSED
                # Fully recovered: resubmissions now hit the cache.
                hit = await engine.submit(ASSAY)
                await hit.wait()
                assert hit.source == "cache"

        run(body())


class TestCacheCorruption:
    def test_corrupt_entry_is_evicted_and_resolved(self, tmp_path):
        async def body():
            directory = str(tmp_path / "cache")
            async with ServeEngine(config(cache_dir=directory)) as engine:
                with FAULTS.inject({"serve.cache_corrupt": 1}):
                    job = await engine.submit(ASSAY)
                    await job.wait()
                # The job itself succeeded; only its cache entry rotted.
                assert job.state == JobState.DONE, job.error
                assert job.payload["audit"]["ok"] is True
                # The resubmission detects the rot, evicts, re-solves —
                # and the re-solved entry repairs the cache.
                with pytest.warns(CorruptCacheWarning, match="evicting"):
                    second = await engine.submit(ASSAY)
                    await second.wait()
                assert second.state == JobState.DONE, second.error
                assert second.source == "solve"
                assert engine.cache.evicted == 1
                third = await engine.submit(ASSAY)
                await third.wait()
                assert third.source == "cache"

        run(body())


class TestQueueOverflow:
    def test_forced_overflow_rejects_cleanly_and_recovers(self):
        async def body():
            async with ServeEngine(config()) as engine:
                with FAULTS.inject({"serve.queue_overflow": 1}):
                    rejected = await engine.submit(ASSAY)
                    await rejected.wait()
                assert rejected.state == JobState.REJECTED
                assert "chaos" in rejected.error["error"]
                # Availability: the very next submission is served.
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.DONE, job.error

        run(body())


class TestEveryServedResultAudited:
    def test_mixed_chaos_never_serves_unaudited(self):
        """Under a mixed fault plan, every DONE payload carries a
        passing audit — the engine's core serving invariant."""

        async def body():
            plan = {
                "certify.audit": {"times": 2, "after": 1},
                "serve.queue_overflow": {"times": 1, "after": 2},
            }
            async with ServeEngine(config()) as engine:
                with FAULTS.inject(plan):
                    jobs = []
                    for duration in (5, 6, 7, 8):
                        jobs.append(
                            await engine.submit(
                                ASSAY.replace(
                                    "duration=6", f"duration={duration}"
                                )
                            )
                        )
                    await asyncio.gather(*(j.wait() for j in jobs))
                assert any(j.state == JobState.DONE for j in jobs)
                for job in jobs:
                    if job.state == JobState.DONE:
                        assert job.payload["audit"] is not None
                        assert job.payload["audit"]["ok"] is True
                # The engine is still ready afterwards.
                assert engine.status()["ready"] is True

        run(body())
