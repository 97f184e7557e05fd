"""The per-problem circuit breaker's three-state machine."""

import pytest

from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)

KEY = "problem-key"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)


class TestClosed:
    def test_unknown_key_is_closed(self, breaker):
        assert breaker.state(KEY) == CLOSED
        assert breaker.allow(KEY) == CLOSED

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure(KEY)
        breaker.record_failure(KEY)
        assert breaker.state(KEY) == CLOSED
        assert breaker.allow(KEY) == CLOSED

    def test_success_resets_the_count(self, breaker):
        breaker.record_failure(KEY)
        breaker.record_failure(KEY)
        breaker.record_success(KEY)
        breaker.record_failure(KEY)
        breaker.record_failure(KEY)
        assert breaker.state(KEY) == CLOSED


class TestOpen:
    def test_threshold_failures_trip(self, breaker):
        for _ in range(3):
            breaker.record_failure(KEY)
        assert breaker.state(KEY) == OPEN
        assert breaker.allow(KEY) == OPEN
        assert breaker.tripped == 1

    def test_keys_are_independent(self, breaker):
        for _ in range(3):
            breaker.record_failure(KEY)
        assert breaker.allow("other") == CLOSED


class TestHalfOpen:
    def _trip(self, breaker):
        for _ in range(3):
            breaker.record_failure(KEY)

    def test_cooldown_admits_one_probe(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        assert breaker.allow(KEY) == "probe"
        # A second caller during the probe is still shorted.
        assert breaker.allow(KEY) == OPEN
        assert breaker.probes == 1

    def test_probe_success_closes(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        assert breaker.allow(KEY) == "probe"
        breaker.record_success(KEY)
        assert breaker.state(KEY) == CLOSED
        assert breaker.allow(KEY) == CLOSED

    def test_probe_failure_reopens_for_another_cooldown(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        assert breaker.allow(KEY) == "probe"
        breaker.record_failure(KEY)
        assert breaker.state(KEY) == OPEN
        assert breaker.allow(KEY) == OPEN  # cooldown restarted
        clock.advance(10.0)
        assert breaker.allow(KEY) == "probe"

    def test_stats_shape(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        breaker.allow(KEY)
        stats = breaker.stats()
        assert stats["tripped"] == 1
        assert stats["probes"] == 1
        assert stats["half_open"] == 1
        assert stats["tracked"] == 1
