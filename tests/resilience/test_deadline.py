"""Unit tests for the Deadline budget and the ladder/report pair."""

import pytest

from repro.errors import TimeLimitError
from repro.obs import TELEMETRY
from repro.resilience import Deadline, DegradationLadder, ResilienceReport


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_fresh_deadline_not_expired(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert not d.expired
        assert d.budget == 10.0
        assert d.remaining() == pytest.approx(10.0)

    def test_expires_exactly_at_budget(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        clock.advance(9.999)
        assert not d.expired
        clock.advance(0.001)
        assert d.expired
        assert d.remaining() == 0.0

    def test_remaining_clamped_at_zero(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        clock.advance(5.0)
        assert d.remaining() == 0.0

    def test_check_raises_time_limit_error_with_stage(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        d.check("mapping")  # fine while fresh
        clock.advance(2.0)
        with pytest.raises(TimeLimitError, match="mapping"):
            d.check("mapping")

    def test_limit_returns_remaining(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        clock.advance(4.0)
        assert d.limit() == pytest.approx(6.0)

    def test_limit_cap_wins_when_tighter(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert d.limit(2.0) == pytest.approx(2.0)
        clock.advance(9.0)
        assert d.limit(2.0) == pytest.approx(1.0)

    def test_limit_zero_when_expired(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        assert d.limit() == 0.0
        assert d.limit(5.0) == 0.0

    def test_sub_carves_fraction_of_remaining(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        clock.advance(2.0)  # 8 s left
        child = d.sub(0.5)
        assert child.budget == pytest.approx(4.0)
        assert child.remaining() == pytest.approx(4.0)
        # The parent is unaffected.
        assert d.remaining() == pytest.approx(8.0)

    def test_sub_child_expires_before_parent(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        child = d.sub(0.5)
        clock.advance(6.0)
        assert child.expired
        assert not d.expired

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_sub_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            Deadline(10.0, clock=FakeClock()).sub(fraction)


class TestResilienceReport:
    def test_clean_report(self):
        report = ResilienceReport(budget=30.0)
        assert not report.degraded
        assert report.rung_counts() == {}
        assert report.summary() == "no degradation"
        assert report.as_dict() == {
            "budget": 30.0,
            "degraded": False,
            "rungs": {},
            "events": [],
        }

    def test_record_and_counts(self):
        report = ResilienceReport()
        report.record("mapping", "greedy", "w1")
        report.record("mapping", "greedy", "w2")
        report.record("routing", "routing_relaxed")
        assert report.degraded
        assert report.count("greedy") == 2
        assert report.rung_counts() == {
            "greedy": 2,
            "routing_relaxed": 1,
        }
        assert "greedy x2" in report.summary()
        data = report.as_dict()
        assert data["degraded"] is True
        assert data["events"][0] == {
            "stage": "mapping",
            "rung": "greedy",
            "detail": "w1",
        }

    def test_record_mirrors_into_telemetry(self):
        TELEMETRY.reset()
        TELEMETRY.enabled = True
        try:
            report = ResilienceReport()
            report.record("mapping", "greedy")
            counters = TELEMETRY.snapshot()["counters"]
        finally:
            TELEMETRY.enabled = False
            TELEMETRY.reset()
        assert counters["resilience.greedy"] == 1


class TestDegradationLadder:
    def test_engage_records_on_report(self):
        report = ResilienceReport()
        ladder = DegradationLadder(report)
        ladder.engage("mapping", DegradationLadder.GREEDY, "window: w")
        assert ladder.fired(DegradationLadder.GREEDY) == 1
        assert report.count(DegradationLadder.GREEDY) == 1
        assert report.events[0].detail == "window: w"

    def test_default_report_is_owned(self):
        ladder = DegradationLadder()
        ladder.engage("mapping", DegradationLadder.GREEDY)
        assert ladder.report.degraded

    def test_rung_constants_are_complete(self):
        assert set(DegradationLadder.RUNGS) == {
            "greedy",
            "worker_retry",
            "worker_serial",
            "checkpoint_resume",
            "anytime_heuristic",
            "routing_relaxed",
            "routing_overrun",
            "serve_shed",
            "serve_breaker",
        }

    def test_every_rung_is_documented_and_engaged(self):
        """The ``report.py`` docstring table lists exactly the rungs, and
        each rung is engaged as ``DegradationLadder.<NAME>`` outside
        ``report.py``: a rung whose code goes but whose row stays fails,
        and so does a rung engaged in code with no row."""
        import pathlib
        import re

        import repro
        import repro.resilience.report as report_module

        table = report_module.__doc__.split("\n=====")[1:3]
        assert len(table) == 2, "rung table not found in the docstring"
        documented = set(re.findall(r"^``(\w+)``", table[1], re.M))
        src = pathlib.Path(repro.__file__).parent
        names = {
            name
            for path in src.rglob("*.py")
            if path != pathlib.Path(report_module.__file__)
            for name in re.findall(
                r"DegradationLadder\.([A-Z_]+)\b", path.read_text()
            )
        }
        engaged = {
            getattr(DegradationLadder, name) for name in names - {"RUNGS"}
        }
        assert len(DegradationLadder.RUNGS) == 9
        assert documented == set(DegradationLadder.RUNGS)
        assert engaged == set(DegradationLadder.RUNGS)
