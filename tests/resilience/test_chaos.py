"""Chaos suite: every degradation-ladder rung engages under injected faults.

Each test arms the process-wide :data:`FAULTS` injector with one
failure mode, runs a full synthesis, and asserts that

1. the corresponding ladder rung is recorded in the run's
   :class:`ResilienceReport`;
2. the degraded result still replays cleanly on the chip simulator;
3. the run warns (once) with :class:`DegradedResultWarning`.
"""

import warnings

import pytest

from repro.core.mappers import ILPMapper, WindowedILPMapper
from repro.core.simulation import ChipSimulator
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.errors import DegradedResultWarning
from repro.geometry import GridSpec
from repro.obs import TELEMETRY
from repro.resilience import FAULTS, Deadline, DegradationLadder, FaultSpec

from tests.conftest import build_tiny_assay


def synthesize_tiny(
    mapper=None, deadline=None, expect_degraded=True, **config_kwargs
):
    """Run the tiny assay, asserting the degradation warning contract."""
    graph, schedule = build_tiny_assay()
    config = SynthesisConfig(grid=GridSpec(8, 8), mapper=mapper, **config_kwargs)
    synthesizer = ReliabilitySynthesizer(config)
    if expect_degraded:
        with pytest.warns(DegradedResultWarning):
            result = synthesizer.synthesize(graph, schedule, deadline=deadline)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            result = synthesizer.synthesize(graph, schedule, deadline=deadline)
    return result


def greedy_count(report, scope: str) -> int:
    """Engagements of the ``greedy`` rung with the given scope."""
    return sum(
        1 for e in report.events
        if e.rung == DegradationLadder.GREEDY and e.detail.startswith(f"{scope}:")
    )


def assert_simulator_valid(result):
    """The degraded result must still execute the assay end to end."""
    report = ChipSimulator(result).run()
    assert report.products_delivered >= 1
    return report


class TestWindowRungs:
    def test_persistent_solver_fault_descends_to_window_greedy(self):
        """Backend down for good → ``greedy`` (window) for every window."""
        with FAULTS.inject({"scipy.milp": FaultSpec(times=None)}):
            result = synthesize_tiny(
                mapper=WindowedILPMapper(window_size=2, refine_passes=0)
            )
        report = result.resilience
        assert greedy_count(report, "window") >= 1
        assert greedy_count(report, "window") == report.count(
            DegradationLadder.GREEDY
        )
        assert result.metrics.mapper == WindowedILPMapper.name
        assert_simulator_valid(result)

    def test_rungs_mirrored_into_telemetry(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with FAULTS.inject({"scipy.milp": FaultSpec(times=None)}):
                result = synthesize_tiny(
                    mapper=WindowedILPMapper(window_size=2, refine_passes=0)
                )
            counters = TELEMETRY.snapshot()["counters"]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert greedy_count(result.resilience, "window") >= 1
        assert counters["resilience.greedy"] == result.resilience.count(
            DegradationLadder.GREEDY
        )


class TestMonolithicRungs:
    def test_bb_limit_fault_falls_back_to_greedy(self):
        """The B&B stops as if timed out with no incumbent →
        ``greedy`` (mapping scope) re-maps with the greedy balancer."""
        with FAULTS.inject({"bb.time_limit": 1}):
            result = synthesize_tiny(mapper=ILPMapper(backend="branch_bound"))
        assert FAULTS.fired("bb.time_limit") == 1
        assert greedy_count(result.resilience, "mapping") >= 1
        assert result.metrics.mapper == "greedy"
        assert_simulator_valid(result)

    def test_scipy_fault_on_monolithic_ilp(self):
        with FAULTS.inject({"scipy.milp": FaultSpec(times=None)}):
            result = synthesize_tiny(mapper=ILPMapper(backend="scipy"))
        assert greedy_count(result.resilience, "mapping") >= 1
        assert_simulator_valid(result)


class TestRoutingRungs:
    def test_routing_fault_relaxes_convenience(self):
        """Routing fails on every reserved-corridor attempt →
        ``routing_relaxed`` re-synthesizes without the distance caps."""
        with FAULTS.inject({"routing.route": 3}):
            result = synthesize_tiny()
        assert FAULTS.fired("routing.route") == 3
        assert result.resilience.count(DegradationLadder.ROUTING_RELAXED) == 1
        assert_simulator_valid(result)

    def test_routing_fault_exhausting_every_attempt_is_terminal(self):
        """When even the relaxed retry fails, the ladder is exhausted and
        the run raises SynthesisError (not a bare RoutingError)."""
        from repro.errors import SynthesisError

        graph, schedule = build_tiny_assay()
        config = SynthesisConfig(grid=GridSpec(8, 8))
        with FAULTS.inject({"routing.route": FaultSpec(times=None)}):
            with pytest.raises(SynthesisError, match="relaxed"):
                ReliabilitySynthesizer(config).synthesize(graph, schedule)


class TestDeadlineRungs:
    def test_expired_deadline_goes_greedy_and_finishes(self):
        """A zero budget degrades (greedy mapping, routing overrun) but
        still yields a simulator-valid result."""
        result = synthesize_tiny(
            mapper=WindowedILPMapper(window_size=2),
            deadline=Deadline(0.0),
        )
        report = result.resilience
        # The pipeline re-runs after the overrun, so the mapping rung
        # may engage once per pipeline run.
        assert greedy_count(report, "deadline") >= 1
        assert report.count(DegradationLadder.ROUTING_OVERRUN) == 1
        assert_simulator_valid(result)

    def test_clean_run_reports_no_degradation(self):
        result = synthesize_tiny(
            expect_degraded=False, time_budget=120.0
        )
        assert result.resilience is not None
        assert not result.resilience.degraded
        assert result.resilience.budget == 120.0
        assert_simulator_valid(result)


class TestInjectionHygiene:
    def test_faults_disarmed_after_every_test(self):
        assert not FAULTS.armed

    def test_synthesis_unaffected_by_disarmed_injector(self):
        result = synthesize_tiny(expect_degraded=False)
        assert not result.resilience.degraded
