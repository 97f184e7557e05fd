"""Tests for the fault-adaptive lifetime engine (DESIGN.md §12)."""

import pytest

from repro.errors import SynthesisError
from repro.geometry import GridSpec, Point
from repro.architecture.channel_edges import ChannelEdge
from repro.architecture.health import ChipHealth
from repro.core.mappers import GreedyMapper
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.resilience import (
    FAULTS,
    AdaptiveLifetimeEngine,
    FailureModel,
    FailureProcess,
    RemapPolicy,
    compare_lifetimes,
)

from tests.conftest import build_tiny_assay


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_assay()


def tiny_config(side: int = 10) -> SynthesisConfig:
    return SynthesisConfig(grid=GridSpec(side, side), mapper=GreedyMapper())


@pytest.fixture(scope="module")
def tiny_wear(tiny):
    """Max per-valve wear of one tiny-assay run on the 10x10 grid."""
    graph, schedule = tiny
    result = ReliabilitySynthesizer(tiny_config()).synthesize(graph, schedule)
    return result.metrics.setting1.max_total


class TestFailureModel:
    def test_defaults_are_valid(self):
        assert FailureModel().wear_budget == 4000

    def test_rejects_bad_budget(self):
        with pytest.raises(SynthesisError, match="wear budget"):
            FailureModel(wear_budget=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(SynthesisError, match="not a probability"):
            FailureModel(valve_fail_prob=1.5)

    def test_rejects_negative_acceleration(self):
        with pytest.raises(SynthesisError, match="wear_acceleration"):
            FailureModel(wear_acceleration=-0.1)


class TestFailureProcess:
    def test_exhaustion_is_prospective(self):
        process = FailureProcess(FailureModel(wear_budget=100))
        cells = {Point(0, 0): 60}
        process.commit_run(cells, {})
        # 60 worn; another 60 would blow the 100 budget
        dead_c, dead_e = process.exhausted_by_next_run(cells, {})
        assert dead_c == [Point(0, 0)] and dead_e == []

    def test_commit_accumulates(self):
        process = FailureProcess(FailureModel(wear_budget=100))
        edge = ChannelEdge(0, 0, horizontal=True)
        process.commit_run({Point(1, 1): 5}, {edge: 7})
        process.commit_run({Point(1, 1): 5}, {edge: 7})
        assert process.cell_wear[Point(1, 1)] == 10
        assert process.edge_wear[edge] == 14

    def test_sampling_is_seeded(self):
        def draws(seed):
            process = FailureProcess(
                FailureModel(valve_fail_prob=0.3, seed=seed)
            )
            cells = {Point(x, 0): 1 for x in range(20)}
            return [process.sample_failures(cells, {}) for _ in range(5)]

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)

    def test_no_hazard_no_deaths(self):
        process = FailureProcess(FailureModel())
        dead_c, dead_e = process.sample_failures({Point(0, 0): 1}, {})
        assert dead_c == [] and dead_e == []


class TestStaticBaseline:
    def test_static_matches_synthesis_lifetime(self, tiny, tiny_wear):
        """Static repetitions == wear_budget // wear_per_run exactly."""
        graph, schedule = tiny
        model = FailureModel(wear_budget=3 * tiny_wear + 1, seed=0)
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(), model=model
        )
        report = engine.run(max_runs=50, adaptive=False)
        assert report.runs == 3
        assert "static design cannot remap" in report.terminal_cause
        assert not report.adaptive
        assert report.failures > 0  # the wear-out deaths are recorded

    def test_dead_on_arrival_chip_runs_zero(self, tiny, tiny_wear):
        """Budget below one run's wear: explicit 0-run terminal report."""
        graph, schedule = tiny
        model = FailureModel(wear_budget=tiny_wear - 1, seed=0)
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(), model=model,
            policy=RemapPolicy(max_attempts=1, preventive_horizon=None),
        )
        report = engine.run(max_runs=5, adaptive=False)
        assert report.runs == 0
        assert report.terminal_cause is not None


class TestAdaptiveEngine:
    def test_adaptive_outlives_static(self, tiny, tiny_wear):
        graph, schedule = tiny
        model = FailureModel(wear_budget=3 * tiny_wear + 1, seed=0)
        comparison = compare_lifetimes(
            graph, schedule, tiny_config(), model=model, max_runs=50
        )
        assert comparison.static.runs == 3
        assert comparison.adaptive.runs > comparison.static.runs
        assert comparison.gain > 1.0
        assert comparison.adaptive.remaps >= 1

    def test_runs_are_deterministic(self, tiny, tiny_wear):
        graph, schedule = tiny
        model = FailureModel(
            wear_budget=3 * tiny_wear + 1, valve_fail_prob=0.001, seed=11
        )

        def lifetime():
            engine = AdaptiveLifetimeEngine(
                graph, schedule, tiny_config(), model=model
            )
            return engine.run(max_runs=30, adaptive=True).runs

        assert lifetime() == lifetime()

    def test_every_generation_is_validated(self, tiny, tiny_wear):
        """The oracle stamps each adopted design with a clean audit."""
        graph, schedule = tiny
        model = FailureModel(wear_budget=3 * tiny_wear + 1, seed=0)
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(), model=model
        )
        report = engine.run(max_runs=50, adaptive=True)
        assert report.remaps >= 1
        # remap events only enter the log after simulate() + audit pass
        remap_events = [e for e in report.events if e.kind == "remap"]
        assert len(remap_events) >= 1
        assert all("mapper=" in e.detail for e in remap_events)

    def test_run_limit_terminates_cleanly(self, tiny):
        graph, schedule = tiny
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(),
            model=FailureModel(wear_budget=10**6, seed=0),
        )
        report = engine.run(max_runs=3, adaptive=True)
        assert report.runs == 3
        assert "run limit" in report.terminal_cause

    def test_report_serializes(self, tiny, tiny_wear):
        graph, schedule = tiny
        model = FailureModel(wear_budget=3 * tiny_wear + 1, seed=0)
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(), model=model
        )
        payload = engine.run(max_runs=20, adaptive=True).as_dict()
        assert payload["assay"] == "tiny"
        assert payload["runs"] > 0
        assert isinstance(payload["final_health"]["dead_cells"], list)
        assert all(
            set(e) == {"run", "kind", "detail"} for e in payload["events"]
        )


class TestWarmRemap:
    """Attempt 0 of a remap: only the device over the dead cell moves."""

    # hit device -> (setting-1 max(peristaltic), setting-2 max(peristaltic),
    # used valves, mapping objective), for the ILP layout on 10x10
    PINNED = {
        "a": ((44, 40), (19, 15), 45, 40),
        "b": ((44, 40), (19, 15), 39, 40),
        "c": ((43, 40), (18, 15), 46, 40),
    }

    @pytest.fixture(scope="class")
    def previous(self, tiny):
        graph, schedule = tiny
        config = SynthesisConfig(grid=GridSpec(10, 10))
        return ReliabilitySynthesizer(config).synthesize(graph, schedule)

    @pytest.mark.parametrize("hit", sorted(PINNED))
    def test_moves_only_the_hit_device(self, tiny, previous, hit):
        graph, schedule = tiny
        engine = AdaptiveLifetimeEngine(
            graph, schedule, SynthesisConfig(grid=GridSpec(10, 10))
        )
        dead = sorted(previous.devices[hit].placement.pump_cells())[0]
        health = ChipHealth.healthy().kill_cells([dead])
        result = engine._warm_remap(previous, health, None)

        metrics = result.metrics
        assert metrics.mapper == "warm+ilp"
        assert metrics.algorithm_iterations == 1
        assert result.resilience is None
        for name, device in result.devices.items():
            moved = device.placement != previous.devices[name].placement
            assert moved == (name == hit), name
        assert engine._validate(result) is None
        s1, s2, used, objective = self.PINNED[hit]
        assert (metrics.setting1.max_total,
                metrics.setting1.max_peristaltic) == s1
        assert (metrics.setting2.max_total,
                metrics.setting2.max_peristaltic) == s2
        assert metrics.used_valves == used
        assert metrics.mapping_objective == objective


class TestChaosInjection:
    def test_injected_valve_and_edge_deaths_are_remapped(self, tiny):
        """chip.* sites force deterministic deaths; the engine survives."""
        graph, schedule = tiny
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(),
            model=FailureModel(wear_budget=10**5, seed=0),
        )
        plan = {
            "chip.valve_dead": {"times": 2, "after": 1},
            "chip.edge_dead": 1,
        }
        with FAULTS.inject(plan):
            report = engine.run(max_runs=8, adaptive=True)
            fired = FAULTS.fired()
        assert fired == {"chip.valve_dead": 2, "chip.edge_dead": 1}
        assert report.runs == 8  # survived to the run limit
        assert report.remaps == 3
        assert len(report.final_health.dead_cells) == 2
        assert len(report.final_health.dead_edges) == 1

    def test_static_design_dies_at_first_injected_fault(self, tiny):
        graph, schedule = tiny
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(),
            model=FailureModel(wear_budget=10**5, seed=0),
        )
        with FAULTS.inject({"chip.valve_dead": 1}):
            report = engine.run(max_runs=8, adaptive=False)
        assert report.runs == 1
        assert "hardware fault" in report.terminal_cause

    def test_sites_free_when_disarmed(self, tiny):
        graph, schedule = tiny
        engine = AdaptiveLifetimeEngine(
            graph, schedule, tiny_config(),
            model=FailureModel(wear_budget=10**5, seed=0),
        )
        report = engine.run(max_runs=2, adaptive=True)
        assert report.failures == 0
        assert report.final_health.is_healthy


class TestGracefulDegradation:
    def test_infeasible_remap_is_terminal_not_a_crash(self, tiny):
        """A tight grid cannot absorb batch wear-out: terminal report."""
        graph, schedule = tiny
        config = tiny_config(side=8)
        result = ReliabilitySynthesizer(config).synthesize(graph, schedule)
        wear = result.metrics.setting1.max_total
        engine = AdaptiveLifetimeEngine(
            graph, schedule, config,
            model=FailureModel(wear_budget=wear + 1, seed=0),
            policy=RemapPolicy(max_attempts=2, preventive_horizon=None),
        )
        report = engine.run(max_runs=10, adaptive=True)
        assert report.runs >= 1
        assert "remap infeasible" in report.terminal_cause
        assert any(e.kind == "remap-failed" for e in report.events)
        assert report.events[-1].kind == "terminal"

    def test_initial_synthesis_failure_is_terminal(self, tiny):
        from repro.architecture.health import ChipHealth

        graph, schedule = tiny
        # kill the whole grid: nothing can even be placed
        dead = ChipHealth.healthy().kill_cells(
            [Point(x, y) for x in range(10) for y in range(10)]
        )
        config = SynthesisConfig(
            grid=GridSpec(10, 10), mapper=GreedyMapper(), health=dead
        )
        engine = AdaptiveLifetimeEngine(graph, schedule, config)
        report = engine.run(max_runs=5, adaptive=True)
        assert report.runs == 0
        assert "initial synthesis" in report.terminal_cause


class TestTable1Gains:
    """ISSUE acceptance: >= 1.5x repetitions-to-failure on two assays."""

    def test_mixing_tree_gain(self):
        from repro.assays import get_case, schedule_for

        case = get_case("mixing_tree")
        graph = case.graph()
        schedule = schedule_for(case, case.policy1())
        comparison = compare_lifetimes(
            graph, schedule,
            SynthesisConfig(grid=GridSpec(13, 13), mapper=GreedyMapper()),
            model=FailureModel(wear_budget=500, seed=7),
            max_runs=100,
        )
        assert comparison.gain >= 1.5
        assert comparison.adaptive.runs >= 10

    def test_pcr_gain(self):
        from repro.assays import get_case, schedule_for

        case = get_case("pcr")
        graph = case.graph()
        schedule = schedule_for(case, case.policy1())
        comparison = compare_lifetimes(
            graph, schedule,
            SynthesisConfig(grid=GridSpec(11, 11)),
            model=FailureModel(wear_budget=500, seed=7),
            max_runs=100,
        )
        assert comparison.gain >= 1.5
