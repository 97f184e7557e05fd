"""The anytime mapper tier (DESIGN.md §13).

Six contracts pinned here:

* **equivalence** — with no deadline the race still ends at the exact
  lane's proven objective;
* **race invariants** — a monolithic race builds the mapping model
  exactly once, and every race counts exactly one winner;
* **the windowed scope** — beyond ``ilp_task_limit`` a budgeted
  mapping starts no exact solve, and without a packer start the
  rolling-horizon mapper's answer is the result;
* **the race** — first feasible in milliseconds, incumbents certified
  before injection, the solver sees them, a heuristic win engages the
  ``anytime_heuristic`` rung, and the race never returns a worse
  objective than the exact mapper alone would within the same model;
* **the peak floor** — no mapping beats :meth:`MappingSpec.peak_floor`,
  and an incumbent at the floor ends the race as proven optimal with
  the parent's placements and no exact thread left behind;
* **fuzz** — on generated assays (``fuzz:<seed>:<ops>``) every adopted
  heuristic mapping completes to a full variable assignment that
  replays clean against a fresh model build and certifies, and a whole
  budgeted synthesis stays simulator-valid and audit-clean.
"""

import threading
import warnings

import pytest

from repro.assays import get_case, schedule_for
from repro.certify import certify_assignment
from repro.core import ChipSimulator, ReliabilitySynthesizer, SynthesisConfig
from repro.core.anytime import AnytimeMapper
from repro.core.lns import LargeNeighborhoodSearch
from repro.core.mappers import (
    GreedyMapper,
    ILPMapper,
    LoadLedger,
    WindowedILPMapper,
    window_subspec,
)
from repro.core.mapping_model import (
    MappingModelBuilder,
    MappingSpec,
    complete_solution,
)
from repro.core.tasks import build_tasks
from repro.errors import DegradedResultWarning, SynthesisError
from repro.geometry import GridSpec
from repro.obs import TELEMETRY
from repro.resilience import Deadline, DegradationLadder

from tests.conftest import build_tiny_assay


def spec_for(case_name, n_tasks=None, stride=1, grid=None):
    case = get_case(case_name)
    schedule = schedule_for(case, case.policies(1)[0])
    tasks = build_tasks(case.graph(), schedule)
    if n_tasks is not None:
        tasks = tasks[:n_tasks]
    return MappingSpec(
        grid=grid or case.grid, tasks=tasks, anchor_stride=stride
    )


# Inputs whose optimum (80) lies above their peak floor (40): a race on
# them cannot stop at the floor, so the exact lane really runs.
def small_above_floor():
    """Four PCR tasks on 5x5 at stride 3 (21 variables): the lane
    proves 80 at the root."""
    return spec_for("pcr", 4, 3, GridSpec(5, 5))


def large_above_floor():
    """Eight Exp. Dilution tasks on 8x8 at stride 1 (977 variables):
    the packer answers 120, and the lane's presolve alone takes about
    1 s on a 2-vCPU host, longer than a 0.75 s budget."""
    return spec_for("exponential_dilution", 8, 1, GridSpec(8, 8))


def assert_model_valid(spec, placements):
    """The placements complete to a certified assignment of a fresh
    model build — the offer pipeline's own validity contract."""
    built = MappingModelBuilder(spec).build()
    values = complete_solution(built, placements)
    assert values is not None
    assert built.model.check_solution(values) == []
    cert = certify_assignment(built.model, values)
    assert cert.status == "certified"
    return int(round(values[built.w]))


class TestEquivalence:
    def test_exhausted_lns_budget_matches_ilp_objective(self):
        # With no deadline the race caps LNS at a fixed round count and
        # the exact lane runs to optimality; the incumbents it injects
        # may reshape the search tree, so placements are not
        # byte-pinned here — the certified objective is.
        anytime = AnytimeMapper().map_tasks(spec_for("pcr", 2, 3))
        ilp = ILPMapper(backend="branch_bound").map_tasks(
            spec_for("pcr", 2, 3)
        )
        assert anytime.objective == ilp.objective
        assert anytime.optimal


class TestRaceInvariants:
    def test_monolithic_race_builds_the_model_once(self, monkeypatch):
        builds = []
        original = MappingModelBuilder.build

        def counting_build(self):
            builds.append(1)
            return original(self)

        monkeypatch.setattr(MappingModelBuilder, "build", counting_build)
        AnytimeMapper(seed=1).map_tasks(
            spec_for("pcr", 2, 3), deadline=Deadline(5.0)
        )
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "n_tasks,stride,limit",
        [(2, 3, 8), (None, 1, 4)],
        ids=["monolithic", "windowed"],
    )
    def test_each_race_counts_one_winner(self, n_tasks, stride, limit):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            AnytimeMapper(seed=1, ilp_task_limit=limit).map_tasks(
                spec_for("pcr", n_tasks, stride), deadline=Deadline(2.0)
            )
            counters = TELEMETRY.snapshot()["counters"]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        winners = sum(
            counters.get(f"anytime.race_winner_{lane}", 0)
            for lane in ("exact", "heuristic", "bound")
        )
        assert counters.get("anytime.races") == 1
        assert winners == 1


class TestWindowedScope:
    """Beyond ``ilp_task_limit`` a budgeted mapping is packer + LNS."""

    def test_budgeted_run_starts_no_exact_solve(self, monkeypatch):
        started, calls = [], []
        original_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(
            MappingModelBuilder, "build", lambda self: calls.append("build")
        )
        monkeypatch.setattr(
            WindowedILPMapper,
            "map_tasks",
            lambda self, spec, **kwargs: calls.append("windowed"),
        )
        ladder = DegradationLadder()
        # Full PCR on 7x7: LNS stops at 80, above the floor of 40.
        result = AnytimeMapper(seed=1, ilp_task_limit=4).map_tasks(
            spec_for("pcr", grid=GridSpec(7, 7)),
            deadline=Deadline(2.0),
            ladder=ladder,
        )
        assert "anytime-exact" not in started
        assert calls == []
        assert result.stats["race_winner_heuristic"] == 1.0
        assert ladder.fired(DegradationLadder.ANYTIME_HEURISTIC) == 1

    def test_no_packer_start_returns_the_windowed_answer(self, monkeypatch):
        original_greedy = GreedyMapper.map_tasks
        original_windowed = WindowedILPMapper.map_tasks
        greedy_calls, answers = [], []

        def greedy_fails_once(self, spec, **kwargs):
            greedy_calls.append(1)
            if len(greedy_calls) == 1:
                raise SynthesisError("no packing")
            return original_greedy(self, spec, **kwargs)

        def windowed(self, spec, **kwargs):
            answers.append(original_windowed(self, spec, **kwargs))
            return answers[-1]

        monkeypatch.setattr(GreedyMapper, "map_tasks", greedy_fails_once)
        monkeypatch.setattr(WindowedILPMapper, "map_tasks", windowed)
        result = AnytimeMapper(seed=1, ilp_task_limit=4).map_tasks(
            spec_for("pcr"), deadline=Deadline(10.0)
        )
        assert len(answers) == 1
        assert result.placements == answers[0].placements
        assert result.objective == answers[0].objective
        assert result.stats["race_winner_heuristic"] == 0.0
        assert "first_feasible_seconds" not in result.stats


class TestRace:
    def test_probe_race_matches_exact_optimum(self):
        spec = spec_for("pcr", 2, 3)
        result = AnytimeMapper(seed=1).map_tasks(
            spec, deadline=Deadline(5.0)
        )
        ilp = ILPMapper(backend="branch_bound").map_tasks(
            spec_for("pcr", 2, 3)
        )
        # Never worse than the ILP alone, and here the budget is ample
        # so the exact lane finishes and proves it.
        assert result.objective == ilp.objective
        assert result.optimal
        assert result.stats["race_winner_heuristic"] == 0.0

    def test_first_feasible_is_fast_and_certified(self):
        spec = spec_for("pcr")  # the full case
        result = AnytimeMapper(seed=0).map_tasks(
            spec, deadline=Deadline(1.0)
        )
        stats = result.stats
        assert stats["first_feasible_seconds"] < 0.1
        assert stats["offers_certified"] >= 1
        assert stats["seconds_to_best_certified"] < 1.0
        # The certified incumbent is never worse than the bare packer.
        greedy = GreedyMapper().map_tasks(spec_for("pcr"))
        assert result.objective <= greedy.objective

    def test_injected_incumbent_reaches_the_solver(self):
        result = AnytimeMapper(seed=1).map_tasks(
            small_above_floor(), deadline=Deadline(5.0)
        )
        assert result.stats["injectable"] == 1.0
        assert result.stats["solver_external_offers_seen"] >= 1
        assert result.stats["solver_external_rejected"] == 0

    def test_heuristic_win_engages_the_rung(self):
        # A stride-1 model far too hard for the exact lane inside the
        # budget, trivially packable by the heuristic.
        ladder = DegradationLadder()
        result = AnytimeMapper(seed=1).map_tasks(
            large_above_floor(), deadline=Deadline(0.75), ladder=ladder
        )
        assert result.stats["race_winner_heuristic"] == 1.0
        assert not result.optimal
        assert ladder.fired(DegradationLadder.ANYTIME_HEURISTIC) == 1
        # The adopted mapping is certified against a fresh build.
        peak = assert_model_valid(large_above_floor(), result.placements)
        assert peak == result.objective

    def test_race_timeline_is_recorded(self):
        result = AnytimeMapper(seed=1).map_tasks(
            small_above_floor(), deadline=Deadline(5.0)
        )
        timeline = result.stats["race_timeline"]
        kinds = {event["kind"] for event in timeline}
        assert "offer" in kinds
        assert "incumbent" in kinds
        times = [event["t"] for event in timeline]
        assert times == sorted(times)


class TestLNS:
    def test_improves_or_keeps_and_stays_model_valid(self):
        spec = spec_for("exponential_dilution", 5, 1)
        greedy = GreedyMapper().map_tasks(spec)
        placements = dict(greedy.placements)
        before = LoadLedger.from_placements(
            spec, sorted(spec.tasks, key=lambda t: (t.start, t.name)),
            placements,
        ).measure()
        stats = LargeNeighborhoodSearch(spec, seed=3).run(
            placements, max_rounds=40
        )
        after = LoadLedger.from_placements(
            spec, sorted(spec.tasks, key=lambda t: (t.start, t.name)),
            placements,
        ).measure()
        assert after <= before
        assert stats["lns_rounds"] <= 40
        assert stats["lns_peak"] == after[0]
        assert_model_valid(
            spec_for("exponential_dilution", 5, 1), placements
        )

    def test_deterministic_in_seed(self):
        def run(seed):
            spec = spec_for("pcr")
            placements = dict(GreedyMapper().map_tasks(spec).placements)
            LargeNeighborhoodSearch(spec, seed=seed).run(
                placements, max_rounds=25
            )
            return placements

        assert run(11) == run(11)

    def test_stall_limit_stops_early(self):
        spec = spec_for("pcr", 2, 3)
        placements = dict(GreedyMapper().map_tasks(spec).placements)
        stats = LargeNeighborhoodSearch(spec, seed=0).run(
            placements, max_rounds=500, stall_limit=5
        )
        assert stats["lns_rounds"] <= 5 + stats["lns_accepted"] * 5


def highs_peak(spec):
    built = MappingModelBuilder(spec).build()
    solution = built.model.solve(backend="scipy")
    assert solution.status.value == "optimal"
    return int(round(solution.value(built.w)))


#: Device rectangles ``(x, y, width, height)`` of two budgeted runs that
#: stop at the floor, as recorded before the floor rule existed: the
#: rule must not move a single device.
PINNED_FLOOR_DESIGNS = {
    "tiny": {"a": (0, 0, 4, 2), "b": (0, 5, 4, 2), "c": (1, 2, 3, 3)},
    "pcr/p1": {
        "o1": (0, 0, 4, 2), "o2": (1, 5, 4, 2), "o3": (0, 7, 4, 2),
        "o4": (4, 7, 4, 2), "o5": (1, 2, 5, 2), "o6": (5, 5, 2, 2),
        "o7": (6, 0, 2, 5),
    },
}


class TestPeakFloor:
    """No mapping beats the largest pump rate or base load, and a race
    whose certified incumbent meets that floor ends there."""

    @pytest.mark.parametrize("ops", [4, 5, 6, 7, 8])
    def test_floor_bounds_the_highs_optimum(self, ops):
        case = get_case(f"fuzz:7:{ops}")
        tasks = build_tasks(
            case.graph(), schedule_for(case, case.policies(1)[0])
        )
        spec = MappingSpec(grid=GridSpec(10, 10), tasks=tasks, anchor_stride=2)
        assert spec.peak_floor() == max(t.pump_rate for t in tasks)
        assert spec.peak_floor() <= highs_peak(spec)

    def test_floor_covers_the_base_load_of_a_window(self):
        case = get_case("fuzz:7:8")
        tasks = build_tasks(
            case.graph(), schedule_for(case, case.policies(1)[0])
        )
        spec = MappingSpec(grid=GridSpec(10, 10), tasks=tasks, anchor_stride=2)
        ordered = sorted(tasks, key=lambda t: (t.start, t.name))
        placements = dict(GreedyMapper().map_tasks(spec).placements)
        window = ordered[-2:]
        sub = window_subspec(spec, window, ordered, placements)
        assert sub.base_load
        floor = sub.peak_floor()
        assert floor >= max(sub.base_load.values())
        assert floor >= max(t.pump_rate for t in window)
        assert floor <= highs_peak(sub)

    @pytest.mark.parametrize(
        "label,lane_starts", [("tiny", False), ("pcr/p1", True)]
    )
    def test_stop_at_the_floor_keeps_the_design(
        self, monkeypatch, label, lane_starts
    ):
        # The tiny assay's packer is at the floor, so no exact lane
        # starts; on PCR p1 the lane starts and LNS reaches the floor
        # mid-race, which closes the lane before map_tasks returns.
        if label == "tiny":
            graph, schedule = build_tiny_assay()
            grid = GridSpec(8, 8)
        else:
            case = get_case("pcr")
            graph = case.graph()
            schedule = schedule_for(case, case.policies(1)[0])
            grid = case.grid
        started, results, alive = [], [], []
        original_start = threading.Thread.start
        original_map = AnytimeMapper.map_tasks

        def recording_start(thread):
            started.append(thread.name)
            original_start(thread)

        def recording_map(self, spec, **kwargs):
            results.append(original_map(self, spec, **kwargs))
            alive.extend(
                t.name for t in threading.enumerate()
                if t.name == "anytime-exact"
            )
            return results[-1]

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(AnytimeMapper, "map_tasks", recording_map)
        config = SynthesisConfig(grid=grid, time_budget=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            result = ReliabilitySynthesizer(config).synthesize(graph, schedule)
        rects = {
            name: (d.rect.x, d.rect.y, d.rect.width, d.rect.height)
            for name, d in result.devices.items()
        }
        assert rects == PINNED_FLOOR_DESIGNS[label]
        assert len(results) == 1
        mapping = results[0]
        assert mapping.optimal
        assert mapping.stats["bound_stop"] == 1.0
        assert mapping.stats["race_winner_heuristic"] == 0.0
        assert result.resilience.events == []
        assert ("anytime-exact" in started) == lane_starts
        assert alive == []


@pytest.mark.parametrize("seed,ops", [(3, 6), (11, 7), (29, 6)])
class TestFuzzObjectiveGap:
    def test_race_beats_or_ties_packer_and_certifies(self, seed, ops):
        case = get_case(f"fuzz:{seed}:{ops}")
        schedule = schedule_for(case, case.policies(1)[0])
        tasks = build_tasks(case.graph(), schedule)
        spec = MappingSpec(grid=case.grid, tasks=tasks)
        result = AnytimeMapper(seed=seed).map_tasks(
            spec, deadline=Deadline(1.0)
        )
        greedy = GreedyMapper().map_tasks(
            MappingSpec(grid=case.grid, tasks=tasks)
        )
        assert result.objective <= greedy.objective
        peak = assert_model_valid(
            MappingSpec(grid=case.grid, tasks=tasks), result.placements
        )
        assert peak == result.objective


class TestFuzzSynthesis:
    def test_budgeted_fuzz_synthesis_is_valid_and_audit_clean(self):
        case = get_case("fuzz:5:8")
        graph = case.graph()
        schedule = schedule_for(case, case.policies(1)[0])
        config = SynthesisConfig(
            grid=case.grid, time_budget=15.0, certify="strict"
        )
        with warnings.catch_warnings():
            # A tight budget may legitimately degrade to the certified
            # heuristic; strict certification still gates the result.
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = ReliabilitySynthesizer(config).synthesize(
                graph, schedule
            )
        assert result.metrics.mapper == "anytime"
        assert result.audit is not None and result.audit.ok
        report = ChipSimulator(result).run()
        assert report.products_delivered >= 1
