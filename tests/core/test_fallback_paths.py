"""Coverage for the mapper fallback paths that predate the ladder.

A window dead-end (the windowed mapper raises; the synthesizer re-maps
the whole problem greedily), ``greedy_windows`` (one window → greedy),
and a FEASIBLE (incumbent, not proven optimal) solution flowing through
:class:`ILPMapper` were all reachable before the resilience work but
untested; these tests pin their semantics.
"""

import pytest

from repro.core.mappers import (
    GreedyMapper,
    ILPMapper,
    MappingResult,
    WindowedILPMapper,
)
from repro.core.mapping_model import MappingSpec
from repro.core.synthesis import ReliabilitySynthesizer
from repro.core.tasks import MappingTask
from repro.errors import SynthesisError
from repro.geometry import GridSpec
from repro.ilp.solution import SolveStatus
from repro.resilience import FAULTS, DegradationLadder, FaultSpec


def make_spec(n_tasks: int = 3, grid: int = 8) -> MappingSpec:
    """Sequential mixing tasks, deliberately overlapping in time."""
    tasks = [
        MappingTask(
            name=f"m{i}",
            volume=8,
            pump_rate=2,
            start=i * 2,
            mix_start=i * 2 + 1,
            end=i * 2 + 6,
            mix_parents=(),
        )
        for i in range(n_tasks)
    ]
    return MappingSpec(grid=GridSpec(grid, grid), tasks=tasks)


class TestWholeProblemFallback:
    def test_window_dead_end_falls_back_to_whole_greedy(self, monkeypatch):
        """A SynthesisError out of the rolling pass propagates out of the
        windowed mapper; the synthesizer's last rung re-maps the entire
        problem greedily (scope ``mapping``)."""
        mapper = WindowedILPMapper(window_size=2)

        def explode(*args, **kwargs):
            raise SynthesisError("window dead end (test)")

        monkeypatch.setattr(mapper, "_solve_window", explode)
        ladder = DegradationLadder()
        with pytest.raises(SynthesisError, match="window dead end"):
            mapper.map_tasks(make_spec(), ladder=ladder)
        assert not ladder.report.degraded

        result = ReliabilitySynthesizer._map_once(
            make_spec(), mapper, None, ladder
        )
        assert result.mapper == GreedyMapper.name
        assert ladder.fired(DegradationLadder.GREEDY) == 1
        assert ladder.report.events[0].detail == (
            "mapping: window dead end (test)"
        )
        assert len(result.placements) == 3

    def test_clean_solve_does_not_fall_back(self):
        ladder = DegradationLadder()
        result = WindowedILPMapper(window_size=2).map_tasks(
            make_spec(), ladder=ladder
        )
        assert result.stats["greedy_windows"] == 0
        assert not ladder.report.degraded
        assert result.mapper == WindowedILPMapper.name


class TestGreedyWindows:
    def test_solver_down_counts_greedy_windows(self):
        """Every window ILP failing → per-window greedy fallbacks, all
        placements still produced."""
        mapper = WindowedILPMapper(window_size=2, refine_passes=0)
        with FAULTS.inject({"scipy.milp": FaultSpec(times=None)}):
            result = mapper.map_tasks(make_spec())
        assert result.stats["greedy_windows"] >= 1
        # The mapper as a whole still reports itself (windowed), only
        # individual windows degraded.
        assert result.mapper == WindowedILPMapper.name
        assert len(result.placements) == 3

    def test_greedy_window_result_feasible(self):
        """Greedy-window placements obey the non-overlap constraints."""
        mapper = WindowedILPMapper(window_size=2, refine_passes=0)
        with FAULTS.inject({"scipy.milp": FaultSpec(times=None)}):
            result = mapper.map_tasks(make_spec())
        spec = make_spec()
        tasks = {t.name: t for t in spec.tasks}
        names = sorted(result.placements)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                ta, tb = tasks[a], tasks[b]
                if ta.start < tb.end and tb.start < ta.end:
                    assert not result.rect_of(a).overlaps(result.rect_of(b))


class TestFeasibleIncumbent:
    def test_bb_limit_with_incumbent_flows_through_ilp_mapper(self):
        """A B&B search cut short *after* finding an incumbent returns
        FEASIBLE, and ILPMapper accepts it as a valid (non-optimal)
        mapping instead of raising."""
        # Let a few nodes complete so an integral incumbent exists, then
        # stop the search as if the time limit expired.
        for after in (2, 4, 8, 16, 32):
            with FAULTS.inject(
                {"bb.time_limit": FaultSpec(times=1, after=after)}
            ):
                try:
                    result = ILPMapper(backend="branch_bound").map_tasks(
                        make_spec(n_tasks=2)
                    )
                except SynthesisError:
                    continue  # stopped before the first incumbent: retry later
            if not result.optimal:
                break
        else:
            pytest.skip("search finished before any injection point")
        assert isinstance(result, MappingResult)
        assert result.optimal is False  # FEASIBLE, not proven OPTIMAL
        assert len(result.placements) == 2
        assert result.objective >= 0

    def test_feasible_status_reaches_solution(self):
        """Same cut-short search, asserted at the solver layer."""
        from repro.core.mapping_model import MappingModelBuilder

        built = MappingModelBuilder(make_spec(n_tasks=2)).build()
        for after in (2, 4, 8, 16, 32):
            with FAULTS.inject(
                {"bb.time_limit": FaultSpec(times=1, after=after)}
            ):
                solution = built.model.solve(backend="branch_bound")
            if solution.status is SolveStatus.FEASIBLE:
                assert solution.status.has_solution
                return
        pytest.skip("no injection point split the search mid-incumbent")
