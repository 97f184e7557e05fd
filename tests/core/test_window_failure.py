"""What a failed window costs, and why it is not split in half.

A rolling-horizon window whose exact ILP fails goes straight to the
greedy balancer for that window.  Splitting it into two sequential
exact halves cannot help: each half is solved on a
:func:`~repro.core.mappers.window_subspec` that carries every cross
constraint (non-overlap, the c5 storage permission and the ``near``
rows against committed devices), so two feasible halves are already a
feasible point of the whole window, which the whole-window ILP would
have found.
"""

import pytest

from repro.assay.scheduler import ListScheduler, SchedulerConfig
from repro.assays.fuzzer import fuzz_graph
from repro.core.mappers import (
    GreedyMapper,
    ILPMapper,
    WindowedILPMapper,
    window_subspec,
)
from repro.core.mapping_model import (
    MappingModelBuilder,
    MappingSpec,
    complete_solution,
)
from repro.core.tasks import MappingTask, build_tasks
from repro.errors import SynthesisError
from repro.geometry import GridSpec
from repro.resilience import DegradationLadder


def task(name, start, end, parents=()):
    return MappingTask(
        name=name,
        volume=8,
        pump_rate=40,
        start=start,
        mix_start=start,
        end=end,
        mix_parents=tuple(parents),
    )


def far_parents_spec() -> MappingSpec:
    """A child whose two committed parents sit in opposite corners of a
    16x16 grid: no placement is within distance d of both, so the
    window's ILP is infeasible, while the greedy balancer drops the
    distance limit for that operation and places it."""
    p1, p2 = task("p1", 0, 4), task("p2", 0, 4)
    child = task("c", 4, 10, parents=("p1", "p2"))
    grid = GridSpec(16, 16)
    options = MappingSpec(grid, [p1]).candidate_placements(p1)
    low = min(options, key=lambda p: p.rect.left + p.rect.bottom)
    high = max(options, key=lambda p: p.rect.right + p.rect.top)
    return MappingSpec(
        grid,
        [child, task("x", 4, 10)],
        fixed={"p1": p1.device(low), "p2": p2.device(high)},
    )


class TestInfeasibleWindow:
    def test_one_exact_solve_then_one_greedy_window(self, monkeypatch):
        solves = []
        original = ILPMapper.map_tasks

        def spy(self, spec, **kwargs):
            solves.append([t.name for t in spec.tasks])
            return original(self, spec, **kwargs)

        monkeypatch.setattr(ILPMapper, "map_tasks", spy)
        spec = far_parents_spec()
        ladder = DegradationLadder()
        result = WindowedILPMapper(window_size=2, refine_passes=0).map_tasks(
            spec, ladder=ladder
        )
        assert solves == [["c", "x"]]
        assert result.stats["windows_solved"] == 1
        assert result.stats["greedy_windows"] == 1
        assert set(result.placements) == {"c", "x"}
        assert [e.rung for e in ladder.report.events] == [
            DegradationLadder.GREEDY
        ]
        detail = ladder.report.events[0].detail
        assert detail.startswith("window:")
        assert "infeasible" in detail


@pytest.mark.parametrize("seed", range(10))
def test_feasible_halves_compose_into_a_feasible_window(seed):
    """Solve a window's halves one after the other, as a split would;
    their union, lifted onto the whole window's model, satisfies every
    row of it."""
    graph = fuzz_graph(seed, 16)
    schedule = ListScheduler(SchedulerConfig()).schedule(graph)
    tasks = build_tasks(graph, schedule)
    spec = MappingSpec(grid=GridSpec(8, 8), tasks=tasks)
    ordered = sorted(tasks, key=lambda t: (t.start, t.name))
    packed = GreedyMapper().map_tasks(spec).placements
    lo = len(ordered) // 3
    window = ordered[lo : lo + 4]
    committed = {t.name: packed[t.name] for t in ordered[:lo]}

    staged = dict(committed)
    for half in (window[:2], window[2:]):
        try:
            result = ILPMapper(backend="scipy").map_tasks(
                window_subspec(spec, half, ordered, staged)
            )
        except SynthesisError:
            pytest.skip("a half is infeasible: nothing to compose")
        for t in half:
            staged[t.name] = result.placements[t.name]

    built = MappingModelBuilder(
        window_subspec(spec, window, ordered, committed)
    ).build()
    values = complete_solution(built, {t.name: staged[t.name] for t in window})
    assert values is not None
    assert built.model.check_solution(values) == []
