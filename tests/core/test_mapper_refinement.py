"""Tests for the windowed mapper's refinement machinery."""

import pytest

from repro.geometry import GridSpec, Point
from repro.core.mappers import GreedyMapper, WindowedILPMapper
from repro.core.mapping_model import MappingModelBuilder, MappingSpec
from repro.core.tasks import MappingTask


def task(name, start, end, volume=8, parents=()):
    return MappingTask(
        name=name,
        volume=volume,
        pump_rate=40,
        start=start,
        mix_start=start,
        end=end,
        mix_parents=tuple(parents),
    )


def concurrent_spec(n, grid):
    return MappingSpec(
        GridSpec(grid, grid), [task(f"m{i}", 0, 9) for i in range(n)]
    )


class TestRefinement:
    def test_refinement_never_worse_than_rolling(self):
        spec = concurrent_spec(4, 9)
        plain = WindowedILPMapper(window_size=2, refine_passes=0)
        refined = WindowedILPMapper(window_size=2, refine_passes=2)
        assert (
            refined.map_tasks(spec).objective
            <= plain.map_tasks(spec).objective
        )

    def test_refinement_reaches_monolithic_on_balanced_case(self):
        """Four concurrent rings fit a 9x9 grid at 40 each."""
        spec = concurrent_spec(4, 9)
        result = WindowedILPMapper(window_size=2).map_tasks(spec)
        assert result.objective == 40

    def test_zero_passes_supported(self):
        spec = concurrent_spec(2, 8)
        result = WindowedILPMapper(
            window_size=1, refine_passes=0
        ).map_tasks(spec)
        assert set(result.placements) == {"m0", "m1"}

    def test_whole_problem_greedy_fallback(self):
        """A tight grid still maps every task."""
        # 3 concurrent 8-rings only just fit a 7x7 grid; a window that
        # dead-ends goes greedy, and the result must still be valid.
        spec = concurrent_spec(3, 8)
        result = WindowedILPMapper(window_size=3).map_tasks(spec)
        assert set(result.placements) == {"m0", "m1", "m2"}


class TestDiscouragedCells:
    def test_secondary_objective_steers_ties(self):
        """Two equally-optimal placements: the discouraged one loses."""
        grid = GridSpec(4, 7)
        base = MappingSpec(grid, [task("a", 0, 5, volume=8)])
        # Discourage the lower half: the chosen rect must avoid it.
        lower = frozenset(
            Point(x, y) for x in range(4) for y in range(3)
        )
        discouraged_spec = MappingSpec(
            grid,
            [task("a", 0, 5, volume=8)],
            discouraged_cells=lower,
        )
        built = MappingModelBuilder(discouraged_spec).build()
        solution = built.model.solve(backend="scipy")
        placement = built.extract_placements(solution)["a"]
        covered = sum(
            1 for c in placement.pump_cells() if c in lower
        )
        assert covered == 0  # a discouragement-free optimum exists
        # Primary objective unchanged: still a single pump rate.
        assert round(solution.value(built.w)) == 40

    def test_penalty_never_trades_primary_objective(self):
        """The secondary term stays below 1, so w is still minimal."""
        grid = GridSpec(3, 3)
        everything = frozenset(grid.cells())
        spec = MappingSpec(
            grid,
            [task("a", 0, 5), task("b", 10, 15)],
            discouraged_cells=everything,
        )
        built = MappingModelBuilder(spec).build()
        solution = built.model.solve(backend="scipy")
        # Only one 3x3 position exists: stacking is forced, and the
        # all-cells penalty must not push the solver into infeasibility
        # or a worse w.
        assert round(solution.value(built.w)) == 80
