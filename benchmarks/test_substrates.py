"""Micro-benchmarks of the substrates the synthesis is built on.

Not a paper table: these keep the from-scratch MILP stack, the router
and the scheduler honest about their costs, and cross-check the two
MILP backends on the real (PCR) mapping model.
"""

import pytest

from repro.assays.pcr import pcr_fig9_schedule, pcr_graph
from repro.assay.scheduler import ListScheduler, SchedulerConfig
from repro.core.mapping_model import MappingModelBuilder, MappingSpec
from repro.core.tasks import build_tasks
from repro.geometry import GridSpec, Point
from repro.ilp import Model, quicksum
from repro.ilp.solution import SolveStatus
from repro.routing.dijkstra import dijkstra_path


def pcr_mapping_model():
    graph = pcr_graph()
    schedule = pcr_fig9_schedule(graph)
    tasks = build_tasks(graph, schedule)
    spec = MappingSpec(grid=GridSpec(9, 9), tasks=tasks)
    return MappingModelBuilder(spec).build()


class TestIlpBackends:
    def test_highs_on_pcr_model(self, run_once):
        built = pcr_mapping_model()
        solution = run_once(built.model.solve, backend="scipy")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.value(built.w) == pytest.approx(40.0)

    def test_branch_bound_small_knapsack(self, benchmark):
        def solve():
            m = Model("bench")
            xs = [m.add_binary(f"x{i}") for i in range(12)]
            weights = [3, 5, 7, 2, 9, 4, 6, 8, 1, 5, 3, 7]
            values = [6, 9, 12, 3, 14, 7, 9, 13, 2, 8, 5, 11]
            m.add_constr(
                quicksum(w * x for w, x in zip(weights, xs)) <= 25
            )
            m.maximize(quicksum(v * x for v, x in zip(values, xs)))
            return m.solve(backend="branch_bound")

        solution = benchmark(solve)
        assert solution.status is SolveStatus.OPTIMAL

    def test_own_simplex_lp(self, benchmark):
        def solve():
            m = Model("lp")
            xs = [m.add_continuous(f"x{i}", ub=10) for i in range(20)]
            for j in range(10):
                m.add_constr(
                    quicksum(((i + j) % 5 + 1) * x for i, x in enumerate(xs))
                    <= 100 + j
                )
            m.minimize(quicksum(-x for x in xs))
            return m.solve(backend="branch_bound")

        solution = benchmark(solve)
        assert solution.status is SolveStatus.OPTIMAL


class TestRoutingAndScheduling:
    def test_dijkstra_across_grid(self, benchmark):
        grid = GridSpec(30, 30)

        def route():
            return dijkstra_path(
                grid, [Point(0, 0)], [Point(29, 29)], lambda c: 1.0
            )

        path = benchmark(route)
        assert path is not None and len(path) == 59

    def test_list_scheduler_exponential_case(self, benchmark):
        from repro.assays import get_case

        case = get_case("exponential_dilution")
        graph = case.graph()
        config = SchedulerConfig(mixers={4: 1, 6: 2, 8: 2, 10: 2}, detectors=3)

        def run():
            return ListScheduler(config).schedule(case.graph())

        schedule = benchmark(run)
        assert len(schedule.entries) == len(graph)

    def test_model_build_cost(self, benchmark):
        built = benchmark(pcr_mapping_model)
        assert built.model.num_vars > 500
