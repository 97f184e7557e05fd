"""The sparse-LU engine and scipy's HiGHS must be interchangeable.

HiGHS is the external reference the from-scratch branch & bound (and
its sparse LU + eta-file simplex) is differential-tested against.  Same
statuses, same objectives, and certified answers — on seeded random
MILPs, on hand-built edge shapes, and on a real mapping window from the
paper's table-1 cases.
"""

import math
import random

import numpy as np
import pytest

from repro.certify.lp import certify_lp
from repro.ilp import CompiledModel, Model, SolveStatus, quicksum
from repro.ilp.branch_bound import solve_branch_bound
from repro.ilp.compiled import LpResult
from repro.ilp.scipy_backend import solve_scipy


def _random_milp(rng: random.Random) -> Model:
    n = rng.randint(2, 6)
    model = Model("engine-equiv")
    variables = []
    for i in range(n):
        kind = rng.choice(["binary", "integer", "continuous"])
        if kind == "binary":
            variables.append(model.add_binary(f"x{i}"))
        elif kind == "integer":
            variables.append(model.add_integer(f"x{i}", ub=5))
        else:
            variables.append(model.add_continuous(f"x{i}", ub=5))
    for _ in range(rng.randint(1, 5)):
        coefs = [rng.randint(-3, 3) for _ in range(n)]
        if not any(coefs):
            continue
        model.add_constr(
            quicksum(c * x for c, x in zip(coefs, variables))
            <= rng.randint(0, 12)
        )
    model.maximize(
        quicksum(rng.randint(-5, 5) * x for x in variables)
    )
    return model


class TestRandomizedEquivalence:
    def test_seeded_random_milps_agree(self):
        rng = random.Random(20150608)
        for _ in range(40):
            model = _random_milp(rng)
            sparse = solve_branch_bound(model)
            highs = solve_scipy(model)
            assert sparse.status is highs.status is SolveStatus.OPTIMAL
            assert sparse.objective == pytest.approx(
                highs.objective, abs=1e-6
            )
            assert model.check_solution(sparse.values) == []
            assert model.check_solution(highs.values) == []

    def test_lp_duals_certify_on_both_engines(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(7)
        n, m = 6, 4
        c = rng.uniform(-5.0, 5.0, size=n)
        a_ub = rng.uniform(-2.0, 2.0, size=(m, n))
        b_ub = rng.uniform(0.5, 4.0, size=m)
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
        bounds = [(-1.0, 3.0)] * n
        res = CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(
            bounds, want_duals=True
        )
        assert res.status is SolveStatus.OPTIMAL
        cert = certify_lp(res, c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert cert.ok, [str(v) for v in cert.violations]
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)
        # HiGHS marginals use the same sign convention (<= 0 on the
        # inequality rows of a minimization), so they certify too.
        highs = LpResult(
            SolveStatus.OPTIMAL, np.asarray(ref.x), float(ref.fun),
            duals=np.asarray(ref.ineqlin.marginals),
        )
        cert = certify_lp(highs, c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert cert.ok, [str(v) for v in cert.violations]


#: The two MILP solvers under test, keyed by their LP engine.
_SOLVERS = {"sparse": solve_branch_bound, "highs": solve_scipy}


class TestStatusEquivalence:
    @pytest.mark.parametrize("engine", sorted(_SOLVERS))
    def test_infeasible(self, engine):
        model = Model("infeasible")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constr(x + y <= 1)
        model.add_constr(x + y >= 2)
        model.minimize(x)
        sol = _SOLVERS[engine](model)
        assert sol.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("engine", sorted(_SOLVERS))
    def test_unbounded(self, engine):
        model = Model("unbounded")
        x = model.add_continuous("x", lb=0.0, ub=math.inf)
        model.add_constr(x >= 1)
        model.maximize(x)
        sol = _SOLVERS[engine](model)
        assert sol.status is SolveStatus.UNBOUNDED


class TestMappingWindowEquivalence:
    def test_pcr_window_same_certified_load(self):
        # A real table-1 sub-model (first two PCR tasks on a coarse
        # anchor grid): the certified branch & bound and HiGHS must
        # find the same pump load.
        from repro.assays import get_case, schedule_for
        from repro.core.mapping_model import MappingModelBuilder, MappingSpec
        from repro.core.tasks import build_tasks

        case = get_case("pcr")
        graph = case.graph()
        schedule = schedule_for(case, case.policies(1)[0])
        tasks = build_tasks(graph, schedule)
        spec = MappingSpec(grid=case.grid, tasks=tasks[:2], anchor_stride=3)
        built = MappingModelBuilder(spec).build()
        sparse = built.model.solve(backend="branch_bound", certify="strict")
        highs = built.model.solve(backend="scipy")
        assert sparse.status is highs.status is SolveStatus.OPTIMAL
        assert sparse.objective == pytest.approx(highs.objective, abs=1e-6)
        assert sparse.stats["lp_cert_failed"] == 0
