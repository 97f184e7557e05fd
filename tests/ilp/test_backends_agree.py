"""Property test: the from-scratch solver and HiGHS find equal optima.

Random small MILPs (bounded, with x = 0 always feasible so statuses are
predictable) must produce the same optimal objective from both
backends — the guarantee that lets the synthesis use HiGHS for speed
while staying verifiable against the self-contained stack.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ilp import Model, SolveStatus, quicksum


@st.composite
def random_milp(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    model = Model("random")
    variables = []
    for i in range(n):
        kind = draw(st.sampled_from(["binary", "integer", "continuous"]))
        if kind == "binary":
            variables.append(model.add_binary(f"x{i}"))
        elif kind == "integer":
            variables.append(model.add_integer(f"x{i}", ub=5))
        else:
            variables.append(model.add_continuous(f"x{i}", ub=5))
    for j in range(m):
        coefs = [
            draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)
        ]
        if not any(coefs):
            continue  # an all-zero row is not a constraint
        rhs = draw(st.integers(min_value=0, max_value=12))  # 0 feasible
        model.add_constr(
            quicksum(c * x for c, x in zip(coefs, variables)) <= rhs
        )
    obj = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)]
    model.maximize(quicksum(c * x for c, x in zip(obj, variables)))
    return model


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_milp())
def test_backends_find_equal_optima(model):
    mine = model.solve(backend="branch_bound")
    highs = model.solve(backend="scipy")
    assert mine.status is SolveStatus.OPTIMAL
    assert highs.status is SolveStatus.OPTIMAL
    assert mine.objective == pytest.approx(highs.objective, abs=1e-5)
    # Both solutions must actually satisfy the model.
    assert model.check_solution(mine.values) == []
    assert model.check_solution(highs.values) == []
