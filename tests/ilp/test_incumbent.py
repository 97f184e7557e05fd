"""The external-incumbent API of the branch & bound solver.

:class:`repro.ilp.incumbent.IncumbentPool` is the rendezvous point of
the anytime race (DESIGN.md §13): the heuristic lane offers certified
solution vectors, ``solve_branch_bound(incumbent=pool)`` polls them
once per node, float-replays them against its presolved arrays, and
adopts the survivors as upper bounds.  These tests pin the pool
semantics, the adopt/reject replay, and the root-bound fast path — an
injected incumbent that already matches the proven root relaxation
bound must terminate immediately with OPTIMAL and zero enumerated
nodes.
"""

import numpy as np
import pytest

from repro.ilp import Model, SolveStatus
from repro.ilp.incumbent import IncumbentPool


def _ticking_clock(step: float = 1.0):
    t = [0.0]

    def clock() -> float:
        t[0] += step
        return t[0]

    return clock


class TestIncumbentPool:
    def test_offer_keeps_only_improvements(self):
        pool = IncumbentPool()
        assert pool.offer([1.0, 0.0], 5.0) is True
        assert pool.version == 1
        assert pool.best_objective == 5.0
        # A worse offer is recorded on the timeline but not kept.
        assert pool.offer([0.0, 1.0], 7.0) is False
        assert pool.version == 1
        assert pool.best_objective == 5.0
        # Ties are not improvements either.
        assert pool.offer([0.0, 1.0], 5.0) is False
        assert pool.offer([0.0, 0.0], 3.0) is True
        assert pool.version == 2
        x, objective, source, version = pool.take()
        assert objective == 3.0
        assert source == "heuristic"
        assert version == 2
        np.testing.assert_allclose(x, [0.0, 0.0])

    def test_take_and_offer_copy_vectors(self):
        pool = IncumbentPool()
        working = np.array([1.0, 2.0])
        pool.offer(working, 1.0)
        working[0] = 99.0  # caller keeps mutating its buffer
        x, _, _, _ = pool.take()
        assert x[0] == 1.0
        x[1] = -5.0  # and the taken copy is the caller's to trash
        again, _, _, _ = pool.take()
        assert again[1] == 2.0

    def test_empty_pool_take(self):
        pool = IncumbentPool()
        x, objective, source, version = pool.take()
        assert x is None
        assert objective == float("inf")
        assert version == 0

    def test_timeline_records_offers_incumbents_and_notes(self):
        pool = IncumbentPool(clock=_ticking_clock())
        pool.offer([0.0], 4.0, source="packer")
        pool.offer([0.0], 9.0, source="lns")  # rejected: offer event only
        pool.note("bound", "bb", 2.5)
        events = pool.timeline_snapshot()
        kinds = [(e["kind"], e["source"]) for e in events]
        assert kinds == [
            ("offer", "packer"),
            ("incumbent", "packer"),
            ("offer", "lns"),
            ("bound", "bb"),
        ]
        assert events[-1]["objective"] == 2.5
        # The injected clock ticks once per event: timestamps ascend.
        assert [e["t"] for e in events] == sorted(e["t"] for e in events)


def _fractional_root_model():
    """min 3x + 2y s.t. 2x + 3y >= 7, x,y integer in [0, 10].

    The LP root is fractional (y = 7/3, objective 14/3); the integer
    optimum is y = 3 with objective 6, so an injected incumbent at 6
    is adopted but does NOT meet the root bound.
    """
    model = Model("inject-fractional")
    x = model.add_integer("x", ub=10)
    y = model.add_integer("y", ub=10)
    model.add_constr(2 * x + 3 * y >= 7)
    model.minimize(3 * x + 2 * y)
    return model


def _integral_root_model():
    """min 3x + 2y s.t. x + y >= 4, x,y integer in [0, 10].

    The LP root is integral at (0, 4), objective 8: an injected
    incumbent at 8 matches the proven root bound exactly.
    """
    model = Model("inject-integral")
    x = model.add_integer("x", ub=10)
    y = model.add_integer("y", ub=10)
    model.add_constr(x + y >= 4)
    model.minimize(3 * x + 2 * y)
    return model


class TestExternalInjection:
    def test_feasible_offer_is_adopted(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 3.0], 6.0)  # the integer optimum
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(6.0)
        assert solution.stats["external_offers_seen"] == 1
        assert solution.stats["external_incumbents"] == 1
        assert solution.stats["external_rejected"] == 0
        assert model.check_solution(solution.values) == []

    def test_infeasible_offer_is_rejected_not_trusted(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        # 2x + 3y = 0 < 7: violates the only constraint.  A lying
        # heuristic must not be able to poison the search.
        pool.offer([0.0, 0.0], 0.0)
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(6.0)
        assert solution.stats["external_rejected"] == 1
        assert solution.stats["external_incumbents"] == 0
        assert model.check_solution(solution.values) == []

    def test_fractional_offer_is_rejected(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 7.0 / 3.0], 14.0 / 3.0)  # the LP vertex itself
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.stats["external_rejected"] == 1
        assert solution.objective == pytest.approx(6.0)

    def test_wrong_length_offer_is_ignored(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 3.0, 1.0], 6.0)
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats["external_offers_seen"] == 0
        assert solution.stats["external_incumbents"] == 0

    def test_solver_publishes_incumbents_and_bound_to_timeline(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.OPTIMAL
        kinds = {e["kind"] for e in pool.timeline_snapshot()}
        assert "incumbent" in kinds  # the solver's own incumbents
        assert "bound" in kinds  # the final proven bound
        bb_incumbents = [
            e for e in pool.timeline_snapshot()
            if e["kind"] == "incumbent" and e["source"] == "bb"
        ]
        assert bb_incumbents[-1]["objective"] == pytest.approx(6.0)

    def test_claimed_objective_is_not_trusted(self):
        # The pool carries the heuristic's *claimed* objective, but the
        # solver recomputes c @ x itself: a wrong claim changes nothing.
        model = _fractional_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 3.0], -100.0)  # lie about the objective
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(6.0)
        assert solution.stats["external_incumbents"] == 1


class TestRootBoundStop:
    """Satellite regression: injected incumbent == root bound → OPTIMAL
    with no enumeration."""

    def test_injected_optimum_stops_at_root(self):
        model = _integral_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 4.0], 8.0)
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(8.0)
        assert solution.stats["root_bound_stop"] == 1
        assert solution.stats["nodes_explored"] == 0
        assert solution.stats["dive_solves"] == 0  # dive skipped too
        assert model.check_solution(solution.values) == []
        # The answer is the injected vector itself.
        values = {var.name: val for var, val in solution.values.items()}
        assert values == {"x": 0.0, "y": 4.0}

    def test_no_stop_when_incumbent_above_root_bound(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 3.0], 6.0)  # optimal, but root bound is 14/3
        # cuts=False pins the root bound at the LP vertex: a Gomory cut
        # could legitimately close the root to 6 and stop immediately,
        # which is the *other* test's behavior.
        solution = model.solve(
            backend="branch_bound", incumbent=pool, cuts=False
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats["root_bound_stop"] == 0
        # Proving optimality still requires enumeration.
        assert solution.stats["nodes_explored"] > 0

    def test_without_pool_search_is_unchanged(self):
        model = _integral_root_model()
        solution = model.solve(backend="branch_bound")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(8.0)
        assert solution.stats["root_bound_stop"] == 0


class _CloseOnFirstIncumbent(IncumbentPool):
    """Closes itself when the solver publishes its first incumbent."""

    def note(self, kind: str, source: str, value: float) -> None:
        super().note(kind, source, value)
        if kind == "incumbent":
            self.close()


class TestClose:
    """A closed pool is the race's stop signal: the search polls it
    with its time limit and returns what it has."""

    def test_closed_pool_starts_no_search(self):
        model = _fractional_root_model()
        pool = IncumbentPool()
        pool.offer([0.0, 3.0], 6.0)
        pool.close()
        assert pool.closed
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert solution.status is SolveStatus.NO_SOLUTION
        assert solution.stats["nodes_explored"] == 0
        assert solution.stats["dive_solves"] == 0
        assert solution.stats["external_offers_seen"] == 0

    def test_close_mid_search_returns_the_incumbent(self):
        model = _fractional_root_model()
        pool = _CloseOnFirstIncumbent()
        solution = model.solve(backend="branch_bound", incumbent=pool)
        assert pool.closed
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.stats["nodes_explored"] == 0
        assert model.check_solution(solution.values) == []
        first = next(
            e for e in pool.timeline_snapshot() if e["kind"] == "incumbent"
        )
        assert solution.objective == pytest.approx(first["objective"])
