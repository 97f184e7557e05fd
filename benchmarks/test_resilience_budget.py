"""Bounded-time synthesis: ``time_budget=B`` holds wall time ≤ 1.1×B.

The acceptance bar for the resilience work (DESIGN.md §9): on the PCR,
interpolating- and exponential-dilution benchmarks a budgeted run must
finish within 1.1× the configured budget — the mapping stage gets 85%
of it, routing runs against a 1.1× grace deadline — and the (possibly
degraded) result must still replay cleanly on the chip simulator.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro.assays import get_case, schedule_for
from repro.core.simulation import ChipSimulator
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.errors import DegradedResultWarning

#: (case, policy, budget).  Budgets chosen around each case's
#: unbudgeted runtime so the ladder actually has to work: generous (no
#: degradation expected), and tight (forces greedy/degraded paths while
#: still bounding the wall clock).
CASES = [
    ("pcr", 1, 30.0),
    ("pcr", 1, 2.0),
    ("interpolating_dilution", 1, 4.0),
    ("interpolating_dilution", 3, 4.0),
    ("exponential_dilution", 1, 30.0),
    ("exponential_dilution", 1, 5.0),
]


def run_budgeted(case_name: str, budget: float, policy_index: int = 1):
    case = get_case(case_name)
    graph = case.graph()
    policy = case.policies(policy_index)[policy_index - 1]
    schedule = schedule_for(case, policy)
    config = SynthesisConfig(grid=case.grid, time_budget=budget)
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        result = ReliabilitySynthesizer(config).synthesize(graph, schedule)
    wall = time.monotonic() - start
    return result, wall


@pytest.mark.parametrize("case_name,policy,budget", CASES)
def test_budget_bounds_wall_time(case_name, policy, budget):
    result, wall = run_budgeted(case_name, budget, policy)
    # The contract: 1.1x the budget, with a small absolute allowance
    # for the non-solver bookkeeping around the deadline checks.
    assert wall <= 1.1 * budget + 0.5, (
        f"{case_name}/p{policy} with budget {budget} took {wall:.2f} s "
        f"(report: {result.resilience.summary()})"
    )
    report = ChipSimulator(result).run()
    assert report.products_delivered >= 1
    assert result.resilience is not None
    assert result.resilience.budget == budget


def test_budgeted_result_reports_rungs_or_clean():
    """A budgeted run's report is coherent: degraded iff rungs fired."""
    result, _ = run_budgeted("pcr", 30.0)
    report = result.resilience
    assert report.degraded == bool(report.rung_counts())
