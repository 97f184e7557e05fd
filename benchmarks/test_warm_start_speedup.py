"""Acceptance benchmark: warm-started B&B beats cold start ≥2x.

The warm-start architecture (compiled model + parent basis + dual
simplex, PR 3) must explore the search with at least 2x fewer total
simplex iterations than the cold-start path on the table-1 PCR and
exponential-dilution probes — asserted here through the ``repro.obs``
telemetry counters, not wall clocks, so the bar is deterministic.

The probes are the same exact sub-models ``bench_record.py`` snapshots
into ``BENCH_ilp.json`` (and ``python -m repro profile`` runs): the
case's first two tasks on a coarse anchor grid.
"""

import pytest

from bench_record import PROBES, probe_model
from repro import obs
from repro.ilp.solution import SolveStatus


def _solve_with_telemetry(model, warm: bool):
    obs.reset()
    obs.enable()
    try:
        solution = model.solve(
            backend="branch_bound",
            lp_max_iterations=200_000,
            warm_start=warm,
        )
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return solution, counters


@pytest.mark.parametrize(
    "case_name,n_tasks,stride", PROBES, ids=[p[0] for p in PROBES]
)
def test_warm_start_halves_simplex_iterations(case_name, n_tasks, stride):
    model = probe_model(case_name, n_tasks, stride)
    warm_solution, warm = _solve_with_telemetry(model, warm=True)
    cold_solution, cold = _solve_with_telemetry(model, warm=False)

    # Equivalence first: the speedup must not change the answer.
    assert warm_solution.status is SolveStatus.OPTIMAL
    assert cold_solution.status is SolveStatus.OPTIMAL
    assert warm_solution.objective == pytest.approx(cold_solution.objective)

    # The warm path actually warm starts ...
    assert warm["bb.basis_reuse_hits"] > 0
    assert warm["bb.warm_starts"] > 0
    assert warm["bb.dual_pivots"] > 0
    # ... and the cold path does not.
    assert cold["bb.warm_starts"] == 0
    assert cold["bb.dual_pivots"] == 0

    # The acceptance bar: ≥2x fewer total simplex iterations.
    assert cold["bb.simplex_iterations"] >= 2 * warm["bb.simplex_iterations"], (
        f"{case_name}: warm {warm['bb.simplex_iterations']} vs "
        f"cold {cold['bb.simplex_iterations']} simplex iterations"
    )
