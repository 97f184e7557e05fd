"""The centralized tolerance module and its backward-compat aliases."""

from __future__ import annotations

from fractions import Fraction

from repro.ilp import tolerances


def test_all_tolerances_positive() -> None:
    for name in (
        "OPTIMALITY_EPS",
        "FEASIBILITY_EPS",
        "PIVOT_EPS",
        "PHASE1_EPS",
        "DUAL_FLIP_EPS",
        "INTEGRALITY_EPS",
        "GAP_EPS",
        "CHECK_EPS",
        "RESIDUAL_EPS",
        "MILP_GAP_RTOL",
    ):
        assert getattr(tolerances, name) > 0, name


def test_cert_eps_is_exact_rational() -> None:
    assert isinstance(tolerances.CERT_EPS, Fraction)
    assert 0 < tolerances.CERT_EPS < 1


def test_branch_bound_integrality_alias() -> None:
    from repro.ilp import branch_bound

    assert branch_bound._INT_TOL == tolerances.INTEGRALITY_EPS


def test_ordering_makes_sense() -> None:
    """Pivot thresholds must be looser than optimality thresholds."""
    assert tolerances.OPTIMALITY_EPS < tolerances.FEASIBILITY_EPS
    assert tolerances.FEASIBILITY_EPS < tolerances.PIVOT_EPS
    assert tolerances.DUAL_FLIP_EPS < tolerances.OPTIMALITY_EPS
