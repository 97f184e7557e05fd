"""Chip-lifetime estimation from wear numbers.

The paper motivates everything with valve lifetime: "valves can only be
actuated reliably for a few thousand times [4], and the whole chip
function can be affected even when only a few valves wear out"
(Section 1), and concludes that halving the largest actuation count
"nearly doubles" a mixer's service life.  This module turns the wear
metrics into that service-life estimate: how many times can an assay
repeat before the most-worn valve exhausts its actuation budget?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError
from repro.architecture.valve import DEFAULT_WEAR_BUDGET
from repro.baseline.valve_count import TraditionalDesign
from repro.core.result import SynthesisResult


@dataclass(frozen=True)
class LifetimeEstimate:
    """Assay repetitions a chip survives under a wear budget."""

    wear_budget: int
    wear_per_run: int  # largest per-valve actuation count of one run
    runs: int  # full assay executions before the first valve dies

    @property
    def is_single_use(self) -> bool:
        return self.runs <= 1

    @property
    def is_dead_on_arrival(self) -> bool:
        """One run already exceeds the budget: the chip cannot complete
        even a single assay.  Distinct from :attr:`is_single_use` (which
        also covers the legitimate one-run chip) — a dead-on-arrival
        estimate means the synthesis parameters and the wear budget are
        irreconcilable, and callers should treat the design as unusable
        rather than short-lived."""
        return self.runs == 0


def _estimate(
    wear_budget: int, wear_per_run: int, allow_dead: bool = False
) -> LifetimeEstimate:
    if wear_budget <= 0:
        raise SynthesisError("wear budget must be positive")
    if wear_per_run <= 0:
        raise SynthesisError("one run must actuate at least one valve")
    estimate = LifetimeEstimate(
        wear_budget=wear_budget,
        wear_per_run=wear_per_run,
        runs=wear_budget // wear_per_run,
    )
    if estimate.is_dead_on_arrival and not allow_dead:
        raise SynthesisError(
            f"design is dead on arrival: one run wears the hottest valve "
            f"{wear_per_run} times but the budget is only {wear_budget}"
        )
    return estimate


def synthesis_lifetime(
    result: SynthesisResult,
    wear_budget: int = DEFAULT_WEAR_BUDGET,
    setting: int = 1,
    allow_dead: bool = False,
) -> LifetimeEstimate:
    """Lifetime of a dynamic-device chip repeating the same assay.

    Repetition reuses the same synthesis result, so every run adds the
    same per-valve wear; the most-worn valve dies first.  A design whose
    single run already exceeds the budget raises :class:`SynthesisError`
    ("dead on arrival") unless ``allow_dead`` is set, in which case the
    estimate comes back with ``runs=0`` and
    :attr:`LifetimeEstimate.is_dead_on_arrival` set.
    """
    metrics = (
        result.metrics.setting1 if setting == 1 else result.metrics.setting2
    )
    return _estimate(wear_budget, metrics.max_total, allow_dead=allow_dead)


def traditional_lifetime(
    design: TraditionalDesign,
    wear_budget: int = DEFAULT_WEAR_BUDGET,
    allow_dead: bool = False,
) -> LifetimeEstimate:
    """Lifetime of the traditional design repeating the same assay."""
    return _estimate(
        wear_budget, design.max_pump_actuations, allow_dead=allow_dead
    )


def lifetime_gain(
    result: SynthesisResult,
    design: TraditionalDesign,
    wear_budget: int = DEFAULT_WEAR_BUDGET,
    setting: int = 1,
) -> float:
    """How many times longer the dynamic chip lives than the dedicated
    one (> 1 means the reliability-aware synthesis wins)."""
    ours = synthesis_lifetime(result, wear_budget, setting)
    theirs = traditional_lifetime(design, wear_budget)
    if theirs.runs == 0:
        return float("inf") if ours.runs else 1.0
    return ours.runs / theirs.runs
