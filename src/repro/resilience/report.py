"""The degradation ladder and its structured run report.

Failure handling in the synthesis pipeline is a *ladder*, not a cliff:
each stage that can fail has an ordered sequence of bounded
relaxations, and every step taken is recorded as a
:class:`ResilienceEvent` so a degraded run explains itself instead of
silently returning a worse answer.  The rungs, in the order a run can
descend them (see DESIGN.md §9):

========================  ============================================
rung                      meaning
========================  ============================================
``greedy``                the mapping fell back to the greedy
                          balancer; the event detail starts with the
                          scope: ``window`` (a window's ILP solve
                          failed — timeout / infeasible / solver
                          fault; that window alone), ``mapping`` (the
                          configured mapper failed outright: solver
                          fault / budget expiry on the monolithic ILP,
                          or a window that even greedy could not place;
                          the whole mapping was re-done greedily)
                          or ``deadline`` (the mapping-stage deadline
                          expired mid-roll; the remaining tasks were
                          placed greedily and refinement was skipped)
``worker_retry``          a supervised worker (crash, missed
                          heartbeat, RSS kill) was lost; the work was
                          retried after a seeded exponential backoff
``worker_serial``         supervised retries were exhausted; the solve
                          re-ran in-process (unsupervised) instead
``checkpoint_resume``     certified window solutions were replayed from
                          the crash-safe checkpoint journal instead of
                          being re-solved (DESIGN.md §14)
``anytime_heuristic``     the anytime race (DESIGN.md §13) ended with
                          the heuristic lane ahead: the adopted mapping
                          is certified feasible with a known objective
                          but not proven optimal
``routing_relaxed``       routing failed after the rip-up budget and
                          every reserved-corridor attempt; the run was
                          re-synthesized with the routing-convenient
                          distance constraints relaxed
``routing_overrun``       the time budget was exhausted before routing
                          could finish; routing (which cannot return a
                          partial result) was re-run unbounded and the
                          overrun recorded
``serve_shed``            the serve engine admitted this job under
                          load-shedding: its time budget was multiplied
                          down because the queue was filling
                          (DESIGN.md §15)
``serve_breaker``         the per-problem circuit breaker was open; the
                          serve engine answered with a greedy degraded
                          solve instead of the full pipeline
========================  ============================================

Every :meth:`DegradationLadder.engage` call mirrors into a
``resilience.<rung>`` telemetry counter (:mod:`repro.obs`), shows up in
the ``python -m repro profile`` report, and ends in the
:class:`ResilienceReport` attached to ``SynthesisResult.resilience``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import TELEMETRY


@dataclass(frozen=True)
class ResilienceEvent:
    """One ladder rung engagement during a synthesis run."""

    stage: str  # "mapping" | "worker" | "routing" | "serve"
    rung: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f": {self.detail}" if self.detail else ""
        return f"[{self.stage}] {self.rung}{suffix}"


@dataclass
class ResilienceReport:
    """Structured record of every degradation a run went through."""

    #: the whole-run time budget, when one was set.
    budget: Optional[float] = None
    events: List[ResilienceEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Did any ladder rung engage?"""
        return bool(self.events)

    def record(self, stage: str, rung: str, detail: str = "") -> None:
        self.events.append(ResilienceEvent(stage, rung, detail))
        if TELEMETRY.enabled:
            TELEMETRY.count(f"resilience.{rung}")

    def count(self, rung: str) -> int:
        return sum(1 for e in self.events if e.rung == rung)

    def rung_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.rung] = counts.get(event.rung, 0) + 1
        return counts

    def as_dict(self) -> dict:
        """JSON-friendly form (profile reports, experiment artifacts)."""
        return {
            "budget": self.budget,
            "degraded": self.degraded,
            "rungs": self.rung_counts(),
            "events": [
                {"stage": e.stage, "rung": e.rung, "detail": e.detail}
                for e in self.events
            ],
        }

    def summary(self) -> str:
        if not self.events:
            return "no degradation"
        return ", ".join(
            f"{rung} x{n}" for rung, n in sorted(self.rung_counts().items())
        )


class DegradationLadder:
    """Bounded retry-with-relaxation policy shared across the pipeline.

    The ladder owns the run's :class:`ResilienceReport`; stages call
    :meth:`engage` when they step down a rung.  The rung *mechanics*
    live where the state lives (the mapper re-places its own failed
    windows, the synthesizer re-maps without the distance
    constraints) — the ladder is the shared record and the shared
    vocabulary, so tests and reports can assert exactly which
    relaxations a run used.
    """

    GREEDY = "greedy"
    WORKER_RETRY = "worker_retry"
    WORKER_SERIAL = "worker_serial"
    CHECKPOINT_RESUME = "checkpoint_resume"
    ANYTIME_HEURISTIC = "anytime_heuristic"
    ROUTING_RELAXED = "routing_relaxed"
    ROUTING_OVERRUN = "routing_overrun"
    SERVE_SHED = "serve_shed"
    SERVE_BREAKER = "serve_breaker"

    #: every rung, in descent order (documentation + test parametrization).
    RUNGS = (
        GREEDY,
        WORKER_RETRY,
        WORKER_SERIAL,
        CHECKPOINT_RESUME,
        ANYTIME_HEURISTIC,
        ROUTING_RELAXED,
        ROUTING_OVERRUN,
        SERVE_SHED,
        SERVE_BREAKER,
    )

    def __init__(self, report: Optional[ResilienceReport] = None) -> None:
        self.report = report if report is not None else ResilienceReport()

    def engage(self, stage: str, rung: str, detail: str = "") -> None:
        """Record that ``stage`` stepped down to ``rung``."""
        self.report.record(stage, rung, detail)

    def fired(self, rung: str) -> int:
        return self.report.count(rung)
