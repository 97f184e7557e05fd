"""The fault-adaptive lifetime engine (DESIGN.md §12).

The paper's premise — valves wear out, and "the whole chip function can
be affected even when only a few valves wear out" — is only half
answered by wear-minimizing synthesis: once the first valve actually
dies, a *static* design is scrap.  This module closes the loop.  It
repeats an assay on one physical chip under a stochastic + wear-driven
failure model, detects failures, masks the dead hardware in a
:class:`~repro.architecture.health.ChipHealth`, and re-synthesizes the
remaining lifetime around it:

* **wear-out** — cumulative per-valve actuation counts (and per
  channel-segment counts via :func:`repro.core.edge_wear.edge_wear`)
  are carried across remaps; before each run, any used resource whose
  cumulative wear would exceed the budget dies *first* (predictive: a
  static design therefore survives exactly
  ``wear_budget // wear_per_run`` runs, matching
  :func:`repro.core.lifetime.synthesis_lifetime`);
* **random faults** — after each successful run, every used valve cell
  and channel edge may die with probability
  ``valve_fail_prob + wear_acceleration * wear_fraction`` (seeded,
  deterministic), and the chaos sites ``chip.valve_dead`` /
  ``chip.edge_dead`` can force a deterministic death through
  :data:`~repro.resilience.faults.FAULTS`;
* **remapping** — attempt 0 warm-starts from the previous result
  (unaffected devices stay fixed, only affected tasks are re-solved),
  later attempts fall back to a full re-synthesis with the health mask
  under a per-remap :class:`~repro.resilience.deadline.Deadline` whose
  budget backs off geometrically; the existing degradation ladder runs
  inside each full attempt;
* **the oracle** — every remapped generation must pass
  :func:`repro.core.simulation.simulate` and the independent
  :func:`repro.certify.audit` (which rejects any design touching dead
  hardware) before the engine trusts it.

The headline metric is **assay repetitions to failure**; see
:func:`compare_lifetimes` for the adaptive-vs-static comparison and
``python -m repro lifetime`` for the CLI.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DegradedResultWarning,
    RoutingError,
    SolverError,
    SynthesisError,
    TimeLimitError,
)
from repro.geometry import Point
from repro.architecture.channel_edges import ChannelEdge
from repro.architecture.health import ChipHealth
from repro.architecture.valve import DEFAULT_WEAR_BUDGET
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FAULTS


# ---------------------------------------------------------------------------
# failure model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureModel:
    """How hardware dies while an assay repeats.

    ``wear_budget`` bounds cumulative actuations per valve cell and per
    channel edge (the deterministic wear-out part).  The probabilistic
    part is a per-run, per-used-resource Bernoulli draw with rate
    ``valve_fail_prob``/``edge_fail_prob`` plus a wear-proportional
    hazard ``wear_acceleration * (cumulative_wear / wear_budget)`` —
    worn valves fail more often, fresh ones rarely.  ``seed`` makes the
    whole process reproducible.
    """

    wear_budget: int = DEFAULT_WEAR_BUDGET
    valve_fail_prob: float = 0.0
    edge_fail_prob: float = 0.0
    wear_acceleration: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.wear_budget <= 0:
            raise SynthesisError("wear budget must be positive")
        for name in ("valve_fail_prob", "edge_fail_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SynthesisError(f"{name}={p} is not a probability")
        if self.wear_acceleration < 0:
            raise SynthesisError("wear_acceleration must be >= 0")


class FailureProcess:
    """Stateful realization of a :class:`FailureModel` on one chip.

    Tracks cumulative wear per physical valve cell and channel edge
    across remaps (the chip is the same piece of hardware no matter how
    it is currently mapped) and draws the stochastic deaths from one
    seeded RNG, so a (model, assay) pair replays identically.
    """

    def __init__(self, model: FailureModel) -> None:
        self.model = model
        self.rng = random.Random(model.seed)
        self.cell_wear: Dict[Point, int] = {}
        self.edge_wear: Dict[ChannelEdge, int] = {}

    # -- wear bookkeeping --------------------------------------------------

    @staticmethod
    def run_wear(result) -> Tuple[Dict[Point, int], Dict[ChannelEdge, int]]:
        """Per-resource wear one execution of ``result`` adds."""
        from repro.core.edge_wear import edge_wear as edge_report

        cells = {
            valve.position: valve.total_actuations
            for valve in result.grid_setting1.valves()
            if valve.total_actuations > 0
        }
        report = edge_report(result, setting=1)
        edges = {
            edge: report.total(edge)
            for edge in set(report.pump) | set(report.control)
        }
        return cells, edges

    def exhausted_by_next_run(
        self,
        cells: Dict[Point, int],
        edges: Dict[ChannelEdge, int],
    ) -> Tuple[List[Point], List[ChannelEdge]]:
        """Resources that would blow their budget if the run executed."""
        budget = self.model.wear_budget
        dead_cells = sorted(
            p for p, w in cells.items() if self.cell_wear.get(p, 0) + w > budget
        )
        dead_edges = sorted(
            e for e, w in edges.items() if self.edge_wear.get(e, 0) + w > budget
        )
        return dead_cells, dead_edges

    def commit_run(
        self,
        cells: Dict[Point, int],
        edges: Dict[ChannelEdge, int],
    ) -> None:
        for p, w in cells.items():
            self.cell_wear[p] = self.cell_wear.get(p, 0) + w
        for e, w in edges.items():
            self.edge_wear[e] = self.edge_wear.get(e, 0) + w

    # -- stochastic + injected deaths --------------------------------------

    def sample_failures(
        self,
        cells: Dict[Point, int],
        edges: Dict[ChannelEdge, int],
    ) -> Tuple[List[Point], List[ChannelEdge]]:
        """Random deaths among the resources the current design uses."""
        model = self.model
        budget = model.wear_budget
        dead_cells: List[Point] = []
        if model.valve_fail_prob or model.wear_acceleration:
            for p in sorted(cells):
                hazard = model.valve_fail_prob + model.wear_acceleration * (
                    self.cell_wear.get(p, 0) / budget
                )
                if hazard > 0 and self.rng.random() < hazard:
                    dead_cells.append(p)
        dead_edges: List[ChannelEdge] = []
        if model.edge_fail_prob or model.wear_acceleration:
            for e in sorted(edges):
                hazard = model.edge_fail_prob + model.wear_acceleration * (
                    self.edge_wear.get(e, 0) / budget
                )
                if hazard > 0 and self.rng.random() < hazard:
                    dead_edges.append(e)
        return dead_cells, dead_edges

    def injected_failures(
        self,
        cells: Dict[Point, int],
        edges: Dict[ChannelEdge, int],
    ) -> Tuple[List[Point], List[ChannelEdge]]:
        """Deaths forced by the chaos sites, if armed.

        ``chip.valve_dead`` kills the most-worn used valve cell,
        ``chip.edge_dead`` the most-worn used channel edge — both
        deterministic so chaos tests can assert the exact casualty.
        Guarded by ``FAULTS.armed`` first: zero overhead in production.
        """
        dead_cells: List[Point] = []
        dead_edges: List[ChannelEdge] = []
        if FAULTS.armed and FAULTS.should_fire("chip.valve_dead") and cells:
            dead_cells.append(
                max(sorted(cells), key=lambda p: self.cell_wear.get(p, 0) + cells[p])
            )
        if FAULTS.armed and FAULTS.should_fire("chip.edge_dead") and edges:
            dead_edges.append(
                max(sorted(edges), key=lambda e: self.edge_wear.get(e, 0) + edges[e])
            )
        return dead_cells, dead_edges


# ---------------------------------------------------------------------------
# lifetime report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifetimeEvent:
    """One entry of the per-failure event log."""

    run: int  # completed runs when the event happened
    kind: str  # valve-dead | edge-dead | remap | remap-failed | terminal
    detail: str


@dataclass
class LifetimeReport:
    """What happened to one chip over its whole service life."""

    assay: str
    adaptive: bool
    wear_budget: int
    runs: int = 0
    remaps: int = 0
    events: List[LifetimeEvent] = field(default_factory=list)
    terminal_cause: Optional[str] = None
    final_health: ChipHealth = field(default_factory=ChipHealth.healthy)
    wall_time: float = 0.0

    def record(self, run: int, kind: str, detail: str) -> None:
        self.events.append(LifetimeEvent(run=run, kind=kind, detail=detail))

    @property
    def failures(self) -> int:
        return sum(
            1 for e in self.events if e.kind in ("valve-dead", "edge-dead")
        )

    def as_dict(self) -> dict:
        return {
            "assay": self.assay,
            "adaptive": self.adaptive,
            "wear_budget": self.wear_budget,
            "runs": self.runs,
            "remaps": self.remaps,
            "failures": self.failures,
            "terminal_cause": self.terminal_cause,
            "final_health": self.final_health.as_dict(),
            "events": [
                {"run": e.run, "kind": e.kind, "detail": e.detail}
                for e in self.events
            ],
            "wall_time": round(self.wall_time, 3),
        }

    def summary(self) -> str:
        mode = "adaptive" if self.adaptive else "static"
        cause = self.terminal_cause or "run limit"
        return (
            f"{self.assay} [{mode}]: {self.runs} runs, "
            f"{self.failures} failures, {self.remaps} remaps — {cause}"
        )


@dataclass(frozen=True)
class LifetimeComparison:
    """Adaptive vs. static repetitions-to-failure on the same failures."""

    adaptive: LifetimeReport
    static: LifetimeReport

    @property
    def gain(self) -> float:
        return self.adaptive.runs / max(self.static.runs, 1)

    def as_dict(self) -> dict:
        return {
            "adaptive": self.adaptive.as_dict(),
            "static": self.static.as_dict(),
            "gain": round(self.gain, 3),
        }


# ---------------------------------------------------------------------------
# remap policy + engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemapPolicy:
    """How hard the engine tries to map around dead hardware.

    Attempt 0 is the incremental warm start (when enabled and
    applicable); every later attempt is a full re-synthesis.  Each
    attempt runs under its own deadline of
    ``remap_budget * backoff ** attempt`` seconds (unbounded when
    ``remap_budget`` is None) — the degradation ladder inside the
    synthesizer spends that budget before the attempt counts as failed.
    """

    max_attempts: int = 3
    remap_budget: Optional[float] = None
    backoff: float = 2.0
    warm_start: bool = True
    validate: bool = True
    #: preventive wear-leveling rung: when the current design can
    #: survive at most this many more runs before some used resource
    #: exhausts its budget, the engine remaps early (full re-synthesis
    #: with accumulated wear as base load) so fresh cells take over
    #: *before* anything dies.  This is what turns "remap around
    #: corpses" into the paper's service-life extension — by the time
    #: uniform wear kills cells, it kills them in batches too large to
    #: map around.  None disables the rung.
    preventive_horizon: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SynthesisError("remap policy needs at least one attempt")
        if self.backoff < 1.0:
            raise SynthesisError("backoff factor must be >= 1")
        if self.preventive_horizon is not None and self.preventive_horizon < 0:
            raise SynthesisError("preventive_horizon must be >= 0 or None")


class AdaptiveLifetimeEngine:
    """Repeats an assay on one chip, remapping around failures.

    ``config`` is the same :class:`~repro.core.synthesis.SynthesisConfig`
    a one-shot synthesis would use; its ``health`` field is managed by
    the engine (pre-existing dead hardware is honored as the starting
    mask).
    """

    def __init__(
        self,
        graph,
        schedule,
        config,
        model: Optional[FailureModel] = None,
        policy: Optional[RemapPolicy] = None,
    ) -> None:
        self.graph = graph
        self.schedule = schedule
        self.config = config
        self.model = model if model is not None else FailureModel()
        self.policy = policy if policy is not None else RemapPolicy()

    # -- public API --------------------------------------------------------

    def run(self, max_runs: int = 1000, adaptive: bool = True) -> LifetimeReport:
        """Drive the chip until it dies or ``max_runs`` is reached."""
        started = time.monotonic()
        process = FailureProcess(self.model)
        health = (
            self.config.health
            if self.config.health is not None
            else ChipHealth.healthy()
        )
        report = LifetimeReport(
            assay=self.graph.name,
            adaptive=adaptive,
            wear_budget=self.model.wear_budget,
        )
        result = self._initial(health, report)
        if result is None:
            report.wall_time = time.monotonic() - started
            report.final_health = health
            return report
        cells, edges = process.run_wear(result)
        preventive_tried = False

        while report.runs < max_runs:
            dead_c, dead_e = process.exhausted_by_next_run(cells, edges)
            if dead_c or dead_e:
                health = self._kill(
                    report, process, health, dead_c, dead_e, worn=True
                )
                if not adaptive:
                    report.terminal_cause = (
                        "wear budget exhausted; static design cannot remap"
                    )
                    report.record(report.runs, "terminal", report.terminal_cause)
                    break
                result = self._remap(result, health, report, process)
                if result is None:
                    break
                cells, edges = process.run_wear(result)
                continue  # re-check the new design before running it

            if adaptive and not preventive_tried:
                preventive_tried = True  # one attempt per run, success or not
                better = self._preventive(
                    process, health, cells, edges, report
                )
                if better is not None:
                    result = better
                    cells, edges = process.run_wear(result)
                    continue  # re-check the fresh design before running it

            process.commit_run(cells, edges)
            report.runs += 1
            preventive_tried = False

            sc, se = process.sample_failures(cells, edges)
            ic, ie = process.injected_failures(cells, edges)
            new_c = sorted(set(sc) | set(ic))
            new_e = sorted(set(se) | set(ie))
            if not new_c and not new_e:
                continue
            health = self._kill(
                report, process, health, new_c, new_e, worn=False
            )
            if not adaptive:
                report.terminal_cause = (
                    "hardware fault; static design cannot remap"
                )
                report.record(report.runs, "terminal", report.terminal_cause)
                break
            result = self._remap(result, health, report, process)
            if result is None:
                break
            cells, edges = process.run_wear(result)

        if report.terminal_cause is None and report.runs >= max_runs:
            report.terminal_cause = f"run limit {max_runs} reached"
        report.final_health = health
        report.wall_time = time.monotonic() - started
        return report

    # -- failure bookkeeping ----------------------------------------------

    def _kill(
        self,
        report: LifetimeReport,
        process: FailureProcess,
        health: ChipHealth,
        cells: List[Point],
        edges: List[ChannelEdge],
        worn: bool,
    ) -> ChipHealth:
        why = "wear budget exhausted" if worn else "random fault"
        for p in cells:
            report.record(
                report.runs, "valve-dead",
                f"valve {p} died ({why}; cumulative wear "
                f"{process.cell_wear.get(p, 0)}/{self.model.wear_budget})",
            )
        for e in edges:
            report.record(
                report.runs, "edge-dead",
                f"channel edge {e} died ({why}; cumulative wear "
                f"{process.edge_wear.get(e, 0)}/{self.model.wear_budget})",
            )
        return health.kill_cells(cells).kill_edges(edges)

    # -- synthesis / remapping --------------------------------------------

    def _initial(self, health: ChipHealth, report: LifetimeReport):
        try:
            result = self._full_synthesis(health, budget=None)
        except (SynthesisError, SolverError, RoutingError, TimeLimitError) as e:
            report.terminal_cause = f"initial synthesis failed: {e}"
            report.record(0, "terminal", report.terminal_cause)
            return None
        problem = self._validate(result)
        if problem is not None:
            report.terminal_cause = f"initial synthesis invalid: {problem}"
            report.record(0, "terminal", report.terminal_cause)
            return None
        return result

    def _remaining_runs(
        self,
        process: FailureProcess,
        cells: Dict[Point, int],
        edges: Dict[ChannelEdge, int],
    ) -> int:
        """Runs this design survives before some used resource dies."""
        budget = self.model.wear_budget
        remaining = budget  # a design wears every used resource >= 1/run
        for p, w in cells.items():
            remaining = min(
                remaining, (budget - process.cell_wear.get(p, 0)) // w
            )
        for e, w in edges.items():
            remaining = min(
                remaining, (budget - process.edge_wear.get(e, 0)) // w
            )
        return max(remaining, 0)

    def _preventive(
        self,
        process: FailureProcess,
        health: ChipHealth,
        cells: Dict[Point, int],
        edges: Dict[ChannelEdge, int],
        report: LifetimeReport,
    ):
        """Wear-leveling remap before anything dies; None = keep current.

        A preventive remap is best-effort: a failed attempt is logged
        and the current (still valid) design keeps running until the
        reactive path takes over.  A candidate is adopted only when it
        strictly outlives the current design, so the loop cannot churn
        on equivalent layouts.
        """
        horizon = self.policy.preventive_horizon
        if horizon is None:
            return None
        current = self._remaining_runs(process, cells, edges)
        if current > horizon:
            return None
        try:
            candidate = self._full_synthesis(
                health, self.policy.remap_budget, wear=process.cell_wear
            )
        except (SynthesisError, SolverError, RoutingError, TimeLimitError) as e:
            report.record(
                report.runs, "remap-failed",
                f"preventive wear-leveling remap failed: {e}",
            )
            return None
        problem = self._validate(candidate)
        if problem is not None:
            report.record(
                report.runs, "remap-failed",
                f"preventive remap produced an invalid design: {problem}",
            )
            return None
        c_cells, c_edges = process.run_wear(candidate)
        improved = self._remaining_runs(process, c_cells, c_edges)
        if improved <= current:
            # the chip has no fresher region to offer; keep running the
            # current design until the reactive path takes over
            return None
        report.remaps += 1
        report.record(
            report.runs, "remap",
            f"preventive wear-leveling remap (remaining runs "
            f"{current} -> {improved}, mapper={candidate.metrics.mapper})",
        )
        return candidate

    def _remap(
        self,
        previous,
        health: ChipHealth,
        report: LifetimeReport,
        process: FailureProcess,
    ):
        """Re-synthesize around ``health``; None (terminal) on failure."""
        policy = self.policy
        for attempt in range(policy.max_attempts):
            budget = (
                policy.remap_budget * policy.backoff ** attempt
                if policy.remap_budget is not None
                else None
            )
            warm = attempt == 0 and policy.warm_start
            try:
                if warm:
                    candidate = self._warm_remap(
                        previous, health, budget, wear=process.cell_wear
                    )
                else:
                    candidate = self._full_synthesis(
                        health, budget, wear=process.cell_wear
                    )
            except (
                SynthesisError, SolverError, RoutingError, TimeLimitError
            ) as error:
                report.record(
                    report.runs, "remap-failed",
                    f"attempt {attempt} ({'warm' if warm else 'full'}): "
                    f"{error}",
                )
                continue
            problem = self._validate(candidate)
            if problem is not None:
                report.record(
                    report.runs, "remap-failed",
                    f"attempt {attempt} ({'warm' if warm else 'full'}) "
                    f"produced an invalid design: {problem}",
                )
                continue
            report.remaps += 1
            rungs = (
                candidate.resilience.rung_counts()
                if candidate.resilience is not None
                and candidate.resilience.degraded
                else {}
            )
            degraded = f", degraded {rungs}" if rungs else ""
            report.record(
                report.runs, "remap",
                f"attempt {attempt} ({'warm' if warm else 'full'}) succeeded "
                f"around {health.dead_count} dead resources "
                f"(mapper={candidate.metrics.mapper}{degraded})",
            )
            return candidate
        report.terminal_cause = (
            f"remap infeasible after {policy.max_attempts} attempts "
            f"({health.dead_count} dead resources)"
        )
        report.record(report.runs, "terminal", report.terminal_cause)
        return None

    def _full_synthesis(
        self,
        health: ChipHealth,
        budget: Optional[float],
        wear: Optional[Dict[Point, int]] = None,
    ):
        from repro.core.synthesis import ReliabilitySynthesizer

        config = replace(
            self.config,
            health=None if health.is_healthy else health,
            base_load=dict(wear) if wear else self.config.base_load,
            time_budget=budget if budget is not None else self.config.time_budget,
        )
        with warnings.catch_warnings():
            # degradation is recorded in the result's resilience report
            # (and echoed into the lifetime event log); the warning would
            # only spam the repetition loop.
            warnings.simplefilter("ignore", DegradedResultWarning)
            return ReliabilitySynthesizer(config).synthesize(
                self.graph, self.schedule
            )

    def _warm_remap(
        self,
        previous,
        health: ChipHealth,
        budget: Optional[float],
        wear: Optional[Dict[Point, int]] = None,
    ):
        """Incremental remap: keep unaffected devices, re-solve the rest.

        Only placements whose footprint the new mask blocks are
        re-mapped, as a :func:`~repro.core.mappers.window_subspec`
        sub-problem: everything else stays exactly where it was (fixed
        devices with their pump load as ``base_load``).  Routing and
        actuation accounting always rerun in full through
        :func:`~repro.core.synthesis.realize` — routes are global.
        Raises :class:`SynthesisError` when the warm start is degenerate
        (nothing or everything affected) or the storage plan rejects the
        combined placements; the caller then falls back to a full
        re-synthesis.
        """
        from repro.architecture.chip import Chip
        from repro.core.mappers import GreedyMapper, ILPMapper, window_subspec
        from repro.core.mapping_model import MappingSpec
        from repro.core.storage import StoragePlan
        from repro.core.synthesis import realize
        from repro.core.tasks import build_tasks

        started = time.monotonic()
        config = self.config
        tasks = build_tasks(self.graph, self.schedule)
        affected = [
            t for t in tasks
            if health.blocks_rect(previous.devices[t.name].rect)
        ]
        if not affected:
            raise SynthesisError(
                "warm start has no affected devices (route-only damage); "
                "falling back to full re-synthesis"
            )
        if len(affected) == len(tasks):
            raise SynthesisError("every device is affected; warm start moot")

        chip = Chip(config.grid, config.ports, health)
        whole = MappingSpec(
            grid=config.grid,
            tasks=tasks,
            base_load=dict(wear) if wear else {},
            blocked_cells=frozenset(p.position for p in chip.ports.values()),
            anchor_stride=config.anchor_stride,
            distance_limit=config.distance_limit,
            routing_convenient=config.routing_convenient,
            allow_storage_overlap=config.allow_storage_overlap,
            health=health,
        )
        placements = {
            name: device.placement for name, device in previous.devices.items()
        }
        spec = window_subspec(whole, affected, tasks, placements)
        deadline = Deadline(budget) if budget is not None else None
        mapper = (
            ILPMapper(backend="scipy")
            if len(affected) <= config.ilp_task_limit
            else GreedyMapper()
        )
        mapping = mapper.map_tasks(spec, deadline=deadline)
        for task in affected:
            placements[task.name] = mapping.placements[task.name]

        storage_plan = StoragePlan(self.graph, self.schedule)
        violations = storage_plan.overlap_violations(placements)
        if violations:
            raise SynthesisError(
                f"warm start breaks {len(violations)} storage overlap "
                "permissions; falling back to full re-synthesis"
            )
        result = realize(
            chip, tasks, storage_plan, placements, mapping, 1, started,
            deadline,
        )
        # the realized peak is the honest bound here: the warm solve
        # optimized only the affected window, not the whole assay
        result.metrics = replace(
            result.metrics,
            mapping_objective=result.grid_setting1.max_peristaltic_actuations,
            mapper=f"warm+{mapping.mapper}",
        )
        return result

    # -- the oracle --------------------------------------------------------

    def _validate(self, result) -> Optional[str]:
        """Simulator + audit verdict; None when the design is clean."""
        if not self.policy.validate:
            return None
        from repro.certify import audit
        from repro.core.simulation import SimulationError, simulate

        try:
            simulate(result)
        except SimulationError as error:
            return f"simulator rejected the design: {error}"
        verdict = audit(result)
        if not verdict.ok:
            return f"audit rejected the design: {verdict.summary()}"
        result.audit = verdict
        return None


def compare_lifetimes(
    graph,
    schedule,
    config,
    model: Optional[FailureModel] = None,
    policy: Optional[RemapPolicy] = None,
    max_runs: int = 1000,
) -> LifetimeComparison:
    """Adaptive vs. static repetitions-to-failure, same seeded failures.

    Both runs use an independent :class:`FailureProcess` constructed
    from the same model, so the chips see identical wear-out times and
    identical random draws for identical designs — the comparison
    isolates exactly the paper's question: what does the ability to
    re-synthesize buy?
    """
    engine = AdaptiveLifetimeEngine(
        graph, schedule, config, model=model, policy=policy
    )
    adaptive = engine.run(max_runs=max_runs, adaptive=True)
    static = engine.run(max_runs=max_runs, adaptive=False)
    return LifetimeComparison(adaptive=adaptive, static=static)
