"""Algorithm 1: the full reliability-aware synthesis pipeline.

Resilience (DESIGN.md §9): ``SynthesisConfig.time_budget`` turns into a
:class:`repro.resilience.Deadline` that bounds the whole run — the
mapping stage gets :data:`MAPPING_BUDGET_FRACTION` of it (propagated
into every window/ILP solver time limit), routing keeps the remainder
(the rip-up loop polls the parent deadline).  Stage failures descend the
:class:`repro.resilience.DegradationLadder` instead of aborting; every
rung taken is recorded in the :class:`ResilienceReport` attached to
``SynthesisResult.resilience``, and a degraded run emits one
:class:`DegradedResultWarning`.

The back half of Algorithm 1 — devices, routing, actuation accounting
(L10–L20) — is :func:`realize`, shared with the lifetime engine's
warm remap (:mod:`repro.resilience.remap`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.errors import (
    CertificationError,
    DegradedResultWarning,
    RoutingError,
    SolverError,
    SynthesisError,
    TimeLimitError,
)
from repro.geometry import GridSpec
from repro.assay.schedule import Schedule
from repro.assay.sequencing_graph import SequencingGraph
from repro.architecture.chip import Chip
from repro.architecture.device import Placement
from repro.architecture.health import ChipHealth
from repro.architecture.port import ChipPort
from repro.core.actuation import AccountingPolicy, ActuationAccountant
from repro.core.events import build_transport_events
from repro.core.anytime import AnytimeMapper
from repro.core.mappers import (
    BaseMapper,
    GreedyMapper,
    ILPMapper,
    MappingResult,
    WindowedILPMapper,
)
from repro.core.mapping_model import MappingSpec, Pair
from repro.core.result import SettingMetrics, SynthesisMetrics, SynthesisResult
from repro.core.storage import StoragePlan
from repro.core.tasks import MappingTask, build_tasks
from repro.resilience import (
    CheckpointJournal,
    Deadline,
    DegradationLadder,
    ResilienceReport,
    WorkerSupervisor,
)
from repro.routing.router import Router, RoutingContext

#: share of the remaining budget the mapping stage may spend; the rest
#: is kept back for routing and actuation accounting.
MAPPING_BUDGET_FRACTION = 0.85

#: Algorithm 1's storage-repair loop (L4-L9) gives up after this many
#: map-and-check rounds.
MAX_ALGORITHM_ITERATIONS = 25


@dataclass
class SynthesisConfig:
    """Tunable parameters of the synthesis.

    ``mapper=None`` selects automatically: the monolithic ILP up to
    ``ilp_task_limit`` mixing operations, the rolling-horizon windowed
    ILP beyond (see DESIGN.md §3.2) — unless ``time_budget`` is finite,
    in which case the anytime race tier
    (:class:`~repro.core.anytime.AnytimeMapper`, DESIGN.md §13) becomes
    the default mapping engine.
    """

    grid: GridSpec
    mapper: Optional[BaseMapper] = None
    ports: Optional[List[ChipPort]] = None
    anchor_stride: int = 1
    distance_limit: Optional[int] = None
    routing_convenient: bool = True
    allow_storage_overlap: bool = True
    ilp_task_limit: int = 8
    window_size: int = 5
    #: whole-run wall-clock budget in seconds (None = unbounded).  The
    #: budget covers mapping, storage repair and routing together; when
    #: it runs short the pipeline degrades (greedy windows, relaxed
    #: routing) instead of overrunning.
    time_budget: Optional[float] = None
    #: certification level (DESIGN.md §10): ``"off"`` (default),
    #: ``"audit"`` (attach an :class:`~repro.certify.AuditReport` to the
    #: result), or ``"strict"`` (additionally raise
    #: :class:`~repro.errors.CertificationError` on any violation).
    certify: str = "off"
    #: hardware health mask (DESIGN.md §12): dead valve cells / channel
    #: edges are hard exclusions for mapping and routing.  None means a
    #: fully healthy chip; the fault-adaptive lifetime engine
    #: (:mod:`repro.resilience.remap`) re-synthesizes with the current
    #: mask after every detected failure.
    health: Optional[ChipHealth] = None
    #: pre-existing per-cell load added into the mapping objective
    #: (eq. 2's p_i terms).  The lifetime engine passes the chip's
    #: accumulated wear here, so every remap *levels* wear: new
    #: placements prefer fresh cells over nearly-exhausted ones.
    base_load: Optional[Dict] = None
    #: run exact mapping solves in watched subprocesses (DESIGN.md §14):
    #: a heartbeat watchdog SIGKILLs hung/oversized workers and retries
    #: with seeded exponential backoff before degrading in-process.
    supervised: bool = False
    #: directory of the crash-safe checkpoint journal (DESIGN.md §14);
    #: window solutions are appended (fsync'd, CRC-guarded) as they are
    #: proven, and a re-run against the same directory replays every
    #: certified record instead of re-solving.  None disables.
    checkpoint: Optional[str] = None

    def resolve_mapper(self, n_tasks: int) -> BaseMapper:
        if self.mapper is not None:
            return self.mapper
        if self.time_budget is not None:
            # A finite budget selects the anytime tier (DESIGN.md §13):
            # a heuristic lane races the exact ILP so budget expiry
            # degrades to the best certified incumbent instead of a
            # lost solve.  The tier picks its own lane backends —
            # incumbent injection needs the pure-python branch & bound;
            # the non-anytime mappers solve with HiGHS.
            return AnytimeMapper(
                ilp_task_limit=self.ilp_task_limit,
                window_size=self.window_size,
            )
        if n_tasks <= self.ilp_task_limit:
            return ILPMapper(backend="scipy")
        return WindowedILPMapper(window_size=self.window_size)


class ReliabilitySynthesizer:
    """Maps a scheduled bioassay onto the valve-centered architecture.

    Implements Algorithm 1: repeated dynamic-device mapping until every
    in-situ storage overlap fits the available free space (L4–L9),
    transport routing with storage pass-through and rip-up (L10–L19),
    and removal of non-actuated virtual valves (L20) via the actuation
    accounting.
    """

    def __init__(self, config: SynthesisConfig) -> None:
        self.config = config

    def _map_with_storage_repair(
        self,
        tasks: List[MappingTask],
        storage_plan: StoragePlan,
        mapper: BaseMapper,
        blocked: frozenset,
        routing_convenient: bool,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ):
        """Algorithm 1 L3-L9: map, check storage overlaps, repair."""
        config = self.config
        forbidden: Set[Pair] = set()
        iterations = 0
        while iterations < MAX_ALGORITHM_ITERATIONS:
            iterations += 1
            spec = MappingSpec(
                grid=config.grid,
                tasks=tasks,
                base_load=dict(config.base_load or {}),
                forbidden_overlaps=set(forbidden),
                blocked_cells=blocked,
                anchor_stride=config.anchor_stride,
                distance_limit=config.distance_limit,
                routing_convenient=routing_convenient,
                allow_storage_overlap=config.allow_storage_overlap,
                health=config.health,
            )
            mapping = self._map_once(spec, mapper, deadline, ladder)
            violations = storage_plan.overlap_violations(mapping.placements)
            fresh = violations - forbidden
            if not fresh:
                return mapping, iterations
            forbidden |= fresh
        raise SynthesisError(
            "storage-overlap repair did not converge within "
            f"{MAX_ALGORITHM_ITERATIONS} iterations"
        )

    @staticmethod
    def _map_once(
        spec: MappingSpec,
        mapper: BaseMapper,
        deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
    ):
        """One mapping solve, with the greedy balancer as the last rung.

        The windowed mapper degrades internally; this covers the
        monolithic :class:`ILPMapper` (solver fault, budget expiry,
        infeasible-at-this-reservation), whose failure used to abort
        the run outright.
        """
        try:
            return mapper.map_tasks(spec, deadline=deadline, ladder=ladder)
        except (SynthesisError, SolverError) as error:
            if isinstance(mapper, GreedyMapper):
                raise  # already at the bottom of the ladder
            if ladder is not None:
                ladder.engage(
                    "mapping", DegradationLadder.GREEDY, f"mapping: {error}"
                )
            return GreedyMapper().map_tasks(
                spec, deadline=deadline, ladder=ladder
            )

    def synthesize(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        deadline: Optional[Deadline] = None,
    ) -> SynthesisResult:
        start_time = time.monotonic()
        config = self.config
        if config.certify not in ("off", "audit", "strict"):
            raise SynthesisError(
                f"unknown certify level {config.certify!r}; expected "
                "off/audit/strict"
            )
        if deadline is None and config.time_budget is not None:
            deadline = Deadline(config.time_budget)
        report = ResilienceReport(
            budget=deadline.budget if deadline is not None else None
        )
        ladder = DegradationLadder(report)
        # The mapping stage (including storage repair) gets a fraction
        # of the budget; routing runs against a 1.1x grace deadline, so
        # a mapping stage that spends its full share can never starve
        # routing completely, while the whole run stays within 1.1x the
        # configured budget.
        mapping_deadline = (
            deadline.sub(MAPPING_BUDGET_FRACTION)
            if deadline is not None
            else None
        )
        routing_deadline = (
            Deadline(deadline.budget * 1.1) if deadline is not None else None
        )
        # L1-L2: read inputs, build the virtual valve architecture.
        graph.validate()
        schedule.validate()
        chip = Chip(config.grid, config.ports, config.health)
        tasks = build_tasks(graph, schedule)
        if not tasks:
            raise SynthesisError("the assay has no mixing operations to map")
        storage_plan = StoragePlan(graph, schedule)
        mapper = config.resolve_mapper(len(tasks))

        # Crash-safety wiring (DESIGN.md §14): the checkpoint journal
        # and/or worker supervisor attach to whatever mapper resolved,
        # and detach afterwards so a caller-owned mapper instance is
        # returned exactly as it came in.
        journal = None
        supervisor = None
        if config.checkpoint is not None:
            journal = CheckpointJournal(config.checkpoint, ladder=ladder)
        if config.supervised:
            supervisor = WorkerSupervisor(ladder=ladder, site="synthesis")
        crash_safe = journal is not None or supervisor is not None
        if crash_safe:
            mapper.journal = journal
            mapper.supervisor = supervisor
        try:
            return self._synthesize_stages(
                graph, chip, tasks, storage_plan, mapper,
                mapping_deadline, routing_deadline,
                ladder, report, start_time,
            )
        finally:
            if crash_safe:
                mapper.journal = None
                mapper.supervisor = None
            if journal is not None:
                journal.close()

    def _synthesize_stages(
        self,
        graph: SequencingGraph,
        chip: Chip,
        tasks: List[MappingTask],
        storage_plan: StoragePlan,
        mapper: BaseMapper,
        mapping_deadline: Optional[Deadline],
        routing_deadline: Optional[Deadline],
        ladder: DegradationLadder,
        report: ResilienceReport,
        start_time: float,
    ) -> SynthesisResult:
        config = self.config

        # Escalating placement reservations: 1) only the port cells;
        # 2) the full port neighborhoods (an enclosed port gets a
        # corridor); 3) the whole chip boundary ring (a guaranteed
        # ring corridor connecting every region and port).  Most runs
        # succeed on the first attempt with the best wear numbers; the
        # later attempts trade placement freedom for routability when a
        # mapper builds solid walls.
        port_cells = frozenset(p.position for p in chip.ports.values())
        port_areas = frozenset(
            cell
            for p in chip.ports.values()
            for cell in [p.position, *p.position.neighbors8()]
            if config.grid.in_bounds(cell)
        )
        boundary = frozenset(
            cell
            for cell in config.grid.cells()
            if cell.x in (0, config.grid.width - 1)
            or cell.y in (0, config.grid.height - 1)
        )
        attempts = [port_cells, port_areas, port_areas | boundary]
        try:
            result = self._pipeline_with_grace(
                chip, tasks, storage_plan, mapper, attempts,
                config.routing_convenient,
                routing_deadline, mapping_deadline, ladder, start_time,
            )
        except RoutingError as error:
            if not config.routing_convenient:
                raise SynthesisError(
                    f"routing failed even with reserved port corridors: "
                    f"{error}"
                )
            # Last ladder rung: re-synthesize without the
            # routing-convenient distance constraints — the mapper gains
            # placement freedom it can spend on routability.
            ladder.engage(
                "routing", DegradationLadder.ROUTING_RELAXED, str(error)
            )
            try:
                result = self._pipeline_with_grace(
                    chip, tasks, storage_plan, mapper, attempts, False,
                    routing_deadline, mapping_deadline, ladder, start_time,
                )
            except RoutingError as relaxed_error:
                raise SynthesisError(
                    f"routing failed even with reserved port corridors "
                    f"and relaxed routing-convenient constraints: "
                    f"{relaxed_error}"
                )

        result.resilience = report
        if report.degraded:
            warnings.warn(
                DegradedResultWarning(
                    f"synthesis of {graph.name!r} degraded: "
                    f"{report.summary()}"
                ),
                stacklevel=2,
            )
        if config.certify != "off":
            from repro.certify import audit as run_audit

            result.audit = run_audit(result)
            if config.certify == "strict" and not result.audit.ok:
                raise CertificationError(
                    f"design audit of {graph.name!r} failed: "
                    f"{result.audit.summary()}"
                )
        return result

    def _pipeline_with_grace(
        self,
        chip: Chip,
        tasks: List[MappingTask],
        storage_plan: StoragePlan,
        mapper: BaseMapper,
        attempts: List[frozenset],
        routing_convenient: bool,
        routing_deadline: Optional[Deadline],
        mapping_deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
        start_time: float,
    ) -> SynthesisResult:
        """:meth:`_attempt_pipeline`, absorbing a routing budget overrun.

        Routing cannot return a partial result, so when even the 1.1x
        grace deadline expires mid-route the only honest options are to
        abort the whole run or to finish routing over budget.  We finish:
        the overrun becomes a ``routing_overrun`` ladder rung and the
        pipeline re-runs with unbounded routing (mapping, by then, is
        greedy-fast because its own deadline has long expired).
        """
        try:
            return self._attempt_pipeline(
                chip, tasks, storage_plan, mapper, attempts,
                routing_convenient,
                routing_deadline, mapping_deadline, ladder, start_time,
            )
        except TimeLimitError as error:
            if ladder is not None:
                ladder.engage(
                    "routing", DegradationLadder.ROUTING_OVERRUN, str(error)
                )
            return self._attempt_pipeline(
                chip, tasks, storage_plan, mapper, attempts,
                routing_convenient,
                None, mapping_deadline, ladder, start_time,
            )

    def _attempt_pipeline(
        self,
        chip: Chip,
        tasks: List[MappingTask],
        storage_plan: StoragePlan,
        mapper: BaseMapper,
        attempts: List[frozenset],
        routing_convenient: bool,
        routing_deadline: Optional[Deadline],
        mapping_deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
        start_time: float,
    ) -> SynthesisResult:
        """Map, route and account under one routing-convenient setting.

        Walks the escalating placement reservations; raises the last
        :class:`RoutingError` when every attempt fails, so the caller
        can decide whether another relaxation rung remains.
        """
        last_error: Optional[RoutingError] = None
        for blocked in attempts:
            try:
                mapping, iterations = self._map_with_storage_repair(
                    tasks, storage_plan, mapper, blocked,
                    routing_convenient, mapping_deadline, ladder,
                )
                return realize(
                    chip, tasks, storage_plan, mapping.placements,
                    mapping, iterations, start_time, routing_deadline,
                )
            except RoutingError as error:
                last_error = error
        raise last_error if last_error is not None else RoutingError(
            "no placement reservation attempts were made"
        )


def realize(
    chip: Chip,
    tasks: List[MappingTask],
    storage_plan: StoragePlan,
    placements: Dict[str, Placement],
    mapping: MappingResult,
    iterations: int,
    start_time: float,
    deadline: Optional[Deadline] = None,
) -> SynthesisResult:
    """Algorithm 1 L10-L20: devices, routing and actuation accounting.

    Builds each task's device at ``placements[task.name]``, routes every
    transport (raising :class:`RoutingError`, or :class:`TimeLimitError`
    when ``deadline`` expires mid-route) and accounts both settings; the
    non-actuated virtual valves simply never appear in the grids.  The
    metrics take their mapper name and objective from ``mapping``.
    """
    devices = {task.name: task.device(placements[task.name]) for task in tasks}
    events = build_transport_events(
        storage_plan.graph, storage_plan.schedule, chip
    )
    routes = Router(
        RoutingContext(
            chip=chip, devices=devices, free_space=storage_plan.free_space
        ),
        deadline=deadline,
    ).route_all(events)
    grid1 = ActuationAccountant(
        chip.spec, AccountingPolicy(setting=1)
    ).run(devices.values(), routes)
    grid2 = ActuationAccountant(
        chip.spec, AccountingPolicy(setting=2)
    ).run(devices.values(), routes)
    metrics = SynthesisMetrics(
        setting1=SettingMetrics(
            1, grid1.max_total_actuations, grid1.max_peristaltic_actuations
        ),
        setting2=SettingMetrics(
            2, grid2.max_total_actuations, grid2.max_peristaltic_actuations
        ),
        used_valves=grid1.used_valve_count,
        role_changing_valves=len(grid1.role_changing_valves()),
        mapping_objective=mapping.objective,
        mapper=mapping.mapper,
        algorithm_iterations=iterations,
        wall_time=time.monotonic() - start_time,
    )
    return SynthesisResult(
        graph=storage_plan.graph,
        schedule=storage_plan.schedule,
        chip=chip,
        devices=devices,
        routes=routes,
        storage_plan=storage_plan,
        grid_setting1=grid1,
        grid_setting2=grid2,
        metrics=metrics,
    )
