"""Mappers: solve the dynamic-device mapping problem.

Three interchangeable engines (see DESIGN.md §3.2):

* :class:`ILPMapper` — the paper's monolithic ILP, solved exactly.
  Used for small cases (PCR-scale) and as the ground truth in tests.
* :class:`WindowedILPMapper` — rolling horizon: operations are
  processed in start-time order in windows; each window solves the
  *same* ILP with earlier placements committed as constants.  This is
  the default for the larger benchmark assays, where the monolithic
  model is out of reach for an open-source MIP stack.
* :class:`GreedyMapper` — a fast deterministic balancer: each operation
  takes the feasible placement minimizing the resulting maximum valve
  load.  Serves as a lower baseline and as the fallback when a window
  turns out infeasible.

Refinement bookkeeping is incremental: a :class:`LoadLedger` keeps the
per-valve load map, the peak and the peak-cell set in sync with the
current placements in O(ring) per change, instead of rebuilding the
whole map from every placement on every probe.  The naive rebuild
helpers are kept as reference implementations; tests and the benchmark
suite assert the ledger matches them exactly.

Every mapper fills :attr:`MappingResult.stats` with solve telemetry
(window solve time, greedy fallbacks, refinement accept/reject tallies)
and mirrors it into :mod:`repro.obs` when telemetry is enabled.

Failure handling follows the degradation ladder (DESIGN.md §9): a
window whose ILP solve fails falls back to the greedy balancer for that
window only (``greedy``, scope ``window``); an expired mapping deadline
finishes the remaining tasks greedily and skips refinement (``greedy``,
scope ``deadline``); a window even greedy cannot place raises
:class:`SynthesisError`.  Every mapper accepts an optional
:class:`repro.resilience.Deadline` (propagated into solver time limits)
and :class:`repro.resilience.DegradationLadder` (which records the
rungs taken).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SolverError, SynthesisError, WorkerCrashError
from repro.geometry import Point
from repro.architecture.device import DynamicDevice, Placement
from repro.ilp.solution import SolveStatus
from repro.obs import TELEMETRY
from repro.resilience import Deadline, DegradationLadder
from repro.core.mapping_model import MappingModelBuilder, MappingSpec, Pair
from repro.core.tasks import MappingTask


def _solve_spec_job(payload):
    """Supervised-worker entry point: one exact solve of a full spec.

    Top-level and picklable, so a worker process can import it.  The
    worker's mapper gets no journal and no supervisor (no recursive
    supervision, no journal writes from children — the parent records
    the result it receives); deterministic failures propagate back as
    exceptions through the supervisor's result channel.
    """
    spec, backend, limit, solver_kwargs = payload
    return ILPMapper(
        backend=backend, time_limit=limit, **solver_kwargs
    ).map_tasks(spec)


@dataclass
class MappingResult:
    """Placements for every task plus solve diagnostics."""

    placements: Dict[str, Placement]
    objective: int  # max pump load achieved (setting-1 rates)
    mapper: str
    used_overlaps: List[Pair] = field(default_factory=list)
    wall_time: float = 0.0
    optimal: bool = False
    #: solve telemetry: window solve seconds, greedy fallback count,
    #: refinement accept/reject tallies, ... (mapper-specific keys).
    stats: Dict[str, float] = field(default_factory=dict)

    def rect_of(self, name: str):
        return self.placements[name].rect


class LoadLedger:
    """Incremental per-valve pump-load bookkeeping.

    Maintains exactly the map that
    :meth:`WindowedILPMapper._cell_loads` rebuilds from scratch — the
    spec's base load plus every placed task's pump rate on its ring —
    but updated in O(ring) on :meth:`add`/:meth:`remove`.  Cells are
    bucketed by load level, so ``peak()`` costs O(distinct levels) and
    ``peak_cells()`` O(|cells at the peak|) instead of a full-map scan.
    """

    __slots__ = ("_base", "_load", "_levels")

    def __init__(self, base_load: Dict[Point, int]) -> None:
        self._base = frozenset(base_load)
        self._load: Dict[Point, int] = dict(base_load)
        self._levels: Dict[int, set] = {}
        for cell, level in self._load.items():
            self._levels.setdefault(level, set()).add(cell)

    @classmethod
    def from_placements(
        cls,
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> "LoadLedger":
        ledger = cls(spec.base_load)
        for task in ordered:
            placement = placements.get(task.name)
            if placement is not None:
                ledger.add(task, placement)
        return ledger

    # -- updates ---------------------------------------------------------

    def add(self, task: MappingTask, placement: Placement) -> None:
        self._shift(placement.pump_cells(), task.pump_rate)

    def remove(self, task: MappingTask, placement: Placement) -> None:
        self._shift(placement.pump_cells(), -task.pump_rate)

    def _shift(self, cells: Iterable[Point], delta: int) -> None:
        if delta == 0:
            # A zero-rate contribution must leave no trace, exactly like
            # the from-scratch rebuild (which also skips it) — otherwise
            # add/remove churn and the rebuild disagree on which cells
            # exist at load 0 (see tests/core/test_ledger_consistency.py).
            return
        load, levels = self._load, self._levels
        for cell in cells:
            old = load.get(cell)
            if old is not None:
                bucket = levels[old]
                bucket.discard(cell)
                if not bucket:
                    del levels[old]
            new = (old or 0) + delta
            if new == 0 and cell not in self._base:
                # Drop the entry so the map stays identical to a from-
                # scratch rebuild (absent, not present-at-zero).
                if old is not None:
                    del load[cell]
            else:
                load[cell] = new
                levels.setdefault(new, set()).add(cell)

    # -- queries ---------------------------------------------------------

    def peak(self) -> int:
        """The maximum load over all tracked valves (0 when empty)."""
        return max(self._levels) if self._levels else 0

    def measure(self) -> Tuple[int, int]:
        """(max load, #valves at the max) — lexicographic progress."""
        if not self._levels:
            return (0, 0)
        peak = max(self._levels)
        return (peak, len(self._levels[peak]))

    def peak_cells(self) -> frozenset:
        """Every valve currently at the maximum load."""
        if not self._levels:
            return frozenset()
        return frozenset(self._levels[max(self._levels)])

    def loads(self) -> Dict[Point, int]:
        """A copy of the full load map (for tests and reports)."""
        return dict(self._load)


def window_subspec(
    spec: MappingSpec,
    window: List[MappingTask],
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
    discouraged: frozenset = frozenset(),
) -> MappingSpec:
    """A sub-problem over ``window``: every other placed task fixed.

    Placed tasks outside the window become :class:`DynamicDevice`
    constants and their pump rates fold into ``base_load``, so the
    sub-problem's objective is the true whole-chip peak.  Shared by the
    rolling-horizon mapper's windows and by the LNS repair step
    (:mod:`repro.core.lns`), which re-places a destroyed task set
    against everything it kept.
    """
    fixed: Dict[str, DynamicDevice] = dict(spec.fixed)
    base_load: Dict[Point, int] = dict(spec.base_load)
    window_names = {t.name for t in window}
    for task in ordered:
        placement = placements.get(task.name)
        if placement is None or task.name in window_names:
            continue
        fixed[task.name] = task.device(placement)
        for cell in placement.pump_cells():
            base_load[cell] = base_load.get(cell, 0) + task.pump_rate
    return MappingSpec(
        grid=spec.grid,
        tasks=window,
        fixed=fixed,
        base_load=base_load,
        forbidden_overlaps=set(spec.forbidden_overlaps),
        blocked_cells=spec.blocked_cells,
        anchor_stride=spec.anchor_stride,
        distance_limit=spec.distance_limit,
        allow_storage_overlap=spec.allow_storage_overlap,
        routing_convenient=spec.routing_convenient,
        parent_pairs=set(spec.parent_pairs),
        discouraged_cells=discouraged,
        health=spec.health,
    )


class BaseMapper:
    """Common interface: :meth:`map_tasks` on a :class:`MappingSpec`.

    ``deadline`` bounds the solve (propagated into solver time limits
    and loop checks); ``ladder`` records any degradation rungs taken.
    Both default to None — unbudgeted, unrecorded — so existing callers
    are unaffected.

    ``journal`` / ``supervisor`` opt the mapper into the crash-safety
    machinery of DESIGN.md §14: a
    :class:`repro.resilience.CheckpointJournal` replays certified
    solutions for byte-identical subproblems (and records new ones),
    a :class:`repro.resilience.WorkerSupervisor` moves exact solves
    into watched subprocesses.  Both default to None — no journal, no
    supervision — and are plain attributes so the synthesizer can wire
    them onto whatever mapper the configuration resolved.
    """

    name = "base"
    journal = None
    supervisor = None

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        raise NotImplementedError


class ILPMapper(BaseMapper):
    """The monolithic ILP of Section 3.2, solved to optimality."""

    name = "ilp"

    def __init__(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        **solver_kwargs,
    ) -> None:
        self.backend = backend
        self.time_limit = time_limit
        self.solver_kwargs = solver_kwargs

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        if self.journal is not None:
            replayed = self.journal.replay(spec)
            if replayed is not None:
                return replayed
        limit = self.time_limit
        if deadline is not None:
            limit = deadline.limit(limit)
        if self.supervisor is not None:
            result = self._map_supervised(spec, limit, deadline, ladder)
        else:
            result = self.solve_built(MappingModelBuilder(spec).build(), limit)
        if self.journal is not None:
            self.journal.record(spec, result)
        return result

    def _map_supervised(
        self,
        spec: MappingSpec,
        limit: Optional[float],
        deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
    ) -> MappingResult:
        """One supervised solve, falling back in-process on exhaustion.

        The worker re-raises deterministic failures (an infeasible
        window raises :class:`SynthesisError` here exactly as the
        inline path would); only lost workers — crash, hang, RSS kill —
        exhaust the supervisor's retries, engage ``worker_serial`` and
        re-run the solve unsupervised.
        """
        payload = (spec, self.backend, limit, self.solver_kwargs)
        try:
            result = self.supervisor.run(
                _solve_spec_job, payload, deadline=deadline, label=self.name
            )
        except WorkerCrashError as crash:
            if ladder is not None:
                ladder.engage(
                    "mapping",
                    DegradationLadder.WORKER_SERIAL,
                    f"supervised solve lost ({crash}); re-solving in-process",
                )
            if TELEMETRY.enabled:
                TELEMETRY.count("supervisor.serial_fallbacks")
            built = MappingModelBuilder(spec).build()
            # The lost attempts, their backoff and the build spent
            # budget: re-take the limit so the serial solve still ends
            # at the deadline.
            if deadline is not None:
                limit = deadline.limit(self.time_limit)
            result = self.solve_built(built, limit)
            result.stats["worker_serial"] = 1.0
            return result
        result.stats["supervised"] = 1.0
        return result

    def solve_built(self, built, limit: Optional[float]) -> MappingResult:
        """Solve an already-built mapping model (no journal, in-process).

        ``built`` is a :class:`~repro.core.mapping_model.BuiltMapping`;
        the anytime race solves its shared model here, with the
        incumbent pool riding in ``solver_kwargs``.
        """
        start = time.monotonic()
        solution = built.model.solve(
            backend=self.backend,
            time_limit=limit,
            **self.solver_kwargs,
        )
        if not solution.status.has_solution:
            raise SynthesisError(
                f"dynamic-device mapping ILP is {solution.status.value} "
                f"({built.model!r})"
            )
        placements = built.extract_placements(solution)
        wall = time.monotonic() - start
        if TELEMETRY.enabled:
            TELEMETRY.count("mapper.ilp_solves")
            TELEMETRY.add_time("mapper.ilp_solve", wall)
        stats: Dict[str, float] = {
            "solve_seconds": wall,
            "solver_nodes": float(solution.nodes_explored),
        }
        for key, value in solution.stats.items():
            stats[f"solver_{key}"] = float(value)
        return MappingResult(
            placements=placements,
            objective=int(round(solution.value(built.w))),
            mapper=self.name,
            used_overlaps=built.extract_overlaps(solution),
            wall_time=wall,
            optimal=solution.status is SolveStatus.OPTIMAL,
            stats=stats,
        )


class WindowedILPMapper(BaseMapper):
    """Rolling-horizon ILP: exact model, committed prefix.

    Tasks sorted by (start, name) are solved ``window_size`` at a time;
    placements of earlier windows enter later windows as fixed devices
    with their accumulated pump load.  On an infeasible window (the
    committed prefix can paint the ILP into a corner) the window falls
    back to the greedy balancer, which ignores no constraint but
    searches placement-by-placement.
    """

    name = "windowed_ilp"

    def __init__(
        self,
        window_size: int = 5,
        backend: str = "scipy",
        time_limit_per_window: Optional[float] = 20.0,
        refine_passes: int = 2,
    ) -> None:
        if window_size < 1:
            raise SynthesisError("window size must be at least 1")
        self.window_size = window_size
        self.backend = backend
        self.time_limit_per_window = time_limit_per_window
        self.refine_passes = refine_passes

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        start_time = time.monotonic()
        stats: Dict[str, float] = {
            "windows_solved": 0,
            "window_seconds": 0.0,
            "greedy_windows": 0,
            "deadline_greedy": 0,
            "refine_probes": 0,
            "refine_accepted": 0,
            "refine_rejected": 0,
            "refine_infeasible": 0,
            "targeted_rounds": 0,
            "targeted_accepted": 0,
        }
        result = self._rolling_and_refine(
            spec, stats, deadline=deadline, ladder=ladder
        )
        result.wall_time = time.monotonic() - start_time
        result.stats.update(stats)
        if TELEMETRY.enabled:
            TELEMETRY.count("mapper.windows", int(stats["windows_solved"]))
            TELEMETRY.count(
                "mapper.greedy_fallbacks", int(stats["greedy_windows"])
            )
            TELEMETRY.count(
                "mapper.refine_accepted", int(stats["refine_accepted"])
            )
            TELEMETRY.count(
                "mapper.refine_rejected", int(stats["refine_rejected"])
            )
            TELEMETRY.count(
                "mapper.targeted_rounds", int(stats["targeted_rounds"])
            )
            TELEMETRY.add_time(
                "mapper.window_solve",
                stats["window_seconds"],
                int(stats["windows_solved"]),
            )
        return result

    def _rolling_and_refine(
        self,
        spec: MappingSpec,
        stats: Dict[str, float],
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
        placements: Dict[str, Placement] = {}
        overlaps: List[Pair] = []
        all_optimal = True

        def merge_overlaps(result: MappingResult) -> None:
            nonlocal overlaps
            overlaps = [
                p
                for p in overlaps
                if p[1] not in result.placements
                and p[0] not in result.placements
            ] + result.used_overlaps

        # Rolling-horizon pass: windows in start order, earlier windows
        # committed as constants.  When the deadline expires mid-roll,
        # the remaining tasks are placed in one greedy sweep — degraded
        # but bounded (ladder rung ``greedy``, scope ``deadline``).
        for lo in range(0, len(ordered), self.window_size):
            if deadline is not None and deadline.expired:
                rest = ordered[lo:]
                stats["deadline_greedy"] = 1
                if ladder is not None:
                    ladder.engage(
                        "mapping",
                        DegradationLadder.GREEDY,
                        f"deadline: {len(rest)} tasks placed greedily "
                        "after budget expiry",
                    )
                result = GreedyMapper().map_tasks(
                    window_subspec(spec, rest, ordered, placements)
                )
                all_optimal = False
                merge_overlaps(result)
                for task in rest:
                    placements[task.name] = result.placements[task.name]
                break
            window = ordered[lo : lo + self.window_size]
            result = self._solve_window(
                spec, window, ordered, placements, stats=stats,
                deadline=deadline, ladder=ladder,
            )
            if result.mapper == GreedyMapper.name or not result.optimal:
                all_optimal = False
            merge_overlaps(result)
            for task in window:
                placements[task.name] = result.placements[task.name]

        # From here on every probe keeps the ledger in sync with
        # ``placements`` — no full load-map rebuilds.
        ledger = LoadLedger.from_placements(spec, ordered, placements)

        def pop_window(window: List[MappingTask]) -> Dict[str, Placement]:
            saved = {}
            for task in window:
                placement = placements.pop(task.name)
                saved[task.name] = placement
                ledger.remove(task, placement)
            return saved

        def restore(saved: Dict[str, Placement], window) -> None:
            placements.update(saved)
            for task in window:
                ledger.add(task, saved[task.name])

        def commit(result: MappingResult, window) -> Dict[str, Placement]:
            new = {t.name: result.placements[t.name] for t in window}
            placements.update(new)
            for task in window:
                ledger.add(task, new[task.name])
            return new

        def roll_back(new, saved, window) -> None:
            for task in window:
                ledger.remove(task, new[task.name])
            restore(saved, window)

        # Refinement: coordinate descent over windows, now with *all*
        # other placements fixed.  Each window re-solve can only keep or
        # lower the maximum load (its previous assignment stays
        # feasible); a window whose re-solve fails keeps its old
        # placement (refinement is opportunistic).  Passes alternate the
        # window offset so wear stacked across an unlucky rolling-pass
        # window boundary is also re-optimized jointly.
        for pass_index in range(self.refine_passes):
            if deadline is not None and deadline.expired:
                break  # refinement is optional polish; the roll stands
            offset = (self.window_size // 2) if pass_index % 2 == 0 else 0
            for window in self._refine_windows(ordered, offset):
                if deadline is not None and deadline.expired:
                    break
                stats["refine_probes"] += 1
                discouraged = ledger.peak_cells()
                previous_peak = ledger.peak()
                saved = pop_window(window)
                saved_overlaps = list(overlaps)
                try:
                    result = self._solve_window(
                        spec, window, ordered, placements,
                        discouraged=discouraged, stats=stats,
                        deadline=deadline, ladder=ladder,
                    )
                except SynthesisError:
                    stats["refine_infeasible"] += 1
                    restore(saved, window)
                    continue
                merge_overlaps(result)
                new = commit(result, window)
                if ledger.peak() > previous_peak:
                    stats["refine_rejected"] += 1
                    roll_back(new, saved, window)  # keep the better one
                    overlaps = saved_overlaps
                else:
                    stats["refine_accepted"] += 1

        # Targeted refinement: repeatedly re-solve the tasks that pump
        # the worst-loaded valve *together*.  Wear stacking is a
        # same-cell phenomenon, so this attacks exactly the group the
        # fixed window partitions may have split.  Progress is measured
        # lexicographically — (max load, number of valves at the max) —
        # so plateau moves that thin out the set of critical valves
        # still count as improvements.
        for _ in range(2 * len(ordered)):
            if deadline is not None and deadline.expired:
                break
            measure = ledger.measure()
            discouraged = ledger.peak_cells()
            worst_cell = min(discouraged, default=None)
            culprits = [
                task
                for task in ordered
                if worst_cell is not None
                and worst_cell in placements[task.name].pump_cells()
            ]
            if len(culprits) < 2:
                break
            stats["targeted_rounds"] += 1
            window = culprits[: self.window_size]
            saved = pop_window(window)
            saved_overlaps = list(overlaps)
            try:
                result = self._solve_window(
                    spec, window, ordered, placements,
                    discouraged=discouraged, stats=stats,
                    deadline=deadline, ladder=ladder,
                )
            except SynthesisError:
                restore(saved, window)
                break
            merge_overlaps(result)
            new = commit(result, window)
            if ledger.measure() >= measure:
                roll_back(new, saved, window)  # no improvement: stop
                overlaps = saved_overlaps
                break
            stats["targeted_accepted"] += 1

        return MappingResult(
            placements=placements,
            objective=ledger.peak(),
            mapper=self.name,
            used_overlaps=sorted(set(overlaps)),
            optimal=all_optimal and len(ordered) <= self.window_size,
        )

    # -- reference implementations ---------------------------------------
    #
    # The naive rebuild-from-scratch helpers below define the semantics
    # the incremental LoadLedger must reproduce; tests and the benchmark
    # suite diff the two.  The refinement loops above no longer call
    # them.

    @staticmethod
    def _cell_loads(
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> Dict[Point, int]:
        load: Dict[Point, int] = dict(spec.base_load)
        for task in ordered:
            placement = placements.get(task.name)
            if placement is None or task.pump_rate == 0:
                continue
            for cell in placement.pump_cells():
                load[cell] = load.get(cell, 0) + task.pump_rate
        return load

    @classmethod
    def _load_measure(
        cls,
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> Tuple[int, int]:
        """(max load, #valves at the max) — lexicographic progress."""
        load = cls._cell_loads(spec, ordered, placements)
        if not load:
            return (0, 0)
        peak = max(load.values())
        return (peak, sum(1 for v in load.values() if v == peak))

    @classmethod
    def _max_load_cells(
        cls,
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> frozenset:
        load = cls._cell_loads(spec, ordered, placements)
        if not load:
            return frozenset()
        peak = max(load.values())
        return frozenset(c for c, v in load.items() if v == peak)

    @staticmethod
    def _tasks_on_worst_valve(
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> List[MappingTask]:
        """Tasks whose pump rings cover the most-loaded valve."""
        load: Dict[Point, int] = dict(spec.base_load)
        for task in ordered:
            for cell in placements[task.name].pump_cells():
                load[cell] = load.get(cell, 0) + task.pump_rate
        if not load:
            return []
        worst_cell = max(sorted(load), key=lambda c: load[c])
        return [
            task
            for task in ordered
            if worst_cell in placements[task.name].pump_cells()
        ]

    def _refine_windows(
        self, ordered: List[MappingTask], offset: int
    ) -> List[List[MappingTask]]:
        """The (disjoint) windows of one refinement pass, in apply order."""
        starts = list(range(offset, len(ordered), self.window_size))
        if offset:
            starts = [0] + starts
        windows: List[List[MappingTask]] = []
        for lo in starts:
            hi = min(lo + self.window_size, len(ordered))
            if lo == 0 and offset:
                hi = offset
            window = ordered[lo:hi]
            if window:
                windows.append(window)
        return windows

    def _ilp(self, limit: Optional[float]) -> ILPMapper:
        """An inner exact mapper carrying this mapper's crash-safety wiring.

        The journal and supervisor ride along so every window solve is
        checkpointed/supervised.
        """
        mapper = ILPMapper(backend=self.backend, time_limit=limit)
        mapper.journal = self.journal
        mapper.supervisor = self.supervisor
        return mapper

    def _solve_window(
        self,
        spec: MappingSpec,
        window: List[MappingTask],
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
        discouraged: frozenset = frozenset(),
        stats: Optional[Dict[str, float]] = None,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        """Solve one window: its exact ILP (time-limited by the deadline),
        else the greedy balancer for this window only (``greedy``, scope
        ``window``), which raises :class:`SynthesisError` when it cannot
        place the window either.  No split is tried (DESIGN.md §9.2).
        """
        window_start = time.perf_counter()
        limit = self.time_limit_per_window
        if deadline is not None:
            limit = deadline.limit(limit)
        window_spec = window_subspec(
            spec, window, ordered, placements, discouraged
        )
        try:
            result = self._ilp(limit).map_tasks(
                window_spec, deadline=deadline, ladder=ladder
            )
        except (SynthesisError, SolverError) as error:
            if ladder is not None:
                ladder.engage(
                    "mapping",
                    DegradationLadder.GREEDY,
                    f"window: greedy fallback for window of {len(window)} "
                    f"after: {error}",
                )
            result = GreedyMapper().map_tasks(window_spec)
        if stats is not None:
            stats["windows_solved"] += 1
            stats["window_seconds"] += time.perf_counter() - window_start
            if result.mapper == GreedyMapper.name:
                stats["greedy_windows"] += 1
        return result

    @staticmethod
    def _total_objective(
        spec: MappingSpec,
        ordered: List[MappingTask],
        placements: Dict[str, Placement],
    ) -> int:
        load: Dict[Point, int] = dict(spec.base_load)
        for task in ordered:
            for cell in placements[task.name].pump_cells():
                load[cell] = load.get(cell, 0) + task.pump_rate
        return max(load.values(), default=0)


class GreedyMapper(BaseMapper):
    """Deterministic greedy balancer.

    Tasks in (start, name) order take the placement minimizing, in
    lexicographic order: the resulting maximum pump load on the ring,
    the total pre-existing load under the ring (prefer fresh valves),
    the permitted storage overlaps, the gap to committed parents, the
    margin contact with concurrent non-parents, then corner
    coordinates and type index (which make every key unique).
    Non-overlap with temporally intersecting committed devices is a
    hard filter; the (parent, child) storage-overlap permission mirrors
    the ILP's c5.  Each task scores all its candidates in one array pass.

    The routing-convenient distance limit is *two-tier*: placements
    within distance ``d`` of every committed parent are strictly
    preferred, but when none exists (greedy commitment of the parents
    can make the limit unsatisfiable, unlike in the joint ILP) the limit
    is dropped for that operation — the Dijkstra router still connects
    the devices, only over a longer path.
    """

    name = "greedy"

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        # The greedy balancer is itself the bottom of the ladder: it
        # never degrades further, and one placement sweep is far below
        # any sane budget, so the deadline is accepted but not polled.
        start_time = time.monotonic()
        ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
        grid = spec.grid
        d = spec.resolved_distance_limit()
        # Committed devices in commitment order, one column each of
        # left, right, bottom, top, start, end.
        names = list(spec.fixed)
        box = np.zeros((6, len(names) + len(ordered)), dtype=np.int64)
        for j, device in enumerate(spec.fixed.values()):
            r = device.rect
            box[:, j] = (r.left, r.right, r.bottom, r.top, device.start, device.end)
        load = np.zeros(grid.width * grid.height, dtype=np.int64)
        for cell, value in spec.base_load.items():
            if grid.in_bounds(cell):
                load[cell.x * grid.height + cell.y] = value
        placements: Dict[str, Placement] = {}
        overlaps: List[Pair] = []
        candidates_scanned = 0

        for task in ordered:
            cand = spec._candidates(task)
            candidates_scanned += len(cand.placements)
            left, right = cand.left[:, None], cand.right[:, None]
            bottom, top = cand.bottom[:, None], cand.top[:, None]
            n = len(names)
            live = np.flatnonzero(
                (task.start < box[5, :n]) & (box[4, :n] < task.end)
            )
            L, R, B, T = box[:4, live]
            hit = (right > L) & (left < R) & (top > B) & (bottom < T)
            pairs = [spec.storage_pair(task.name, names[j]) for j in live]
            allowed = np.array([
                p is not None and spec.allow_storage_overlap
                and p not in spec.forbidden_overlaps for p in pairs
            ], dtype=bool)
            feasible = ~(hit & ~allowed).any(axis=1)
            # Margin contact: flush placements against unrelated
            # concurrent devices build walls that can cut routing off.
            foreign = np.array(
                [names[j] not in task.mix_parents for j in live], dtype=bool
            )
            dx = np.minimum(right + 1, R) - np.maximum(left - 1, L)
            dy = np.minimum(top + 1, T) - np.maximum(bottom - 1, B)
            contact = (foreign * np.maximum(dx, 0) * np.maximum(dy, 0)).sum(1)
            # Committed parents: the distance tier and the boundary gap.
            near = feasible.copy()
            gap = np.zeros(len(cand.placements), dtype=np.int64)
            for parent in task.mix_parents:
                if parent not in names:
                    continue
                pl, pr, pb, pt = box[:4, names.index(parent)]
                if d is not None:
                    near &= (
                        (cand.right > pl - d) & (cand.left < pr + d)
                        & (cand.top > pb - d) & (cand.bottom < pt + d)
                    )
                gap += np.maximum.reduce([
                    pl - cand.right, cand.left - pr, pb - cand.top,
                    cand.bottom - pt, np.zeros_like(gap),
                ])
            ring, heads = load[cand.ring], cand.ring_ptr[:-1]
            pool = np.flatnonzero(near)
            if not pool.size:
                pool = np.flatnonzero(feasible)
            if not pool.size:
                raise SynthesisError(
                    f"greedy mapper found no feasible placement for "
                    f"{task.name} on the {grid.width}x{grid.height} grid"
                )
            # np.lexsort sorts by its last key first: peak, reuse,
            # permitted overlaps, parent gap, contact, x, y, type.
            keys = (
                cand.type_index, cand.bottom, cand.left, contact, gap,
                (hit & allowed).sum(axis=1),
                np.add.reduceat(ring, heads),
                np.maximum.reduceat(ring, heads),
            )
            best = pool[np.lexsort([key[pool] for key in keys])[0]]
            chosen = placements[task.name] = cand.placements[best]
            overlaps += [pairs[k] for k in np.flatnonzero(hit[best] & allowed)]
            r = chosen.rect
            box[:, n] = (r.left, r.right, r.bottom, r.top, task.start, task.end)
            names.append(task.name)
            ring_cells = cand.ring[cand.ring_ptr[best]:cand.ring_ptr[best + 1]]
            np.add.at(load, ring_cells, task.pump_rate)

        wall = time.monotonic() - start_time
        if TELEMETRY.enabled:
            TELEMETRY.count("mapper.greedy_solves")
            TELEMETRY.count("mapper.greedy_candidates", candidates_scanned)
            TELEMETRY.add_time("mapper.greedy_solve", wall)
        return MappingResult(
            placements=placements,
            # Off-grid base loads never change; on-grid ones only grow.
            objective=max([int(load.max()), *spec.base_load.values()]),
            mapper=self.name,
            used_overlaps=overlaps,
            wall_time=wall,
            optimal=False,
            stats={"candidates_scanned": float(candidates_scanned)},
        )
