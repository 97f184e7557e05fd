"""The anytime mapper tier: a heuristic lane racing the exact ILP.

DESIGN.md §13.  Under a finite time budget the synthesizer no longer
bets the whole mapping stage on the ILP finishing in time.  Up to
``ilp_task_limit`` tasks it runs two lanes against the same deadline:

* the **heuristic lane** (this thread): the greedy balancer produces a
  feasible mapping in milliseconds, then
  :class:`~repro.core.lns.LargeNeighborhoodSearch` keeps improving it
  round by round;
* the **exact lane** (a non-daemon worker thread on a private
  :class:`~repro.resilience.DegradationLadder`): the monolithic branch
  & bound on the very same
  :class:`~repro.core.mapping_model.BuiltMapping` (a supervised
  :class:`ILPMapper` solve in crash-safe mode).

In the in-process race the lanes meet at an
:class:`~repro.ilp.incumbent.IncumbentPool`.  Every heuristic incumbent
is *completed* into a full variable assignment
(:func:`~repro.core.mapping_model.complete_solution`), replay-checked
against the model, **certified** by
:func:`repro.certify.certify_assignment`, and only then offered to the
pool — the branch & bound adopts it as an upper bound (pruning, and
stopping instantly when the offer matches the proven root bound), never
trusting it blindly.

Beyond ``ilp_task_limit`` there is no race: the packer and LNS run in
this thread, and the rolling-horizon :class:`WindowedILPMapper` runs
after them only with no deadline or no packer start (under a deadline
its HiGHS windows never answered in time).

Either scope ends as soon as its answer is proven: no mapping's peak is
below :meth:`MappingSpec.peak_floor` (the largest pump rate or base
load, or the mean valve load rounded up to the rate lattice), so an
incumbent at the floor is optimal — a certified offer in the race, an
LNS ledger peak in the windowed scope.  A packer answer at the floor
starts no exact lane; an LNS answer at the floor stops LNS and closes
the pool, and the exact lane returns at its next poll.

Otherwise the best objective is adopted; ties go to the exact answer,
which also carries an optimality status.  A heuristic win engages the
``anytime_heuristic`` resilience rung: the answer is feasible with a
known objective, just not proven optimal.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.architecture.device import Placement
from repro.errors import ReproError, SynthesisError
from repro.ilp.incumbent import IncumbentPool
from repro.obs import TELEMETRY
from repro.resilience import Deadline, DegradationLadder
from repro.core.lns import LargeNeighborhoodSearch
from repro.core.mapping_model import (
    MappingModelBuilder,
    MappingSpec,
    Pair,
    complete_solution,
)
from repro.core.mappers import (
    BaseMapper,
    GreedyMapper,
    ILPMapper,
    MappingResult,
    WindowedILPMapper,
)
from repro.core.tasks import MappingTask

#: LNS round cap when no deadline bounds the race (the exact lane then
#: runs to optimality anyway).
_UNBOUNDED_LNS_ROUNDS = 64

#: Consecutive non-improving LNS rounds before the heuristic lane
#: stops.  Without it the lane spins against the exact thread for the
#: GIL; stalling out hands the exact lane the whole interpreter.
_LNS_STALL_LIMIT = 400


def _used_overlaps(
    spec: MappingSpec,
    ordered: List[MappingTask],
    placements: Dict[str, Placement],
) -> List[Pair]:
    """The (parent, child) storage overlaps a placement map uses."""
    overlaps = set()
    for i, a in enumerate(ordered):
        pa = placements.get(a.name)
        if pa is None:
            continue
        for b in ordered[i + 1:]:
            pb = placements.get(b.name)
            if pb is None:
                continue
            if not (a.start < b.end and b.start < a.end):
                continue
            if not pa.rect.overlaps(pb.rect):
                continue
            pair = spec.storage_pair(a.name, b.name)
            if pair is not None:
                overlaps.add(pair)
    return sorted(overlaps)


class AnytimeMapper(BaseMapper):
    """Race a heuristic improvement loop against the exact ILP.

    ``ilp_task_limit``/``window_size`` are the same
    monolithic-vs-windowed switch :class:`SynthesisConfig` uses, and
    ``seed`` drives the LNS destroy sets.  The race's exact lane is the
    pure-python branch & bound on the monolithic model (the HiGHS
    wrapper exposes no incumbent callback).  Beyond ``ilp_task_limit``
    a budgeted mapping is the packer plus LNS alone; the windowed
    mapper's HiGHS default answers only without a deadline or without
    a packer start.
    """

    name = "anytime"

    def __init__(
        self,
        *,
        seed: int = 0,
        ilp_task_limit: int = 8,
        window_size: int = 5,
    ) -> None:
        self.seed = seed
        self.ilp_task_limit = ilp_task_limit
        self.window_size = window_size

    def map_tasks(
        self,
        spec: MappingSpec,
        *,
        deadline: Optional[Deadline] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> MappingResult:
        if len(spec.tasks) <= self.ilp_task_limit:
            return self._race_monolithic(spec, deadline, ladder)
        return self._map_windowed(spec, deadline, ladder)

    def _crash_safe(self, mapper: BaseMapper) -> BaseMapper:
        """Wire this mapper's journal and supervisor into an exact lane."""
        mapper.journal = self.journal
        mapper.supervisor = self.supervisor
        return mapper

    # -- the two scopes --------------------------------------------------

    def _race_monolithic(
        self,
        spec: MappingSpec,
        deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
    ) -> MappingResult:
        start = time.monotonic()
        # 1. First feasible mapping before anything else — the packer
        #    answers in milliseconds; even the model build is slower.
        try:
            greedy = GreedyMapper().map_tasks(spec, deadline=deadline)
        except SynthesisError:
            greedy = None  # no heuristic start: the exact lane decides
        first_feasible = time.monotonic() - start

        built = MappingModelBuilder(spec).build()
        model = built.model
        pool = IncumbentPool()
        floor = spec.peak_floor()
        # Incumbent injection needs an in-process branch & bound; a
        # supervised exact lane solves in a subprocess, so the pool
        # degrades to a scoreboard (offers are noted, not injected).
        injectable = self.supervisor is None
        stats: Dict[str, float] = {
            "offers_made": 0.0,
            "offers_incomplete": 0.0,
            "offers_invalid": 0.0,
            "offers_uncertified": 0.0,
            "offers_certified": 0.0,
            "injectable": float(injectable),
        }
        best: Dict[str, object] = {}

        # Deferred import: repro.certify pulls in the audit machinery,
        # which imports repro.core back.
        from repro.certify import certify_assignment

        def offer(placements: Dict[str, Placement], source: str) -> None:
            """Complete → check → certify → inject one incumbent; one at
            the floor closes the pool, which ends the race."""
            stats["offers_made"] += 1
            values = complete_solution(built, placements)
            if values is None:
                stats["offers_incomplete"] += 1
                return
            if model.check_solution(values):
                stats["offers_invalid"] += 1
                return
            cert = certify_assignment(model, values)
            if cert.status != "certified":
                stats["offers_uncertified"] += 1
                return
            stats["offers_certified"] += 1
            objective = model.objective.evaluate(values)
            if injectable:
                x = np.zeros(model.num_vars)
                for var, value in values.items():
                    x[var.index] = value
                pool.offer(x, objective, source=source)
            else:
                pool.note("offer", source, objective)
            peak = int(round(values[built.w]))
            _keep_best(best, placements, peak, start)
            if peak <= floor:
                pool.close()

        # 2. The packer's incumbent goes in before the exact lane even
        #    starts: the branch & bound sees it at the root.  At the
        #    floor it is optimal, and the lane never starts.
        if greedy is not None:
            stats["first_feasible_seconds"] = first_feasible
            placements = dict(greedy.placements)
            offer(placements, "packer")

        def solve_exact(lane_ladder: DegradationLadder) -> MappingResult:
            if not injectable:
                # The watched-subprocess path (DESIGN.md §14): the lane
                # only dispatches and waits; kills/retries happen in
                # the supervisor.
                return self._crash_safe(
                    ILPMapper(backend="branch_bound")
                ).map_tasks(spec, deadline=deadline, ladder=lane_ladder)
            # The limit is taken *now*: the packer, the model build and
            # the first certificate already spent part of the budget.
            limit = deadline.limit() if deadline is not None else None
            return ILPMapper(
                backend="branch_bound", incumbent=pool
            ).solve_built(built, limit)

        def heuristic(lane_done: Callable[[], bool]) -> None:
            # 3. LNS rounds until the budget runs out, an offer meets
            #    the floor, or the exact lane is done (its answer
            #    dominates every further round).
            if greedy is not None:
                stats.update(self._improve(
                    spec, placements, deadline,
                    lambda snapshot, peak: offer(snapshot, "lns"),
                    lambda: pool.closed or lane_done(),
                ))

        exact: Optional[MappingResult] = None
        error: Optional[Exception] = None
        if not pool.closed:
            exact, error = _run_lanes(solve_exact, heuristic, deadline, ladder)
        stats["race_timeline"] = pool.timeline_snapshot()
        return self._adopt(
            spec, stats, best, exact, error, ladder, start, pool.closed
        )

    def _map_windowed(
        self,
        spec: MappingSpec,
        deadline: Optional[Deadline],
        ladder: Optional[DegradationLadder],
    ) -> MappingResult:
        """Beyond ``ilp_task_limit``: packer, then LNS, in this thread.

        No completion/injection here: LNS tracks its incumbents by
        ledger peak and stops at the floor.  The rolling-horizon mapper
        runs only where it can still answer and is still needed — with
        no deadline, or with no packer start, and no answer at the
        floor.
        """
        start = time.monotonic()
        floor = spec.peak_floor()
        stats: Dict[str, float] = {"injectable": 0.0}
        best: Dict[str, object] = {}
        exact: Optional[MappingResult] = None
        error: Optional[Exception] = None
        try:
            greedy = GreedyMapper().map_tasks(spec, deadline=deadline)
        except SynthesisError:
            greedy = None  # no heuristic start: the exact mapper decides
        if greedy is not None:
            stats["first_feasible_seconds"] = time.monotonic() - start
            placements = dict(greedy.placements)
            _keep_best(best, placements, greedy.objective, start)
            stats.update(self._improve(
                spec, placements, deadline,
                lambda snap, peak: _keep_best(best, snap, peak, start),
                lambda: best["peak"] <= floor,
            ))
        proven = bool(best) and best["peak"] <= floor
        if not proven and (greedy is None or deadline is None):
            try:
                exact = self._crash_safe(
                    WindowedILPMapper(window_size=self.window_size)
                ).map_tasks(spec, deadline=deadline, ladder=ladder)
            except ReproError as exc:
                error = exc
        return self._adopt(
            spec, stats, best, exact, error, ladder, start, proven
        )

    # -- shared by both scopes -------------------------------------------

    def _improve(
        self,
        spec: MappingSpec,
        placements: Dict[str, Placement],
        deadline: Optional[Deadline],
        on_improve: Callable[[Dict[str, Placement], int], None],
        should_stop: Callable[[], bool],
    ) -> Dict[str, float]:
        """The LNS rounds of the heuristic lane; ``placements`` in place."""
        return LargeNeighborhoodSearch(spec, seed=self.seed).run(
            placements,
            deadline=deadline,
            max_rounds=_UNBOUNDED_LNS_ROUNDS if deadline is None else None,
            stall_limit=_LNS_STALL_LIMIT,
            should_stop=should_stop,
            on_improve=on_improve,
        )

    def _adopt(
        self,
        spec: MappingSpec,
        stats: Dict[str, float],
        best: Dict[str, object],
        exact: Optional[MappingResult],
        error: Optional[Exception],
        ladder: Optional[DegradationLadder],
        start: float,
        proven: bool,
    ) -> MappingResult:
        """Adopt the best objective; ties go to the exact lane.

        ``proven`` means an incumbent met the floor and ended the race:
        the adopted answer is optimal, the winner is the bound, and no
        rung engages.  The exact lane's ``solver_*`` stats are kept
        whichever lane wins.  With no answer from either lane the exact
        lane's own error is re-raised, or a :class:`SynthesisError` when
        it had none.
        """
        if exact is not None:
            stats["exact_objective"] = float(exact.objective)
            for key, value in exact.stats.items():
                if key.startswith("solver_"):
                    stats[key] = value
        if best:
            stats["heuristic_objective"] = float(best["peak"])
            stats["seconds_to_best_certified"] = float(best["seconds"])
        heuristic_wins = bool(best) and (
            exact is None or best["peak"] < exact.objective
        )
        if exact is None and not heuristic_wins:
            if error is not None:
                raise error
            raise SynthesisError(
                "anytime race produced no solution: the exact lane "
                "returned nothing inside the budget and no heuristic "
                "incumbent was found"
            )
        stats["bound_stop"] = float(proven)
        stats["race_winner_heuristic"] = float(heuristic_wins and not proven)
        if TELEMETRY.enabled:
            TELEMETRY.count("anytime.races")
            TELEMETRY.count(
                "anytime.lns_rounds", int(stats.get("lns_rounds", 0))
            )
            TELEMETRY.count(f"anytime.race_winner_{race_winner(stats)}")
        wall = time.monotonic() - start
        if not heuristic_wins:
            merged = dict(exact.stats)
            merged.update(stats)
            return MappingResult(
                placements=exact.placements,
                objective=exact.objective,
                mapper=self.name,
                used_overlaps=exact.used_overlaps,
                wall_time=wall,
                optimal=exact.optimal or proven,
                stats=merged,
            )
        if ladder is not None and not proven:
            ladder.engage(
                "mapping",
                DegradationLadder.ANYTIME_HEURISTIC,
                f"heuristic peak {best['peak']}"
                + (
                    f" beat exact {exact.objective}"
                    if exact is not None
                    else " with no exact answer in budget"
                ),
            )
        ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
        placements = dict(best["placements"])
        return MappingResult(
            placements=placements,
            objective=int(best["peak"]),
            mapper=self.name,
            used_overlaps=_used_overlaps(spec, ordered, placements),
            wall_time=wall,
            optimal=proven,
            stats=stats,
        )


def race_winner(stats: Dict[str, float]) -> str:
    """What decided a race, from its result's stats: ``bound`` (an
    incumbent met the peak floor), ``heuristic`` or ``exact``."""
    if stats.get("bound_stop"):
        return "bound"
    return "heuristic" if stats.get("race_winner_heuristic") else "exact"


def _keep_best(
    best: Dict[str, object],
    placements: Dict[str, Placement],
    peak: int,
    start: float,
) -> None:
    """Record ``placements`` in ``best`` when its peak is strictly lower."""
    if not best or peak < best["peak"]:
        best.update(
            placements=dict(placements),
            peak=peak,
            seconds=time.monotonic() - start,
        )


def _run_lanes(
    solve_exact: Callable[[DegradationLadder], MappingResult],
    heuristic: Callable[[Callable[[], bool]], None],
    deadline: Optional[Deadline],
    ladder: Optional[DegradationLadder],
) -> Tuple[Optional[MappingResult], Optional[Exception]]:
    """Run the exact lane in its thread while ``heuristic`` runs here.

    ``heuristic`` gets a predicate that turns true once the exact lane
    is done.  The lane always stops on its own — at its time limit, or
    when the race closes its incumbent pool (a supervised lane at its
    watchdog) — so it is joined without a timeout, and the rungs it
    engaged on its private ladder then merge into ``ladder``.  Returns
    the lane's result and error.
    """
    slot: Dict[str, object] = {}
    done = threading.Event()
    lane_ladder = DegradationLadder()

    def exact_lane() -> None:
        try:
            slot["result"] = solve_exact(lane_ladder)
        except Exception as exc:  # noqa: BLE001 - reported via slot
            slot["error"] = exc
        finally:
            done.set()

    # Non-daemon on purpose: a daemon thread still inside a solver at
    # interpreter shutdown can abort the whole process.
    thread = threading.Thread(target=exact_lane, name="anytime-exact")
    thread.start()
    heuristic(done.is_set)
    thread.join()
    if ladder is not None:
        # Telemetry already counted when the lane engaged its rungs.
        ladder.report.events.extend(lane_ladder.report.events)
    return slot.get("result"), slot.get("error")
