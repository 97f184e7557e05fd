"""Resource-constrained list scheduler for bioassays.

The paper consumes scheduling results produced for a *traditional*
design: a bank of dedicated mixers (one per size class, growing with
the policy index) plus detectors.  This scheduler reproduces that
input: critical-path list scheduling over the mixer bank with a fixed
inter-device transport delay (3 tu in the paper's PCR example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.assay.operation import Operation, OperationKind
from repro.assay.schedule import Schedule
from repro.assay.sequencing_graph import SequencingGraph


@dataclass
class SchedulerConfig:
    """Resources and timing for the list scheduler.

    ``mixers`` maps a size class to the number of dedicated mixers of
    that size (a *policy* in the paper's experiments); ``detectors`` is
    the number of detection sites.  ``None`` counts mean "unlimited"
    (useful for architecture-independent reference schedules).
    """

    mixers: Optional[Dict[int, int]] = None
    detectors: Optional[int] = None
    transport_delay: int = 3

    def mixer_count(self, size: int) -> Optional[int]:
        if self.mixers is None:
            return None
        return self.mixers.get(size, 0)


@dataclass
class _Resource:
    """One dedicated device instance with its busy intervals."""

    name: str
    busy: List[Tuple[int, int]] = field(default_factory=list)
    load: int = 0  # number of operations bound so far

    def free_at(self, start: int, end: int) -> bool:
        return all(e <= start or b >= end for b, e in self.busy)

    def reserve(self, start: int, end: int) -> None:
        self.busy.append((start, end))
        self.load += 1


class ListScheduler:
    """Critical-path list scheduling with greedy resource binding.

    Deterministic: ties are broken by critical-path length (descending),
    then graph insertion order.  Binding prefers the least-loaded free
    device, which approximates the "optimal binding" (even distribution)
    the baseline uses for wear accounting.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()

    def schedule(self, graph: SequencingGraph) -> Schedule:
        graph.validate()
        cfg = self.config
        schedule = Schedule(graph, transport_delay=cfg.transport_delay)

        mixers: Dict[int, List[_Resource]] = {}
        if cfg.mixers is not None:
            for size, count in sorted(cfg.mixers.items()):
                mixers[size] = [
                    _Resource(f"mixer{size}.{i}") for i in range(count)
                ]
        detectors: Optional[List[_Resource]] = None
        if cfg.detectors is not None:
            detectors = [_Resource(f"detector.{i}") for i in range(cfg.detectors)]

        priorities = graph.critical_path_lengths()
        order = {op.name: i for i, op in enumerate(graph.operations())}

        pending = graph.topological_order()
        done: Dict[str, int] = {}  # name -> end time

        # Inputs are available immediately and consume no device.
        for op in list(pending):
            if op.kind is OperationKind.INPUT:
                schedule.add(op.name, 0)
                done[op.name] = 0
                pending.remove(op)

        def ready_time(op: Operation) -> Optional[int]:
            t = 0
            for parent in graph.parents(op.name):
                if parent.name not in done:
                    return None
                if parent.is_input:
                    continue
                t = max(t, done[parent.name] + cfg.transport_delay)
            return t

        while pending:
            candidates = []
            for op in pending:
                t = ready_time(op)
                if t is not None:
                    candidates.append((t, -priorities[op.name], order[op.name], op))
            if not candidates:
                raise SchedulingError(
                    "no schedulable operation left; the graph validation "
                    "should have caught this"
                )
            candidates.sort(key=lambda item: item[:3])
            scheduled_any = False
            for earliest, _, _, op in candidates:
                pool = self._pool_for(op, mixers, detectors)
                if pool is None:  # unlimited resources
                    schedule.add(op.name, earliest)
                    done[op.name] = earliest + op.duration
                    pending.remove(op)
                    scheduled_any = True
                    break
                start, resource = self._first_fit(pool, earliest, op.duration)
                schedule.add(op.name, start, device=resource.name)
                resource.reserve(start, start + op.duration)
                done[op.name] = start + op.duration
                pending.remove(op)
                scheduled_any = True
                break
            if not scheduled_any:  # pragma: no cover - defensive
                raise SchedulingError("scheduler made no progress")

        schedule.validate()
        return schedule

    def _pool_for(
        self,
        op: Operation,
        mixers: Dict[int, List[_Resource]],
        detectors: Optional[List[_Resource]],
    ) -> Optional[List[_Resource]]:
        """The device pool an operation competes for (None = unlimited)."""
        if op.kind is OperationKind.MIX:
            if self.config.mixers is None:
                return None
            pool = mixers.get(op.volume, [])
            if not pool:
                raise SchedulingError(
                    f"{op.name}: no mixer of size {op.volume} in the bank "
                    f"{sorted(mixers)}"
                )
            return pool
        if op.kind is OperationKind.DETECT and detectors is not None:
            if not detectors:
                raise SchedulingError(f"{op.name}: no detector available")
            return detectors
        return None

    @staticmethod
    def _first_fit(
        pool: List[_Resource], earliest: int, duration: int
    ) -> Tuple[int, _Resource]:
        """Earliest feasible (start, device), preferring low load.

        Scans start times from ``earliest`` upward; at each time the
        least-loaded free device wins, keeping the binding balanced.
        """
        t = earliest
        while True:
            free = [r for r in pool if r.free_at(t, t + duration)]
            if free:
                free.sort(key=lambda r: (r.load, r.name))
                return t, free[0]
            # Jump to the next time any busy interval ends.
            ends = [
                e
                for r in pool
                for _, e in r.busy
                if e > t
            ]
            if not ends:  # pragma: no cover - defensive
                raise SchedulingError("no device ever frees up")
            t = min(ends)
