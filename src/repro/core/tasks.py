"""Mapping tasks: one per mixing operation.

A task bundles what the mapping model needs to know about an operation:
its volume class (which device types may realize it), its **device
interval** — from in-situ storage formation until operation end, the
lifetime during which its region occupies chip area (Section 3.3) — and
its mix parents (for storage-overlap permissions and the
routing-convenient constraints of Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import SynthesisError
from repro.architecture.device import DynamicDevice, Placement
from repro.assay.schedule import Schedule
from repro.assay.sequencing_graph import SequencingGraph
from repro.core.rates import pump_rate_setting1


@dataclass(frozen=True)
class MappingTask:
    """One mixing operation, ready for dynamic-device mapping."""

    name: str
    volume: int
    pump_rate: int  # p_i of eq. (2), setting-1 value during synthesis
    start: int  # device-interval start (storage formation)
    mix_start: int  # operation start (STORAGE becomes MIXER here)
    end: int  # operation end (device dissolves)
    mix_parents: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.start <= self.mix_start < self.end:
            raise SynthesisError(
                f"{self.name}: inconsistent interval "
                f"({self.start}, {self.mix_start}, {self.end})"
            )

    @property
    def interval(self) -> Tuple[int, int]:
        """Half-open device lifetime ``[start, end)``."""
        return (self.start, self.end)

    @property
    def has_storage_phase(self) -> bool:
        return self.start < self.mix_start

    def overlaps_in_time(self, other: "MappingTask") -> bool:
        """Whether the two device lifetimes intersect (eq. 3 applies)."""
        return self.start < other.end and other.start < self.end

    def device(self, placement: Placement) -> DynamicDevice:
        """The dynamic device realizing this task at ``placement``."""
        return DynamicDevice(
            operation=self.name,
            placement=placement,
            start=self.start,
            end=self.end,
            mix_start=self.mix_start,
        )


def build_tasks(graph: SequencingGraph, schedule: Schedule) -> List[MappingTask]:
    """Create mapping tasks for every mixing operation, by start time.

    The device interval is taken from
    :meth:`repro.assay.schedule.Schedule.device_interval`; the pump rate
    is the setting-1 value (the paper synthesizes under setting 1 and
    re-evaluates the same result under setting 2).
    """
    schedule.validate()
    tasks: List[MappingTask] = []
    for so in schedule.scheduled_mixes():
        op = so.operation
        begin, end = schedule.device_interval(op.name)
        parents = tuple(p.name for p in graph.mix_parents(op.name))
        tasks.append(
            MappingTask(
                name=op.name,
                volume=op.volume,
                pump_rate=pump_rate_setting1(op.volume),
                start=begin,
                mix_start=so.start,
                end=end,
                mix_parents=parents,
            )
        )
    return tasks
