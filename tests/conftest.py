"""Shared fixtures: assays, schedules and (cached) synthesis results."""

from __future__ import annotations

import pytest

from repro.assay.schedule import Schedule
from repro.assay.scheduler import ListScheduler, SchedulerConfig
from repro.assay.sequencing_graph import SequencingGraph
from repro.assays.pcr import pcr_fig9_schedule, pcr_graph
from repro.core.anytime import AnytimeMapper
from repro.core.mapping_model import MappingModelBuilder, MappingSpec
from repro.core.tasks import build_tasks
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.geometry import GridSpec


@pytest.fixture
def pcr():
    """The PCR sequencing graph."""
    return pcr_graph()


@pytest.fixture
def fig9_schedule(pcr):
    """The PCR Figure-9 schedule bound to the ``pcr`` fixture's graph."""
    return pcr_fig9_schedule(pcr)


@pytest.fixture(scope="session")
def pcr_result():
    """A full PCR synthesis (ILP mapper), shared across the session.

    Deterministic: the same placements every run, so downstream
    assertions on devices/routes are stable.
    """
    graph = pcr_graph()
    schedule = pcr_fig9_schedule(graph)
    synthesizer = ReliabilitySynthesizer(SynthesisConfig(grid=GridSpec(9, 9)))
    return synthesizer.synthesize(graph, schedule)


def build_tiny_assay() -> tuple[SequencingGraph, Schedule]:
    """Two mixes feeding a third — the smallest assay with a storage."""
    graph = SequencingGraph("tiny")
    for i in range(4):
        graph.add_input(f"in{i}", volume=4)
    graph.add_mix("a", ("in0", "in1"), duration=4, volume=8)
    graph.add_mix("b", ("in2", "in3"), duration=8, volume=8)
    graph.add_mix("c", ("a", "b"), duration=4, volume=8)
    schedule = ListScheduler(SchedulerConfig()).schedule(graph)
    return graph, schedule


def record_race_specs(monkeypatch) -> list:
    """The specs every ``AnytimeMapper.map_tasks`` call receives, in
    call order (a spy; the race itself runs unchanged)."""
    specs = []
    original = AnytimeMapper.map_tasks

    def recording_map(self, spec, **kwargs):
        specs.append(spec)
        return original(self, spec, **kwargs)

    monkeypatch.setattr(AnytimeMapper, "map_tasks", recording_map)
    return specs


def case_model(case_name: str, stride: int, lo: int = 0, hi=None):
    """The mapping model of tasks ``[lo:hi]`` of a registry case (its
    first policy's schedule) on an ``anchor_stride=stride`` grid."""
    from repro.assays import get_case, schedule_for

    case = get_case(case_name)
    tasks = build_tasks(case.graph(), schedule_for(case, case.policies(1)[0]))
    spec = MappingSpec(grid=case.grid, tasks=tasks[lo:hi], anchor_stride=stride)
    return MappingModelBuilder(spec).build().model


def highs_peak(spec) -> int:
    """The peak pump load of ``spec``'s HiGHS MILP optimum."""
    built = MappingModelBuilder(spec).build()
    solution = built.model.solve(backend="scipy")
    assert solution.status.value == "optimal"
    return int(round(solution.value(built.w)))


@pytest.fixture
def tiny_assay():
    return build_tiny_assay()


@pytest.fixture(scope="session")
def tiny_result():
    graph, schedule = build_tiny_assay()
    synthesizer = ReliabilitySynthesizer(SynthesisConfig(grid=GridSpec(8, 8)))
    return synthesizer.synthesize(graph, schedule)
