"""Differential check: the array packer against the per-candidate loop.

:class:`repro.core.mappers.GreedyMapper` scores every candidate
placement of a task in one numpy pass.  This file keeps the loop it
replaced -- one Python pass per candidate over every committed device,
with the parent-distance tier, the parent gap and the foreign contact
computed rectangle by rectangle -- and only here.  On the Table 1 specs,
every LNS repair sub-spec of the budgeted Table 1 rows and of five
serve-grid assays, and under every spec switch (forbidden overlaps, no
storage overlap, no distance limit, a health mask, blocked cells), the
two must choose identical placements in identical order, report the
same ``used_overlaps`` order, objective and ``candidates_scanned``, and
fail with the same :class:`SynthesisError` text.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import pytest

from repro.architecture.device import DynamicDevice, Placement
from repro.architecture.health import ChipHealth
from repro.assay.scheduler import ListScheduler
from repro.assays import get_case, schedule_for
from repro.assays.fuzzer import fuzz_graph
from repro.core.mappers import GreedyMapper
from repro.core.mapping_model import MappingSpec, Pair
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.core.tasks import MappingTask
from repro.errors import SynthesisError
from repro.geometry import GridSpec, Point

# ---------------------------------------------------------------------------
# The per-candidate reference packer
# ---------------------------------------------------------------------------


def _near_parents(task, rect, committed, d: int) -> bool:
    for parent in task.mix_parents:
        device = committed.get(parent)
        if device is not None and not rect.within_distance(device.rect, d):
            return False
    return True


def _parent_gap(task, rect, committed) -> int:
    return sum(
        rect.gap_distance(committed[parent].rect)
        for parent in task.mix_parents
        if parent in committed
    )


def _foreign_contact(task, rect, committed) -> int:
    margin = rect.expanded(1)
    contact = 0
    for name, device in committed.items():
        if name in task.mix_parents:
            continue
        if task.start < device.end and device.start < task.end:
            contact += margin.overlap_area(device.rect)
    return contact


def reference_pack(
    spec: MappingSpec,
) -> Tuple[Dict[str, Placement], List[Pair], int, int]:
    """``(placements, used_overlaps, objective, candidates_scanned)``."""
    ordered = sorted(spec.tasks, key=lambda t: (t.start, t.name))
    committed: Dict[str, DynamicDevice] = dict(spec.fixed)
    base_load: Dict[Point, int] = dict(spec.base_load)
    placements: Dict[str, Placement] = {}
    overlaps: List[Pair] = []
    d = spec.resolved_distance_limit()
    candidates_scanned = 0

    for task in ordered:
        best_key: Dict[bool, Optional[tuple]] = {True: None, False: None}
        best: Dict[bool, Optional[Placement]] = {True: None, False: None}
        best_overlaps: Dict[bool, List[Pair]] = {True: [], False: []}
        for placement in spec.candidate_placements(task):
            candidates_scanned += 1
            rect = placement.rect
            pair_overlaps: List[Pair] = []
            feasible = True
            for other_name, device in committed.items():
                if not (task.start < device.end and device.start < task.end):
                    continue
                if not rect.overlaps(device.rect):
                    continue
                pair = spec.storage_pair(task.name, other_name)
                if (
                    pair is not None
                    and spec.allow_storage_overlap
                    and pair not in spec.forbidden_overlaps
                ):
                    pair_overlaps.append(pair)
                    continue
                feasible = False
                break
            if not feasible:
                continue
            near = d is None or _near_parents(task, rect, committed, d)
            ring = placement.pump_cells()
            key = (
                max(base_load.get(c, 0) + task.pump_rate for c in ring),
                sum(base_load.get(c, 0) for c in ring),
                len(pair_overlaps),
                _parent_gap(task, rect, committed),
                _foreign_contact(task, rect, committed),
                rect.x,
                rect.y,
                placement.device_type.index,
            )
            if best_key[near] is None or key < best_key[near]:
                best_key[near] = key
                best[near] = placement
                best_overlaps[near] = pair_overlaps
        tier = best[True] is not None
        if best[tier] is None:
            raise SynthesisError(
                f"greedy mapper found no feasible placement for "
                f"{task.name} on the {spec.grid.width}x"
                f"{spec.grid.height} grid"
            )
        chosen = best[tier]
        placements[task.name] = chosen
        overlaps.extend(best_overlaps[tier])
        committed[task.name] = task.device(chosen)
        for cell in chosen.pump_cells():
            base_load[cell] = base_load.get(cell, 0) + task.pump_rate

    objective = max(base_load.values(), default=0)
    return placements, overlaps, objective, candidates_scanned


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


def assert_same_packing(spec: MappingSpec, label: str) -> bool:
    """True when both packers placed every task, False when both
    raised the same error."""
    try:
        want = reference_pack(spec)
    except SynthesisError as error:
        with pytest.raises(SynthesisError) as raised:
            GreedyMapper().map_tasks(spec)
        assert str(raised.value) == str(error), label
        return False
    got = GreedyMapper().map_tasks(spec)
    placements, overlaps, objective, scanned = want
    assert list(got.placements.items()) == list(placements.items()), label
    assert got.used_overlaps == overlaps, label
    assert got.objective == objective and type(got.objective) is int, label
    assert got.stats["candidates_scanned"] == scanned, label
    return True


def _record_packer_specs(monkeypatch) -> List[MappingSpec]:
    """Copies of the distinct specs ``GreedyMapper.map_tasks`` gets, in
    call order.  A stalled LNS draws the same destroy set from the same
    incumbent many times over; a repeat adds nothing to the check."""
    specs: List[MappingSpec] = []
    seen = set()
    original = GreedyMapper.map_tasks

    def recording(self, spec, **kwargs):
        key = repr(spec)
        if key not in seen:
            seen.add(key)
            specs.append(copy.deepcopy(spec))
        return original(self, spec, **kwargs)

    monkeypatch.setattr(GreedyMapper, "map_tasks", recording)
    return specs


TABLE1 = ("pcr", "mixing_tree", "interpolating_dilution", "exponential_dilution")
#: The ``table1_budget`` rows of the end-to-end benchmark.
BUDGET_ROWS = (("pcr", 1, 2.0), ("mixing_tree", 1, 2.0),
               ("exponential_dilution", 3, 4.0))
#: Five of the ``serve_distinct`` requests: ``fuzz_graph(seed, ops)``.
SERVE_ASSAYS = ((1000, 10), (1001, 16), (1005, 12), (1008, 16), (1012, 13))
SERVE_GRID = GridSpec(10, 10)


def _synthesize_case(name: str, policy: int, **config) -> None:
    case = get_case(name)
    schedule = schedule_for(case, case.policies(policy)[policy - 1])
    ReliabilitySynthesizer(
        SynthesisConfig(grid=case.grid, **config)
    ).synthesize(case.graph(), schedule)


@pytest.fixture(scope="module")
def table1_specs() -> List[Tuple[str, MappingSpec]]:
    """The specs the greedy path packs for all 12 Table 1 rows (every
    storage-repair iteration)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        specs = _record_packer_specs(monkeypatch)
        labels = []
        for name in TABLE1:
            for policy in (1, 2, 3):
                before = len(specs)
                _synthesize_case(name, policy, mapper=GreedyMapper())
                labels += [f"{name}/p{policy}"] * (len(specs) - before)
    assert len(specs) >= 12
    return list(zip(labels, specs))


def test_table1_specs_pack_identically(table1_specs):
    for label, spec in table1_specs:
        assert assert_same_packing(spec, label)


def test_budgeted_table1_repairs_pack_identically(monkeypatch):
    """The race's first offer and every LNS repair sub-spec (fixed
    devices, base load, discouraged cells) of the budgeted rows."""
    specs = _record_packer_specs(monkeypatch)
    for name, policy, budget in BUDGET_ROWS:
        _synthesize_case(name, policy, time_budget=budget)
    monkeypatch.undo()
    repairs = [spec for spec in specs if spec.fixed]
    assert repairs and all(spec.base_load for spec in repairs)
    for i, spec in enumerate(specs):
        assert_same_packing(spec, f"budget#{i}")


@pytest.mark.filterwarnings("ignore::repro.errors.DegradedResultWarning")
def test_serve_assay_repairs_pack_identically(monkeypatch):
    specs = _record_packer_specs(monkeypatch)
    for seed, ops in SERVE_ASSAYS:
        graph = fuzz_graph(seed, ops)
        ReliabilitySynthesizer(
            SynthesisConfig(grid=SERVE_GRID, time_budget=2.0)
        ).synthesize(graph, ListScheduler().schedule(graph))
    monkeypatch.undo()
    assert sum(1 for spec in specs if spec.fixed) > len(SERVE_ASSAYS)
    for i, spec in enumerate(specs):
        assert_same_packing(spec, f"serve#{i}")


def _variants(spec: MappingSpec):
    """``(label, spec)`` under every switch the packer reads."""
    used = GreedyMapper().map_tasks(spec).used_overlaps
    pairs = sorted(spec.parent_pairs)
    yield "forbidden-used", replace(spec, forbidden_overlaps=set(used))
    yield "forbidden-half", replace(spec, forbidden_overlaps=set(pairs[::2]))
    yield "no-storage-overlap", replace(spec, allow_storage_overlap=False)
    yield "not-routing-convenient", replace(spec, routing_convenient=False)
    yield "distance-1", replace(spec, distance_limit=1)
    grid = spec.grid
    cells = [Point(x, y) for x in range(grid.width) for y in range(grid.height)]
    yield "health", replace(
        spec, health=ChipHealth().kill_cells(cells[7::23])
    )
    yield "blocked", replace(
        spec, blocked_cells=frozenset(spec.blocked_cells | set(cells[3::17]))
    )
    yield "stride-2", replace(spec, anchor_stride=2)


def test_spec_switches_pack_identically(table1_specs):
    picked = {}
    for label, spec in table1_specs:
        picked.setdefault(label, spec)  # each row's first storage pass
    for row in ("pcr/p1", "mixing_tree/p3", "interpolating_dilution/p2"):
        for label, spec in _variants(picked[row]):
            assert_same_packing(spec, f"{row}:{label}")


def _task(name, start, end, parents=(), volume=10) -> MappingTask:
    return MappingTask(name, volume, 40, start, start, end, tuple(parents))


def test_infeasible_specs_raise_the_same_error():
    grid = GridSpec(4, 4)
    # Two concurrent unrelated mixers on a grid with room for one.
    crowded = MappingSpec(
        grid=grid, tasks=[_task("a", 0, 10), _task("b", 0, 10)]
    )
    assert not assert_same_packing(crowded, "crowded")
    # Every cell blocked: no candidate at all.
    walled = MappingSpec(
        grid=grid, tasks=[_task("a", 0, 10)],
        blocked_cells=frozenset(Point(x, y) for x in range(4) for y in range(4)),
    )
    assert not assert_same_packing(walled, "walled")
    # A storage pair whose overlap is forbidden, on a grid with room
    # for one device: only the c5 permission made it feasible.
    pair = MappingSpec(
        grid=grid, tasks=[_task("p", 0, 10), _task("c", 2, 12, ("p",))]
    )
    assert assert_same_packing(pair, "pair")
    assert GreedyMapper().map_tasks(pair).used_overlaps == [("p", "c")]
    pair.forbidden_overlaps = {("p", "c")}
    assert not assert_same_packing(pair, "pair-forbidden")


def test_off_grid_base_load_counts_in_the_objective():
    spec = MappingSpec(
        grid=GridSpec(6, 6), tasks=[_task("a", 0, 10)],
        base_load={Point(9, 9): 999, Point(0, 0): 5},
    )
    assert assert_same_packing(spec, "off-grid")
    assert GreedyMapper().map_tasks(spec).objective == 999
