"""The dynamic-device mapping ILP (Sections 3.2–3.4).

Transcription of the paper's model:

* binary selection variables ``s[x,y,k,i]`` — operation *i* mapped to
  device type *k* at corner ``(x,y)`` (one placement variable per
  candidate, eq. 1 forces exactly one per operation);
* per-valve pump load ``v[x,y] = sum p_i * s[..]`` over placements whose
  circulation ring covers the valve (eq. 2), bounded by the objective
  variable ``w`` (eqs. 9–10);
* big-M non-overlap disjunctions (eqs. 3–8) between operations whose
  device lifetimes intersect, with the auxiliary ``c5`` relaxation
  (eq. 12) for in-situ-storage / parent-device pairs;
* routing-convenient distance constraints (eqs. 13–16) between parent
  and child devices.

The boundary coordinates ``b_le/b_ri/b_up/b_do`` are not extra integer
variables: with the one-hot selection row they are exact linear
expressions of the selection variables, which keeps the model smaller
than the paper's literal formulation without changing its feasible set.

Each constraint family is emitted as one block of CSR rows
(:meth:`repro.ilp.model.Model.add_rows`) by numpy index arithmetic over
the candidate columns; the per-candidate boundary and pump-ring arrays
are memoized with the candidate set.  No expression objects are built.

The builder also supports **committed placements** (constants) and a
**base load** per valve, which is how the rolling-horizon windowed
mapper re-uses the same model for large cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.errors import SynthesisError
from repro.geometry import GridSpec, Point
from repro.architecture.device import DynamicDevice, Placement
from repro.architecture.device_types import min_device_dimension, types_for_volume
from repro.architecture.health import ChipHealth
from repro.ilp import Model, Var
from repro.ilp.model import EQ, GE, LE
from repro.core.tasks import MappingTask

Pair = Tuple[str, str]


@dataclass(frozen=True)
class _Candidates:
    """One candidate set plus the read-only per-candidate arrays the
    builder and the greedy packer index into: rectangle boundaries,
    device type indices, and the pump ring of candidate ``j`` as cell
    keys ``ring[ring_ptr[j]:ring_ptr[j + 1]]``.  A cell key is
    ``x * grid.height + y``, which sorts like :class:`Point`."""

    placements: Tuple[Placement, ...]
    #: ``s[x,y,k,`` prefixes of the selection-variable names.
    prefixes: Tuple[str, ...]
    left: np.ndarray
    right: np.ndarray
    bottom: np.ndarray
    top: np.ndarray
    type_index: np.ndarray
    ring_ptr: np.ndarray
    ring: np.ndarray


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


#: Memoized candidate enumerations.  A placement candidate set depends
#: only on (grid, anchor stride, blocked cells, volume class) — not on
#: the task identity — and the windowed mapper rebuilds a fresh
#: ``MappingSpec`` for every window/refinement probe, so a module-level
#: cache turns the repeated grid sweeps into one enumeration per shape.
_CANDIDATE_CACHE: Dict[Tuple, _Candidates] = {}


def _enumerate_candidates(
    grid: GridSpec,
    anchor_stride: int,
    blocked_cells: FrozenSet[Point],
    volume: int,
    health: Optional[ChipHealth] = None,
) -> _Candidates:
    if health is not None and health.is_healthy:
        health = None  # one cache entry for every fully-healthy mask
    key = (grid, anchor_stride, blocked_cells, volume, health)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is None:
        candidates: List[Placement] = []
        for dtype in types_for_volume(volume):
            for rect in grid.placements(dtype.width, dtype.height):
                if rect.x % anchor_stride or rect.y % anchor_stride:
                    continue
                if blocked_cells and any(
                    rect.contains(c) for c in blocked_cells
                ):
                    continue
                if health is not None and health.blocks_rect(rect):
                    continue
                candidates.append(Placement(dtype, rect.corner))
        rects = [p.rect for p in candidates]
        rings = [
            [c.x * grid.height + c.y for c in p.pump_cells()] for p in candidates
        ]
        cached = _CANDIDATE_CACHE[key] = _Candidates(
            tuple(candidates),
            tuple(
                f"s[{p.corner.x},{p.corner.y},{p.device_type.index},"
                for p in candidates
            ),
            _frozen([r.left for r in rects]),
            _frozen([r.right for r in rects]),
            _frozen([r.bottom for r in rects]),
            _frozen([r.top for r in rects]),
            _frozen([p.device_type.index for p in candidates]),
            _frozen(np.cumsum([0] + [len(ring) for ring in rings])),
            _frozen([k for ring in rings for k in ring]),
        )
    return cached


@dataclass
class MappingSpec:
    """One dynamic-device mapping problem instance."""

    grid: GridSpec
    tasks: List[MappingTask]
    #: devices already committed (rolling-horizon mode); their rectangles
    #: are constants for this solve.
    fixed: Dict[str, DynamicDevice] = field(default_factory=dict)
    #: pump load already accumulated on each valve by committed devices.
    base_load: Dict[Point, int] = field(default_factory=dict)
    #: (parent, child) pairs whose storage/parent overlap Algorithm 1 has
    #: forbidden (c5 pinned to 0).
    forbidden_overlaps: Set[Pair] = field(default_factory=set)
    #: cells no device may cover (chip ports must stay reachable).
    blocked_cells: FrozenSet[Point] = frozenset()
    #: cells the objective softly avoids pumping on (refinement uses the
    #: currently worst-loaded valves here to escape plateaus where many
    #: valves tie at the maximum).
    discouraged_cells: FrozenSet[Point] = frozenset()
    #: candidate anchors every ``anchor_stride`` cells (1 = every valve).
    anchor_stride: int = 1
    #: the constant d of Section 3.4; None means "use the default"
    #: (the minimum device dimension).
    distance_limit: Optional[int] = None
    #: global switch for the c5 relaxation (eq. 12).
    allow_storage_overlap: bool = True
    #: global switch for the routing-convenient constraints (13)-(16).
    routing_convenient: bool = True
    #: every (parent, child) mix-operation pair of the whole assay; kept
    #: explicitly so parent/child relations survive when one side is a
    #: committed device.  Derived from the tasks when left empty.
    parent_pairs: Set[Pair] = field(default_factory=set)
    #: hardware health mask: candidates touching a dead valve cell or a
    #: dead channel edge are excluded outright (fault-adaptive remapping,
    #: DESIGN.md §12).  None means fully healthy.
    health: Optional[ChipHealth] = None

    def __post_init__(self) -> None:
        if not self.parent_pairs:
            self.parent_pairs = {
                (parent, task.name)
                for task in self.tasks
                for parent in task.mix_parents
            }

    def storage_pair(self, a: str, b: str) -> Optional[Pair]:
        """Orient (parent, child) when one is the other's mix parent."""
        if (a, b) in self.parent_pairs:
            return (a, b)
        if (b, a) in self.parent_pairs:
            return (b, a)
        return None

    def peak_floor(self) -> int:
        """A lower bound on the peak pump load of every mapping.

        Each task's pump ring is non-empty, so some valve's eq. (2) load
        row carries the task's whole pump rate, and every committed base
        load stays on its valve (its load row or ``load[committed]``).

        Summing the load rows over the valves ``V`` that any candidate
        ring or base load covers gives at least ``S`` = the pump rates
        times each task's smallest candidate ring, plus the base loads,
        so the peak is at least the mean ``S / |V|`` (the value of a
        dual-feasible point of the LP relaxation).  Every load is a sum
        of rates and base loads, so the peak is a multiple of their gcd
        ``g``, and the mean rounds up to one.  The anytime race stops at
        an incumbent that meets this floor.
        """
        rates = [task.pump_rate for task in self.tasks]
        loads = list(self.base_load.values())
        floor = max(rates + loads + [0])
        step = math.gcd(*rates, *loads)
        sets = [
            _enumerate_candidates(
                self.grid, self.anchor_stride, self.blocked_cells,
                task.volume, self.health,
            )
            for task in self.tasks
        ]
        if not step or not all(c.placements for c in sets):
            return floor
        total = sum(loads) + sum(
            rate * int(np.diff(c.ring_ptr).min())
            for rate, c in zip(rates, sets)
        )
        height = self.grid.height
        valves = np.unique(np.concatenate(
            [c.ring for c in {id(c): c for c in sets}.values()]
            + [np.array([p.x * height + p.y for p in self.base_load],
                        dtype=np.int64)]
        ))
        return max(floor, step * -(-total // (step * len(valves))))

    def resolved_distance_limit(self) -> Optional[int]:
        if not self.routing_convenient:
            return None
        if self.distance_limit is None:
            return min_device_dimension()
        return self.distance_limit

    def candidate_placements(self, task: MappingTask) -> Tuple[Placement, ...]:
        """All legal placements of one task on the grid (memoized)."""
        return self._candidates(task).placements

    def _candidates(self, task: MappingTask) -> _Candidates:
        candidates = _enumerate_candidates(
            self.grid, self.anchor_stride, self.blocked_cells, task.volume,
            self.health,
        )
        if not candidates.placements:
            dead = (
                f" with {self.health.dead_count} dead resources"
                if self.health is not None and not self.health.is_healthy
                else ""
            )
            raise SynthesisError(
                f"{task.name}: no feasible placement on the "
                f"{self.grid.width}x{self.grid.height} grid{dead}"
            )
        return candidates


@dataclass
class _Disjunction:
    """One big-M non-overlap disjunction between devices ``a`` and ``b``,
    kept for solution completion.  ``aux`` are the ``c1..c4`` binaries
    of the sides a-left-of-b, b-left-of-a, a-below-b and b-below-a;
    ``relax`` is the optional ``c5`` overlap permission."""

    a: str
    b: str
    aux: List[Var]
    relax: Optional[Var]


@dataclass
class BuiltMapping:
    """The ILP plus the metadata needed to read a solution back."""

    model: Model
    spec: MappingSpec
    w: Var
    selections: Dict[str, List[Tuple[Placement, Var]]]
    c5_vars: Dict[Pair, Var]
    #: recorded big-M disjunctions, the store's row range of the eq. (2)
    #: load rows and the committed-load residual: everything
    #: :func:`complete_solution` needs to lift a geometric placement
    #: assignment to a full variable-value vector.
    disjunctions: List[_Disjunction] = field(default_factory=list)
    load_rows: Tuple[int, int] = (0, 0)
    load_residual: int = 0

    def extract_placements(self, solution) -> Dict[str, Placement]:
        """Chosen placement per task from a solved model."""
        placements: Dict[str, Placement] = {}
        for name, options in self.selections.items():
            chosen = [p for p, var in options if solution.value(var) > 0.5]
            if len(chosen) != 1:  # pragma: no cover - eq.1 guarantees this
                raise SynthesisError(
                    f"{name}: expected exactly one selected placement, got "
                    f"{len(chosen)}"
                )
            placements[name] = chosen[0]
        return placements

    def extract_overlaps(self, solution) -> List[Pair]:
        """(parent, child) pairs that used the c5 overlap permission."""
        return [
            pair
            for pair, var in sorted(self.c5_vars.items())
            if solution.value(var) > 0.5
        ]


class _Bound(NamedTuple):
    """One boundary coordinate as ``sum(coefs * x[cols]) + const``."""

    cols: np.ndarray
    coefs: np.ndarray
    const: int


_NO_COLS = np.zeros(0, dtype=np.int64)


class _RowBuffer(list):
    """Rows ``(cols, coefs, sense, rhs, name)`` collected one at a time,
    appended to the model as one block."""

    def difference(
        self, x: _Bound, y: _Bound, sense: int, bound: int, name: str,
        extra: Tuple[np.ndarray, np.ndarray] = (_NO_COLS, _NO_COLS),
    ) -> None:
        """The row ``x - y + extra sense bound``."""
        self.append((
            np.concatenate([x.cols, y.cols, extra[0]]),
            np.concatenate([x.coefs, -y.coefs, extra[1]]),
            sense, bound - x.const + y.const, name,
        ))

    def flush(self, model: Model) -> None:
        if self:
            cols, coefs, sense, rhs, names = zip(*self)
            model.add_rows(
                np.repeat(np.arange(len(self)), [len(c) for c in cols]),
                np.concatenate(cols), np.concatenate(coefs), sense, rhs, names,
            )


class MappingModelBuilder:
    """Builds the ILP of Section 3.2 for a :class:`MappingSpec`."""

    def __init__(self, spec: MappingSpec) -> None:
        self.spec = spec

    # -- model construction ------------------------------------------------

    def build(self) -> BuiltMapping:
        spec = self.spec
        model = Model("dynamic-device-mapping")
        w = model.add_integer("w", lb=0)

        # Selection columns: one contiguous block per task, in task order,
        # right after w (column 0).
        candidates = [spec._candidates(task) for task in spec.tasks]
        starts: Dict[str, int] = {}
        selections: Dict[str, List[Tuple[Placement, Var]]] = {}
        for task, cand in zip(spec.tasks, candidates):
            starts[task.name] = model.num_vars
            selections[task.name] = [
                (placement, model.add_binary(prefix + task.name + "]"))
                for placement, prefix in zip(cand.placements, cand.prefixes)
            ]
        counts = np.array([len(c.placements) for c in candidates], dtype=np.int64)

        # eq. (1): every operation mapped to exactly one device.
        model.add_rows(
            np.repeat(np.arange(len(counts)), counts),
            np.arange(1, 1 + counts.sum()),
            np.ones(counts.sum()),
            EQ, np.ones(len(counts)),
            [f"one_device[{task.name}]" for task in spec.tasks],
        )
        load_rows, load_residual = self._add_load_constraints(
            model, candidates, starts
        )
        bounds = self._boundaries(candidates, starts)
        c5_vars, disjunctions = self._add_non_overlap(model, bounds)
        self._add_routing_convenient(model, bounds)

        # Primary objective: the largest pump load (eq. 10).  When
        # refinement supplies discouraged cells, a tiny secondary term
        # steers ties away from re-loading them; the weight keeps the
        # total strictly below 1, so the integral primary objective is
        # never traded off.
        cols, coefs = [0], [1.0]
        if spec.discouraged_cells:
            height = spec.grid.height
            discouraged = [c.x * height + c.y for c in spec.discouraged_cells]
            covered = np.concatenate([
                np.add.reduceat(
                    np.isin(c.ring, discouraged).astype(np.int64),
                    c.ring_ptr[:-1],
                )
                for c in candidates
            ] + [_NO_COLS])
            hit = np.flatnonzero(covered)
            if hit.size:
                weight = 0.9 / int(covered.sum())
                cols += (hit + 1).tolist()
                coefs += (weight * covered[hit]).tolist()
        model.set_cost(cols, coefs)
        return BuiltMapping(
            model, spec, w, selections, c5_vars,
            disjunctions=disjunctions,
            load_rows=load_rows,
            load_residual=load_residual,
        )

    # -- eq. (2) + (9): pump loads ------------------------------------------

    def _add_load_constraints(
        self,
        model: Model,
        candidates: List[_Candidates],
        starts: Dict[str, int],
    ) -> Tuple[Tuple[int, int], int]:
        """One row ``sum(p_i * s) - w <= -base_load`` per valve some
        candidate pumps on, in valve order; returns their row range and
        the committed-only residual bound on ``w``."""
        spec = self.spec
        height = spec.grid.height
        keys = np.concatenate([c.ring for c in candidates] + [_NO_COLS])
        cols = np.concatenate([
            starts[task.name]
            + np.repeat(np.arange(len(c.placements)), np.diff(c.ring_ptr))
            for task, c in zip(spec.tasks, candidates)
        ] + [_NO_COLS])
        rates = np.concatenate([
            np.full(len(c.ring), task.pump_rate)
            for task, c in zip(spec.tasks, candidates)
        ] + [_NO_COLS])
        cells, row = np.unique(keys, return_inverse=True)
        base = {p.x * height + p.y: load for p, load in spec.base_load.items()}
        first = model.num_constrs
        model.add_rows(
            np.concatenate([row, np.arange(len(cells))]),
            np.concatenate([cols, np.zeros(len(cells), dtype=np.int64)]),
            np.concatenate([rates, np.full(len(cells), -1)]).astype(float),
            LE,
            [-base.get(k, 0) for k in cells.tolist()],
            [f"load[{k // height},{k % height}]" for k in cells.tolist()],
        )
        # Valves loaded only by committed devices still bound w.
        pumped = set(cells.tolist())
        residual = max(
            (load for k, load in base.items() if k not in pumped), default=0
        )
        if residual:
            model.add_rows([0], [0], [1.0], GE, [residual], ["load[committed]"])
        return (first, first + len(cells)), residual

    # -- eqs. (3)-(8) + (12): non-overlap -------------------------------------

    def _boundaries(
        self, candidates: List[_Candidates], starts: Dict[str, int]
    ) -> Dict[str, Tuple[_Bound, _Bound, _Bound, _Bound]]:
        """(b_le, b_ri, b_do, b_up) of every task and committed device."""
        bounds = {}
        for name, device in self.spec.fixed.items():
            r = device.rect
            bounds[name] = tuple(
                _Bound(_NO_COLS, _NO_COLS, v)
                for v in (r.left, r.right, r.bottom, r.top)
            )
        for task, c in zip(self.spec.tasks, candidates):
            cols = starts[task.name] + np.arange(len(c.placements))
            bounds[task.name] = tuple(
                _Bound(cols, v, 0) for v in (c.left, c.right, c.bottom, c.top)
            )
        return bounds

    def _add_non_overlap(
        self,
        model: Model,
        bounds: Dict[str, Tuple[_Bound, _Bound, _Bound, _Bound]],
    ) -> Tuple[Dict[Pair, Var], List[_Disjunction]]:
        spec = self.spec
        big_m = spec.grid.width + spec.grid.height
        c5_vars: Dict[Pair, Var] = {}
        disjunctions: List[_Disjunction] = []
        intervals = {name: (d.start, d.end) for name, d in spec.fixed.items()}
        intervals.update((t.name, t.interval) for t in spec.tasks)

        names = [t.name for t in spec.tasks]
        task_pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        mixed_pairs = [(f, t) for f in sorted(spec.fixed) for t in names]

        rows = _RowBuffer()
        for a, b in task_pairs + mixed_pairs:
            sa, ea = intervals[a]
            sb, eb = intervals[b]
            if not (sa < eb and sb < ea):
                continue  # lifetimes disjoint: may share area freely
            relax: Optional[Var] = None
            pair = spec.storage_pair(a, b)
            if (
                pair is not None
                and spec.allow_storage_overlap
                and pair not in spec.forbidden_overlaps
            ):
                relax = model.add_binary(f"c5[{pair[0]},{pair[1]}]")
                c5_vars[pair] = relax
            name = f"no_overlap[{a},{b}]"
            aux = [model.add_binary(f"{name}.c{k}") for k in range(1, 5)]
            a_le, a_ri, a_do, a_up = bounds[a]
            b_le, b_ri, b_do, b_up = bounds[b]
            # eqs. (4)-(7), each relaxed by big M when its c_k is 1.
            for k, (x, y) in enumerate(
                ((a_ri, b_le), (b_ri, a_le), (a_up, b_do), (b_up, a_do))
            ):
                rows.difference(
                    x, y, LE, 0, f"{name}.term{k + 1}",
                    extra=(np.array([aux[k].index]), np.array([-big_m])),
                )
            # eq. (8), with the c5 permission of eq. (12).
            card, ones = [var.index for var in aux], [1.0] * 4
            if relax is not None:
                card, ones = card + [relax.index], ones + [-1.0]
            rows.append((np.array(card), np.array(ones), EQ, 3, f"{name}.card"))
            disjunctions.append(_Disjunction(a, b, aux, relax))
        rows.flush(model)
        return c5_vars, disjunctions

    # -- eqs. (13)-(16): routing-convenient mapping -----------------------------

    def _add_routing_convenient(
        self,
        model: Model,
        bounds: Dict[str, Tuple[_Bound, _Bound, _Bound, _Bound]],
    ) -> None:
        spec = self.spec
        d = spec.resolved_distance_limit()
        if d is None:
            return
        tasks = {t.name for t in spec.tasks}
        rows = _RowBuffer()
        for parent, child in sorted(spec.parent_pairs):
            if parent not in bounds or child not in bounds:
                continue
            if parent not in tasks and child not in tasks:
                continue  # both committed: nothing left to constrain
            c_le, c_ri, c_do, c_up = bounds[child]
            p_le, p_ri, p_do, p_up = bounds[parent]
            # Strict inequalities over integers: "> x - d" == ">= x-d+1".
            name = f"near[{parent},{child}]"
            rows.difference(c_ri, p_le, GE, 1 - d, f"{name}.ri")
            rows.difference(c_le, p_ri, LE, d - 1, f"{name}.le")
            rows.difference(c_up, p_do, GE, 1 - d, f"{name}.up")
            rows.difference(c_do, p_up, LE, d - 1, f"{name}.do")
        rows.flush(model)


def complete_solution(
    built: BuiltMapping, placements: Dict[str, Placement]
) -> Optional[Dict[Var, float]]:
    """Lift a geometric placement assignment to full model values.

    The heuristic lanes of the anytime mapper (DESIGN.md §13) produce
    placements, not variable vectors; the B&B incumbent injection and
    the MILP replay certificate both need every model variable valued.
    This derives them mechanically: selections become the one-hot
    indicators, each non-overlap disjunction activates its first side
    the two rectangles satisfy (falling back to the ``c5`` overlap
    permission when no side separates the pair), and ``w`` is the
    largest load the eq. (2) rows read at the placements.

    Returns None when the placements cannot satisfy the model — a task
    placed outside its candidate set (e.g. the greedy fallback tier
    dropped the anchor stride or the distance limit) or an overlap with
    no ``c5`` permission.  A non-None result is *mechanically* complete
    but deliberately not trusted: callers re-validate with
    :meth:`Model.check_solution` (the near rows, for one, are not
    examined here) and certify by exact MILP replay before the vector
    reaches a solver.
    """
    model = built.model
    x = np.zeros(model.num_vars)
    rects = {name: device.rect for name, device in built.spec.fixed.items()}
    for name, options in built.selections.items():
        chosen = placements.get(name)
        col = next((var.index for p, var in options if p == chosen), None)
        if col is None:
            return None
        x[col] = 1.0
        rects[name] = chosen.rect
    for disjunction in built.disjunctions:
        a, b = rects[disjunction.a], rects[disjunction.b]
        sides = (
            a.right <= b.left, b.right <= a.left,
            a.top <= b.bottom, b.top <= a.bottom,
        )
        if any(sides):
            x[[aux.index for aux in disjunction.aux]] = 1.0
            x[disjunction.aux[sides.index(True)].index] = 0.0
        elif disjunction.relax is None:
            return None  # true overlap with no storage permission
        else:
            x[[aux.index for aux in disjunction.aux]] = 1.0  # eq. 8, c5 = 1
            x[disjunction.relax.index] = 1.0
    # A load row reads sum(p_i * s) - w <= -base: at w = 0 its activity
    # minus its right-hand side is the valve's load.
    rows = model.rows()
    lo, hi = built.load_rows
    loads = (rows.activity(x) - rows.rhs)[lo:hi]
    x[built.w.index] = max(
        [built.load_residual] + np.rint(loads).astype(int).tolist()
    )
    return dict(zip(model.variables, x.tolist()))
