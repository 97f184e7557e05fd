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

The builder also supports **committed placements** (constants) and a
**base load** per valve, which is how the rolling-horizon windowed
mapper re-uses the same model for large cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SynthesisError
from repro.geometry import GridSpec, Point
from repro.architecture.device import DynamicDevice, Placement
from repro.architecture.device_types import min_device_dimension, types_for_volume
from repro.architecture.health import ChipHealth
from repro.ilp import Constraint, LinExpr, Model, Var, quicksum
from repro.core.tasks import MappingTask

Pair = Tuple[str, str]

#: Memoized candidate enumerations.  A placement candidate set depends
#: only on (grid, anchor stride, blocked cells, volume class) — not on
#: the task identity — and the windowed mapper rebuilds a fresh
#: ``MappingSpec`` for every window/refinement probe, so a module-level
#: cache turns the repeated grid sweeps into one enumeration per shape.
_CANDIDATE_CACHE: Dict[Tuple, Tuple[Placement, ...]] = {}


def _enumerate_candidates(
    grid: GridSpec,
    anchor_stride: int,
    blocked_cells: FrozenSet[Point],
    volume: int,
    health: Optional[ChipHealth] = None,
) -> Tuple[Placement, ...]:
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
        cached = _CANDIDATE_CACHE[key] = tuple(candidates)
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
        The anytime race stops at an incumbent that meets this floor.
        """
        return max(
            max((task.pump_rate for task in self.tasks), default=0),
            max(self.base_load.values(), default=0),
            0,
        )

    def resolved_distance_limit(self) -> Optional[int]:
        if not self.routing_convenient:
            return None
        if self.distance_limit is None:
            return min_device_dimension()
        return self.distance_limit

    def candidate_placements(self, task: MappingTask) -> Tuple[Placement, ...]:
        """All legal placements of one task on the grid (memoized)."""
        candidates = _enumerate_candidates(
            self.grid, self.anchor_stride, self.blocked_cells, task.volume,
            self.health,
        )
        if not candidates:
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
    """One big-M non-overlap disjunction, kept for solution completion.

    ``terms`` are the original (un-relaxed) boundary comparisons — they
    are *not* model rows; :meth:`Model.add_big_m_disjunction` only adds
    their relaxed twins.  ``aux`` are the ``c1..c4`` binaries in term
    order, ``relax`` the optional ``c5`` overlap permission.
    """

    terms: List[Constraint]
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
    #: recorded big-M disjunctions, per-cell load expressions (selection
    #: terms plus the cell's base-load constant) and the committed-load
    #: residual: everything :func:`complete_solution` needs to lift a
    #: geometric placement assignment to a full variable-value vector.
    disjunctions: List[_Disjunction] = field(default_factory=list)
    load_exprs: List[LinExpr] = field(default_factory=list)
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


class MappingModelBuilder:
    """Builds the ILP of Section 3.2 for a :class:`MappingSpec`."""

    def __init__(self, spec: MappingSpec) -> None:
        self.spec = spec

    # -- model construction ------------------------------------------------

    def build(self) -> BuiltMapping:
        spec = self.spec
        model = Model("dynamic-device-mapping")
        w = model.add_integer("w", lb=0)

        selections: Dict[str, List[Tuple[Placement, Var]]] = {}
        for task in spec.tasks:
            options: List[Tuple[Placement, Var]] = []
            for placement in spec.candidate_placements(task):
                var = model.add_binary(
                    f"s[{placement.corner.x},{placement.corner.y},"
                    f"{placement.device_type.index},{task.name}]"
                )
                options.append((placement, var))
            selections[task.name] = options
            # eq. (1): every operation mapped to exactly one device.
            model.add_constr(
                quicksum(var for _, var in options) == 1,
                name=f"one_device[{task.name}]",
            )

        load_exprs, load_residual = self._add_load_constraints(
            model, w, selections
        )
        c5_vars, disjunctions = self._add_non_overlap(model, selections)
        self._add_routing_convenient(model, selections)

        # Primary objective: the largest pump load (eq. 10).  When
        # refinement supplies discouraged cells, a tiny secondary term
        # steers ties away from re-loading them; the weight keeps the
        # total strictly below 1, so the integral primary objective is
        # never traded off.
        objective = w.to_expr()
        penalty_terms = []
        if spec.discouraged_cells:
            for options in selections.values():
                for placement, var in options:
                    covered = sum(
                        1
                        for cell in placement.pump_cells()
                        if cell in spec.discouraged_cells
                    )
                    if covered:
                        penalty_terms.append((covered, var))
        if penalty_terms:
            weight = 0.9 / sum(c for c, _ in penalty_terms)
            objective = objective + quicksum(
                weight * c * var for c, var in penalty_terms
            )
        model.minimize(objective)
        return BuiltMapping(
            model, spec, w, selections, c5_vars,
            disjunctions=disjunctions,
            load_exprs=load_exprs,
            load_residual=load_residual,
        )

    # -- eq. (2) + (9): pump loads ------------------------------------------

    def _add_load_constraints(
        self,
        model: Model,
        w: Var,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> Tuple[List[LinExpr], int]:
        spec = self.spec
        rate = {task.name: task.pump_rate for task in spec.tasks}
        cell_terms: Dict[Point, List[Tuple[int, Var]]] = {}
        for name, options in selections.items():
            for placement, var in options:
                for cell in placement.pump_cells():
                    cell_terms.setdefault(cell, []).append((rate[name], var))
        load_exprs: List[LinExpr] = []
        for cell, terms in sorted(cell_terms.items()):
            load = quicksum(r * var for r, var in terms) + spec.base_load.get(
                cell, 0
            )
            load_exprs.append(load)
            model.add_constr(
                load <= w, name=f"load[{cell.x},{cell.y}]"
            )
        # Valves loaded only by committed devices still bound w.
        residual = max(
            (
                load
                for cell, load in spec.base_load.items()
                if cell not in cell_terms
            ),
            default=0,
        )
        if residual:
            model.add_constr(w >= residual, name="load[committed]")
        return load_exprs, residual

    # -- eqs. (3)-(8) + (12): non-overlap -------------------------------------

    def _boundaries(
        self,
        name: str,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> Tuple[LinExpr, LinExpr, LinExpr, LinExpr]:
        """(b_le, b_ri, b_do, b_up) as linear expressions or constants."""
        if name in selections:
            options = selections[name]
            b_le = quicksum(p.rect.left * v for p, v in options)
            b_ri = quicksum(p.rect.right * v for p, v in options)
            b_do = quicksum(p.rect.bottom * v for p, v in options)
            b_up = quicksum(p.rect.top * v for p, v in options)
            return b_le, b_ri, b_do, b_up
        rect = self.spec.fixed[name].rect
        return (
            LinExpr({}, rect.left),
            LinExpr({}, rect.right),
            LinExpr({}, rect.bottom),
            LinExpr({}, rect.top),
        )

    def _interval(self, name: str) -> Tuple[int, int]:
        for task in self.spec.tasks:
            if task.name == name:
                return task.interval
        device = self.spec.fixed[name]
        return (device.start, device.end)

    def _add_non_overlap(
        self,
        model: Model,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> Tuple[Dict[Pair, Var], List[_Disjunction]]:
        spec = self.spec
        big_m = spec.grid.width + spec.grid.height
        c5_vars: Dict[Pair, Var] = {}
        disjunctions: List[_Disjunction] = []

        names = [t.name for t in spec.tasks]
        fixed_names = sorted(spec.fixed)
        task_pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        mixed_pairs = [(f, t) for f in fixed_names for t in names]

        for a, b in task_pairs + mixed_pairs:
            sa, ea = self._interval(a)
            sb, eb = self._interval(b)
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
            a_le, a_ri, a_do, a_up = self._boundaries(a, selections)
            b_le, b_ri, b_do, b_up = self._boundaries(b, selections)
            terms = [
                a_ri <= b_le,  # a left of b
                b_ri <= a_le,  # b left of a
                a_up <= b_do,  # a below b
                b_up <= a_do,  # b below a
            ]
            aux = model.add_big_m_disjunction(
                terms,
                big_m=big_m,
                name=f"no_overlap[{a},{b}]",
                relax_var=relax,
            )
            disjunctions.append(_Disjunction(terms, aux, relax))
        return c5_vars, disjunctions

    # -- eqs. (13)-(16): routing-convenient mapping -----------------------------

    def _add_routing_convenient(
        self,
        model: Model,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> None:
        spec = self.spec
        d = spec.resolved_distance_limit()
        if d is None:
            return
        known = set(selections) | set(spec.fixed)
        for parent, child in sorted(spec.parent_pairs):
            if parent not in known or child not in known:
                continue
            if parent not in selections and child not in selections:
                continue  # both committed: nothing left to constrain
            c_le, c_ri, c_do, c_up = self._boundaries(child, selections)
            p_le, p_ri, p_do, p_up = self._boundaries(parent, selections)
            # Strict inequalities over integers: "> x - d" == ">= x-d+1".
            name = f"near[{parent},{child}]"
            model.add_constr(c_ri - p_le >= 1 - d, f"{name}.ri")
            model.add_constr(c_le - p_ri <= d - 1, f"{name}.le")
            model.add_constr(c_up - p_do >= 1 - d, f"{name}.up")
            model.add_constr(c_do - p_up <= d - 1, f"{name}.do")


def complete_solution(
    built: BuiltMapping, placements: Dict[str, Placement]
) -> Optional[Dict[Var, float]]:
    """Lift a geometric placement assignment to full model values.

    The heuristic lanes of the anytime mapper (DESIGN.md §13) produce
    placements, not variable vectors; the B&B incumbent injection and
    the MILP replay certificate both need every model variable valued.
    This derives them mechanically: selections become the one-hot
    indicators, each non-overlap disjunction activates its first
    geometrically satisfied term (falling back to the ``c5`` overlap
    permission when no side separates the pair), and ``w`` is the
    maximum pump load the placements actually induce.

    Returns None when the placements cannot satisfy the model — a task
    placed outside its candidate set (e.g. the greedy fallback tier
    dropped the anchor stride or the distance limit) or an overlap with
    no ``c5`` permission.  A non-None result is *mechanically* complete
    but deliberately not trusted: callers re-validate with
    :meth:`Model.check_solution` (the near rows, for one, are not
    examined here) and certify by exact MILP replay before the vector
    reaches a solver.
    """
    values: Dict[Var, float] = {}
    for name, options in built.selections.items():
        chosen = placements.get(name)
        if chosen is None:
            return None
        hit = False
        for placement, var in options:
            selected = placement == chosen
            values[var] = 1.0 if selected else 0.0
            hit = hit or selected
        if not hit:
            return None
    for disjunction in built.disjunctions:
        satisfied = next(
            (
                k
                for k, term in enumerate(disjunction.terms)
                if term.satisfied_by(values)
            ),
            None,
        )
        if satisfied is None:
            if disjunction.relax is None:
                return None  # true overlap with no storage permission
            values[disjunction.relax] = 1.0
            for aux in disjunction.aux:
                values[aux] = 1.0  # eq. 8 with c5 = 1: all rows off
        else:
            if disjunction.relax is not None:
                values[disjunction.relax] = 0.0
            for k, aux in enumerate(disjunction.aux):
                values[aux] = 0.0 if k == satisfied else 1.0
    w_value = built.load_residual
    for expr in built.load_exprs:
        w_value = max(w_value, int(round(expr.evaluate(values))))
    values[built.w] = float(w_value)
    return values
