"""Differential check: the CSR mapping builder against the LinExpr builder.

:class:`repro.core.mapping_model.MappingModelBuilder` emits each
constraint family of eqs. 1-16 as a block of CSR rows.  This file keeps
the expression-based builder it replaced (one ``LinExpr`` per term, one
``Constraint`` per row, exported by a dense ``to_arrays``), and only
here.  On the Table 1 specs of the default path and on fuzzed assays --
monolithic and as rolling-horizon windows with committed devices and
base load, with discouraged cells, forbidden overlaps, both global
switches, a health mask and anchor strides 1-3 -- the two must produce
identical ``c``, ``A_ub``, ``b_ub``, ``A_eq``, ``b_eq``, bounds,
integrality, variable names and row names.  The CSR rows are canonical
(sorted columns, no stored zero), :func:`complete_solution` lifts packer
and LNS placements to the same vector, :meth:`Model.check_solution`
reaches the same verdict, and the model-size counts the end-to-end
tracer reads are unchanged.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.architecture.health import ChipHealth
from repro.assays import get_case, schedule_for
from repro.core import mapping_model
from repro.core.lns import LargeNeighborhoodSearch
from repro.core.mappers import GreedyMapper, window_subspec
from repro.core.mapping_model import (
    MappingModelBuilder,
    MappingSpec,
    complete_solution,
)
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.core.tasks import build_tasks
from repro.errors import SynthesisError
from repro.geometry import Point
from repro.ilp import Constraint, LinExpr, Model, Sense, Var, quicksum
from repro.ilp.tolerances import CHECK_EPS

# ---------------------------------------------------------------------------
# The expression-based reference builder
# ---------------------------------------------------------------------------


class _RecordingModel(Model):
    """A model whose rows are kept as the Constraint objects it was given."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.recorded: List[Constraint] = []
        self.objective_expr = LinExpr()

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        self.recorded.append(constraint)
        return constraint

    def minimize(self, expr) -> None:
        self.objective_expr = LinExpr.coerce(expr)


@dataclass
class _RefDisjunction:
    terms: List[Constraint]
    aux: List[Var]
    relax: Optional[Var]


@dataclass
class _RefBuilt:
    model: _RecordingModel
    w: Var
    selections: Dict[str, list]
    disjunctions: List[_RefDisjunction] = field(default_factory=list)
    load_exprs: List[LinExpr] = field(default_factory=list)
    load_residual: int = 0


def _ref_build(spec: MappingSpec) -> _RefBuilt:
    model = _RecordingModel("dynamic-device-mapping")
    w = model.add_integer("w", lb=0)
    selections = {}
    for task in spec.tasks:
        options = []
        for placement in spec.candidate_placements(task):
            var = model.add_binary(
                f"s[{placement.corner.x},{placement.corner.y},"
                f"{placement.device_type.index},{task.name}]"
            )
            options.append((placement, var))
        selections[task.name] = options
        model.add_constr(
            quicksum(var for _, var in options) == 1,
            name=f"one_device[{task.name}]",
        )
    built = _RefBuilt(model, w, selections)

    rate = {task.name: task.pump_rate for task in spec.tasks}
    cell_terms: Dict[Point, list] = {}
    for name, options in selections.items():
        for placement, var in options:
            for cell in placement.pump_cells():
                cell_terms.setdefault(cell, []).append((rate[name], var))
    for cell, terms in sorted(cell_terms.items()):
        load = quicksum(r * var for r, var in terms) + spec.base_load.get(cell, 0)
        built.load_exprs.append(load)
        model.add_constr(load <= w, name=f"load[{cell.x},{cell.y}]")
    built.load_residual = max(
        (load for cell, load in spec.base_load.items() if cell not in cell_terms),
        default=0,
    )
    if built.load_residual:
        model.add_constr(w >= built.load_residual, name="load[committed]")

    def boundaries(name):
        if name in selections:
            options = selections[name]
            return tuple(
                quicksum(getattr(p.rect, side) * v for p, v in options)
                for side in ("left", "right", "bottom", "top")
            )
        rect = spec.fixed[name].rect
        return tuple(
            LinExpr({}, getattr(rect, side))
            for side in ("left", "right", "bottom", "top")
        )

    def interval(name):
        for task in spec.tasks:
            if task.name == name:
                return task.interval
        return (spec.fixed[name].start, spec.fixed[name].end)

    names = [t.name for t in spec.tasks]
    pairs = [(names[i], names[j]) for i in range(len(names))
             for j in range(i + 1, len(names))]
    pairs += [(f, t) for f in sorted(spec.fixed) for t in names]
    for a, b in pairs:
        sa, ea = interval(a)
        sb, eb = interval(b)
        if not (sa < eb and sb < ea):
            continue
        relax = None
        pair = spec.storage_pair(a, b)
        if (pair is not None and spec.allow_storage_overlap
                and pair not in spec.forbidden_overlaps):
            relax = model.add_binary(f"c5[{pair[0]},{pair[1]}]")
        a_le, a_ri, a_do, a_up = boundaries(a)
        b_le, b_ri, b_do, b_up = boundaries(b)
        terms = [a_ri <= b_le, b_ri <= a_le, a_up <= b_do, b_up <= a_do]
        aux = model.add_big_m_disjunction(
            terms, big_m=spec.grid.width + spec.grid.height,
            name=f"no_overlap[{a},{b}]", relax_var=relax,
        )
        built.disjunctions.append(_RefDisjunction(terms, aux, relax))

    d = spec.resolved_distance_limit()
    if d is not None:
        known = set(selections) | set(spec.fixed)
        for parent, child in sorted(spec.parent_pairs):
            if parent not in known or child not in known:
                continue
            if parent not in selections and child not in selections:
                continue
            c_le, c_ri, c_do, c_up = boundaries(child)
            p_le, p_ri, p_do, p_up = boundaries(parent)
            name = f"near[{parent},{child}]"
            model.add_constr(c_ri - p_le >= 1 - d, f"{name}.ri")
            model.add_constr(c_le - p_ri <= d - 1, f"{name}.le")
            model.add_constr(c_up - p_do >= 1 - d, f"{name}.up")
            model.add_constr(c_do - p_up <= d - 1, f"{name}.do")

    objective = w.to_expr()
    penalty = []
    if spec.discouraged_cells:
        for options in selections.values():
            for placement, var in options:
                covered = sum(1 for cell in placement.pump_cells()
                              if cell in spec.discouraged_cells)
                if covered:
                    penalty.append((covered, var))
    if penalty:
        weight = 0.9 / sum(c for c, _ in penalty)
        objective = objective + quicksum(weight * c * var for c, var in penalty)
    model.minimize(objective)
    return built


def _ref_arrays(built: _RefBuilt):
    """The dense ``to_arrays`` export of the reference rows, plus the
    row names split the same way."""
    model = built.model
    n = model.num_vars
    c = np.zeros(n)
    for var, coef in model.objective_expr.terms.items():
        c[var.index] = coef
    ub_rows, ub_rhs, ub_names, eq_rows, eq_rhs, eq_names = [], [], [], [], [], []
    for con in model.recorded:
        row = np.zeros(n)
        sign = -1.0 if con.sense is Sense.GE else 1.0
        for var, coef in con.expr.terms.items():
            row[var.index] = sign * coef
        if con.sense is Sense.EQ:
            eq_rows.append(row), eq_rhs.append(con.rhs), eq_names.append(con.name)
        else:
            ub_rows.append(row), ub_rhs.append(sign * con.rhs), ub_names.append(con.name)
    return (
        c, np.array(ub_rows).reshape(-1, n), np.array(ub_rhs),
        np.array(eq_rows).reshape(-1, n), np.array(eq_rhs),
        [(v.lb, v.ub) for v in model.variables],
        np.array([1 if v.vtype.is_integral else 0 for v in model.variables]),
        ub_names, eq_names,
    )


def _ref_complete(built: _RefBuilt, placements):
    values = {}
    for name, options in built.selections.items():
        chosen = placements.get(name)
        if chosen is None:
            return None
        hit = False
        for placement, var in options:
            values[var] = 1.0 if placement == chosen else 0.0
            hit = hit or placement == chosen
        if not hit:
            return None
    for disjunction in built.disjunctions:
        satisfied = next((k for k, term in enumerate(disjunction.terms)
                          if term.satisfied_by(values)), None)
        if satisfied is None:
            if disjunction.relax is None:
                return None
            values[disjunction.relax] = 1.0
            for aux in disjunction.aux:
                values[aux] = 1.0
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


def _ref_check(built: _RefBuilt, values, tol=CHECK_EPS) -> List[str]:
    problems = []
    for var in built.model.variables:
        val = values.get(var, 0.0)
        if val < var.lb - tol or val > var.ub + tol:
            problems.append(f"bound violated: {var.name}={val}")
        if var.vtype.is_integral and abs(val - round(val)) > tol:
            problems.append(f"integrality violated: {var.name}={val}")
    for con in built.model.recorded:
        if not con.satisfied_by(values, tol):
            problems.append(f"constraint violated: [{con.name}] ")
    return problems


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1_specs() -> List[MappingSpec]:
    """Every spec the default path builds for Table 1's PCR p1-p3 and
    Mixing Tree p3 rows (monolithic and rolling-horizon windows), plus
    the budgeted ``pcr/p1@2s`` race."""
    specs: List[MappingSpec] = []
    build = MappingModelBuilder.build

    def capture(self):
        specs.append(copy.deepcopy(self.spec))
        return build(self)

    MappingModelBuilder.build = capture
    try:
        for name, policy, budget in (
            ("pcr", 1, None), ("pcr", 2, None), ("pcr", 3, None),
            ("mixing_tree", 3, None), ("pcr", 1, 2.0),
        ):
            case = get_case(name)
            schedule = schedule_for(case, case.policies(policy)[policy - 1])
            config = SynthesisConfig(grid=case.grid, time_budget=budget)
            ReliabilitySynthesizer(config).synthesize(case.graph(), schedule)
    finally:
        MappingModelBuilder.build = build
    return specs


def _fuzz_specs(seed: int, ops: int):
    """``(label, spec)``: one fuzzed assay, monolithic at strides 1-3,
    as committed windows, and under every spec switch."""
    case = get_case(f"fuzz:{seed}:{ops}")
    tasks = build_tasks(case.graph(), schedule_for(case, case.policies(3)[-1]))
    grid = case.grid
    rng = random.Random(seed)
    for stride in (1, 2, 3):
        yield f"stride{stride}", MappingSpec(grid=grid, tasks=tasks, anchor_stride=stride)
    spec = MappingSpec(grid=grid, tasks=tasks, anchor_stride=2)
    ordered = sorted(tasks, key=lambda t: (t.start, t.name))
    placements = dict(GreedyMapper().map_tasks(spec).placements)
    cells = [Point(x, y) for x in range(grid.width) for y in range(grid.height)]
    for lo in range(0, len(ordered) - 1, 2):
        window = ordered[lo:lo + 3]
        sub = window_subspec(
            spec, window, ordered, placements,
            discouraged=frozenset(rng.sample(cells, 6)),
        )
        yield f"window{lo}", sub
        # A valve loaded only by committed devices: no candidate of the
        # window may cover the blocked corner.
        sub = copy.copy(sub)
        sub.blocked_cells = frozenset({Point(0, 0)})
        sub.base_load = {**sub.base_load, Point(0, 0): 999}
        yield f"window{lo}+committed-only", sub
    pairs = sorted(spec.parent_pairs)
    yield "forbidden", MappingSpec(
        grid=grid, tasks=tasks, anchor_stride=3,
        forbidden_overlaps=set(pairs[::2]),
    )
    yield "no-storage-overlap", MappingSpec(
        grid=grid, tasks=tasks, anchor_stride=3, allow_storage_overlap=False,
    )
    yield "not-routing-convenient", MappingSpec(
        grid=grid, tasks=tasks, anchor_stride=1, routing_convenient=False,
        distance_limit=5,
    )
    yield "health", MappingSpec(
        grid=grid, tasks=tasks, anchor_stride=1,
        health=ChipHealth().kill_cells(rng.sample(cells, 4)),
        discouraged_cells=frozenset(rng.sample(cells, 10)),
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _assert_same_model(spec: MappingSpec, label: str, ref: Optional[_RefBuilt] = None):
    built = MappingModelBuilder(spec).build()
    ref = ref or _ref_build(spec)
    model = built.model
    c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_arrays()
    want = _ref_arrays(ref)
    for name, got, exp in zip(
        ("c", "A_ub", "b_ub", "A_eq", "b_eq"),
        (c, a_ub.toarray(), b_ub, a_eq.toarray(), b_eq), want,
    ):
        assert got.shape == exp.shape and np.array_equal(got, exp), (label, name)
    assert bounds == want[5], label
    assert np.array_equal(integrality, want[6]), label
    assert [v.name for v in model.variables] == [v.name for v in ref.model.variables]
    rows = model.rows()
    names = np.array(rows.names, dtype=object)
    assert list(names[rows.sense != 0]) == want[7], label
    assert list(names[rows.sense == 0]) == want[8], label
    assert rows.names == [con.name for con in ref.model.recorded], label
    for mat in (a_ub, a_eq):  # canonical CSR, as csr_matrix(dense) gives
        assert mat.has_sorted_indices and mat.has_canonical_format, label
        assert np.all(mat.data != 0.0), label
    return built, ref


def _placements_to_compare(spec: MappingSpec, built, seed: int):
    """Packer and LNS placements, plus a random candidate pick (which
    the model usually rejects)."""
    out = []
    try:
        packer = dict(GreedyMapper().map_tasks(spec).placements)
    except SynthesisError:
        packer = None
    if packer is not None:
        out.append(packer)
        improved = dict(packer)
        LargeNeighborhoodSearch(spec, seed=seed).run(improved, max_rounds=4)
        out.append(improved)
    rng = random.Random(seed)
    out.append({
        name: rng.choice(options)[0] for name, options in built.selections.items()
    })
    return out


def _assert_same_completion(spec: MappingSpec, built, ref, seed: int) -> int:
    completed = 0
    for placements in _placements_to_compare(spec, built, seed):
        got = complete_solution(built, placements)
        want = _ref_complete(ref, placements)
        assert (got is None) == (want is None)
        if got is None:
            continue
        completed += 1
        assert [got[v] for v in built.model.variables] == [
            want[v] for v in ref.model.variables
        ]
        verdict = built.model.check_solution(got)
        expected = _ref_check(ref, want)
        assert [p.split("] ")[0] for p in verdict] == [
            p.split("] ")[0] for p in expected
        ]
    return completed


@pytest.fixture(scope="module")
def table1_refs(table1_specs) -> List[_RefBuilt]:
    return [_ref_build(spec) for spec in table1_specs]


def test_table1_specs_build_identical_arrays(table1_specs, table1_refs):
    assert len(table1_specs) == 18
    completed = 0
    for k, (spec, ref) in enumerate(zip(table1_specs, table1_refs)):
        built, ref = _assert_same_model(spec, f"table1[{k}]", ref)
        completed += _assert_same_completion(spec, built, ref, seed=k)
    assert completed >= 18  # the packer placements complete on every spec


def test_model_size_counts_match_the_reference(table1_specs, table1_refs):
    """The counts the end-to-end tracer reads off every build
    (``mapping_model.vars`` / ``.constrs`` / ``.nnz``)."""
    for spec, ref in zip(table1_specs, table1_refs):
        model = MappingModelBuilder(spec).build().model
        ref = ref.model
        assert model.num_vars == ref.num_vars
        assert model.num_constrs == len(ref.recorded)
        assert sum(len(c.expr.terms) for c in model.constraints) == sum(
            len(c.expr.terms) for c in ref.recorded
        )


@pytest.mark.parametrize("seed,ops", [(5, 10), (7, 14), (4, 14)])
def test_fuzzed_specs_build_identical_arrays(seed, ops):
    seen = set()
    for label, spec in _fuzz_specs(seed, ops):
        built, ref = _assert_same_model(spec, label)
        _assert_same_completion(spec, built, ref, seed)
        rows = built.model.rows()
        seen.update(name.split("[")[0] + name.rsplit("]", 1)[1] for name in rows.names)
        if label.endswith("committed-only"):
            assert "load[committed]" in rows.names, label
    # Every constraint family of eqs. 1-16 was compared.
    for family in (
        "one_device", "load", "no_overlap.term1", "no_overlap.card",
        "near.ri", "near.do",
    ):
        assert family in seen, family


def test_builder_creates_no_expression_objects(monkeypatch):
    spec = next(iter(_fuzz_specs(5, 10)))[1]

    def refuse(*args, **kwargs):
        raise AssertionError("the builder created an expression object")

    monkeypatch.setattr(LinExpr, "__init__", refuse)
    monkeypatch.setattr(Constraint, "__init__", refuse)
    built = MappingModelBuilder(spec).build()
    assert built.model.num_constrs > 0
    assert mapping_model._CANDIDATE_CACHE  # the arrays live in its entries
