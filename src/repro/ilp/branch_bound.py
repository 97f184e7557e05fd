"""A from-scratch branch & bound MILP solver.

Solves a :class:`repro.ilp.model.Model` by LP-relaxation branch & bound:

* an exact-arithmetic **presolve** (:mod:`repro.ilp.presolve`) first
  shrinks the arrays: redundant/singleton rows drop, variable bounds
  tighten (integer bounds round inward), big-M coefficients shrink to
  what the disjunctions actually need;
* relaxations solved by the from-scratch bounded-variable revised
  simplex over a :class:`repro.ilp.compiled.CompiledModel` — the
  standard-form conversion happens **once per search**, the root
  relaxation is solved once, cold, and every other node **warm starts**
  from its parent's optimal basis through the dual simplex
  (``warm_start=False`` restores the per-node cold start);
* best-bound node selection (min-heap on the relaxation objective) with
  most-fractional branching;
* optional node and time limits; when the search is cut short the best
  incumbent is returned with status FEASIBLE.

A relaxation that hits its own limits (``NO_SOLUTION``) or misreports
unboundedness below the root does **not** prune its node: the node's
bound is unknown, so the search is marked non-exhausted and the final
status degrades to FEASIBLE / NO_SOLUTION instead of claiming
OPTIMAL / INFEASIBLE over a tree it never actually explored.

This solver exists so the whole reproduction runs without any external
MIP engine; the HiGHS backend (:mod:`repro.ilp.scipy_backend`) is the
faster default for large mapping models, and tests assert both agree.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CertificationError, SolverError
from repro.ilp.compiled import Basis, CompiledModel
from repro.ilp.incumbent import IncumbentPool
from repro.ilp.model import Model, ObjectiveSense
from repro.ilp.solution import Solution, SolveStatus
from repro.ilp.tolerances import GAP_EPS, INTEGRALITY_EPS
from repro.obs import TELEMETRY
from repro.resilience.faults import FAULTS

#: Alias kept for existing importers; the documented constant lives in
#: :mod:`repro.ilp.tolerances`.
_INT_TOL = INTEGRALITY_EPS

#: Bounded-memory warm-start policy: stop attaching basis snapshots to
#: children once the open-node heap grows past this size; basis-less
#: nodes simply cold start (correctness is unaffected).
_MAX_STORED_BASES = 10_000

#: Relative feasibility tolerance when replaying an externally injected
#: incumbent against the presolved arrays.
_EXTERNAL_FEAS_TOL = 1e-6


@dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    bounds: List[Tuple[float, float]] = field(compare=False)
    depth: int = field(compare=False, default=0)
    #: parent's optimal basis (warm-start seed); None = cold start.
    basis: Optional[Basis] = field(compare=False, default=None)
    #: branching decision that created this node (pseudocost feedback):
    #: variable index, direction (-1 floor / +1 ceil), and the parent's
    #: fractional distance moved in that direction.
    branch_var: int = field(compare=False, default=-1)
    branch_dir: int = field(compare=False, default=0)
    branch_frac: float = field(compare=False, default=0.0)


class _Pseudocosts:
    """Per-variable objective-degradation estimates for branching.

    Classic pseudocost branching: every solved child reports how much
    the LP bound actually rose per unit of fractional distance rounded
    away, averaged per (variable, direction).  Variable selection then
    maximizes the product of the two predicted child degradations,
    which prefers branchings that tighten *both* subtrees.  Variables
    with no history yet fall back to the average observed pseudocost
    (most-fractional ordering when nothing has been observed at all),
    so early decisions degrade gracefully to the old rule.  (A
    strict per-variable reliability gate — most-fractional until both
    directions are observed — was measured on the mapping probes and
    explored ~15% more nodes than this average-default fallback.)
    """

    __slots__ = ("down_sum", "down_cnt", "up_sum", "up_cnt")

    def __init__(self) -> None:
        self.down_sum: Dict[int, float] = {}
        self.down_cnt: Dict[int, int] = {}
        self.up_sum: Dict[int, float] = {}
        self.up_cnt: Dict[int, int] = {}

    def record(self, node: _Node, child_bound: float) -> None:
        if node.branch_var < 0 or node.branch_frac <= 0.0:
            return
        gain = max(child_bound - node.bound, 0.0) / node.branch_frac
        j = node.branch_var
        if node.branch_dir < 0:
            self.down_sum[j] = self.down_sum.get(j, 0.0) + gain
            self.down_cnt[j] = self.down_cnt.get(j, 0) + 1
        else:
            self.up_sum[j] = self.up_sum.get(j, 0.0) + gain
            self.up_cnt[j] = self.up_cnt.get(j, 0) + 1

    def _avg(self, sums: Dict[int, float], cnts: Dict[int, int]) -> float:
        total = sum(cnts.values())
        return sum(sums.values()) / total if total else 1.0

    def select(self, x, int_indices, int_tol: float) -> Tuple[int, float]:
        """The fractional variable with the best product score, or
        ``(-1, 0.0)`` when ``x`` is already integral."""
        down_default = self._avg(self.down_sum, self.down_cnt)
        up_default = self._avg(self.up_sum, self.up_cnt)
        best_j, best_score, best_frac = -1, -1.0, 0.0
        for j in int_indices:
            f = x[j] - math.floor(x[j])
            frac = min(f, 1.0 - f)
            if frac <= int_tol:
                continue
            cd = self.down_cnt.get(j, 0)
            cu = self.up_cnt.get(j, 0)
            down = (self.down_sum[j] / cd) if cd else down_default
            up = (self.up_sum[j] / cu) if cu else up_default
            score = max(down * f, 1e-9) * max(up * (1.0 - f), 1e-9)
            if score > best_score:
                best_j, best_score, best_frac = j, score, frac
        return best_j, best_frac


def solve_branch_bound(
    model: Model,
    max_nodes: int = 200_000,
    time_limit: Optional[float] = None,
    lp_max_iterations: int = 200_000,
    warm_start: bool = True,
    certify: str = "off",
    presolve: bool = True,
    dive: bool = True,
    incumbent: Optional[IncumbentPool] = None,
) -> Solution:
    """Optimize ``model`` by branch & bound.

    Every relaxation is solved by the sparse-LU revised simplex of
    :class:`~repro.ilp.compiled.CompiledModel`.  Nodes whose bound
    cannot improve the incumbent by more than
    :data:`~repro.ilp.tolerances.GAP_EPS` are pruned (reported as
    ``stats["absolute_gap"]``, which the LP certificate layer reads).
    ``lp_max_iterations`` caps each relaxation's simplex pivots; a
    capped relaxation marks the search non-exhausted rather than
    pruning its node.

    ``presolve`` runs the exact-arithmetic reductions of
    :mod:`repro.ilp.presolve` on the ``to_arrays`` CSR rows; branching and
    every LP certificate then operate on the reduced arrays (variables
    are never renumbered, so solutions need no postsolve).

    With ``warm_start`` the root relaxation is solved once, cold; its
    optimal basis seeds the dive and the root node, and every child
    node re-solves from its parent's optimal basis through the dual
    simplex instead of a two-phase cold start.  ``warm_start=False``
    keeps the cold-start path (statuses and objectives are identical
    either way — asserted in ``tests/ilp/test_warm_start.py``).  Only
    the stop signal below reads the clock, so a search that is not
    stopped explores the same tree on every run.
    ``stats["simplex_iterations"]``, ``dual_pivots``, ``warm_starts``
    and ``warm_fallbacks`` sum over every relaxation solved, the root
    and the rounding dive included.  ``_MAX_STORED_BASES`` bounds the
    warm-start memory: once the open-node heap outgrows it, children
    are pushed without a basis snapshot and cold start on arrival.

    ``incumbent`` (an :class:`repro.ilp.incumbent.IncumbentPool`) wires
    this search into the anytime race (DESIGN.md §13): externally
    offered solution vectors are polled once per node, float-replayed
    against the presolved arrays, and adopted as upper bounds; the
    search's own integral incumbents and final bound are published back
    to the pool's timeline.  An injected incumbent that already matches
    the root relaxation bound (within ``GAP_EPS``) terminates the
    search immediately with OPTIMAL — no nodes are enumerated.

    The search has one stop signal: ``time_limit`` has passed, or the
    race closed ``incumbent`` (:meth:`IncumbentPool.close`).  Presolve
    (before every row), the root solve, the dive, the node loop and the
    simplex pivot loops all poll it.  A stopped search adopts no further
    offers and returns its best incumbent as FEASIBLE (or NO_SOLUTION
    without one).

    ``dive`` runs a depth-first rounding dive from the root relaxation
    before the best-first loop: repeatedly fix the most fractional
    integer variable to its nearest in-range integer and re-solve.  An
    integral dive leaf becomes the starting incumbent, which lets the
    bound test prune most of the tree that best-first search would
    otherwise explore while incumbent-less.  The dive is a pure
    heuristic — it never affects the reported status or objective, only
    how fast the proof completes.

    ``certify`` turns on the independent certificate layer
    (:mod:`repro.certify`): ``"audit"`` verifies every node relaxation
    (exact-arithmetic LP certificates) and the final incumbent replay,
    recording outcomes in ``stats``; ``"strict"`` additionally raises
    :class:`~repro.errors.CertificationError` on the first failed
    certificate.
    """
    if certify not in ("off", "audit", "strict"):
        raise SolverError(
            f"unknown certify level {certify!r}; expected off/audit/strict"
        )
    certifying = certify != "off"
    if certifying:
        from repro.certify.lp import certify_lp, certify_solution

    start = time.monotonic()
    deadline = start + time_limit if time_limit is not None else None

    def stopped() -> bool:
        """The search's one stop signal (see the docstring)."""
        return (deadline is not None and time.monotonic() > deadline) or (
            incumbent is not None and incumbent.closed
        )

    c, a_ub, b_ub, a_eq, b_eq, root_bounds, integrality = model.to_arrays()
    int_indices = [j for j, flag in enumerate(integrality) if flag]

    presolve_stats: Dict[str, float] = {
        "presolve_rows_dropped": 0,
        "presolve_bounds_tightened": 0,
        "presolve_coeffs_strengthened": 0,
    }
    if presolve and len(root_bounds):
        from repro.ilp.presolve import presolve_arrays

        a_ub, b_ub, a_eq, b_eq, root_bounds, ps_info = presolve_arrays(
            a_ub, b_ub, a_eq, b_eq, root_bounds, integrality, stop=stopped
        )
        presolve_stats["presolve_rows_dropped"] = ps_info.stats["rows_dropped"]
        presolve_stats["presolve_bounds_tightened"] = ps_info.stats[
            "bounds_tightened"
        ]
        presolve_stats["presolve_coeffs_strengthened"] = ps_info.stats[
            "coeffs_strengthened"
        ]
        # On proven infeasibility the crossed bounds stay in
        # root_bounds: the root LP reports INFEASIBLE from the empty
        # box, which certify_lp accepts via its trivial-bounds check.

    compiled = CompiledModel(c, a_ub, b_ub, a_eq, b_eq)

    counter = itertools.count()
    best_x: Optional[np.ndarray] = None
    best_obj = math.inf  # minimize-form objective (already sense-adjusted)
    exhausted = True
    stats: Dict[str, float] = {
        "nodes_explored": 0,
        "nodes_pruned_bound": 0,
        "nodes_infeasible": 0,
        "nodes_integral": 0,
        "nodes_branched": 0,
        "nodes_lp_limit": 0,  # relaxations fallen back to NO_SOLUTION
        "nodes_unbounded_dropped": 0,
        "lp_wall_time": 0.0,
        "simplex_iterations": 0,
        "basis_reuse_hits": 0,  # nodes arriving with a stored basis
        "warm_starts": 0,  # warm solves that actually used the basis
        "warm_fallbacks": 0,  # warm attempts abandoned for a cold start
        "dual_pivots": 0,
        "bases_dropped": 0,  # children pushed basis-less (memory cap)
        "lp_certified": 0,  # node certificates that verified
        "lp_cert_failed": 0,
        "lp_cert_skipped": 0,  # statuses with nothing to verify
    }

    def count(relax) -> None:
        """Add one ``CompiledModel.solve`` result's work to ``stats``."""
        stats["simplex_iterations"] += relax.iterations
        stats["dual_pivots"] += relax.dual_pivots
        stats["warm_starts"] += relax.warm_started
        stats["warm_fallbacks"] += relax.cold_fallback

    stats.update(presolve_stats)
    stats["dive_solves"] = 0
    stats["dive_found_incumbent"] = 0
    stats["external_offers_seen"] = 0
    stats["external_incumbents"] = 0  # offers adopted as upper bounds
    stats["external_rejected"] = 0  # offers failing the float replay
    stats["root_bound_stop"] = 0  # injected incumbent met the root bound

    # The root relaxation, solved once and cold: its basis seeds the
    # dive and the root node, its objective is the bound an injected
    # incumbent is compared against.
    root_basis: Optional[Basis] = None
    root_obj: Optional[float] = None
    seed_root = warm_start and bool(int_indices)
    if seed_root:
        relax0 = compiled.solve(
            root_bounds, max_iterations=lp_max_iterations, stop=stopped
        )
        count(relax0)
        if relax0.status is SolveStatus.OPTIMAL:
            root_basis, root_obj = relax0.basis, relax0.objective

    sense_sign = (
        -1.0 if model.objective_sense is ObjectiveSense.MAXIMIZE else 1.0
    )
    ext_version = 0

    def _external_feasible(x: np.ndarray) -> bool:
        """Float replay of an offered vector on the presolved arrays.

        Presolve only tightens integer bounds and strengthens big-M
        coefficients over the integer-feasible set, so any genuinely
        feasible integral offer passes.
        """
        for j, (lo, hi) in enumerate(root_bounds):
            if x[j] < lo - _EXTERNAL_FEAS_TOL or x[j] > hi + _EXTERNAL_FEAS_TOL:
                return False
        for j in int_indices:
            if abs(x[j] - round(x[j])) > _INT_TOL:
                return False
        if a_ub.shape[0] and np.any(
            a_ub @ x > b_ub + _EXTERNAL_FEAS_TOL * (1.0 + np.abs(b_ub))
        ):
            return False
        if a_eq.shape[0] and np.any(
            np.abs(a_eq @ x - b_eq)
            > _EXTERNAL_FEAS_TOL * (1.0 + np.abs(b_eq))
        ):
            return False
        return True

    def _poll_external() -> bool:
        """Adopt the pool's best offer when it beats the incumbent."""
        nonlocal best_obj, best_x, ext_version
        if incumbent is None or incumbent.version == ext_version:
            return False
        x_ext, _claimed, _source, ext_version = incumbent.take()
        if x_ext is None or x_ext.shape[0] != c.shape[0]:
            return False
        stats["external_offers_seen"] += 1
        if not _external_feasible(x_ext):
            stats["external_rejected"] += 1
            return False
        obj = float(c @ x_ext)
        if obj < best_obj:
            best_obj = obj
            best_x = x_ext
            stats["external_incumbents"] += 1
            return True
        return False

    if not stopped():  # a stopped search returns what it has
        _poll_external()
    root_stop = False
    if best_x is not None and stats["external_incumbents"]:
        # Satellite of the anytime race: an injected incumbent that
        # already matches the proven root bound needs no enumeration.
        if not seed_root:  # the root is not solved yet
            relax0 = compiled.solve(
                root_bounds, max_iterations=lp_max_iterations, stop=stopped
            )
            count(relax0)
            if relax0.status is SolveStatus.OPTIMAL:
                root_obj = relax0.objective
        if root_obj is not None and best_obj <= root_obj + GAP_EPS:
            stats["root_bound_stop"] = 1
            root_stop = True

    if dive and int_indices and best_x is None:
        dive_bounds = list(root_bounds)
        dive_basis = root_basis
        for _ in range(len(int_indices) + 1):
            if stopped():
                break
            relax = compiled.solve(
                dive_bounds,
                basis=dive_basis,
                max_iterations=lp_max_iterations,
                stop=stopped,
            )
            stats["dive_solves"] += 1
            count(relax)
            if relax.status is not SolveStatus.OPTIMAL or relax.x is None:
                break
            frac_j, frac_worst = -1, _INT_TOL
            for j in int_indices:
                f = abs(relax.x[j] - round(relax.x[j]))
                if f > frac_worst:
                    frac_j, frac_worst = j, f
            if frac_j < 0:  # integral leaf: the starting incumbent
                accept = True
                if certifying:
                    # The incumbent's objective prunes nodes, so under
                    # audit/strict it must carry a certificate like any
                    # node bound would.
                    cert = certify_lp(
                        relax, c, a_ub, b_ub, a_eq, b_eq, dive_bounds
                    )
                    accept = cert.status == "certified"
                if accept and relax.objective < best_obj:
                    best_obj = relax.objective
                    best_x = relax.x.copy()
                    stats["dive_found_incumbent"] = 1
                    if incumbent is not None:
                        incumbent.note(
                            "incumbent", "bb", sense_sign * best_obj
                        )
                break
            lo, hi = dive_bounds[frac_j]
            fix = float(min(max(round(relax.x[frac_j]), lo), hi))
            dive_bounds[frac_j] = (fix, fix)
            dive_basis = relax.basis if warm_start else None

    root = _Node(-math.inf, next(counter), list(root_bounds), basis=root_basis)
    heap: List[_Node] = [] if root_stop else [root]
    pseudo = _Pseudocosts()

    while heap:
        if stats["nodes_explored"] >= max_nodes or stopped():
            exhausted = False
            break
        # Chaos-test injection site: behave exactly as if the time
        # limit had just expired (keep any incumbent → FEASIBLE).
        if FAULTS.armed and FAULTS.should_fire("bb.time_limit"):
            exhausted = False
            break
        if incumbent is not None and incumbent.version != ext_version:
            _poll_external()
        node = heapq.heappop(heap)
        if node.bound >= best_obj - GAP_EPS:
            stats["nodes_pruned_bound"] += 1
            continue  # cannot improve the incumbent
        if node.basis is not None:
            stats["basis_reuse_hits"] += 1
        lp_start = time.perf_counter()
        relax = compiled.solve(
            node.bounds, basis=node.basis, max_iterations=lp_max_iterations,
            want_duals=certifying, stop=stopped,
        )
        stats["lp_wall_time"] += time.perf_counter() - lp_start
        if certifying:
            cert = certify_lp(relax, c, a_ub, b_ub, a_eq, b_eq, node.bounds)
            if cert.status == "certified":
                stats["lp_certified"] += 1
            elif cert.status == "failed":
                stats["lp_cert_failed"] += 1
                if certify == "strict":
                    raise CertificationError(
                        f"LP certificate failed at node "
                        f"{int(stats['nodes_explored'])}: "
                        + "; ".join(str(v) for v in cert.violations)
                    )
            else:
                stats["lp_cert_skipped"] += 1
        count(relax)
        stats["nodes_explored"] += 1
        if relax.status is SolveStatus.NO_SOLUTION:
            # The relaxation hit its iteration cap: this node's bound is
            # unknown.  Pruning it here would let the search report
            # OPTIMAL / INFEASIBLE over a subtree it never explored, so
            # propagate the limit instead.
            stats["nodes_lp_limit"] += 1
            exhausted = False
            continue
        if relax.status is SolveStatus.UNBOUNDED:
            if node.depth == 0:
                # An unbounded root relaxation means the MILP itself is
                # unbounded or infeasible.
                return _finish(SolveStatus.UNBOUNDED, start, stats)
            # Below the root an UNBOUNDED verdict contradicts the (finite)
            # root bound and can only come from the LP engine giving up
            # numerically; the subtree's status is unknown, so keep the
            # incumbent but stop claiming exhaustion.
            stats["nodes_unbounded_dropped"] += 1
            exhausted = False
            continue
        if relax.status is not SolveStatus.OPTIMAL:
            stats["nodes_infeasible"] += 1
            continue  # infeasible node: prune
        # Pseudocost gains are comparable only when the child was solved
        # by dual repair from the parent's basis: a from-scratch solve of
        # these (massively degenerate) LPs lands on an arbitrary
        # alternative optimum, and the bound delta then measures vertex
        # noise, not the branching's effect.  Feeding scratch solves into
        # the averages was measured to *grow* the cold-start tree by
        # ~40%, so cold runs deliberately keep no history and the
        # selection below degrades to most-fractional.
        if math.isfinite(node.bound) and relax.warm_started:
            pseudo.record(node, relax.objective)
        if relax.objective >= best_obj - GAP_EPS:
            stats["nodes_pruned_bound"] += 1
            continue
        x = relax.x
        assert x is not None
        # Pseudocost selection (most-fractional until history exists).
        branch_var, _ = pseudo.select(x, int_indices, _INT_TOL)
        if branch_var < 0:
            # Integral solution: new incumbent.
            stats["nodes_integral"] += 1
            if relax.objective < best_obj:
                best_obj = relax.objective
                best_x = x.copy()
                if incumbent is not None:
                    incumbent.note("incumbent", "bb", sense_sign * best_obj)
            continue
        stats["nodes_branched"] += 1
        value = x[branch_var]
        lb, ub = node.bounds[branch_var]
        floor_bounds = list(node.bounds)
        floor_bounds[branch_var] = (lb, math.floor(value))
        ceil_bounds = list(node.bounds)
        ceil_bounds[branch_var] = (math.ceil(value), ub)
        # Both children share the parent's optimal basis snapshot (warm
        # solves copy before pivoting); past the memory cap children are
        # pushed basis-less and will cold start.
        child_basis = relax.basis if warm_start else None
        if child_basis is not None and len(heap) >= _MAX_STORED_BASES:
            child_basis = None
            stats["bases_dropped"] += 2
        down_frac = value - math.floor(value)
        for child_bounds, direction, moved in (
            (floor_bounds, -1, down_frac),
            (ceil_bounds, 1, 1.0 - down_frac),
        ):
            blb, bub = child_bounds[branch_var]
            if blb <= bub:
                heapq.heappush(
                    heap,
                    _Node(
                        relax.objective,
                        next(counter),
                        child_bounds,
                        node.depth + 1,
                        child_basis,
                        branch_var,
                        direction,
                        moved,
                    ),
                )

    # Publish the proven lower bound (minimize form) so the certificate
    # layer can audit the claimed gap independently of the search.
    stats["absolute_gap"] = GAP_EPS
    if exhausted:
        stats["best_bound"] = (
            math.inf if best_x is None else best_obj - GAP_EPS
        )
    elif stats["nodes_lp_limit"] or stats["nodes_unbounded_dropped"]:
        # Subtrees were dropped with unknown bounds: no finite claim is
        # sound.
        stats["best_bound"] = -math.inf
    else:
        heap_min = min((n.bound for n in heap), default=math.inf)
        stats["best_bound"] = min(heap_min, best_obj - GAP_EPS)

    if incumbent is not None and math.isfinite(stats["best_bound"]):
        incumbent.note("bound", "bb", sense_sign * stats["best_bound"])

    if best_x is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.NO_SOLUTION
        return _finish(status, start, stats)

    values: Dict = {}
    for var in model.variables:
        val = float(best_x[var.index])
        if var.vtype.is_integral:
            val = float(round(val))
        values[var] = val
    objective = model.objective.evaluate(values)
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.FEASIBLE
    sol = _finish(status, start, stats, objective, values)
    if certifying:
        final_cert = certify_solution(model, sol)
        sol.stats["milp_certified"] = (
            1.0 if final_cert.status == "certified" else 0.0
        )
        if TELEMETRY.enabled:
            TELEMETRY.count("certify.milp")
            if final_cert.status == "failed":
                TELEMETRY.count("certify.milp_failed")
        if final_cert.status == "failed" and certify == "strict":
            raise CertificationError(
                "MILP certificate failed: "
                + "; ".join(str(v) for v in final_cert.violations)
            )
    return sol


def _finish(
    status: SolveStatus,
    start: float,
    stats: Dict[str, float],
    objective: float = math.nan,
    values: Optional[Dict] = None,
) -> Solution:
    """Assemble the solution, flushing telemetry once per search."""
    wall = time.monotonic() - start
    if TELEMETRY.enabled:
        TELEMETRY.count("bb.solves")
        for key in (
            "nodes_explored",
            "nodes_pruned_bound",
            "nodes_infeasible",
            "nodes_integral",
            "nodes_lp_limit",
            "nodes_unbounded_dropped",
            "simplex_iterations",
            "basis_reuse_hits",
            "warm_starts",
            "warm_fallbacks",
            "dual_pivots",
            "external_offers_seen",
            "external_incumbents",
            "external_rejected",
            "root_bound_stop",
            "presolve_rows_dropped",
            "presolve_bounds_tightened",
            "presolve_coeffs_strengthened",
        ):
            TELEMETRY.count(f"bb.{key}", int(stats.get(key, 0)))
        TELEMETRY.add_time(
            "bb.lp", stats["lp_wall_time"], int(stats["nodes_explored"])
        )
    return Solution(
        status,
        objective=objective,
        values=values or {},
        backend="branch_bound",
        nodes_explored=int(stats["nodes_explored"]),
        wall_time=wall,
        stats=dict(stats),
    )
