"""A from-scratch branch & bound MILP solver.

Solves a :class:`repro.ilp.model.Model` by LP-relaxation branch & bound:

* an exact-arithmetic **presolve** (:mod:`repro.ilp.presolve`) first
  shrinks the arrays: redundant/singleton rows drop, variable bounds
  tighten (integer bounds round inward), big-M coefficients shrink to
  what the disjunctions actually need;
* relaxations solved by the from-scratch bounded-variable revised
  simplex over a :class:`repro.ilp.compiled.CompiledModel` — the
  standard-form conversion happens **once per search**, and child nodes
  **warm start** from their parent's optimal basis through the dual
  simplex (``warm_start=False`` restores the per-node cold start);
* a few rounds of root **cutting planes** (:mod:`repro.ilp.cuts`):
  Gomory fractional cuts and knapsack covers, derived in exact
  rationals and appended as extra ``<=`` rows before branching starts;
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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CertificationError, SolverError
from repro.ilp.compiled import Basis, CompiledModel
from repro.ilp.incumbent import IncumbentPool
from repro.ilp.model import Model, ObjectiveSense
from repro.ilp.solution import Solution, SolveStatus
from repro.ilp.sparse import as_csr
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

#: Root cutting-plane separation rounds (:func:`_root_cut_loop`).
_CUT_ROUNDS = 3

#: Standard-form row count below which warm starts are not even worth
#: probing: on sub-ms LPs the cold path's identity-basis fast path and
#: cached Dantzig pricing solve a node faster than the dual repair's
#: per-node LU refactor alone, so tiny models silently run cold.  Both
#: mapping probes clear this bar and keep their warm-start wins (PCR
#: m=82: warm 0.088 s vs cold 0.104 s median after warmup; exponential
#: m=217: ~4x).  The BENCH_ilp.json "regression" that once suggested a
#: much higher threshold (PCR warm 0.288 s vs cold 0.101 s) was a
#: measurement-order artifact — the warm run was timed first in a cold
#: process and absorbed the lazy scipy imports and first-``splu``
#: warmup; ``bench_record.py`` now does an untimed warmup solve.
#: ``warm_start_min_rows=0`` forces warm starts regardless of size.
_WARM_START_MIN_ROWS = 48

#: Runtime warm-start governor: explored-node count after which the
#: governor starts interleaving forced cold probe solves.  Trees smaller
#: than this cannot lose enough absolute wall to warm overhead for the
#: probe to pay (and probing them would wash out their measured warm
#: wins — the PCR probe's whole tree is ~13 nodes).
_GOVERNOR_PROBE_AFTER = 32
#: Timed solves of each kind (warm / forced-cold) the governor collects
#: before deciding.
_GOVERNOR_PROBE_SAMPLES = 4
#: Disable warm starts for the rest of the search when the mean warm
#: solve is this many times slower than the mean cold probe solve.  The
#: margin is deliberately wide and asymmetric: keeping warm starts on a
#: marginally losing model wastes a few percent, while disabling them
#: on a winning one forfeits up to 4x (the exponential probe), and a
#: wide margin keeps the 4-sample wall-time decision deterministic on
#: models far from the boundary (the CI-gated probes sit at ratios of
#: ~1.0 and ~0.2; the dense models that lose sit at 5-9x).
_GOVERNOR_DISABLE_FACTOR = 2.0

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


class _WarmStartGovernor:
    """Runtime pivot-cost gate: keep warm starts only while they pay.

    Standard-form row count alone does not predict the dual repair's
    payoff — the sparse big-M mapping models win from m≈80 up, while
    dense knapsack-style models lose at every size tested and even a
    fine-stride (stride=1) mapping model loses at m=83, despite far
    fewer simplex iterations in every case: the per-node LU refactor
    and Python dual-pivot loop can dominate the iterations saved.  So
    once the search has explored ``probe_after`` nodes (small trees
    never accumulate enough warm overhead to be worth probing), the
    governor forces alternate basis-carrying nodes to solve cold,
    times both populations, and after ``samples`` of each disables
    warm starts for the remainder of the search when the mean warm
    solve is ``factor``x slower than the mean cold solve.  The gate is
    a pure wall-time policy: statuses and objectives are unaffected.
    """

    __slots__ = (
        "probe_after", "samples", "factor",
        "warm_wall", "warm_n", "cold_wall", "cold_n",
        "decided", "disable",
    )

    def __init__(
        self,
        probe_after: int = _GOVERNOR_PROBE_AFTER,
        samples: int = _GOVERNOR_PROBE_SAMPLES,
        factor: float = _GOVERNOR_DISABLE_FACTOR,
    ) -> None:
        self.probe_after = probe_after
        self.samples = samples
        self.factor = factor
        self.warm_wall = 0.0
        self.warm_n = 0
        self.cold_wall = 0.0
        self.cold_n = 0
        self.decided = False
        self.disable = False

    def probing(self, nodes_explored: int) -> bool:
        return not self.decided and nodes_explored >= self.probe_after

    def force_cold(self) -> bool:
        """Solve this basis-carrying node cold as a probe sample?"""
        return self.cold_n < self.samples and self.cold_n <= self.warm_n

    def record(self, warm: bool, wall: float) -> None:
        """Feed one timed node solve; flips ``decided`` when enough
        samples of both kinds are in."""
        if self.decided:
            return
        if warm:
            self.warm_wall += wall
            self.warm_n += 1
        else:
            self.cold_wall += wall
            self.cold_n += 1
        if self.warm_n >= self.samples and self.cold_n >= self.samples:
            self.decided = True
            warm_mean = self.warm_wall / self.warm_n
            cold_mean = self.cold_wall / self.cold_n
            self.disable = warm_mean > self.factor * cold_mean


def _root_cut_loop(
    compiled: CompiledModel,
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    root_bounds: List[Tuple[float, float]],
    integrality,
    lp_max_iterations: int,
    certify: str,
    cut_stats: Dict[str, float],
    stop: Callable[[], bool],
) -> Tuple[
    CompiledModel, np.ndarray, np.ndarray, Optional[Basis], Optional[float]
]:
    """Separate root cutting planes for up to ``_CUT_ROUNDS`` rounds.

    Returns the (possibly rebuilt) compiled model, the grown ``a_ub`` /
    ``b_ub``, the optimal root basis as a warm-start seed for the root
    node (when the final root solve matches the final arrays), and the
    final root relaxation objective — the proven root bound an injected
    external incumbent is compared against.  ``stop()`` is polled before
    each round and again between separation and certification; a stop
    keeps whatever rounds already paid off.
    """
    from scipy.sparse import vstack

    from repro.ilp.cuts import generate_cuts

    if certify != "off":
        from repro.certify.cuts import certify_cut

    relax = compiled.solve(
        root_bounds, max_iterations=lp_max_iterations, stop=stop
    )
    if relax.status is not SolveStatus.OPTIMAL or relax.x is None:
        return compiled, a_ub, b_ub, None, None
    obj = relax.objective
    basis = relax.basis
    for _ in range(_CUT_ROUNDS):
        if stop():
            break
        if all(
            abs(relax.x[j] - round(relax.x[j])) <= _INT_TOL
            for j in range(len(root_bounds))
            if integrality[j]
        ):
            break  # the root is already integral: nothing to separate
        found = generate_cuts(
            a_ub, b_ub, a_eq, b_eq, root_bounds, integrality, relax, compiled
        )
        if stop():
            break
        kept = []
        for cut in found:
            if certify != "off":
                cert = certify_cut(
                    cut, a_ub, b_ub, a_eq, b_eq, root_bounds, integrality
                )
                if cert.status != "certified":
                    cut_stats["cuts_rejected"] += 1
                    continue
            kept.append(cut)
        if not kept:
            break
        cand_a_ub = vstack(
            [a_ub, as_csr(np.array([cut.row for cut in kept]), len(c))],
            format="csr",
        )
        cand_b_ub = np.append(b_ub, [cut.rhs for cut in kept])
        cand_compiled = CompiledModel(c, cand_a_ub, cand_b_ub, a_eq, b_eq)
        cand_relax = cand_compiled.solve(
            root_bounds, max_iterations=lp_max_iterations, stop=stop
        )
        if cand_relax.status is not SolveStatus.OPTIMAL or cand_relax.x is None:
            break  # numerical trouble on the cut rows: keep old arrays
        # Cuts pay rent in bound improvement; a round that moves the
        # root bound by under 2% only makes every node's LP bigger, so
        # it is reverted (big-M relaxations routinely produce such
        # valid-but-toothless Gomory rows).
        if cand_relax.objective <= obj + max(0.02 * abs(obj), 10 * GAP_EPS):
            cut_stats["cuts_discarded"] += len(kept)
            break
        compiled, a_ub, b_ub = cand_compiled, cand_a_ub, cand_b_ub
        relax, obj, basis = cand_relax, cand_relax.objective, cand_relax.basis
        cut_stats["cuts_added"] += len(kept)
        cut_stats["cut_rounds_run"] += 1
    return compiled, a_ub, b_ub, basis, obj


def solve_branch_bound(
    model: Model,
    max_nodes: int = 200_000,
    time_limit: Optional[float] = None,
    lp_max_iterations: int = 200_000,
    warm_start: bool = True,
    warm_start_min_rows: int = _WARM_START_MIN_ROWS,
    certify: str = "off",
    presolve: bool = True,
    cuts: bool = True,
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
    are never renumbered, so solutions need no postsolve).  ``cuts``
    adds up to ``_CUT_ROUNDS`` rounds of root cutting planes
    (:mod:`repro.ilp.cuts`).  Under ``certify != "off"`` every cut must
    pass :func:`repro.certify.certify_cut` or it is dropped, so a strict
    search never tightens the relaxation on unproven grounds.

    With ``warm_start`` every child node re-solves from its parent's
    optimal basis through the dual simplex instead of a two-phase cold
    start; ``warm_start=False`` keeps the cold-start
    path (statuses and objectives are identical either way — asserted in
    ``tests/ilp/test_warm_start.py``).  ``warm_start_min_rows`` gates
    warm starts by standard-form size: below the threshold the dual
    repair's per-node refactor costs more wall than the cold fast path
    it replaces, so small models silently run cold
    (``stats["warm_start_gated"]``; pass 0 to force warm starts).
    Above the threshold a runtime governor still watches the payoff:
    after 32 explored nodes it interleaves a few forced cold probe
    solves (``stats["warm_probe_solves"]``) and permanently disables
    warm starts for the rest of the search when the mean warm solve is
    measurably slower than the mean cold one
    (``stats["warm_start_disabled"]`` — row count alone does not
    predict the payoff; see :class:`_WarmStartGovernor`).
    ``_MAX_STORED_BASES`` bounds the warm-start memory: once the
    open-node heap outgrows it, children are pushed without a basis
    snapshot and cold start on arrival.

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
    (before every row), each cut round, the dive, the node loop and the
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

    warm_gated = False
    if warm_start and compiled.m < warm_start_min_rows:
        # See _WARM_START_MIN_ROWS: below this size the cold path is
        # faster per node than the dual repair it would replace.
        warm_start = False
        warm_gated = True
    governor = _WarmStartGovernor() if warm_start else None

    cut_stats: Dict[str, float] = {
        "cuts_added": 0,
        "cuts_rejected": 0,  # failed certification
        "cuts_discarded": 0,  # valid but did not move the root bound
        "cut_rounds_run": 0,
        "cut_wall_time": 0.0,
    }
    root_basis: Optional[Basis] = None
    root_obj: Optional[float] = None
    if cuts and int_indices:
        cut_start = time.perf_counter()
        compiled, a_ub, b_ub, root_basis, root_obj = _root_cut_loop(
            compiled, c, a_ub, b_ub, a_eq, b_eq, root_bounds, integrality,
            lp_max_iterations, certify, cut_stats, stopped,
        )
        cut_stats["cut_wall_time"] = time.perf_counter() - cut_start

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
    stats.update(presolve_stats)
    stats.update(cut_stats)
    stats["warm_start_gated"] = 1.0 if warm_gated else 0.0
    stats["warm_start_disabled"] = 0.0  # governor turned warm off mid-search
    stats["warm_probe_solves"] = 0  # forced cold probe solves
    stats["dive_solves"] = 0
    stats["dive_found_incumbent"] = 0
    stats["external_offers_seen"] = 0
    stats["external_incumbents"] = 0  # offers adopted as upper bounds
    stats["external_rejected"] = 0  # offers failing the float replay
    stats["root_bound_stop"] = 0  # injected incumbent met the root bound

    sense_sign = (
        -1.0 if model.objective_sense is ObjectiveSense.MAXIMIZE else 1.0
    )
    ext_version = 0

    def _external_feasible(x: np.ndarray) -> bool:
        """Float replay of an offered vector on the presolved arrays.

        Presolve only tightens integer bounds and strengthens big-M
        coefficients over the integer-feasible set, so any genuinely
        feasible integral offer passes; cut rows are valid inequalities
        for every integral point by construction.
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
        if root_obj is None:
            relax0 = compiled.solve(
                root_bounds,
                basis=root_basis if warm_start else None,
                max_iterations=lp_max_iterations,
                stop=stopped,
            )
            stats["simplex_iterations"] += relax0.iterations
            if relax0.status is SolveStatus.OPTIMAL:
                root_obj = relax0.objective
                if warm_start:
                    root_basis = relax0.basis
        if root_obj is not None and best_obj <= root_obj + GAP_EPS:
            stats["root_bound_stop"] = 1
            root_stop = True

    if dive and int_indices and best_x is None:
        dive_bounds = list(root_bounds)
        dive_basis = root_basis if warm_start else None
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
            stats["simplex_iterations"] += relax.iterations
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

    root = _Node(
        -math.inf, next(counter), list(root_bounds),
        basis=root_basis if warm_start else None,
    )
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
        node_basis = node.basis if warm_start else None
        probing = (
            governor is not None
            and warm_start
            and governor.probing(int(stats["nodes_explored"]))
        )
        if probing and node_basis is not None and governor.force_cold():
            # Governor probe: sample the cold path's per-node cost on
            # this very search (see _WarmStartGovernor).
            node_basis = None
            stats["warm_probe_solves"] += 1
        if node_basis is not None:
            stats["basis_reuse_hits"] += 1
        lp_start = time.perf_counter()
        relax = compiled.solve(
            node.bounds, basis=node_basis, max_iterations=lp_max_iterations,
            want_duals=certifying, stop=stopped,
        )
        lp_wall = time.perf_counter() - lp_start
        stats["lp_wall_time"] += lp_wall
        if probing:
            governor.record(node_basis is not None, lp_wall)
            if governor.decided and governor.disable:
                warm_start = False
                stats["warm_start_disabled"] = 1.0
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
        stats["simplex_iterations"] += relax.iterations
        stats["dual_pivots"] += relax.dual_pivots
        if relax.warm_started:
            stats["warm_starts"] += 1
        if relax.cold_fallback:
            stats["warm_fallbacks"] += 1
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
            "warm_start_gated",
            "warm_start_disabled",
            "warm_probe_solves",
            "dual_pivots",
            "external_offers_seen",
            "external_incumbents",
            "external_rejected",
            "root_bound_stop",
            "cuts_added",
            "cuts_rejected",
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
