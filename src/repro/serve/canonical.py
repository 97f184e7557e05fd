"""Canonical problem IR: one content hash per synthesis problem.

Two callers share this module (DESIGN.md §15):

* the **checkpoint journal** (:mod:`repro.resilience.checkpoint`) keys
  crash-safe records by :func:`spec_key`, a SHA-256 over a canonicalized
  :class:`~repro.core.mapping_model.MappingSpec`;
* the **serve result cache** (:mod:`repro.serve.cache`) keys whole
  synthesis results by :func:`problem_key`, a SHA-256 over the
  canonicalized *problem IR* — sequencing graph + schedule + chip
  config + the solver-relevant options.

Both hashes deliberately exclude solver choices (backend, time limit,
mapper): a record produced by one solver serves any other, because the
certificate — not the producer — is the authority.

``problem_key`` must be invariant under the three representation
accidents a million clients will produce:

* **operation reordering** — the order operations were added to the
  graph (or appear in an ``assay.textio`` file);
* **node relabeling** — the operation *names*, which are labels chosen
  by the client, not structure;
* **dict-order permutations** — the iteration order of any mapping in
  the chip config (canonical JSON sorts every key).

Relabel invariance is earned with a fixpoint **color refinement** over
the DAG: every operation starts from a hash of its intrinsic attributes
(kind, duration, volume, mix ratio, scheduled start) and repeatedly
absorbs the hashes of its parents (paired positionally with the mix
ratio parts, so ``1:3 of (a, b)`` never collides with ``1:3 of
(b, a)``) and of its children, until the coloring stabilizes.  Names
never enter the hash.

Serving a cached result to a *relabeled* resubmission needs more than
hash equality: the cache must translate the stored operation names to
the requester's names.  :func:`canonical_ids` assigns every operation a
name-free identifier (its refined fingerprint plus a duplicate index),
and :func:`structure_table` re-expresses the whole problem over those
identifiers.  Two problems whose structure tables are *equal* are
isomorphic **by construction of the table itself** — the table lists
every node attribute and every edge in identifier space — so the cache
can verify a rename is sound by comparing tables, and treat any
mismatch (a pathological duplicate-tie-break disagreement) as a miss
instead of serving a mislabeled design.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Dict, List, Optional, Tuple

__all__ = [
    "canonical_json",
    "seal",
    "unseal",
    "health_fields",
    "spec_key",
    "operation_fingerprints",
    "canonical_ids",
    "structure_table",
    "problem_key",
]


def canonical_json(data) -> str:
    """The one true JSON form — key-sorted, no whitespace.

    Byte-identical to the checkpoint journal's historical serializer;
    the journal's CRC and content keys depend on that (regression-pinned
    in ``tests/serve/test_canonical.py``).
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _crc(body: dict) -> int:
    return zlib.crc32(canonical_json(body).encode())


def seal(key: str, payload, corrupt: bool = False) -> str:
    """The checkpoint journal's and serve cache's record: canonical JSON
    of ``key``, ``payload`` and the CRC32 of canonical ``{key, payload}``.
    ``corrupt`` (a chaos site) flips the middle byte.
    """
    body = {"key": key, "payload": payload}
    line = canonical_json(dict(body, crc=_crc(body)))
    if corrupt:
        middle = len(line) // 2
        flipped = "#" if line[middle] != "#" else "@"
        line = line[:middle] + flipped + line[middle + 1:]
    return line


def unseal(line: str) -> Tuple[str, object]:
    """``(key, payload)`` of a :func:`seal` record; a record that does
    not parse or fails its CRC raises :class:`ValueError` (the reason).
    """
    try:
        record = json.loads(line)
        key, payload, crc = record["key"], record["payload"], record["crc"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"unparseable ({exc.__class__.__name__})") from exc
    expected = _crc({"key": key, "payload": payload})
    if crc != expected:
        raise ValueError(f"CRC mismatch (got {crc!r}, want {expected})")
    return key, payload


def _sha(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


# ---------------------------------------------------------------------------
# MappingSpec canonicalization (the checkpoint journal's content key)
# ---------------------------------------------------------------------------


def health_fields(health) -> Optional[dict]:
    """Canonical JSON fields of a :class:`ChipHealth` mask (None = healthy)."""
    if health is None or health.is_healthy:
        return None
    return {
        "dead_cells": sorted([c.x, c.y] for c in health.dead_cells),
        "dead_edges": sorted(
            [e.x, e.y, e.horizontal] for e in health.dead_edges
        ),
    }


def spec_key(spec) -> str:
    """SHA-256 content hash of a :class:`MappingSpec`.

    Covers everything that influences the solve's feasible set or
    objective; deliberately excludes solver choices (backend, time
    limit) so a record written by one backend serves any other — the
    certificate, not the producer, is the authority.
    """
    fixed = sorted(
        (
            name,
            dev.operation,
            dev.placement.device_type.width,
            dev.placement.device_type.height,
            dev.placement.corner.x,
            dev.placement.corner.y,
            dev.start,
            dev.mix_start,
            dev.end,
        )
        for name, dev in spec.fixed.items()
    )
    body = {
        "grid": [spec.grid.width, spec.grid.height],
        "tasks": [
            [
                t.name,
                t.volume,
                t.pump_rate,
                t.start,
                t.mix_start,
                t.end,
                sorted(t.mix_parents),
            ]
            for t in sorted(spec.tasks, key=lambda t: t.name)
        ],
        "fixed": [list(row) for row in fixed],
        "base_load": sorted([c.x, c.y, load] for c, load in spec.base_load.items()),
        "forbidden_overlaps": sorted(list(p) for p in spec.forbidden_overlaps),
        "blocked_cells": sorted([c.x, c.y] for c in spec.blocked_cells),
        "discouraged_cells": sorted([c.x, c.y] for c in spec.discouraged_cells),
        "anchor_stride": spec.anchor_stride,
        "distance_limit": spec.distance_limit,
        "allow_storage_overlap": spec.allow_storage_overlap,
        "routing_convenient": spec.routing_convenient,
        "parent_pairs": sorted(list(p) for p in spec.parent_pairs),
        "health": health_fields(spec.health),
    }
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Problem IR canonicalization (the serve cache's content key)
# ---------------------------------------------------------------------------


def _attrs(op, schedule) -> list:
    """The intrinsic, name-free attributes of one operation."""
    entry = schedule.entries.get(op.name) if schedule is not None else None
    return [
        op.kind.value,
        op.duration,
        op.volume,
        sorted(op.ratio.parts) if op.ratio is not None else None,
        entry.start if entry is not None else None,
        entry.device if entry is not None else None,
    ]


def _parent_pairs(graph, name) -> List[Tuple[int, str]]:
    """Parent names paired positionally with their mix-ratio parts.

    When the ratio names exactly one part per parent the association is
    structural (``1:3 of (a, b)`` pumps three parts of ``b``); otherwise
    (single-parent multi-part ratios, non-mix operations) the part slot
    is ``-1`` — ratio parts are always positive, so the sentinel is
    unambiguous, and keeping it an int keeps the pairs sortable.
    """
    parents = graph.parents(name)
    op = graph.operation(name)
    parts: Tuple[int, ...]
    if (
        op.ratio is not None
        and len(op.ratio.parts) == len(parents)
        and len(parents) > 1
    ):
        parts = op.ratio.parts
    else:
        parts = (-1,) * len(parents)
    return [(part, parent.name) for part, parent in zip(parts, parents)]


def _adjacency(graph) -> Dict[str, Tuple[list, list]]:
    """Every operation's ratio-paired parents and children, built once.

    ``adjacency[name] = (parents, children)``: ``parents`` is
    :func:`_parent_pairs`, and ``children`` pairs each child with the
    ratio part *this* operation contributes to it.  Refinement rounds
    and individualization pivots only recolor; the pairs never change.
    """
    adjacency: Dict[str, Tuple[list, list]] = {
        op.name: (_parent_pairs(graph, op.name), []) for op in graph.operations()
    }
    for child, (parents, _) in adjacency.items():
        for part, parent in parents:
            adjacency[parent][1].append((part, child))
    return adjacency


def _refine(adjacency, colors: Dict[str, str]) -> Dict[str, str]:
    """Run color refinement from ``colors`` to a stable partition.

    Every round rehashes each operation's own color together with the
    parents' colors (ratio-paired, order normalized by sorting the
    pairs) and the children's colors (paired with the ratio part *this*
    operation contributes to each child).  The partition only ever
    refines — a round's color includes the previous one — so at most
    ``len(adjacency)`` rounds reach a fixpoint.
    """
    for _ in range(max(1, len(adjacency))):
        refined = {
            name: _sha(
                [
                    colors[name],
                    sorted([part, colors[parent]] for part, parent in parents),
                    sorted([part, colors[child]] for part, child in children),
                ]
            )
            for name, (parents, children) in adjacency.items()
        }
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined
    return colors


def operation_fingerprints(graph, schedule=None) -> Dict[str, str]:
    """Name-free fingerprint of every operation, by color refinement.

    Round 0 hashes each operation's intrinsic attributes; every
    subsequent round absorbs the parents' hashes (ratio-paired, order
    normalized by sorting the pairs) and the children's hashes (paired
    with the ratio part *this* operation contributes to each child, so
    "the 1-part parent" and "the 3-part parent" of an asymmetric mix
    separate even when their own attributes are identical).  The
    refinement runs to a stable partition (at most ``len(graph)``
    rounds), so a fingerprint encodes the full ancestor *and*
    descendant structure — renaming operations cannot change it, and
    structurally distinct operations separate as far as color
    refinement can take them.

    This is the expensive step of canonicalization; the serve engine
    runs it once per submission and hands the result to
    :func:`problem_key` and :func:`canonical_ids`.
    """
    return _refine(
        _adjacency(graph),
        {op.name: _sha(_attrs(op, schedule)) for op in graph.operations()},
    )


#: individualization rounds before falling back to name-order ties —
#: each round makes at least one more color unique, so this only binds
#: on degenerate graphs (hundreds of structural twins), where the
#: fallback costs cache hits, never correctness.
_MAX_PIVOTS = 64


def _discrete_colors(graph, fingerprints: Dict[str, str]) -> Dict[str, str]:
    """Individualization-refinement: split structural-duplicate groups.

    While duplicate colors remain, take the smallest duplicated color,
    tentatively *individualize* each member (rehash it with a pivot
    marker), refine, and keep whichever candidate yields the
    lexicographically smallest color multiset — an outcome-based choice,
    so no operation name ever enters the decision.  Automorphic members
    tie exactly (either pivot gives the same multiset and isomorphic
    final colorings), so the result is label-invariant for every graph
    whose refinement-equivalent nodes are genuinely automorphic; the
    exotic remainder (WL-indistinguishable non-automorphic nodes) at
    worst produces a table mismatch, which the serve cache treats as a
    miss, never a mislabeled answer.
    """
    adjacency = _adjacency(graph)
    colors = dict(fingerprints)
    for _ in range(_MAX_PIVOTS):
        groups: Dict[str, List[str]] = {}
        for name, color in colors.items():
            groups.setdefault(color, []).append(name)
        duplicated = {c: ns for c, ns in groups.items() if len(ns) > 1}
        if not duplicated:
            break
        best = None
        for name in sorted(duplicated[min(duplicated)]):
            pivoted = dict(colors)
            pivoted[name] = _sha([colors[name], "pivot"])
            refined = _refine(adjacency, pivoted)
            signature = tuple(sorted(refined.values()))
            if best is None or signature < best[0]:
                best = (signature, refined)
        assert best is not None
        colors = best[1]
    return colors


def canonical_ids(
    graph, schedule=None, fingerprints: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """A name-free identifier per operation: ``<fingerprint16>.<k>``.

    Operations sharing a fingerprint (structural duplicates color
    refinement cannot split) get duplicate indices ``k`` assigned by the
    canonical order :func:`_discrete_colors` produces — a label-invariant
    tie-break, so two relabelings of one problem index their twins
    consistently and the structure tables match (name order would pair
    twin groups differently across relabelings).  Soundness of a cache
    rename is still established by *structure-table equality*
    (:func:`structure_table`), never by trusting the indices.

    ``fingerprints`` are :func:`operation_fingerprints` of the same
    graph and schedule when the caller already has them.
    """
    if fingerprints is None:
        fingerprints = operation_fingerprints(graph, schedule)
    groups: Dict[str, List[str]] = {}
    for name in sorted(fingerprints):
        groups.setdefault(fingerprints[name], []).append(name)
    if any(len(names) > 1 for names in groups.values()):
        final = _discrete_colors(graph, fingerprints)
    else:
        final = fingerprints
    ids: Dict[str, str] = {}
    for fingerprint, names in groups.items():
        ordered = sorted(names, key=lambda name: (final[name], name))
        for k, name in enumerate(ordered):
            ids[name] = f"{fingerprint[:16]}.{k}"
    return ids


def structure_table(graph, schedule=None, ids: Optional[Dict[str, str]] = None) -> dict:
    """The whole problem re-expressed over canonical identifiers.

    Maps every canonical id to its node attributes and its (ratio part,
    parent id) edge list.  Two problems with *equal* tables are
    isomorphic under the composite rename — the table explicitly lists
    every attribute and every edge in identifier space, so equality is a
    complete verification, not a heuristic.
    """
    if ids is None:
        ids = canonical_ids(graph, schedule)
    table = {}
    for op in graph.operations():
        table[ids[op.name]] = {
            "attrs": _attrs(op, schedule),
            "parents": sorted(
                [part, ids[parent]]
                for part, parent in _parent_pairs(graph, op.name)
            ),
        }
    return table


def problem_key(
    graph,
    schedule=None,
    grid=None,
    *,
    anchor_stride: int = 1,
    distance_limit: Optional[int] = None,
    routing_convenient: bool = True,
    allow_storage_overlap: bool = True,
    health=None,
    extra: Optional[dict] = None,
    fingerprints: Optional[Dict[str, str]] = None,
) -> str:
    """SHA-256 content hash of one whole synthesis problem.

    Invariant under operation reordering, node relabeling and dict-order
    permutations of the chip config; sensitive to everything that
    changes the feasible set or the objective: graph structure,
    durations, volumes, mix ratios, scheduled starts, transport delay,
    grid dimensions, the mapping-constraint switches and the hardware
    health mask.  Solver *effort* knobs (time budget, mapper, backend,
    supervision) are deliberately excluded: a certified result answers
    the problem regardless of how hard its producer worked
    (cf. :func:`spec_key`).

    The operation part of the hash is the *multiset* of refined
    fingerprint records — never the duplicate-indexed ids of
    :func:`canonical_ids`, whose within-group index assignment follows
    the (arbitrary) names.  Structural duplicates therefore hash
    identically however they are labeled; the indexed
    :func:`structure_table` only matters at *serve* time, where table
    equality proves a rename sound.

    ``extra`` admits forward-compatible solver-relevant options; it is
    canonical-JSON'd like everything else.  ``fingerprints`` are
    :func:`operation_fingerprints` of the same graph and schedule when
    the caller already has them.
    """
    if fingerprints is None:
        fingerprints = operation_fingerprints(graph, schedule)
    records = sorted(
        [
            fingerprints[op.name],
            _attrs(op, schedule),
            sorted(
                [part, fingerprints[parent]]
                for part, parent in _parent_pairs(graph, op.name)
            ),
        ]
        for op in graph.operations()
    )
    body = {
        "ir": 1,  # bump to invalidate every cache entry on schema change
        "ops": records,
        "transport_delay": (
            schedule.transport_delay if schedule is not None else None
        ),
        "grid": [grid.width, grid.height] if grid is not None else None,
        "anchor_stride": anchor_stride,
        "distance_limit": distance_limit,
        "routing_convenient": routing_convenient,
        "allow_storage_overlap": allow_storage_overlap,
        "health": health_fields(health),
        "extra": extra,
    }
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()
