"""The bioassay sequencing graph (input 1 of the problem formulation)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.errors import AssayError
from repro.assay.operation import MixRatio, Operation, OperationKind


class SequencingGraph:
    """A DAG of assay operations.

    An edge ``parent -> child`` means the product of ``parent`` is an
    input of ``child`` (Section 3.3: "the product of a preceding
    operation is usually the input of a later operation").  The graph is
    the first input of the synthesis problem (Section 2.3) and specifies
    operation relations, durations, volumes and input proportions.
    """

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._operations: Dict[str, Operation] = {}
        self._children: Dict[str, List[str]] = {}
        self._parents: Dict[str, List[str]] = {}

    # -- construction -----------------------------------------------------

    def add_operation(self, operation: Operation) -> Operation:
        if operation.name in self._operations:
            raise AssayError(f"duplicate operation name {operation.name!r}")
        self._operations[operation.name] = operation
        self._children[operation.name] = []
        self._parents[operation.name] = []
        return operation

    def add_mix(
        self,
        name: str,
        parents: Iterable[str],
        duration: int,
        volume: int,
        ratio: Optional[MixRatio] = None,
    ) -> Operation:
        """Convenience: add a MIX operation and its input edges."""
        op = self.add_operation(
            Operation(name, OperationKind.MIX, duration, volume, ratio)
        )
        for parent in parents:
            self.add_dependency(parent, name)
        return op

    def add_input(self, name: str, volume: int = 0) -> Operation:
        return self.add_operation(Operation(name, OperationKind.INPUT, 0, volume))

    def add_detect(self, name: str, parent: str, duration: int) -> Operation:
        op = self.add_operation(Operation(name, OperationKind.DETECT, duration))
        self.add_dependency(parent, name)
        return op

    def add_dependency(self, parent: str, child: str) -> None:
        """Record that ``child`` consumes the product of ``parent``."""
        if parent not in self._operations:
            raise AssayError(f"unknown parent operation {parent!r}")
        if child not in self._operations:
            raise AssayError(f"unknown child operation {child!r}")
        if parent == child:
            raise AssayError(f"operation {parent!r} cannot feed itself")
        if child in self._children[parent]:
            raise AssayError(f"duplicate edge {parent!r} -> {child!r}")
        self._children[parent].append(child)
        self._parents[child].append(parent)

    # -- access -------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def __len__(self) -> int:
        return len(self._operations)

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise AssayError(f"unknown operation {name!r}") from None

    def operations(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._operations.values())

    def mix_operations(self) -> List[Operation]:
        """The mixing operations, the ones mapped to dynamic mixers."""
        return [op for op in self._operations.values() if op.is_mix]

    def parents(self, name: str) -> List[Operation]:
        self.operation(name)
        return [self._operations[p] for p in self._parents[name]]

    def children(self, name: str) -> List[Operation]:
        self.operation(name)
        return [self._operations[c] for c in self._children[name]]

    def mix_parents(self, name: str) -> List[Operation]:
        """Parents that are themselves mixing operations.

        These define the parent-device relation of Section 3.3 (in-situ
        storages) and the routing-convenient pairs of Section 3.4; INPUT
        parents come from chip ports instead.
        """
        return [p for p in self.parents(name) if p.is_mix]

    def roots(self) -> List[Operation]:
        return [
            op for name, op in self._operations.items() if not self._parents[name]
        ]

    def sinks(self) -> List[Operation]:
        return [
            op for name, op in self._operations.items() if not self._children[name]
        ]

    # -- analysis -----------------------------------------------------------

    def topological_order(self) -> List[Operation]:
        """Kahn's algorithm; raises :class:`AssayError` on cycles."""
        indegree = {name: len(ps) for name, ps in self._parents.items()}
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            # Stable, deterministic order: FIFO over insertion order.
            name = ready.pop(0)
            order.append(name)
            for child in self._children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._operations):
            cyclic = sorted(set(self._operations) - set(order))
            raise AssayError(f"sequencing graph has a cycle involving {cyclic}")
        return [self._operations[name] for name in order]

    def critical_path_lengths(self) -> Dict[str, int]:
        """Every operation's longest duration sum down to any sink.

        One reverse-topological pass.  Used as the list-scheduler
        priority: operations on the critical path are scheduled first.
        """
        lengths: Dict[str, int] = {}
        for op in reversed(self.topological_order()):
            below = max(
                (lengths[c] for c in self._children[op.name]),
                default=0,
            )
            lengths[op.name] = op.duration + below
        return lengths

    def validate(self) -> None:
        """Check structural invariants; raises :class:`AssayError`.

        * acyclic (topological order exists);
        * MIX operations have at least one parent (their fluid must come
          from somewhere);
        * DETECT/OUTPUT operations have exactly one parent;
        * INPUT operations have none.
        """
        self.topological_order()
        for name, op in self._operations.items():
            n_parents = len(self._parents[name])
            if op.kind is OperationKind.INPUT and n_parents:
                raise AssayError(f"{name}: input operations take no parents")
            if op.kind is OperationKind.MIX and n_parents == 0:
                raise AssayError(f"{name}: mix operation has no inputs")
            if op.kind is OperationKind.MIX and op.ratio is not None:
                if n_parents not in (1, len(op.ratio.parts)):
                    raise AssayError(
                        f"{name}: ratio {op.ratio} names "
                        f"{len(op.ratio.parts)} inputs but the graph has "
                        f"{n_parents} parents"
                    )
            if op.kind in (OperationKind.DETECT, OperationKind.OUTPUT):
                if n_parents != 1:
                    raise AssayError(
                        f"{name}: {op.kind.value} needs exactly one parent"
                    )

    def ancestors(self, name: str) -> Set[str]:
        """All transitive predecessors of ``name``."""
        seen: Set[str] = set()
        stack = list(self._parents[name])
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(self._parents[current])
        return seen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mixes = len(self.mix_operations())
        return f"SequencingGraph({self.name}: {len(self)} ops, {mixes} mix)"
