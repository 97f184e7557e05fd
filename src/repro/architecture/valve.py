"""Valves and their roles.

The paper's central concept (Section 2.2) is that a valve need not keep
one role for the chip's lifetime: the same physical valve may guide
transport (control), form a device boundary (wall) or pump peristaltically
(pump), at different times.  Each :class:`Valve` therefore tracks its
actuation count *per role*, which is exactly what the reliability
objective (largest number of actuations, eq. 10) and the evaluation
columns ``vs 1max = total(peristaltic)`` need.
"""

from __future__ import annotations

import enum
from typing import Dict, Set

from repro.errors import ArchitectureError
from repro.geometry import Point

#: Reliable actuations before a valve wears out — the order of
#: magnitude of the paper's citation [4] ("a few thousand times").
DEFAULT_WEAR_BUDGET: int = 4000


class ValveRole(enum.Enum):
    """What a valve is doing when it is actuated.

    * CONTROL — opening/closing to guide fluid transport (Section 1);
    * PUMP — peristalsis inside a mixer (actuated ~40x per mixing op);
    * WALL — forming the boundary of a dynamic device (Section 2.2).
    """

    CONTROL = "control"
    PUMP = "pump"
    WALL = "wall"


class Valve:
    """One (virtual) valve with per-role actuation counters.

    A *virtual* valve may end the synthesis with zero actuations, in
    which case it is removed from the manufactured design (Algorithm 1,
    L20) — :attr:`is_actuated` distinguishes the two populations.
    """

    __slots__ = ("position", "_counts")

    def __init__(self, position: Point) -> None:
        self.position = position
        self._counts: Dict[ValveRole, int] = {role: 0 for role in ValveRole}

    def actuate(self, role: ValveRole, times: int = 1) -> None:
        """Record ``times`` actuation cycles in the given role."""
        if times < 0:
            raise ArchitectureError(f"negative actuation count {times}")
        self._counts[role] += times

    def count(self, role: ValveRole) -> int:
        return self._counts[role]

    @property
    def peristaltic_actuations(self) -> int:
        """Actuations while serving as a pump valve."""
        return self._counts[ValveRole.PUMP]

    @property
    def transport_actuations(self) -> int:
        """Actuations as control or wall valve (non-peristaltic)."""
        return self._counts[ValveRole.CONTROL] + self._counts[ValveRole.WALL]

    @property
    def total_actuations(self) -> int:
        return sum(self._counts.values())

    @property
    def is_actuated(self) -> bool:
        return self.total_actuations > 0

    @property
    def roles_played(self) -> Set[ValveRole]:
        """Roles in which this valve was actuated at least once.

        ``len(roles_played) >= 2`` identifies the valve-role-changing
        behaviour the paper introduces.
        """
        return {role for role, n in self._counts.items() if n > 0}

    def reset(self) -> None:
        for role in ValveRole:
            self._counts[role] = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ",".join(
            f"{role.value}={n}" for role, n in self._counts.items() if n
        )
        return f"Valve({self.position}{': ' + parts if parts else ''})"
