"""Thread-safe incumbent exchange for the anytime race (DESIGN.md §13).

An :class:`IncumbentPool` is the single rendezvous point between the
heuristic lane (constructive packer + LNS) and the exact lane
(:func:`repro.ilp.branch_bound.solve_branch_bound`) of the anytime
mapper:

* the heuristic lane :meth:`offer`\\ s full variable-value vectors it has
  already replay-certified; the solver polls :attr:`version` once per
  node (a GIL-atomic integer read — no lock on the hot path) and adopts
  any offer that beats its incumbent as an upper bound;
* the solver :meth:`offer`\\ s its own integral incumbents back, and
  :meth:`note`\\ s bound events, so the pool accumulates the per-race
  **gap-vs-time timeline** that ends up in ``MappingResult.stats``;
* the race :meth:`close`\\ s the pool once its answer is proven (an
  incumbent at the objective's lower bound); the solver polls
  :attr:`closed` alongside its time limit and returns its incumbent.

The pool never validates offers itself — each consumer re-checks an
offered vector against its own arrays (the solver with a float replay on
the presolved arrays, the orchestrator with an exact-arithmetic MILP
replay certificate) so a bad offer can degrade nothing but itself.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["IncumbentPool"]


class IncumbentPool:
    """Best-known solution exchange between concurrent solver lanes.

    All objectives are in **model space** (the model's own sense — the
    mapping models minimize, so smaller is better).  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._t0 = clock()
        #: bumped on every accepted offer; readers poll this without the
        #: lock (int reads are atomic under the GIL) and only take the
        #: lock when it moved.
        self.version = 0
        #: set once by :meth:`close`; like ``version`` it is read
        #: without the lock.
        self.closed = False
        self._x: Optional[np.ndarray] = None
        self._objective = math.inf
        self._source = ""
        #: (t, kind, source, value) events: ``incumbent`` objectives and
        #: ``bound`` updates, in arrival order.
        self.timeline: List[Dict[str, float]] = []

    # -- producing -------------------------------------------------------

    def offer(
        self, x, objective: float, source: str = "heuristic"
    ) -> bool:
        """Offer a full solution vector; keep it iff it beats the pool.

        Returns True when the offer became the pool's best.  The vector
        is copied, so callers may keep mutating their working arrays.
        """
        vec = np.array(x, dtype=float, copy=True)
        with self._lock:
            self.timeline.append(
                {
                    "t": self._clock() - self._t0,
                    "kind": "offer",
                    "source": source,
                    "objective": float(objective),
                }
            )
            if objective >= self._objective:
                return False
            self._x = vec
            self._objective = float(objective)
            self._source = source
            self.version += 1
            self.timeline.append(
                {
                    "t": self._clock() - self._t0,
                    "kind": "incumbent",
                    "source": source,
                    "objective": float(objective),
                }
            )
            return True

    def note(self, kind: str, source: str, value: float) -> None:
        """Record a timeline event that carries no solution vector
        (bound movements, certification outcomes, race verdicts)."""
        with self._lock:
            self.timeline.append(
                {
                    "t": self._clock() - self._t0,
                    "kind": kind,
                    "source": source,
                    "objective": float(value),
                }
            )

    def close(self) -> None:
        """Tell every consumer to stop: the race needs no more search."""
        self.closed = True

    # -- consuming -------------------------------------------------------

    def take(self) -> Tuple[Optional[np.ndarray], float, str, int]:
        """Snapshot ``(x, objective, source, version)`` of the best offer.

        The returned vector is a copy; callers own it.
        """
        with self._lock:
            x = None if self._x is None else self._x.copy()
            return x, self._objective, self._source, self.version

    @property
    def best_objective(self) -> float:
        with self._lock:
            return self._objective

    def timeline_snapshot(self) -> List[Dict[str, float]]:
        with self._lock:
            return [dict(event) for event in self.timeline]
