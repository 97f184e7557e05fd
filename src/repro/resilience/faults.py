"""Deterministic, site-keyed fault injection for chaos testing.

The chaos test suite (``tests/resilience/test_chaos.py``) must prove
that every rung of the degradation ladder actually engages when its
failure mode occurs.  Real timeouts and worker crashes are slow and
flaky to provoke, so the hot paths carry *injection sites*: named
points where the process-wide :data:`FAULTS` injector may force the
site's native failure (a solver limit, a worker crash, a
``RoutingError``).  The sites:

==================  ====================================================
site                effect when fired
==================  ====================================================
``bb.time_limit``   the branch & bound search stops as if its time
                    limit had just expired (keeps any incumbent →
                    FEASIBLE, else NO_SOLUTION)
``scipy.milp``      the HiGHS backend raises :class:`SolverError`
                    before calling scipy
``routing.route``   routing one transport event raises
                    :class:`RoutingError`
``certify.audit``   the design auditor receives a tampered copy of the
                    result (shifted placement + understated objective);
                    chaos tests assert the tampering is *caught*
``chip.valve_dead`` the lifetime engine's most-worn used valve cell
                    dies after the current assay run (fault-adaptive
                    remapping, DESIGN.md §12)
``chip.edge_dead``  likewise for the most-worn used channel edge
``worker.crash``    the supervisor SIGKILLs a freshly started watched
                    worker — the real crash-recovery path, not a
                    simulation (DESIGN.md §14)
``worker.hang``     the supervisor's watchdog treats the worker's
                    heartbeat as stale and kills it
``worker.oom``      the watchdog treats the worker's RSS as over its
                    soft budget and kills it
``checkpoint.corrupt``  the journal flips one byte of the record being
                    appended, exercising the load-time CRC skip path
``serve.cache_corrupt``  the serve cache flips one byte of the record
                    being stored, exercising the lookup-time CRC
                    evict-and-re-solve path
``serve.queue_overflow``  admission control treats the serve queue as
                    full and rejects the submission explicitly
==================  ====================================================

Design constraints (mirrored by ``tests/resilience/test_faults.py``):

* **zero overhead when disarmed** — every site is guarded by
  ``if FAULTS.armed and FAULTS.should_fire(...)``, one attribute read
  on the production path;
* **deterministic** — probabilistic plans draw from a per-site RNG
  seeded with ``crc32(site) ^ seed`` (stable across processes and
  ``PYTHONHASHSEED``), and count-based plans fire on exact call
  indices;
* **scoped** — :meth:`FaultInjector.inject` is a context manager that
  arms on entry and disarms on exit, even on error, so an exploding
  test cannot leak faults into the next one.

Worker processes get their own (disarmed) module singleton, so faults
never fire inside a supervised worker — the ``worker.*`` sites fire in
the supervising parent, which is where the ladder lives.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Union


@dataclass(frozen=True)
class FaultSpec:
    """How often one site fires.

    ``after`` calls are skipped first, then up to ``times`` calls fire
    (``times=None`` = every call); with ``prob`` set, each eligible
    call fires with that probability instead of always.
    """

    times: Optional[int] = 1
    after: int = 0
    prob: Optional[float] = None


PlanValue = Union[int, FaultSpec, Mapping[str, object]]


def _normalize(value: PlanValue) -> FaultSpec:
    if isinstance(value, FaultSpec):
        return value
    if isinstance(value, int):
        return FaultSpec(times=value)
    if isinstance(value, Mapping):
        return FaultSpec(**value)  # type: ignore[arg-type]
    raise TypeError(f"bad fault spec {value!r}")


class FaultInjector:
    """Process-wide fault switchboard; disarmed (and free) by default."""

    __slots__ = ("armed", "_plan", "_calls", "_fired", "_rngs", "_seed")

    def __init__(self) -> None:
        self.armed = False
        self._plan: Dict[str, FaultSpec] = {}
        self._calls: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._seed = 0

    @contextmanager
    def inject(
        self, plan: Mapping[str, PlanValue], seed: int = 0
    ) -> Iterator["FaultInjector"]:
        """Arm the given plan for the duration of the ``with`` block."""
        if self.armed:
            raise RuntimeError("fault injector is already armed")
        self._plan = {site: _normalize(spec) for site, spec in plan.items()}
        self._calls = {}
        self._fired = {}
        self._rngs = {}
        self._seed = seed
        self.armed = True
        try:
            yield self
        finally:
            self.armed = False
            self._plan = {}
            # _fired is kept so tests can assert what happened.

    def should_fire(self, site: str) -> bool:
        """Does the armed plan fire at this call of ``site``?

        Only called behind an ``self.armed`` check; unplanned sites
        return False without recording anything.
        """
        spec = self._plan.get(site)
        if spec is None:
            return False
        calls = self._calls.get(site, 0) + 1
        self._calls[site] = calls
        if calls <= spec.after:
            return False
        if spec.times is not None and self._fired.get(site, 0) >= spec.times:
            return False
        if spec.prob is not None:
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = random.Random(
                    zlib.crc32(site.encode()) ^ self._seed
                )
            if rng.random() >= spec.prob:
                return False
        self._fired[site] = self._fired.get(site, 0) + 1
        return True

    def fired(self, site: Optional[str] = None):
        """Fire counts of the last armed plan (all sites, or one)."""
        if site is None:
            return dict(self._fired)
        return self._fired.get(site, 0)


#: The injector every instrumented site checks.  Disarmed in production;
#: chaos tests arm it through ``FAULTS.inject({...})``.
FAULTS = FaultInjector()
