"""Per-problem circuit breaker over the solver tier (DESIGN.md §15).

A problem whose designs keep failing their audit (the serve engine's
``_require_audit_ok``: a solver-integrity failure) must not be allowed
to burn a worker slot on every resubmission.  The breaker runs the
classic three-state machine *per problem key*:

* **closed** — solves run normally; consecutive failures count up.
* **open** — after ``threshold`` consecutive failures the key trips:
  submissions are answered with a greedy degraded solve (recorded on
  the job's ``ResilienceReport`` as the ``serve_breaker`` rung) instead
  of occupying the full pipeline.
* **half-open** — after ``cooldown`` seconds one submission is let
  through as a *probe*; success closes the breaker (and resets the
  failure count), failure re-opens it for another cooldown.

The clock is injectable (monotonic by default) so tests step time
instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.obs import TELEMETRY

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class _Entry:
    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Consecutive-failure breaker keyed by problem."""

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._entries: Dict[str, _Entry] = {}
        self.tripped = 0
        self.probes = 0
        self.shorted = 0  # submissions answered degraded while open

    def state(self, key: str) -> str:
        entry = self._entries.get(key)
        return entry.state if entry is not None else CLOSED

    def allow(self, key: str) -> str:
        """Gate one submission: ``"closed"``, ``"probe"`` or ``"open"``.

        ``"open"`` means *do not run the full pipeline* — serve a
        degraded result instead.  ``"probe"`` admits exactly one
        in-flight trial per cooldown window.
        """
        entry = self._entries.get(key)
        if entry is None or entry.state == CLOSED:
            return CLOSED
        if entry.state == OPEN:
            if self._clock() - entry.opened_at >= self.cooldown:
                entry.state = HALF_OPEN
                entry.probing = True
                self.probes += 1
                if TELEMETRY.enabled:
                    TELEMETRY.count("serve.breaker_probes")
                return "probe"
            self._short()
            return OPEN
        # HALF_OPEN: one probe at a time.
        if entry.probing:
            self._short()
            return OPEN
        entry.probing = True
        self.probes += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.breaker_probes")
        return "probe"

    def _short(self) -> None:
        self.shorted += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.breaker_open")

    def record_success(self, key: str) -> None:
        """A solve (or probe) for ``key`` succeeded: close and reset."""
        self._entries.pop(key, None)

    def record_failure(self, key: str) -> None:
        """A solve (or probe) for ``key`` failed: count, maybe trip."""
        entry = self._entries.setdefault(key, _Entry())
        entry.failures += 1
        if entry.state == HALF_OPEN or entry.failures >= self.threshold:
            if entry.state != OPEN:
                self.tripped += 1
                if TELEMETRY.enabled:
                    TELEMETRY.count("serve.breaker_trips")
            entry.state = OPEN
            entry.opened_at = self._clock()
            entry.probing = False

    def stats(self) -> dict:
        states = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        for entry in self._entries.values():
            states[entry.state] += 1
        return {
            "tripped": self.tripped,
            "probes": self.probes,
            "shorted": self.shorted,
            "open": states[OPEN],
            "half_open": states[HALF_OPEN],
            "tracked": len(self._entries),
        }
