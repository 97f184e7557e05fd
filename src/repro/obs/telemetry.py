"""Lightweight solver telemetry: counters, timers, spans.

Zero-dependency observability for the synthesis stack.  A single
module-level :data:`TELEMETRY` registry collects named counters and
wall-time accumulators; it is **off by default** and every recording
call is guarded by one attribute check, so instrumented hot paths add
no measurable overhead when disabled.

Instrumentation convention (see DESIGN.md §8): hot loops accumulate
into *local* variables and flush once per solve/search through
:func:`count` / :func:`add_time`, so the per-iteration cost is a plain
integer increment even when telemetry is enabled.

Counter names are dotted paths, one prefix per subsystem:

* ``simplex.*`` — LP iterations, pivot wall time (``repro.ilp.compiled``)
* ``bb.*`` — branch & bound nodes explored / pruned / fallen-back,
  per-node LP wall time, ``simplex_iterations`` (every relaxation the
  search solves, the root included) and the warm-start counters
  (``basis_reuse_hits``, ``warm_starts``, ``warm_fallbacks``,
  ``dual_pivots``) of the compiled-model engine
  (``repro.ilp.branch_bound``)
* ``mapper.*`` — window solves, greedy fallbacks, refinement
  accept/reject tallies and targeted rounds
  (``repro.core.mappers``)
* ``routing.*`` — Dijkstra heap pops, rip-up & re-route events
  (``repro.routing``)
* ``resilience.*`` — one counter per degradation-ladder rung engaged
  (``resilience.greedy``, ``resilience.worker_retry``, … — see
  DESIGN.md §9); a clean run records none (``repro.resilience``)
* ``certify.*`` — certification-layer activity (DESIGN.md §10): LP/MILP
  certificates checked and failed (``certify.milp``,
  ``certify.milp_failed``), design audits run, violations found and
  audit wall time (``certify.audits``, ``certify.audit_violations``,
  ``certify.audit``) (``repro.certify``)
* ``supervisor.*`` — supervised-worker activity (DESIGN.md §14):
  ``attempts``, ``retries``, ``kills_crash`` / ``kills_hang`` /
  ``kills_oom`` / ``kills_deadline``, ``serial_fallbacks`` (supervised
  solve exhausted its retries and re-ran in-process), and the
  ``worker_wall`` / ``backoff`` timers
  (``repro.resilience.supervisor``)
* ``checkpoint.*`` — crash-safe journal activity (DESIGN.md §14):
  ``appends``, ``hits``, ``misses``, ``rejected`` (replayed record
  failed re-certification), ``corrupt_records`` and
  ``write_failures`` (``repro.resilience.checkpoint``)
* ``scipy.*`` — HiGHS MILP solves, node counts and ``solve_errors``
  (HiGHS status-4 runs that fell back to branch & bound)
  (``repro.ilp.scipy_backend``)
* ``serve.*`` — synthesis-as-a-service activity (DESIGN.md §15): job
  lifecycle (``submitted``, ``completed``, ``failed``, the ``solve``
  timer), canonical-cache traffic
  (``cache_hits``, ``cache_misses``, ``cache_stores``,
  ``cache_evicted``, ``cache_write_failures``, ``coalesced``),
  admission control (``shed``, ``rejected``) and the circuit breaker
  (``breaker_trips``, ``breaker_probes``, ``breaker_open``)
  (``repro.serve``)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple


class Telemetry:
    """A registry of named counters and wall-time accumulators."""

    __slots__ = ("enabled", "_counters", "_timers")

    def __init__(self) -> None:
        self.enabled = False
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Tuple[float, int]] = {}

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded values (the enabled flag is untouched)."""
        self._counters.clear()
        self._timers.clear()

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float, events: int = 1) -> None:
        """Add ``seconds`` (over ``events`` occurrences) to timer ``name``."""
        if not self.enabled:
            return
        total, n = self._timers.get(name, (0.0, 0))
        self._timers[name] = (total + seconds, n + events)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into timer ``name`` (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # -- reading ---------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def timers(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"seconds": total, "events": n}
            for name, (total, n) in self._timers.items()
        }

    def snapshot(self) -> Dict[str, Dict]:
        """Everything recorded so far, as one JSON-friendly dict."""
        return {"counters": self.counters(), "timers": self.timers()}


#: The process-wide registry used by all instrumented subsystems.
TELEMETRY = Telemetry()


def enable() -> None:
    TELEMETRY.enable()


def disable() -> None:
    TELEMETRY.disable()


def enabled() -> bool:
    return TELEMETRY.enabled


def reset() -> None:
    TELEMETRY.reset()


def count(name: str, n: int = 1) -> None:
    TELEMETRY.count(name, n)


def add_time(name: str, seconds: float, events: int = 1) -> None:
    TELEMETRY.add_time(name, seconds, events)


def span(name: str):
    return TELEMETRY.span(name)


def snapshot() -> Dict[str, Dict]:
    return TELEMETRY.snapshot()
