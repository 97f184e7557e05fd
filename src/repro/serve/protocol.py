"""Serve job records and the NDJSON wire protocol (DESIGN.md §15).

The wire format is newline-delimited JSON: every request and every
response is one JSON object on one line.  Three request shapes:

.. code-block:: json

    {"op": "submit", "assay": "...", "schedule": "...", "time_budget": 2}
    {"op": "status"}
    {"op": "ping"}

A ``submit`` streams events — ``accepted`` (or ``rejected`` /
``invalid``) immediately, then ``done`` (with the certified result) or
``failed`` when the job settles.  Malformed requests get an ``error``
event and the connection stays up; a protocol error never kills the
server.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from typing import Any, Dict, Optional

from repro.errors import ReproError


class ProtocolError(ReproError):
    """A wire message was not a JSON object with a known shape."""


def validate_submit_fields(
    assay: Any, schedule: Any, time_budget: Any
) -> None:
    """Raise :class:`ProtocolError` unless submit's fields are well-typed.

    Everything here comes straight off the wire, so nothing may be
    trusted: ``assay`` must be a string, ``schedule`` a string or
    absent, ``time_budget`` a positive finite number or absent.  The
    engine calls this too, so embedded (non-TCP) users get the same
    contract.
    """
    if not isinstance(assay, str):
        raise ProtocolError(
            f"'assay' must be a string, got {type(assay).__name__}"
        )
    if schedule is not None and not isinstance(schedule, str):
        raise ProtocolError(
            f"'schedule' must be a string, got {type(schedule).__name__}"
        )
    if time_budget is not None:
        if (
            isinstance(time_budget, bool)
            or not isinstance(time_budget, (int, float))
            or not math.isfinite(time_budget)
            or time_budget <= 0
        ):
            raise ProtocolError(
                "'time_budget' must be a positive finite number, "
                f"got {time_budget!r}"
            )


def encode_message(message: Dict[str, Any]) -> bytes:
    """One NDJSON line, ready for ``writer.write``."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: "bytes | str") -> Dict[str, Any]:
    """Parse one NDJSON line into a request dict.

    Raises :class:`ProtocolError` on anything that is not a JSON
    object carrying a string ``op``.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("message needs a string 'op' field")
    if op == "submit":
        validate_submit_fields(
            message.get("assay", ""),
            message.get("schedule"),
            message.get("time_budget"),
        )
    return message


class JobState:
    """Lifecycle states of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"


class Job:
    """One submitted synthesis problem and its settlement future.

    ``source`` says how the answer was (or will be) produced:
    ``"solve"`` (this job ran the pipeline), ``"cache"`` (served from
    the content-addressed result cache), ``"coalesced"`` (attached to
    an identical in-flight solve), ``"degraded"`` (the circuit breaker
    was open and a greedy degraded result was served).

    ``ids`` and ``table`` are the submission's canonical ids and
    structure table (:mod:`repro.serve.canonical`), computed once at
    submit and reused by every rename and payload.
    """

    __slots__ = (
        "id",
        "key",
        "graph",
        "schedule",
        "ids",
        "table",
        "state",
        "source",
        "shed_multiplier",
        "time_budget",
        "leader",
        "payload",
        "error",
        "future",
        "submitted_at",
        "finished_at",
    )

    def __init__(
        self,
        job_id: int,
        *,
        time_budget: Optional[float] = None,
    ) -> None:
        self.id = job_id
        self.key: Optional[str] = None
        self.graph = None
        self.schedule = None
        self.ids: Optional[Dict[str, str]] = None
        self.table: Optional[dict] = None
        self.state = JobState.QUEUED
        self.source = "solve"
        self.shed_multiplier = 1.0
        self.time_budget = time_budget
        self.leader = False
        self.payload: Optional[dict] = None
        self.error: Optional[dict] = None
        self.future: "asyncio.Future[Job]" = (
            asyncio.get_running_loop().create_future()
        )
        self.submitted_at = time.perf_counter()
        self.finished_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-settlement wall time in seconds, once settled."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def settle(self, state: str) -> None:
        self.state = state
        self.finished_at = time.perf_counter()
        if not self.future.done():
            self.future.set_result(self)

    def finish(self, payload: dict, source: str) -> None:
        self.payload = payload
        self.source = source
        self.settle(JobState.DONE)

    def fail(self, error: dict) -> None:
        self.error = error
        self.settle(JobState.FAILED)

    def reject(self, error: dict) -> None:
        self.error = error
        self.settle(JobState.REJECTED)

    async def wait(self) -> "Job":
        """Await settlement; never raises — inspect :attr:`state`."""
        return await self.future

    def as_dict(self) -> dict:
        """JSON-friendly job summary (without the result payload)."""
        return {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "shed_multiplier": self.shed_multiplier,
            "latency": self.latency,
            "error": self.error,
        }
