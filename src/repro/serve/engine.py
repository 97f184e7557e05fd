"""The resilient asyncio job engine behind ``python -m repro serve``.

DESIGN.md §15.  One :class:`ServeEngine` owns a bounded job queue, a
pool of worker tasks (each solve runs in a thread so the event loop
stays responsive), and the four resilience tiers wired in front of and
around the solver:

1. **canonical cache** — every submission is reduced to its
   :func:`~repro.serve.canonical.problem_key`; a cached certified
   result is *renamed* to the requester's operation labels (verified
   by structure-table equality — a mismatch is a miss, never a
   mislabeled answer) and served without touching the queue;
2. **single-flight** — identical problems submitted while one is
   solving coalesce onto the in-flight solve's future;
3. **admission control** — a filling queue first sheds load (admitted
   jobs get multiplied-down time budgets; the synthesis pipeline's own
   degradation ladder turns a short budget into a degraded-but-valid
   result), then rejects explicitly at capacity;
4. **circuit breaker** — a problem whose designs keep failing their
   audit trips its breaker and is answered with a greedy degraded solve
   until a half-open probe succeeds.  Nothing is retried: synthesis
   already absorbs lost workers and routing overruns (DESIGN.md §15.3).

Every result is produced with ``certify="audit"`` and a failed audit
fails the job — the engine never serves an uncertified design.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.assay.scheduler import ListScheduler, SchedulerConfig
from repro.assay.textio import graph_from_text, schedule_from_text
from repro.core.export import design_dict
from repro.core.mappers import GreedyMapper
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.errors import ReproError, SynthesisError
from repro.geometry import GridSpec
from repro.obs import TELEMETRY
from repro.resilience import Deadline, DegradationLadder
from repro.serve.admission import (
    DEFAULT_SHED_LEVELS,
    AdmissionController,
)
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.cache import ResultCache, SingleFlight
from repro.serve.canonical import (
    canonical_ids,
    operation_fingerprints,
    problem_key,
    structure_table,
)
from repro.serve.protocol import (
    Job,
    JobState,
    decode_message,
    encode_message,
    validate_submit_fields,
)


@dataclass
class ServeConfig:
    """Tunables of one serve engine."""

    #: the chip grid every submitted assay is synthesized onto.
    grid: GridSpec = field(default_factory=lambda: GridSpec(10, 10))
    #: bounded job queue; submissions past capacity are rejected.
    queue_capacity: int = 16
    #: concurrent solver threads.
    workers: int = 2
    #: default per-job wall-clock budget (seconds); clients may ask for
    #: less, admission shedding multiplies it down.
    time_budget: float = 5.0
    #: directory for the CRC-guarded disk cache (None = memory only).
    cache_dir: Optional[str] = None
    #: in-memory result-cache LRU bound (disk entries are unlimited).
    cache_entries: int = 256
    #: per-source latency samples kept for the p50/p99 window.
    latency_window: int = 512
    #: consecutive failed audits before a problem's breaker trips.
    breaker_threshold: int = 3
    #: seconds an open breaker waits before letting a probe through.
    breaker_cooldown: float = 5.0
    #: (queue-fraction, budget-multiplier) shedding ladder.
    shed_levels: tuple = DEFAULT_SHED_LEVELS
    #: time budget for breaker-open degraded greedy solves.
    degraded_budget: float = 1.0
    anchor_stride: int = 1
    supervised: bool = False


def _copy_json(value):
    """A copy of plain JSON data (dicts, lists, scalars) sharing nothing
    mutable with ``value``.

    :func:`copy.deepcopy` without its memo and per-object dispatch, which
    dominated a cache hit; scalars are taken as they are, without a call.
    """
    if isinstance(value, dict):
        return {
            key: _copy_json(item) if isinstance(item, (dict, list)) else item
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [
            _copy_json(item) if isinstance(item, (dict, list)) else item
            for item in value
        ]
    return value


class ServeEngine:
    """Accepts assay specs, returns certified (or degraded) designs."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.cache = ResultCache(
            self.config.cache_dir, max_entries=self.config.cache_entries
        )
        self.flights = SingleFlight()
        self.admission = AdmissionController(
            self.config.queue_capacity, shed_levels=self.config.shed_levels
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue()
        self._workers: List["asyncio.Task"] = []
        self._tasks: List["asyncio.Task"] = []
        self._next_id = 0
        self.jobs: Dict[int, Job] = {}
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.degraded_served = 0
        # Ring buffers: a long-running server keeps a bounded window of
        # samples, not every latency it ever saw.
        window = self.config.latency_window
        self._latency: Dict[str, Deque[float]] = {
            "cache": deque(maxlen=window),
            "coalesced": deque(maxlen=window),
            "solve": deque(maxlen=window),
            "degraded": deque(maxlen=window),
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.config.workers)
        ]

    async def stop(self) -> None:
        for task in self._workers + self._tasks:
            task.cancel()
        for task in self._workers + self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._workers = []
        self._tasks = []

    async def __aenter__(self) -> "ServeEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        assay_text: str,
        schedule_text: Optional[str] = None,
        *,
        time_budget: Optional[float] = None,
    ) -> Job:
        """Parse, key, and route one submission; returns its :class:`Job`.

        Malformed specs raise :class:`~repro.errors.AssaySpecError`
        (or any other :class:`~repro.errors.AssayError` /
        :class:`~repro.errors.SchedulingError` from validation), and
        ill-typed arguments — non-string specs, a non-numeric or
        non-positive ``time_budget`` — raise
        :class:`~repro.serve.protocol.ProtocolError`; those are
        *client* errors, settled before a job exists.  Every admitted
        (or rejected) submission gets a Job; await :meth:`Job.wait`
        and inspect ``state``.
        """
        validate_submit_fields(assay_text, schedule_text, time_budget)
        graph = graph_from_text(assay_text)
        graph.validate()
        if schedule_text:
            schedule = schedule_from_text(schedule_text, graph)
        else:
            schedule = ListScheduler(SchedulerConfig()).schedule(graph)
        schedule.validate()

        self._next_id += 1
        job = Job(self._next_id, time_budget=time_budget)
        job.graph = graph
        job.schedule = schedule
        if job.time_budget is None:
            job.time_budget = self.config.time_budget
        # One canonical pass per submission: the fingerprints feed the
        # key, the ids and (through the ids) the structure table, and
        # every later rename or payload reuses the job's ids and table.
        fingerprints = operation_fingerprints(graph, schedule)
        job.key = problem_key(
            graph,
            schedule,
            self.config.grid,
            anchor_stride=self.config.anchor_stride,
            fingerprints=fingerprints,
        )
        job.ids = canonical_ids(graph, schedule, fingerprints)
        job.table = structure_table(graph, schedule, job.ids)
        # The registry only tracks live jobs — settled ones drop out
        # (callers hold their own reference), or a long-running server
        # leaks every job it ever served.
        self.jobs[job.id] = job
        job.future.add_done_callback(
            lambda _future, job_id=job.id: self.jobs.pop(job_id, None)
        )
        self.submitted += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.submitted")

        # Tier 1: the canonical result cache.  A structure-table
        # mismatch makes sound renaming unprovable, so the cache counts
        # it as a miss and the job is solved under its own labels.
        client = self.cache.lookup(
            job.key, lambda payload: self._rename(payload, job)
        )
        if client is not None:
            job.finish(client, "cache")
            self._record_latency(job)
            return job

        # Tier 2: single-flight coalescing.
        leader, flight = self.flights.claim(job.key)
        if not leader:
            job.source = "coalesced"
            self._tasks = [t for t in self._tasks if not t.done()]
            self._tasks.append(
                asyncio.create_task(self._follow(job, flight))
            )
            return job
        job.leader = True
        self._admit(job)
        return job

    def _admit(self, job: Job) -> None:
        """Tier 3: admission control, then the bounded queue."""
        decision = self.admission.decide(self._queue.qsize())
        if not decision.admitted:
            if job.leader:
                self.flights.resolve(
                    job.key, SynthesisError(f"rejected: {decision.reason}")
                )
            job.reject({"error": decision.reason})
            return
        job.shed_multiplier = decision.budget_multiplier
        self._queue.put_nowait(job)

    async def _follow(self, job: Job, flight: "asyncio.Future") -> None:
        """A coalesced job: await the leader, rename, fall back if odd."""
        value = await flight
        if isinstance(value, Exception):
            job.fail({"error": str(value)})
            return
        client = self._rename(value, job)
        if client is not None:
            job.finish(client, "coalesced")
            self._record_latency(job)
            return
        # Pathological: same problem key but the structure tables
        # disagree (a refinement tie broken differently).  Solve this
        # job on its own rather than risk a mislabeled answer.
        job.source = "solve"
        self._admit(job)

    # -- workers -----------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._run(job)
            finally:
                self._queue.task_done()

    async def _run(self, job: Job) -> None:
        job.state = JobState.RUNNING
        try:
            payload = await asyncio.to_thread(self._solve, job)
            # The payload lives in canonical-id space (cacheable, label
            # free); the producing job gets it renamed back to its own
            # labels like any other requester — the tables trivially
            # match.
            client = self._rename(payload, job)
            assert client is not None, "self-rename cannot mismatch"
            if payload["served"] == "degraded":
                # Breaker-open answers are placeholders: shared with
                # any coalesced followers (they asked while the breaker
                # was open too) but never cached — caching would let
                # the degradation outlive the breaker.
                self.degraded_served += 1
                job.source = "degraded"
            else:
                self.cache.store(job.key, payload)
        except asyncio.CancelledError:
            # Shutdown: the worker task is going away; settle the job
            # (and any followers) so nobody awaits a dead flight.
            if job.leader:
                self.flights.resolve(
                    job.key, SynthesisError("server shutting down")
                )
            job.fail({"error": "server shutting down"})
            raise
        except Exception as error:  # noqa: BLE001 - the worker loop
            # must survive *anything* the solve raises.  An unexpected
            # exception class fails the job (and every coalesced
            # follower, via the flight), never the worker — one poison
            # request per worker would otherwise be a full DoS.
            self.failed += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("serve.failed")
            if job.leader:
                self.flights.resolve(job.key, error)
            if isinstance(error, ReproError):
                job.fail({"error": str(error)})
            else:
                job.fail({"error": f"{type(error).__name__}: {error}"})
            return
        if job.leader:
            self.flights.resolve(job.key, payload)
        job.finish(client, job.source)
        self.completed += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.completed")
        self._record_latency(job)

    # -- the solve itself (runs in a thread) -------------------------------

    def _solve(self, job: Job) -> dict:
        """Breaker gate, synthesis, audit check."""
        gate = self.breaker.allow(job.key)
        if gate == OPEN:
            result = self._synthesize(
                job,
                mapper=GreedyMapper(),
                budget=self.config.degraded_budget,
            )
            # The serving invariant holds on the degraded path too: a
            # breaker-open greedy answer that fails its audit fails the
            # job — certify="audit" only attaches the report, so the
            # check must be explicit here.
            self._require_audit_ok(result)
            result.resilience.record(
                "serve",
                DegradationLadder.SERVE_BREAKER,
                f"breaker open for {job.key[:12]}…; served greedy",
            )
            return self._payload(job, result, served="degraded")

        result = self._synthesize(job)
        try:
            # A design that fails its own audit is a solver-integrity
            # failure: count it against the breaker and fail the job —
            # an uncertified result is never served.
            self._require_audit_ok(result)
        except SynthesisError:
            self.breaker.record_failure(job.key)
            raise
        self.breaker.record_success(job.key)
        if job.shed_multiplier < 1.0:
            result.resilience.record(
                "serve",
                DegradationLadder.SERVE_SHED,
                f"admitted shedding load: budget x{job.shed_multiplier}",
            )
        return self._payload(job, result, served="solve")

    @staticmethod
    def _require_audit_ok(result) -> None:
        """Enforce the serving invariant: a failed audit is a failure."""
        if result.audit is not None and not result.audit.ok:
            raise SynthesisError(
                f"design audit failed: {result.audit.summary()}"
            )

    def _synthesize(self, job: Job, mapper=None, budget=None):
        seconds = (budget or job.time_budget) * job.shed_multiplier
        deadline = Deadline(seconds)
        config = SynthesisConfig(
            grid=self.config.grid,
            mapper=mapper,
            time_budget=seconds,
            anchor_stride=self.config.anchor_stride,
            certify="audit",
            supervised=self.config.supervised,
        )
        with TELEMETRY.span("serve.solve"):
            return ReliabilitySynthesizer(config).synthesize(
                job.graph, job.schedule, deadline=deadline
            )

    # -- payloads and renaming ---------------------------------------------

    def _payload(self, job: Job, result, served: str) -> dict:
        """The cacheable, label-free form of one synthesis result.

        Operation names in the design are replaced by canonical ids;
        the structure table rides along so a future requester with
        different labels can verify a rename before trusting it.
        """
        m = result.metrics
        return {
            "served": served,
            "design": self._renamed_design(design_dict(result), job.ids, ""),
            "table": job.table,
            "metrics": {
                "used_valves": m.used_valves,
                "role_changing_valves": m.role_changing_valves,
                "mapping_objective": m.mapping_objective,
                "mapper": m.mapper,
                "algorithm_iterations": m.algorithm_iterations,
                "wall_time": m.wall_time,
            },
            "resilience": (
                result.resilience.as_dict()
                if result.resilience is not None
                else None
            ),
            "audit": (
                result.audit.as_dict() if result.audit is not None else None
            ),
        }

    @staticmethod
    def _renamed_design(
        design: dict, mapping: Dict[str, str], assay: str
    ) -> dict:
        """A copy of ``design_dict`` output with operation names mapped.

        Only operation ends of a route are renamed: a port end keeps its
        name even when an operation shares it (the fuzzer names its
        inputs ``in0``, ``in1``, ... like the chip's input ports).
        Anything else not in ``mapping`` passes through unchanged; the
        assay label becomes ``assay``.
        """
        design = _copy_json(design)
        design["assay"] = assay
        for device in design.get("devices", ()):
            device["operation"] = mapping.get(
                device["operation"], device["operation"]
            )
        for route in design.get("routes", ()):
            for end in ("source", "target"):
                if not route.get(f"{end}_is_port"):
                    route[end] = mapping.get(route[end], route[end])
        return design

    def _rename(self, payload: dict, job: Job) -> Optional[dict]:
        """A cached payload re-expressed in ``job``'s labels, or None.

        The requester's structure table must *equal* the stored one —
        that equality is a complete isomorphism proof (the table lists
        every attribute and edge in canonical-id space), so a verified
        rename can never serve a mislabeled design.  Any mismatch is a
        miss.  The reply is a copy (the table stays server-side): a
        client that mutates it never reaches the cache entry.
        """
        if job.table != payload.get("table"):
            return None
        reverse = {cid: name for name, cid in job.ids.items()}
        return {
            key: (
                self._renamed_design(value, reverse, job.graph.name)
                if key == "design"
                else _copy_json(value)
            )
            for key, value in payload.items()
            if key != "table"
        }

    # -- introspection -----------------------------------------------------

    def _record_latency(self, job: Job) -> None:
        latency = job.latency
        if latency is not None:
            bucket = self._latency.get(job.source)
            if bucket is None:
                bucket = deque(maxlen=self.config.latency_window)
                self._latency[job.source] = bucket
            bucket.append(latency)

    @staticmethod
    def _percentile(values, q: float) -> Optional[float]:
        if not values:
            return None
        ordered = sorted(values)
        index = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
        return ordered[index]

    def status(self) -> dict:
        """Health/readiness snapshot (the ``status`` protocol op)."""
        workers_alive = [t for t in self._workers if not t.done()]
        latency = {
            source: {
                "count": len(values),
                "p50": self._percentile(values, 0.50),
                "p99": self._percentile(values, 0.99),
            }
            for source, values in self._latency.items()
            if values
        }
        return {
            "ready": bool(workers_alive),
            "workers": len(workers_alive),
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.queue_capacity,
            },
            "jobs": {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "degraded_served": self.degraded_served,
            },
            "cache": {
                **self.cache.stats(),
                "coalesced": float(self.flights.coalesced),
            },
            "admission": self.admission.stats(),
            "breaker": self.breaker.stats(),
            "latency": latency,
        }


class ServeServer:
    """NDJSON-over-TCP front end for one :class:`ServeEngine`."""

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional["asyncio.AbstractServer"] = None

    async def start(self) -> None:
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.engine.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def _client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                await self._handle(line, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - teardown race
                pass

    async def _handle(self, line: bytes, writer) -> None:
        def send(message: dict) -> None:
            writer.write(encode_message(message))

        try:
            request = decode_message(line)
            op = request["op"]
            if op == "ping":
                send({"event": "pong"})
            elif op == "status":
                send({"event": "status", "status": self.engine.status()})
            elif op == "submit":
                await self._submit(request, send)
            else:
                send({"event": "error", "error": f"unknown op {op!r}"})
        except (ConnectionError, asyncio.CancelledError):
            raise
        except ReproError as exc:
            send({"event": "error", "error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - protocol promise:
            # a malformed request costs an error event, never the
            # connection (and never the server).
            send(
                {
                    "event": "error",
                    "error": f"internal error: {type(exc).__name__}: {exc}",
                }
            )
        await writer.drain()

    async def _submit(self, request: dict, send) -> None:
        from repro.errors import (
            AssayError,
            AssaySpecError,
            SchedulingError,
        )

        try:
            job = await self.engine.submit(
                request.get("assay", ""),
                request.get("schedule"),
                time_budget=request.get("time_budget"),
            )
        except AssaySpecError as exc:
            send({"event": "invalid", "error": exc.as_dict()})
            return
        except (AssayError, SchedulingError) as exc:
            send({"event": "invalid", "error": {"error": str(exc)}})
            return
        if job.state == JobState.REJECTED:
            send({"event": "rejected", "job": job.as_dict()})
            return
        send({"event": "accepted", "job": job.as_dict()})
        await job.wait()
        if job.state == JobState.DONE:
            send({"event": "done", "job": job.as_dict(), "result": job.payload})
        elif job.state == JobState.REJECTED:
            send({"event": "rejected", "job": job.as_dict()})
        else:
            send({"event": "failed", "job": job.as_dict()})
