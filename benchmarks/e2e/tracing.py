"""Span tracing of the ``repro`` layers, applied from outside the package.

A :class:`Tracer` replaces the callables listed in :data:`PATCH_POINTS`
with timing wrappers *where the consumer looks them up* (a function a
module imported by name is patched in that module, a method on its
class), and puts every original back when the ``with`` block exits.
Nothing under ``src/`` changes.

Each wrapped call records one span: name, start, end, thread, and the
span that was open when it started.  The open-span stack lives in a
``contextvars.ContextVar``, so asyncio tasks keep separate stacks,
``asyncio.to_thread`` work nests under the task that submitted it, and a
plain ``threading.Thread`` (the anytime race's exact lane) starts a root
of its own.  Spans stay in memory; :meth:`Tracer.write_chrome` writes
them as Chrome trace-event JSON, which Perfetto opens.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

_STACK: contextvars.ContextVar = contextvars.ContextVar("e2e_spans", default=())


def _model_size(built) -> dict:
    model = built.model
    return {
        "vars": model.num_vars,
        "constrs": model.num_constrs,
        "nnz": sum(len(c.expr.terms) for c in model.constraints),
    }


def _queue_wait(args) -> dict:
    job = args[1]  # ServeEngine._solve(self, job)
    return {"queue_wait": time.perf_counter() - job.submitted_at}


#: ``(module:qualified.name, span name, on_enter, on_exit)`` — the hooks
#: turn call arguments or the return value into span arguments.
PATCH_POINTS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    # Algorithm 1 and the stages it calls by name.
    ("repro.core.synthesis:ReliabilitySynthesizer.synthesize", "core.synthesize", None, None),
    ("repro.core.synthesis:build_tasks", "core.build_tasks", None, None),
    ("repro.core.synthesis:build_transport_events", "routing.events", None, None),
    ("repro.core.storage:StoragePlan.overlap_violations", "storage.overlap_check", None, None),
    ("repro.routing.router:Router.route_all", "routing.route", None, None),
    ("repro.core.actuation:ActuationAccountant.run", "actuation.account", None, None),
    ("repro.certify:audit", "certify.audit", None, None),
    # Mapping: the engines, the model they build, the anytime race.
    ("repro.core.mappers:ILPMapper.map_tasks", "mappers.map", None, None),
    ("repro.core.mappers:WindowedILPMapper.map_tasks", "mappers.map", None, None),
    ("repro.core.mappers:GreedyMapper.map_tasks", "mappers.map", None, None),
    ("repro.core.mapping_model:MappingModelBuilder.build", "mapping_model.build", None, _model_size),
    ("repro.core.anytime:AnytimeMapper.map_tasks", "anytime.map", None, None),
    ("repro.core.lns:LargeNeighborhoodSearch.run", "lns.run", None, None),
    ("repro.certify:certify_assignment", "certify.offer", None, None),
    # Solvers.
    ("repro.ilp.scipy_backend:solve_scipy", "ilp.highs", None, None),
    ("repro.ilp.branch_bound:solve_branch_bound", "ilp.bb", None, None),
    ("repro.ilp.presolve:presolve_arrays", "ilp.presolve", None, None),
    ("repro.ilp.compiled:CompiledModel.__init__", "ilp.lp_compile", None, None),
    ("repro.ilp.compiled:CompiledModel.solve", "ilp.lp", None, None),
    # Serve tier: protocol, parsing, canonical cache, rename, solve.
    ("repro.serve.engine:ServeServer._handle", "serve.handle", None, None),
    ("repro.serve.engine:decode_message", "protocol.decode", None, None),
    ("repro.serve.engine:encode_message", "protocol.encode", None, None),
    ("repro.serve.engine:ServeEngine.submit", "serve.submit", None, None),
    ("repro.serve.engine:graph_from_text", "assay.parse", None, None),
    ("repro.assay.scheduler:ListScheduler.schedule", "assay.schedule", None, None),
    ("repro.serve.engine:problem_key", "serve.problem_key", None, None),
    ("repro.serve.engine:canonical_ids", "serve.canonical_ids", None, None),
    ("repro.serve.engine:structure_table", "serve.structure_table", None, None),
    ("repro.serve.engine:ServeEngine._rename", "serve.rename", None, None),
    ("repro.serve.engine:ServeEngine._solve", "serve.solve", _queue_wait, None),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    thread: int
    id: int
    parent: Optional[int]
    args: Optional[dict]


def _resolve(target: str):
    """``(owner, attribute)`` for ``module:Name`` or ``module:Class.attr``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attribute


class Tracer:
    """Collects spans while active; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.threads: Dict[int, str] = {}
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._saved: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        stack = _STACK.get()
        span_id = next(self._ids)
        token = _STACK.set(stack + (span_id,))
        return span_id, (stack[-1] if stack else None), token

    def _close(self, name, start, end, span_id, parent, token, args) -> None:
        _STACK.reset(token)
        if start < self.origin:
            return
        thread = threading.get_ident()
        if thread not in self.threads:
            self.threads[thread] = threading.current_thread().name
        self.spans.append(Span(name, start, end, thread, span_id, parent, args))

    @contextmanager
    def span(self, name: str, **args):
        """A span around the benchmark's own code (a Table 1 row, ...)."""
        span_id, parent, token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(
                name, start, time.perf_counter(), span_id, parent, token,
                args or None,
            )

    def wrap(self, name: str, fn: Callable, on_enter=None, on_exit=None) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id, parent, token = tracer._open()
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(
                        name, start, time.perf_counter(), span_id, parent,
                        token, None,
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = on_enter(args) if on_enter is not None else None
            span_id, parent, token = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(
                    name, start, time.perf_counter(), span_id, parent, token,
                    extra,
                )
                raise
            end = time.perf_counter()
            if on_exit is not None:
                # After the end stamp: the hook's cost is tracing
                # overhead, not layer time.
                extra = dict(extra or {}, **on_exit(result))
            tracer._close(name, start, end, span_id, parent, token, extra)
            return result

        return traced

    def reset(self) -> None:
        """Forget recorded spans (set-up is over; measurement starts).

        A span that opened before this call and closes after it is
        dropped when it closes.
        """
        self.spans = []
        self.origin = time.perf_counter()

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target, name, on_enter, on_exit in PATCH_POINTS:
                owner, attribute = _resolve(target)
                original = getattr(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, on_enter, on_exit))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- export --------------------------------------------------------------

    def write_chrome(self, path: str, metadata: Optional[dict] = None) -> None:
        """Chrome trace-event JSON (``ph: X`` complete events, µs)."""
        tids = {thread: i for i, thread in enumerate(self.threads, start=1)}
        events = [
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": self.threads[thread]},
            }
            for thread, tid in tids.items()
        ]
        for span in self.spans:
            event = {
                "ph": "X",
                "pid": 1,
                "tid": tids[span.thread],
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata or {},
                },
                f,
            )


def aggregate(spans: List[Span], unit: str) -> Dict[str, dict]:
    """Per span name: count, inclusive and self seconds, summed args.

    Self time is a span's duration minus its children's.  Inclusive time
    counts only the outermost span of a name, so a name nested in itself
    (a windowed mapper calling the exact one) is not counted twice.
    ``unit`` names the span whose subtree the coverage figure refers to:
    ``coverage`` is the share of the ``unit`` spans' inclusive time that
    lies in child spans, that is, that a named layer accounts for.
    """
    by_id = {span.id: span for span in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                span.end - span.start
            )
    table: Dict[str, dict] = {}
    unit_total = 0.0
    unit_self = 0.0
    for span in spans:
        duration = span.end - span.start
        self_time = max(0.0, duration - child_time.get(span.id, 0.0))
        row = table.setdefault(
            span.name, {"count": 0, "incl": 0.0, "self": 0.0, "args": {}}
        )
        row["count"] += 1
        row["self"] += self_time
        if span.args:
            for key, value in span.args.items():
                if isinstance(value, (int, float)):
                    row["args"][key] = row["args"].get(key, 0.0) + value
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            row["incl"] += duration
        if span.name == unit:
            unit_total += duration
            unit_self += self_time
    coverage = 1.0 - unit_self / unit_total if unit_total else 0.0
    return {"layers": table, "unit_seconds": unit_total, "coverage": coverage}
