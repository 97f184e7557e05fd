"""The four workloads of the end-to-end benchmark (see README.md).

Every workload has a set-up step, timed ``SETUP_REPEATS`` times from
cold memo caches (``setup_s`` is the one-time import cost plus the
median), and a measurement whose amount of work is fixed by
``--seconds`` through a nominal unit cost.  A slower commit therefore
runs longer instead of measuring less, and two commits always measure
the same inputs.

The seed never changes what is solved: every workload's assays are
fixed, and the seed only relabels serve_repeat's cache hits, so every
metric is comparable from seed to seed.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import json
import math
import random
import statistics
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.assay.operation import Operation
from repro.assay.scheduler import ListScheduler
from repro.assay.sequencing_graph import SequencingGraph
from repro.assay.textio import graph_to_text
from repro.assays.fuzzer import fuzz_graph
from repro.assays.registry import get_case, schedule_for
from repro.baseline.valve_count import traditional_design
from repro.certify import audit  # bound before a tracer patches it
from repro.core.mappers import GreedyMapper
from repro.core.simulation import simulate
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.errors import DegradedResultWarning, ReproError
from repro.experiments.paper_data import paper_row
from repro.obs import TELEMETRY
from repro.serve.canonical import problem_key
from repro.serve.engine import ServeConfig, ServeEngine, ServeServer

import tracing

#: Set-up runs per benchmark run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Nominal seconds of one pass over a Table 1 workload's rows; a run
#: makes ``seconds // NOMINAL_PASS_S`` passes (at least one).
NOMINAL_PASS_S = {"table1_highs": 10.0, "table1_budget": 8.0}

#: The serve tier's closed loop: one load process, this many connections
#: to a server at its defaults (10x10 grid, 2 worker threads).
CONNECTIONS = 2
#: Per-request time budget of every serve submission.
SERVE_BUDGET = 2.0
#: serve_distinct: fuzzed assay sizes, drawn uniformly.
DISTINCT_OPS = (4, 16)
#: serve_repeat: the four base assays (operation counts), and how many
#: relabelings of each the requests cycle through.
REPEAT_OPS = (12, 20, 28, 40)
RELABELS_PER_BASE = 25
#: serve_repeat: three rounds sized at this nominal cache-hit rate.
REPEAT_ROUNDS = 3
REPEAT_NOMINAL_RATE = 100.0

#: Wall time above ``SLO_FACTOR * time_budget`` misses the DESIGN.md §9
#: contract.
SLO_FACTOR = 1.1

_ACCEPTED = b'{"event": "accepted"'
_DONE = b'{"event": "done"'
_LINE_LIMIT = 1 << 24  # a "done" line carries a whole design


@dataclass(frozen=True)
class Row:
    """One Table 1 row, optionally under a time budget."""

    case: str
    policy: int
    budget: Optional[float] = None

    @property
    def label(self) -> str:
        suffix = f"@{self.budget:g}s" if self.budget is not None else ""
        return f"{self.case}/p{self.policy}{suffix}"


#: The paper's experiment as users run it: the default unbudgeted path
#: (HiGHS monolithic for PCR, windowed for the mixing tree).
TABLE1_HIGHS = (Row("pcr", 1), Row("pcr", 2), Row("pcr", 3), Row("mixing_tree", 3))
#: The anytime race: PCR takes the monolithic branch & bound lane, the
#: larger rows the windowed HiGHS lane, all racing LNS.
TABLE1_BUDGET = (
    Row("pcr", 1, 2.0),
    Row("mixing_tree", 1, 2.0),
    Row("exponential_dilution", 3, 4.0),
)
SMOKE_ROWS = {
    "table1_highs": (Row("pcr", 1),),
    "table1_budget": (Row("pcr", 2, 1.0),),
}


# -- statistics ----------------------------------------------------------------


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample; returns ``(value, label)``.
    Below 20 samples it would fall under the median, so the maximum is
    reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.4g} of {n}"


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- inputs ----------------------------------------------------------------------


def relabel(graph: SequencingGraph, rng: random.Random, name: str):
    """``graph`` with every operation renamed; returns ``(graph, names)``.

    Insertion order, and so the list schedule and the canonical problem,
    is unchanged: only the labels move.
    """
    ops = graph.operations()
    numbers = rng.sample(range(10 * len(ops)), len(ops))
    names = {op.name: f"n{k}" for op, k in zip(ops, numbers)}
    out = SequencingGraph(name)
    for op in ops:
        out.add_operation(
            Operation(names[op.name], op.kind, op.duration, op.volume, op.ratio)
        )
    for op in ops:
        for parent in graph.parents(op.name):
            out.add_dependency(names[parent.name], names[op.name])
    return out, names


def distinct_texts(count: int) -> List[str]:
    """serve_distinct's requests: ``count`` pairwise non-isomorphic assays.

    The assays are ``fuzz_graph(1000 + i, ops)`` with ops drawn from
    :data:`DISTINCT_OPS` by a fixed stream, skipping any whose canonical
    problem repeats an earlier one (small fuzz graphs can coincide,
    which would turn a miss into a hit).  No seed enters: relabeling
    the corpus moved its mean design quality by up to 12 % (labels steer
    the solver's tie-breaks), and reordering it changes which assays
    solve side by side, which widened the run-to-run spread of peak
    memory to 15 %.
    """
    sizes = random.Random(0)
    grid = ServeConfig().grid
    seen = set()
    texts: List[str] = []
    i = 0
    while len(texts) < count:
        graph = fuzz_graph(1000 + i, sizes.randint(*DISTINCT_OPS))
        i += 1
        key = problem_key(graph, ListScheduler().schedule(graph), grid)
        if key not in seen:
            seen.add(key)
            texts.append(graph_to_text(graph))
    return texts


@dataclass
class RepeatInputs:
    bases: List[str]  # the leaders' assay texts
    texts: List[str]  # relabeled resubmissions
    base_of: List[int]  # texts[i] is a relabeling of bases[base_of[i]]
    names: List[Dict[str, str]]  # leader mix label -> texts[i] label
    assays: List[str]  # texts[i]'s assay name
    order: List[int]  # request j sends texts[order[j % len(order)]]


def repeat_inputs(seed: int, ops: Sequence[int] = REPEAT_OPS) -> RepeatInputs:
    """serve_repeat's inputs: fixed base assays, seeded relabelings.

    The leaders carry fixed labels of their own: the fuzzer names its
    inputs ``in0``, ``in1``, ... like the chip's input ports, which the
    serve tier's rename then rewrites in routes, and the labels steer
    the solver's tie-breaks, so seeded leader labels would change the
    cached designs from seed to seed (see README.md).
    """
    rng = random.Random(seed)
    leader_rng = random.Random(0)
    inputs = RepeatInputs([], [], [], [], [], [])
    for k, n in enumerate(ops):
        graph = fuzz_graph(1, n)
        leader, leader_names = relabel(graph, leader_rng, f"repeat-base-{k}")
        inputs.bases.append(graph_to_text(leader))
        for r in range(RELABELS_PER_BASE):
            assay = f"repeat-{seed}-{k}-{r}"
            renamed, names = relabel(graph, rng, assay)
            inputs.texts.append(graph_to_text(renamed))
            inputs.base_of.append(k)
            inputs.names.append({
                leader_names[op.name]: names[op.name]
                for op in graph.mix_operations()
            })
            inputs.assays.append(assay)
    # Requests take the bases in turn, so every seed sends the same
    # sequence of problem sizes; the seed picks which relabeling.
    count = len(ops)
    picks = [rng.sample(range(RELABELS_PER_BASE), RELABELS_PER_BASE) for _ in ops]
    inputs.order = [
        (j % count) * RELABELS_PER_BASE + picks[j % count][j // count]
        for j in range(count * RELABELS_PER_BASE)
    ]
    return inputs


def _submit_line(text: str) -> bytes:
    request = {"op": "submit", "assay": text, "time_budget": SERVE_BUDGET}
    return (json.dumps(request) + "\n").encode()


def _forget_memos() -> None:
    """Drop the process-wide placement memos, so set-up starts cold."""
    from repro.architecture import device
    from repro.core import mapping_model

    mapping_model._CANDIDATE_CACHE.clear()
    device._ring_cells.cache_clear()
    gc.collect()  # the previous set-up's garbage must not raise peak RSS


# -- results -----------------------------------------------------------------------


class Outcome:
    """What one measured run produced, before ``run.py`` formats it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.rows: List[dict] = []
        self.setup_runs: List[float] = []
        #: per-layer metrics are per unit of work: a pass or a request.
        self.units = 1
        #: measured wall seconds (the base of ``trace.unit_share``).
        self.wall = 0.0
        #: the span whose subtree ``trace.coverage`` refers to.
        self.unit_span = "core.synthesize"
        #: ``repro.obs`` counters of a traced run's measured region.
        self.counters: Dict[str, int] = {}
        #: per-layer values read off results rather than spans.
        self.layer_values: Dict[str, float] = {}

    def violation(self, message: str) -> None:
        self.violations.append(message)


def _timed_setups(body: Callable[[], object], repeats: int, outcome: Outcome):
    for _ in range(repeats):
        state = None  # collectable before the next set-up starts
        _forget_memos()
        start = time.perf_counter()
        state = body()
        outcome.setup_runs.append(time.perf_counter() - start)
    return state


async def _timed_setups_async(body, repeats: int, outcome: Outcome, close):
    state = None
    for _ in range(repeats):
        if state is not None:
            await close(state)
            state = None
        _forget_memos()
        start = time.perf_counter()
        state = await body()
        outcome.setup_runs.append(time.perf_counter() - start)
    return state


def _start_measurement(tracer) -> None:
    # An anytime race returns at its deadline and may leave its exact
    # lane finishing a solve; set-up's lanes must not run into the
    # measurement.
    for thread in threading.enumerate():
        if thread.name == "anytime-exact":
            thread.join(60.0)
    gc.collect()
    if tracer is not None:
        tracer.reset()
        TELEMETRY.reset()
        TELEMETRY.enable()


def _stop_measurement(tracer) -> dict:
    if tracer is None:
        return {}
    TELEMETRY.disable()
    return TELEMETRY.snapshot()["counters"]


# -- Table 1 -------------------------------------------------------------------------


@dataclass
class _RowInput:
    row: Row
    grid: object
    graph: object
    schedule: object
    baseline: object


def _prepare_table1(rows: Sequence[Row]) -> List[_RowInput]:
    inputs = []
    for row in rows:
        case = get_case(row.case)
        graph = case.graph()
        policy = case.policies(row.policy)[row.policy - 1]
        schedule = schedule_for(case, policy)
        baseline = traditional_design(graph, policy, schedule)
        inputs.append(_RowInput(row, case.grid, graph, schedule, baseline))
    # One warm-up synthesis per distinct grid: the first row on its own
    # path (solver imports, first HiGHS / branch & bound call), every
    # other grid greedily (its placement memos).
    warmed = set()
    for item in inputs:
        if item.grid in warmed:
            continue
        first = not warmed
        warmed.add(item.grid)
        config = SynthesisConfig(
            grid=item.grid,
            time_budget=item.row.budget if first else None,
            mapper=None if first else GreedyMapper(),
        )
        ReliabilitySynthesizer(config).synthesize(item.graph, item.schedule)
    return inputs


def run_table1(name: str, seconds: float, smoke: bool, tracer) -> Outcome:
    """table1_highs / table1_budget: whole passes over fixed rows."""
    outcome = Outcome()
    rows = SMOKE_ROWS[name] if smoke else (
        TABLE1_HIGHS if name == "table1_highs" else TABLE1_BUDGET
    )
    passes = 1 if smoke else max(1, int(seconds // NOMINAL_PASS_S[name]))
    inputs = _timed_setups(
        lambda: _prepare_table1(rows), 1 if smoke else SETUP_REPEATS, outcome
    )

    _start_measurement(tracer)
    samples: Dict[str, List[Tuple[float, object]]] = {i.row.label: [] for i in inputs}
    for _ in range(passes):
        for item in inputs:
            config = SynthesisConfig(grid=item.grid, time_budget=item.row.budget)
            outcome.attempted += 1
            span = (
                tracer.span("bench.row", row=item.row.label)
                if tracer is not None else nullcontext()
            )
            start = time.perf_counter()
            try:
                with span:
                    result = ReliabilitySynthesizer(config).synthesize(
                        item.graph, item.schedule
                    )
            except ReproError as error:
                outcome.failed += 1
                outcome.violation(f"{item.row.label}: synthesis failed: {error}")
                continue
            samples[item.row.label].append((time.perf_counter() - start, result))
    counters = _stop_measurement(tracer)

    # Oracles, outside the timed region: the independent design audit
    # and the execution simulator must accept every design.
    for label, runs in samples.items():
        for _, result in runs:
            report = audit(result)
            if not report.ok:
                outcome.failed += 1
                outcome.violation(f"{label}: audit failed: {report.summary()}")
            try:
                simulated = simulate(result)
            except ReproError as error:
                outcome.failed += 1
                outcome.violation(f"{label}: simulation failed: {error}")
                continue
            if not simulated.ok:
                outcome.failed += 1
                outcome.violation(f"{label}: simulation reported violations")

    _table1_metrics(outcome, inputs, samples, passes)
    outcome.units = passes
    outcome.wall = sum(t for runs in samples.values() for t, _ in runs)
    outcome.counters = counters
    return outcome


def _table1_metrics(outcome, inputs, samples, passes) -> None:
    medians, pumps, vs1s, vs2s, valves, ratios = [], [], [], [], [], []
    budgeted = misses = degraded = rungs = overruns = repairs = 0
    for item in inputs:
        row = item.row
        runs = samples[row.label]
        if not runs:
            continue
        times = [t for t, _ in runs]
        metrics = [r.metrics for _, r in runs]
        runtime = statistics.median(times)
        pump = statistics.median(m.setting1.max_peristaltic for m in metrics)
        vs1 = statistics.median(m.setting1.max_total for m in metrics)
        vs2 = statistics.median(m.setting2.max_total for m in metrics)
        used = statistics.median(m.used_valves for m in metrics)
        medians.append(runtime)
        pumps.append(pump)
        vs1s.append(vs1)
        vs2s.append(vs2)
        valves.append(used)
        for seconds_, result in runs:
            report = result.resilience
            rungs += len(report.events)
            overruns += report.count("routing_overrun")
            degraded += report.degraded
            repairs += result.metrics.algorithm_iterations - 1
            if row.budget is not None:
                budgeted += 1
                misses += seconds_ > SLO_FACTOR * row.budget
        paper = paper_row(row.case, row.policy)
        ratios.append(runtime / paper.runtime_seconds)
        last = metrics[-1]
        outcome.rows.append({
            "row": row.label,
            "runs": len(runs),
            "runtime_s": round(runtime, 4),
            "paper_runtime_s": paper.runtime_seconds,
            "vs1": f"{last.setting1.max_total}({last.setting1.max_peristaltic})",
            "paper_vs1": f"{paper.vs1_total}({paper.vs1_pump})",
            "vs2": f"{last.setting2.max_total}({last.setting2.max_peristaltic})",
            "paper_vs2": f"{paper.vs2_total}({paper.vs2_pump})",
            "valves": last.used_valves,
            "paper_valves": paper.v_ours,
            "traditional_valves": item.baseline.valve_count,
            "mapper": last.mapper,
            "rungs": sorted(runs[-1][1].resilience.rung_counts().items()),
        })
    synths = sum(len(runs) for runs in samples.values())
    outcome.metrics.update({
        "latency_s": sum(medians),
        "pump_max": _mean(pumps),
        "vs1_max": _mean(vs1s),
        "valves_used": _mean(valves),
    })
    outcome.info.update({
        "passes": passes,
        "vs2_max": _mean(vs2s),
        "slo_miss_frac": misses / budgeted if budgeted else 0.0,
        "fail_frac": outcome.failed / max(1, outcome.attempted),
        "runtime_vs_paper_geomean": (
            math.exp(_mean(math.log(r) for r in ratios)) if ratios else 0.0
        ),
    })
    outcome.layer_values = {
        "resilience.rungs": rungs / passes,
        "resilience.routing_overruns": overruns / passes,
        "resilience.degraded_frac": degraded / max(1, synths),
        "resilience.slo_miss_frac": misses / budgeted if budgeted else 0.0,
        "storage.repair_iterations": repairs / passes,
        "serve.hit_frac": 0.0,
        "serve.coalesced_frac": 0.0,
    }


# -- serve ---------------------------------------------------------------------------


class ServeSession:
    """A :class:`ServeServer` on loopback and the load generator's
    connections to it (one process, one event loop)."""

    async def start(self) -> "ServeSession":
        self.engine = ServeEngine(ServeConfig())
        self.server = ServeServer(self.engine)
        await self.server.start()
        self.connections = [
            await asyncio.open_connection(
                self.server.host, self.server.port, limit=_LINE_LIMIT
            )
            for _ in range(CONNECTIONS)
        ]
        return self

    async def run(self, count: int, line_for, on_reply) -> float:
        """Closed loop: each connection sends its next request only when
        the previous one settled.  Returns the wall time of ``count``
        requests; ``on_reply(i, latency, line)`` sees each final event."""
        indices = iter(range(count))

        async def client(reader, writer):
            for i in indices:
                line = line_for(i)
                start = time.perf_counter()
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                if reply.startswith(_ACCEPTED):
                    reply = await reader.readline()
                on_reply(i, time.perf_counter() - start, reply)

        start = time.perf_counter()
        await asyncio.gather(*(client(r, w) for r, w in self.connections))
        return time.perf_counter() - start

    async def close(self) -> None:
        # Client side first: each server handler then reads EOF and
        # returns normally, instead of being cancelled mid-read by the
        # server's shutdown.
        for _, writer in self.connections:
            writer.close()
        for _, writer in self.connections:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        await asyncio.sleep(0.05)
        await self.server.stop()


def _decode_done(line: bytes) -> Optional[dict]:
    if not line.startswith(_DONE):
        return None
    return json.loads(line)


class _Replies:
    """Latencies, SLO misses and failures of one run's requests."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.latencies: List[float] = []
        self.misses = 0

    def settle(self, latency: float, ok: bool) -> None:
        self.outcome.attempted += 1
        self.latencies.append(latency)
        if not ok:
            self.outcome.failed += 1
        if not ok or latency > SLO_FACTOR * SERVE_BUDGET:
            self.misses += 1


def _summary(result: dict) -> Tuple[int, int, int]:
    summary = result["design"]["summary"]
    return (
        summary["max_peristaltic_actuations"],
        summary["max_total_actuations"],
        summary["valve_count"],
    )


def _serve_metrics(outcome: Outcome, replies: _Replies, designs) -> None:
    latencies = replies.latencies
    value, label = tail(latencies)
    outcome.metrics.update({
        "latency_s": statistics.median(latencies),
        "pump_max": _mean(d[0] for d in designs),
        "vs1_max": _mean(d[1] for d in designs),
        "valves_used": _mean(d[2] for d in designs),
    })
    outcome.info.update({
        "requests": len(latencies),
        "tail_s": value,
        "tail": label,
        "slo_miss_frac": replies.misses / max(1, len(latencies)),
        "fail_frac": outcome.failed / max(1, outcome.attempted),
    })


def _cache_counts(engine: ServeEngine) -> Tuple[int, int, int]:
    return engine.cache.hits, engine.cache.misses, engine.flights.coalesced


def run_serve_distinct(seconds: float, smoke: bool, tracer) -> Outcome:
    """serve_distinct: every request a new problem (solve + cache write)."""
    outcome = Outcome()
    count = 2 if smoke else max(CONNECTIONS, int(seconds * CONNECTIONS / SERVE_BUDGET))
    texts = distinct_texts(count)
    lines = [_submit_line(t) for t in texts]
    warmup = _submit_line(graph_to_text(fuzz_graph(999, 6)))

    async def setup() -> ServeSession:
        session = await ServeSession().start()
        # First solve pays the lazy solver/certifier imports; its
        # problem is not in the corpus, so it cannot turn a miss into a hit.
        await session.run(1, lambda i: warmup, lambda *a: None)
        return session

    async def body() -> None:
        session = await _timed_setups_async(
            setup, 1 if smoke else SETUP_REPEATS, outcome, lambda s: s.close()
        )
        replies = _Replies(outcome)
        designs: Dict[int, Tuple[int, int, int]] = {}
        solved: List[dict] = []

        def on_reply(i: int, latency: float, line: bytes) -> None:
            message = _decode_done(line)
            ok = message is not None and message["result"]["audit"]["ok"]
            if message is None:
                outcome.violation(f"request {i}: {line[:200]!r}")
            elif not ok:
                outcome.violation(f"request {i}: served design failed its audit")
            else:
                designs[i] = _summary(message["result"])
                if message["job"]["source"] == "solve":
                    solved.append(message["result"])
            replies.settle(latency, ok)

        before = _cache_counts(session.engine)
        _start_measurement(tracer)
        try:
            outcome.wall = await session.run(count, lines.__getitem__, on_reply)
        finally:
            counters = _stop_measurement(tracer)
            after = _cache_counts(session.engine)
            await session.close()
        _serve_metrics(outcome, replies, [designs[i] for i in sorted(designs)])
        outcome.info["req_per_s"] = count / outcome.wall
        _serve_layer_values(outcome, solved, before, after, count, replies)
        outcome.counters = counters

    asyncio.run(body())
    outcome.units = count
    return outcome


def _serve_layer_values(outcome, solved, before, after, count, replies) -> None:
    resilience = [r.get("resilience") or {} for r in solved]
    outcome.layer_values = {
        "resilience.rungs": sum(len(r.get("events", ())) for r in resilience) / count,
        "resilience.routing_overruns": sum(
            r.get("rungs", {}).get("routing_overrun", 0) for r in resilience
        ) / count,
        "resilience.degraded_frac": sum(bool(r.get("degraded")) for r in resilience) / count,
        "resilience.slo_miss_frac": replies.misses / count,
        "storage.repair_iterations": sum(
            r["metrics"]["algorithm_iterations"] - 1 for r in solved
        ) / count,
        "serve.hit_frac": (after[0] - before[0]) / count,
        "serve.coalesced_frac": (after[2] - before[2]) / count,
    }


def _relabeled_result(result: dict, names: Dict[str, str], assay: str) -> dict:
    """A served result with its mixing operations renamed by ``names``.

    Devices name mixing operations; a route end is a mixing operation or
    a chip port, and port names are not in ``names``.
    """
    out = copy.deepcopy(result)
    design = out["design"]
    design["assay"] = assay
    for device in design["devices"]:
        device["operation"] = names.get(device["operation"], device["operation"])
    for route in design["routes"]:
        route["source"] = names.get(route["source"], route["source"])
        route["target"] = names.get(route["target"], route["target"])
    return out


def run_serve_repeat(seed: int, seconds: float, smoke: bool, tracer) -> Outcome:
    """serve_repeat: relabeled resubmissions of four solved problems."""
    outcome = Outcome()
    outcome.unit_span = "serve.handle"
    inputs = repeat_inputs(seed, REPEAT_OPS[:1] if smoke else REPEAT_OPS)
    rounds = 1 if smoke else REPEAT_ROUNDS
    per_round = 2 if smoke else max(
        1, int(seconds * REPEAT_NOMINAL_RATE / REPEAT_ROUNDS)
    )
    lines = [_submit_line(t) for t in inputs.texts]

    async def setup():
        session = await ServeSession().start()
        leaders: Dict[int, dict] = {}

        def on_leader(k: int, latency: float, line: bytes) -> None:
            message = _decode_done(line)
            if message is None or not message["result"]["audit"]["ok"]:
                outcome.violation(f"base {k} was not served a certified design")
            else:
                leaders[k] = message["result"]

        bases = [_submit_line(t) for t in inputs.bases]
        await session.run(len(bases), bases.__getitem__, on_leader)
        # Each resubmission must come back byte-for-byte as the leader's
        # result under the benchmark's own relabeling (the event ends
        # with its sorted last key, "result").
        expected = [
            b'"result": '
            + json.dumps(
                _relabeled_result(leaders[k], inputs.names[i], inputs.assays[i]),
                sort_keys=True,
            ).encode()
            + b"}\n"
            if k in leaders else None
            for i, k in enumerate(inputs.base_of)
        ]
        return session, leaders, expected

    async def body() -> None:
        session, leaders, expected = await _timed_setups_async(
            setup, 1 if smoke else SETUP_REPEATS, outcome,
            lambda state: state[0].close(),
        )
        replies = _Replies(outcome)
        served = [0] * len(inputs.bases)
        order = inputs.order
        total = rounds * per_round

        def text_index(j: int) -> int:
            return order[j % len(order)]

        def on_reply(j: int, latency: float, line: bytes) -> None:
            i = text_index(j)
            want = expected[i]
            ok = want is not None and line.endswith(want)
            if not ok:
                outcome.violation(_diagnose(j, i, line, inputs, leaders))
            else:
                served[inputs.base_of[i]] += 1
            replies.settle(latency, ok)

        before = _cache_counts(session.engine)
        rates = []
        _start_measurement(tracer)
        try:
            for r in range(rounds):
                # Every round starts from an empty young generation, so
                # the collector's full passes fall on the same requests
                # in every run: they set this workload's tail.
                gc.collect()
                offset = r * per_round
                wall = await session.run(
                    per_round,
                    lambda j: lines[text_index(offset + j)],
                    lambda j, latency, line: on_reply(offset + j, latency, line),
                )
                outcome.wall += wall
                rates.append(per_round / wall)
        finally:
            counters = _stop_measurement(tracer)
            after = _cache_counts(session.engine)
            await session.close()
        designs = [
            _summary(leaders[k])
            for k, n in enumerate(served)
            for _ in range(n)
        ]
        _serve_metrics(outcome, replies, designs)
        outcome.info["req_per_s"] = statistics.median(rates)
        outcome.info["round_req_per_s"] = rates
        _serve_layer_values(outcome, [], before, after, total, replies)
        outcome.counters = counters
        outcome.units = total

    asyncio.run(body())
    return outcome


def _diagnose(j, i, line, inputs, leaders) -> str:
    """Why resubmission ``j`` does not match its leader (cold path)."""
    k = inputs.base_of[i]
    message = _decode_done(line)
    if message is None:
        return f"request {j} (base {k}): {line[:200]!r}"
    if k not in leaders:
        return f"request {j} (base {k}): no leader design to compare with"
    inverse = {new: old for old, new in inputs.names[i].items()}
    mapped = _relabeled_result(message["result"], inverse, "")
    leader = dict(leaders[k], design=dict(leaders[k]["design"], assay=""))
    differing = sorted(
        key for key in set(mapped) | set(leader)
        if mapped.get(key) != leader.get(key)
    )
    return (
        f"request {j} (base {k}): design mapped back through the inverse "
        f"relabeling differs from the leader's in {differing}"
    )


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(outcome: Outcome, spans, latency_s: float):
    """``(metrics, aggregate)`` of a traced run; metrics are per unit of
    work and map each name to ``(value, unit)``."""
    agg = tracing.aggregate(spans, outcome.unit_span)
    layers = agg["layers"]
    counters = outcome.counters
    units = max(1, outcome.units)

    def self_s(name: str) -> Tuple[float, str]:
        return layers.get(name, {}).get("self", 0.0) / units, "s/op"

    def calls(name: str) -> Tuple[float, str]:
        return layers.get(name, {}).get("count", 0) / units, "n/op"

    def counter(name: str) -> Tuple[float, str]:
        return counters.get(name, 0) / units, "n/op"

    def per_build(key: str) -> Tuple[float, str]:
        builds = layers.get("mapping_model.build", {})
        n = builds.get("count", 0)
        return (builds.get("args", {}).get(key, 0.0) / n if n else 0.0), "count"

    def arg_s(name: str, key: str) -> Tuple[float, str]:
        return layers.get(name, {}).get("args", {}).get(key, 0.0) / units, "s/op"

    extra = outcome.layer_values
    fraction = lambda key: (extra[key], "fraction")  # noqa: E731
    per_op = lambda key: (extra[key], "n/op")  # noqa: E731
    return {
        "core.synthesize_s": self_s("core.synthesize"),
        "assay.parse_s": self_s("assay.parse"),
        "assay.schedule_s": self_s("assay.schedule"),
        "mapping_model.build_s": self_s("mapping_model.build"),
        "mapping_model.builds": calls("mapping_model.build"),
        "mapping_model.vars": per_build("vars"),
        "mapping_model.constrs": per_build("constrs"),
        "mapping_model.nnz": per_build("nnz"),
        "mappers.map_s": self_s("mappers.map"),
        "mappers.windows": counter("mapper.windows"),
        "storage.repair_iterations": per_op("storage.repair_iterations"),
        "ilp.highs_s": self_s("ilp.highs"),
        "ilp.highs_solves": calls("ilp.highs"),
        "ilp.highs_nodes": counter("scipy.mip_nodes"),
        "ilp.bb_s": self_s("ilp.bb"),
        "ilp.presolve_s": self_s("ilp.presolve"),
        "ilp.lp_compile_s": self_s("ilp.lp_compile"),
        "ilp.lp_solves": calls("ilp.lp"),
        "ilp.lp_s": self_s("ilp.lp"),
        "ilp.simplex_iterations": counter("simplex.iterations"),
        "anytime.map_s": self_s("anytime.map"),
        "anytime.exact_wins": counter("anytime.race_winner_exact"),
        "anytime.heuristic_wins": counter("anytime.race_winner_heuristic"),
        "lns.run_s": self_s("lns.run"),
        "certify.offer_s": self_s("certify.offer"),
        "certify.offers": calls("certify.offer"),
        "certify.audit_s": self_s("certify.audit"),
        "routing.route_s": self_s("routing.route"),
        "routing.reroutes": counter("routing.reroutes"),
        "routing.heap_pops": counter("routing.heap_pops"),
        "actuation.account_s": self_s("actuation.account"),
        "resilience.rungs": per_op("resilience.rungs"),
        "resilience.routing_overruns": per_op("resilience.routing_overruns"),
        "resilience.degraded_frac": fraction("resilience.degraded_frac"),
        "resilience.slo_miss_frac": fraction("resilience.slo_miss_frac"),
        "serve.submit_s": self_s("serve.submit"),
        "serve.problem_key_s": self_s("serve.problem_key"),
        "serve.canonical_ids_s": self_s("serve.canonical_ids"),
        "serve.structure_table_s": self_s("serve.structure_table"),
        "serve.rename_s": self_s("serve.rename"),
        "serve.solve_s": self_s("serve.solve"),
        "serve.queue_wait_s": arg_s("serve.solve", "queue_wait"),
        "serve.hit_frac": fraction("serve.hit_frac"),
        "serve.coalesced_frac": fraction("serve.coalesced_frac"),
        "protocol.decode_s": self_s("protocol.decode"),
        "protocol.encode_s": self_s("protocol.encode"),
        "trace.coverage": (agg["coverage"], "fraction"),
        "trace.unit_share": (
            agg["unit_seconds"] / outcome.wall if outcome.wall else 0.0,
            "fraction",
        ),
        "trace.latency_s": (latency_s, "s"),
    }, agg


def run(name: str, seed: int, seconds: float, smoke: bool, tracer) -> Outcome:
    warnings.simplefilter("ignore", DegradedResultWarning)
    if name in ("table1_highs", "table1_budget"):
        return run_table1(name, seconds, smoke, tracer)
    if name == "serve_distinct":
        return run_serve_distinct(seconds, smoke, tracer)
    if name == "serve_repeat":
        return run_serve_repeat(seed, seconds, smoke, tracer)
    raise ValueError(f"unknown workload {name!r}")
