"""Serve-tier benchmark: ``python benchmarks/bench_serve.py [--check]``.

Exercises the synthesis-as-a-service engine (DESIGN.md §15) on three
load shapes and writes ``BENCH_serve.json``.  ``--check`` enforces the
tier's contract with absolute gates (no baseline file needed) and
writes its report only to an explicit ``--output``
(:mod:`bench_output`):

* **cache-hit latency** — resubmitting an already-solved assay is
  answered from the canonical cache with a p50 under
  :data:`CACHE_HIT_P50_LIMIT_SECONDS`;
* **coalescence** — under a duplicate-heavy "popular assay" load, at
  least :data:`COALESCENCE_FLOOR` of the duplicate submissions are
  served from the cache or coalesced onto an in-flight solve (i.e. the
  engine never solves the same canonical problem twice);
* **sheds, never crashes** — flooding a small-capacity engine past
  its queue produces explicit rejections and budget sheds, no escaped
  exception, and a still-ready engine afterwards;
* **every served result audited** — across all three load shapes, no
  completed job carries a failed audit.

Run with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from bench_output import add_output_argument, write_report

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_serve.json"

#: ``--check``: p50 over the cache-hit resubmissions must land under this.
CACHE_HIT_P50_LIMIT_SECONDS = 0.050

#: ``--check``: (cache hits + coalesced) / duplicate submissions floor.
COALESCENCE_FLOOR = 0.90

#: Resubmissions timed for the cache-hit percentile.
CACHE_HIT_SAMPLES = 30

#: Popular-assay load: this many distinct problems, each submitted
#: this many times with the duplicates interleaved.
POPULAR_DISTINCT = 4
POPULAR_COPIES = 8

#: Overload run: jobs fired at a queue of this capacity with one worker.
OVERLOAD_JOBS = 8
OVERLOAD_CAPACITY = 4

BASE_ASSAY = """# assay bench
input a volume=4
input b volume=4
mix m1 a b duration=6 volume=8 ratio=1:1
detect d1 m1 duration=2
"""


def _assay(duration: int) -> str:
    """A distinct canonical problem per mixing duration."""
    return BASE_ASSAY.replace("duration=6", f"duration={duration}")


def _config(**overrides):
    from repro.geometry import GridSpec
    from repro.serve.engine import ServeConfig

    defaults = dict(grid=GridSpec(8, 8), workers=2, time_budget=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _audit_failures(jobs) -> int:
    from repro.serve.protocol import JobState

    return sum(
        1
        for job in jobs
        if job.state == JobState.DONE
        and not (job.payload.get("audit") or {}).get("ok")
    )


def _warmup() -> None:
    """Absorb lazy solver imports so the first timed solve is honest."""
    from repro.serve.engine import ServeEngine

    async def body():
        async with ServeEngine(_config(workers=1)) as engine:
            job = await engine.submit(_assay(5))
            await job.wait()

    asyncio.run(body())


def run_cache_hit() -> Dict:
    """Solve once, then time the resubmissions served from the cache."""
    from repro.serve.engine import ServeEngine
    from repro.serve.protocol import JobState

    async def body():
        async with ServeEngine(_config(workers=1)) as engine:
            start = time.perf_counter()
            first = await engine.submit(_assay(6))
            await first.wait()
            solve_wall = time.perf_counter() - start
            assert first.state == JobState.DONE, first.error
            samples: List[float] = []
            jobs = [first]
            for _ in range(CACHE_HIT_SAMPLES):
                start = time.perf_counter()
                job = await engine.submit(_assay(6))
                await job.wait()
                samples.append(time.perf_counter() - start)
                jobs.append(job)
            hits = sum(1 for j in jobs[1:] if j.source == "cache")
            return {
                "samples": len(samples),
                "solve_seconds": round(solve_wall, 6),
                "p50_seconds": round(statistics.median(samples), 6),
                "max_seconds": round(max(samples), 6),
                "cache_hits": hits,
                "audit_failures": _audit_failures(jobs),
            }

    return asyncio.run(body())


def run_popular_load() -> Dict:
    """Duplicate-heavy load: every duplicate must coalesce or hit."""
    from repro.serve.engine import ServeEngine
    from repro.serve.protocol import JobState

    durations = [21 + i for i in range(POPULAR_DISTINCT)]

    async def body():
        config = _config(workers=2, queue_capacity=64)
        async with ServeEngine(config) as engine:
            jobs = []
            for _ in range(POPULAR_COPIES):
                for duration in durations:
                    jobs.append(await engine.submit(_assay(duration)))
            await asyncio.gather(*(job.wait() for job in jobs))
            sources = [job.source for job in jobs]
            duplicates = len(jobs) - POPULAR_DISTINCT
            served_cheap = sum(
                1 for s in sources if s in ("cache", "coalesced")
            )
            return {
                "submissions": len(jobs),
                "distinct_problems": POPULAR_DISTINCT,
                "solves": sources.count("solve"),
                "coalesced": sources.count("coalesced"),
                "cache_hits": sources.count("cache"),
                "failed": sum(
                    1 for j in jobs if j.state != JobState.DONE
                ),
                "coalescence": round(served_cheap / duplicates, 4),
                "audit_failures": _audit_failures(jobs),
            }

    return asyncio.run(body())


def run_overload() -> Dict:
    """Flood a small queue: explicit sheds and rejects, no crash."""
    from repro.serve.engine import ServeEngine
    from repro.serve.protocol import JobState

    async def body():
        config = _config(workers=1, queue_capacity=OVERLOAD_CAPACITY)
        crashed = False
        async with ServeEngine(config) as engine:
            jobs = []
            try:
                for i in range(OVERLOAD_JOBS):
                    jobs.append(await engine.submit(_assay(31 + i)))
                await asyncio.gather(*(job.wait() for job in jobs))
            except Exception:  # noqa: BLE001 - the gate is "no escape"
                crashed = True
            status = engine.status()
            return {
                "submitted": OVERLOAD_JOBS,
                "queue_capacity": OVERLOAD_CAPACITY,
                "done": sum(1 for j in jobs if j.state == JobState.DONE),
                "rejected": sum(
                    1 for j in jobs if j.state == JobState.REJECTED
                ),
                "shed": sum(1 for j in jobs if j.shed_multiplier < 1.0),
                "failed": sum(
                    1 for j in jobs if j.state == JobState.FAILED
                ),
                "ready_after": status["ready"],
                "crashed": crashed,
                "audit_failures": _audit_failures(jobs),
            }

    return asyncio.run(body())


def record() -> Dict:
    _warmup()
    report: Dict = {
        "schema": 1,
        "cache_hit": run_cache_hit(),
        "popular": run_popular_load(),
        "overload": run_overload(),
    }
    report["audit_failures"] = sum(
        report[key]["audit_failures"]
        for key in ("cache_hit", "popular", "overload")
    )
    return report


def check(report: Dict) -> List[str]:
    failures: List[str] = []
    hit = report["cache_hit"]
    if hit["p50_seconds"] >= CACHE_HIT_P50_LIMIT_SECONDS:
        failures.append(
            f"cache-hit p50 {hit['p50_seconds'] * 1000:.1f} ms "
            f"(>= {CACHE_HIT_P50_LIMIT_SECONDS * 1000:.0f} ms allowed)"
        )
    if hit["cache_hits"] < CACHE_HIT_SAMPLES:
        failures.append(
            f"only {hit['cache_hits']}/{CACHE_HIT_SAMPLES} resubmissions "
            "were served from the cache"
        )
    popular = report["popular"]
    if popular["coalescence"] < COALESCENCE_FLOOR:
        failures.append(
            f"popular-load coalescence {popular['coalescence']:.0%} "
            f"(< {COALESCENCE_FLOOR:.0%} floor)"
        )
    if popular["solves"] > popular["distinct_problems"]:
        failures.append(
            f"popular load solved {popular['solves']} times for "
            f"{popular['distinct_problems']} distinct problems"
        )
    if popular["failed"]:
        failures.append(
            f"{popular['failed']} popular-load jobs did not complete"
        )
    overload = report["overload"]
    if overload["crashed"]:
        failures.append("overload run let an exception escape submit/wait")
    if not overload["ready_after"]:
        failures.append("engine not ready after the overload run")
    if overload["rejected"] + overload["shed"] == 0:
        failures.append(
            "overload produced no explicit rejections or sheds "
            "(backpressure never engaged)"
        )
    if report["audit_failures"]:
        failures.append(
            f"{report['audit_failures']} served results failed their audit"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_output_argument(parser, DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when a serve gate is violated (cache-hit latency, "
        "coalescence floor, sheds-not-crashes, failed audits)",
    )
    args = parser.parse_args(argv)

    report = record()
    write_report(report, args.output, args.check, DEFAULT_OUTPUT)
    hit = report["cache_hit"]
    print(
        f"  cache hit: solve {hit['solve_seconds']:.3f}s once, then "
        f"p50 {hit['p50_seconds'] * 1000:.2f} ms over "
        f"{hit['samples']} resubmissions"
    )
    popular = report["popular"]
    print(
        f"  popular load: {popular['submissions']} submissions over "
        f"{popular['distinct_problems']} problems -> {popular['solves']} "
        f"solves, {popular['coalesced']} coalesced, "
        f"{popular['cache_hits']} cache hits "
        f"({popular['coalescence']:.0%} coalescence)"
    )
    overload = report["overload"]
    print(
        f"  overload: {overload['submitted']} jobs at capacity "
        f"{overload['queue_capacity']} -> {overload['done']} done, "
        f"{overload['rejected']} rejected, {overload['shed']} shed, "
        f"ready={overload['ready_after']}"
    )

    if args.check:
        failures = check(report)
        if failures:
            print("SERVE BENCHMARK GATES FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("serve gates passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
