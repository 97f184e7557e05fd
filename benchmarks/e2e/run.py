#!/usr/bin/env python3
"""End-to-end benchmark of the synthesis stack: Table 1 and served traffic.

One workload, in this process (the form of ``BENCHMARK.json``'s command)::

    python3 benchmarks/e2e/run.py --workload table1_highs --seed 1 \\
        --seconds 20 --trace 0

prints every metric by name and unit, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1`` (which also writes a Chrome trace under ``out/``).

All four workloads, each in its own subprocess::

    python3 benchmarks/e2e/run.py --seed 1 [--trace] [--out F] [--smoke]

runs the untraced pass and, with ``--trace``, the traced pass after it,
prints one table per pass plus the tracing overhead, and writes every
report to ``F``.  Exit status is 0 only when every oracle passed and no
operation failed.  ``--smoke`` shrinks every workload to a few seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _declared(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g}  {entry['unit']}")


def run_workload(args, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import tracing
    import workloads

    import_s = time.perf_counter() - started
    tracer = tracing.Tracer() if args.trace else None
    with tracer if tracer is not None else nullcontext():
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, args.smoke, tracer
        )

    values = dict(outcome.metrics)
    values["setup_s"] = import_s + statistics.median(outcome.setup_runs)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "import_s": import_s,
        "setup_runs_s": outcome.setup_runs,
        "info": outcome.info,
        "rows": outcome.rows,
        "violations": outcome.violations,
    }
    declared = _declared(spec, bool(args.trace))
    if tracer is None:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
        }
        report["end_to_end"] = metrics
    else:
        layers, agg = workloads.layer_metrics(
            outcome, tracer.spans, values["latency_s"]
        )
        metrics = {
            name: {"value": layers[name][0], "unit": unit}
            for name, unit in declared.items()
        }
        report["per_layer"] = metrics
        report["spans"] = {
            name: {k: row[k] for k in ("count", "incl", "self")}
            for name, row in sorted(agg["layers"].items())
        }
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(
            str(trace_path),
            {"workload": args.workload, "seed": args.seed, "counters": outcome.counters},
        )
        report["trace_file"] = str(trace_path.relative_to(ROOT))

    correct = not outcome.violations
    report.update(correct=correct, attempted=outcome.attempted, failed=outcome.failed)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if tracer else 'untraced'}  "
          f"attempted {outcome.attempted}  failed {outcome.failed}")
    for row in outcome.rows:
        print(
            f"  {row['row']:<28} {row['runtime_s']:>8.3f}s (paper "
            f"{row['paper_runtime_s']:>5}s)  vs1 {row['vs1']:>8} ({row['paper_vs1']})"
            f"  vs2 {row['vs2']:>7} ({row['paper_vs2']})  #v {row['valves']}"
            f" ({row['paper_valves']})"
        )
    for key, value in outcome.info.items():
        print(f"  {key}: {value}")
    for message in outcome.violations:
        print(f"  VIOLATION: {message}")
    _print_metrics("metrics:", metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct and not outcome.failed else 1


def run_all(args, spec: dict) -> int:
    OUT.mkdir(exist_ok=True)
    status = 0
    runs = []
    for trace in ((0, 1) if args.trace else (0,)):
        for workload in (w["name"] for w in spec["workloads"]):
            path = OUT / f"{workload}-seed{args.seed}-trace{trace}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(path),
            ] + (["--smoke"] if args.smoke else [])
            code = subprocess.run(command, cwd=ROOT).returncode
            status = status or code
            if code not in (0, 1):
                print(f"error: {workload} exited with {code}", file=sys.stderr)
                continue
            runs.append(json.loads(path.read_text()))

    print("\nsummary (seed %d)" % args.seed)
    for run in runs:
        metrics = run.get("end_to_end") or run.get("per_layer")
        _print_metrics(
            f"{run['workload']} ({'traced' if run['trace'] else 'untraced'}, "
            f"correct={run['correct']}, failed {run['failed']}/{run['attempted']})",
            metrics,
        )
    plain = {
        run["workload"]: run["end_to_end"]["latency_s"]["value"]
        for run in runs if not run["trace"]
    }
    overhead = {
        run["workload"]: run["per_layer"]["trace.latency_s"]["value"]
        / plain[run["workload"]] - 1
        for run in runs if run["trace"] and run["workload"] in plain
    }
    for workload, share in overhead.items():
        print(f"tracing overhead on latency_s, {workload}: {share:+.1%}")
    if args.out:
        combined = {
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "runs": runs,
            "tracing_overhead": overhead,
        }
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1 (or bare --trace): report the per-layer metrics",
    )
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument(
        "--smoke", action="store_true", help="a few seconds per workload"
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
