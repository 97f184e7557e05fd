"""Smoke test of the end-to-end benchmark.

Run from the repository root (about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both passes of ``run.py --smoke`` over all four workloads."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--seed", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text())


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    runs = {(run["workload"], run["trace"]): run for run in smoke["runs"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section, declared in (
            (False, "end_to_end", SPEC["end_to_end"]),
            (True, "per_layer", SPEC["per_layer"]),
        ):
            run = runs[(workload, trace)]
            assert run["correct"] and run["failed"] == 0, run["violations"]
            emitted = run[section]
            for metric in declared:
                assert emitted[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(emitted[metric["name"]]["value"], float | int)
            if not trace:
                assert all(entry["value"] > 0 for entry in emitted.values())


def test_same_seed_same_inputs_other_seed_other_serve_inputs():
    assert workloads.distinct_texts(6) == workloads.distinct_texts(6)
    same = workloads.repeat_inputs(3), workloads.repeat_inputs(3)
    other = workloads.repeat_inputs(4)
    assert same[0].bases == same[1].bases == other.bases
    assert same[0].texts == same[1].texts and same[0].order == same[1].order
    assert same[0].texts != other.texts


def _synthesize_traced():
    from repro.assays.registry import get_case, schedule_for
    from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig

    case = get_case("pcr")
    graph = case.graph()
    schedule = schedule_for(case, case.policies(1)[0])
    with tracing.Tracer() as tracer:
        # A budget takes the anytime race: its exact lane runs on a
        # thread of its own, so the trace has more than one root track.
        config = SynthesisConfig(grid=case.grid, time_budget=0.5)
        ReliabilitySynthesizer(config).synthesize(graph, schedule)
        for thread in threading.enumerate():
            if thread.name == "anytime-exact":
                thread.join(60.0)  # a lane may outlive the race
    return tracer


def test_child_spans_lie_inside_their_parents():
    tracer = _synthesize_traced()
    by_id = {span.id: span for span in tracer.spans}
    children = [span for span in tracer.spans if span.parent is not None]
    assert children and len(tracer.threads) >= 2
    for span in children:
        parent = by_id[span.parent]
        assert parent.thread == span.thread
        assert parent.start <= span.start <= span.end <= parent.end


def test_every_patched_callable_is_restored():
    def current():
        found = []
        for target, *_ in tracing.PATCH_POINTS:
            owner, attribute = tracing._resolve(target)
            found.append(vars(owner).get(attribute, getattr(owner, attribute)))
        return found

    before = current()
    with tracing.Tracer():
        inside = current()
    after = current()
    assert all(a is not b for a, b in zip(before, inside))
    assert all(a is b for a, b in zip(before, after))
