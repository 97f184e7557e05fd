"""The serve engine end-to-end: solve, cache, coalesce, shed, reject."""

import asyncio
import json
import types

import pytest

from repro.assay.operation import Operation
from repro.assay.sequencing_graph import SequencingGraph
from repro.assay.textio import graph_to_text
from repro.assays.fuzzer import fuzz_graph
from repro.errors import AssaySpecError
from repro.geometry import GridSpec
from repro.serve import canonical
from repro.serve import engine as engine_module
from repro.serve.breaker import OPEN
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.protocol import JobState, ProtocolError

ASSAY = """# assay demo
input a volume=4
input b volume=4
mix m1 a b duration=6 volume=8 ratio=1:1
detect d1 m1 duration=2
"""

#: same problem, different labels (device names must come back renamed).
RELABELED = """# assay other
input x volume=4
input y volume=4
mix core x y duration=6 volume=8 ratio=1:1
detect probe core duration=2
"""


def _relabel(graph, names):
    """``graph`` with every operation renamed through ``names``.

    Insertion order (and so the list schedule) is unchanged.
    """
    out = SequencingGraph(graph.name + "-relabeled")
    for op in graph.operations():
        out.add_operation(
            Operation(names[op.name], op.kind, op.duration, op.volume, op.ratio)
        )
    for op in graph.operations():
        for parent in graph.parents(op.name):
            out.add_dependency(names[parent.name], names[op.name])
    return out


def config(**overrides):
    defaults = dict(grid=GridSpec(8, 8), workers=2, time_budget=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def run(coro):
    return asyncio.run(coro)


class TestSolvePath:
    def test_solve_serves_an_audited_design(self):
        async def body():
            async with ServeEngine(config()) as engine:
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.DONE, job.error
                assert job.source == "solve"
                payload = job.payload
                assert payload["served"] == "solve"
                assert payload["audit"] is not None
                assert payload["audit"]["ok"] is True
                assert payload["metrics"]["used_valves"] > 0
                names = {d["operation"] for d in payload["design"]["devices"]}
                assert names == {"m1"}
                assert "table" not in payload  # server-side only

        run(body())

    def test_malformed_spec_is_a_client_error(self):
        async def body():
            async with ServeEngine(config()) as engine:
                with pytest.raises(AssaySpecError) as info:
                    await engine.submit("input\nmix broken\n")
                assert info.value.line == 1
                assert engine.submitted == 0  # no job was created

        run(body())

    def test_ill_typed_arguments_are_client_errors(self):
        """Nothing off the wire is trusted: bad types never reach a worker."""

        async def body():
            async with ServeEngine(config()) as engine:
                for budget in ("3", True, 0, -1.0, float("nan"), float("inf")):
                    with pytest.raises(ProtocolError, match="time_budget"):
                        await engine.submit(ASSAY, time_budget=budget)
                with pytest.raises(ProtocolError, match="assay"):
                    await engine.submit(12345)
                with pytest.raises(ProtocolError, match="schedule"):
                    await engine.submit(ASSAY, {"not": "text"})
                assert engine.submitted == 0
                # The engine still works afterwards.
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.DONE

        run(body())


class TestWorkerResilience:
    def test_unexpected_exception_fails_job_not_worker(self):
        """A poison request settles (with its followers) and the worker
        pool survives to serve the next submission."""

        async def body():
            async with ServeEngine(config(workers=1)) as engine:
                original = engine._solve

                def poisoned(job):
                    raise RuntimeError("boom")

                engine._solve = poisoned
                leader = await engine.submit(ASSAY)
                follower = await engine.submit(ASSAY)
                await asyncio.gather(leader.wait(), follower.wait())
                assert leader.state == JobState.FAILED
                assert "RuntimeError" in leader.error["error"]
                assert follower.state == JobState.FAILED
                # All workers are still alive...
                assert engine.status()["workers"] == 1
                # ...and the next (healthy) submission completes.
                engine._solve = original
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.DONE, job.error

        run(body())

    def test_settled_state_is_pruned(self):
        """Settled jobs and finished follower tasks do not accumulate."""

        async def body():
            async with ServeEngine(config()) as engine:
                # Leader + two coalesced followers (two follower tasks).
                jobs = [await engine.submit(ASSAY) for _ in range(3)]
                await asyncio.gather(*(j.wait() for j in jobs))
                # add_done_callback pruning runs on the loop; yield once.
                await asyncio.sleep(0)
                assert engine.jobs == {}
                assert len(engine._tasks) == 2
                assert all(t.done() for t in engine._tasks)
                # The next coalesced submission prunes the dead tasks.
                variant = ASSAY.replace("duration=6", "duration=7")
                a = await engine.submit(variant)
                b = await engine.submit(variant)
                assert len(engine._tasks) == 1
                await asyncio.gather(a.wait(), b.wait())

        run(body())

    def test_latency_samples_are_bounded(self):
        async def body():
            async with ServeEngine(config(latency_window=4)) as engine:
                first = await engine.submit(ASSAY)
                await first.wait()
                for _ in range(10):
                    job = await engine.submit(ASSAY)
                    await job.wait()
                assert len(engine._latency["cache"]) == 4

        run(body())


class TestBreakerAudit:
    def test_breaker_open_degraded_result_must_pass_audit(self):
        """The serving invariant holds on the degraded path: a greedy
        answer with a failing audit fails the job, it is never served."""

        async def body():
            async with ServeEngine(config(workers=1)) as engine:
                engine.breaker.allow = lambda key: OPEN
                original = engine._synthesize

                def tainted(job, mapper=None, budget=None):
                    result = original(job, mapper=mapper, budget=budget)
                    result.audit = types.SimpleNamespace(
                        ok=False,
                        summary=lambda: "forced audit failure",
                        as_dict=lambda: {"ok": False},
                    )
                    return result

                engine._synthesize = tainted
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.FAILED
                assert "audit failed" in job.error["error"]
                assert engine.degraded_served == 0

        run(body())


class TestCachePath:
    def test_identical_resubmission_hits_the_cache(self):
        async def body():
            async with ServeEngine(config()) as engine:
                first = await engine.submit(ASSAY)
                await first.wait()
                second = await engine.submit(ASSAY)
                await second.wait()
                assert second.source == "cache"
                assert second.state == JobState.DONE
                assert second.payload["design"] == first.payload["design"]
                assert engine.cache.hits == 1

        run(body())

    def test_relabeled_resubmission_renames_the_design(self):
        async def body():
            async with ServeEngine(config()) as engine:
                first = await engine.submit(ASSAY)
                await first.wait()
                second = await engine.submit(RELABELED)
                await second.wait()
                assert second.source == "cache", second.error
                names = {
                    d["operation"] for d in second.payload["design"]["devices"]
                }
                assert names == {"core"}
                assert second.payload["design"]["assay"] == "other"
                # Same placements, different labels.
                rects = {
                    (d["x"], d["y"], d["width"], d["height"])
                    for d in second.payload["design"]["devices"]
                }
                assert rects == {
                    (d["x"], d["y"], d["width"], d["height"])
                    for d in first.payload["design"]["devices"]
                }

        run(body())

    @staticmethod
    def _hit_after(first_text, second_text):
        """Solve ``first_text``, then serve ``second_text`` from cache."""

        async def body():
            async with ServeEngine(config()) as engine:
                first = await engine.submit(first_text)
                await first.wait()
                assert first.state == JobState.DONE, first.error
                second = await engine.submit(second_text)
                await second.wait()
                assert second.source == "cache", second.error
                return first.payload["design"], second.payload["design"]

        return run(body())

    @staticmethod
    def _assert_renamed(first, second, names):
        """Port ends keep their names; operation ends take ``names``."""
        ports = {p["name"] for p in first["ports"]}
        assert len(first["routes"]) == len(second["routes"]) > 0
        for old, new in zip(first["routes"], second["routes"]):
            for end in ("source", "target"):
                if old[f"{end}_is_port"]:
                    assert old[end] in ports
                    assert new[end] == old[end], (end, old, new)
                else:
                    assert new[end] == names[old[end]], (end, old, new)

    def test_relabeled_fuzz_hit_keeps_port_names(self):
        # The fuzzer names its inputs in0, in1, ... like the chip's input
        # ports: a relabeled hit must still load from port in0, not from
        # the requester's label for the *operation* in0.
        graph = fuzz_graph(1, 12)
        names = {op.name: f"r{k}" for k, op in enumerate(graph.operations())}
        first, second = self._hit_after(
            graph_to_text(graph), graph_to_text(_relabel(graph, names))
        )
        assert any(r["source"] == "in0" for r in first["routes"])
        served_ends = {r[e] for r in second["routes"] for e in ("source", "target")}
        assert served_ends <= {p["name"] for p in second["ports"]} | {
            names[op.name] for op in graph.mix_operations()
        }
        self._assert_renamed(first, second, names)

    def test_mix_named_like_a_port_is_renamed_alone(self):
        # The mix op "out0" sends its product to output port "out0": only
        # the operation end of that route takes the requester's label.
        named_like_port = ASSAY.replace("m1", "out0")
        first, second = self._hit_after(named_like_port, RELABELED)
        removal = [(r["source"], r["target"]) for r in second["routes"]
                   if r["target"] == "out0"]
        assert removal == [("core", "out0")]
        self._assert_renamed(
            first, second, {"a": "x", "b": "y", "out0": "core", "d1": "probe"}
        )

    def test_disk_cache_round_trip(self, tmp_path):
        async def body():
            directory = str(tmp_path / "cache")
            async with ServeEngine(config(cache_dir=directory)) as engine:
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.DONE
            # A *fresh* engine (fresh process, conceptually) hits disk.
            async with ServeEngine(config(cache_dir=directory)) as fresh:
                job = await fresh.submit(ASSAY)
                await job.wait()
                assert job.source == "cache"

        run(body())

    def test_structure_mismatch_counts_a_miss(self):
        # A key match whose structure table disagrees is solved, not
        # served, so the cache must count it as a miss.
        async def body():
            async with ServeEngine(config()) as solver:
                first = await solver.submit(ASSAY)
                await first.wait()
                stored = solver.cache.lookup(first.key)
            async with ServeEngine(config()) as engine:
                engine.cache.store(first.key, {**stored, "table": {"x": {}}})
                job = await engine.submit(ASSAY)
                await job.wait()
                assert job.state == JobState.DONE, job.error
                assert job.source == "solve"
                assert (engine.cache.hits, engine.cache.misses) == (0, 1)
                assert engine.status()["cache"]["hits"] == 0.0

        run(body())

    def test_served_payloads_share_nothing_with_the_cache(self):
        async def body():
            async with ServeEngine(config()) as engine:
                leader = await engine.submit(ASSAY)
                await leader.wait()
                hit = await engine.submit(RELABELED)
                await hit.wait()
                assert hit.source == "cache", hit.error
                original = json.loads(json.dumps(hit.payload))
                design = hit.payload["design"]
                design["valves"][0]["roles"].append("tampered")
                design["routes"][0]["cells"][0][0] = -1
                design["routes"][0]["cells"].append([-1, -1])
                hit.payload["metrics"]["used_valves"] = -1
                hit.payload["audit"]["ok"] = False
                hit.payload["audit"]["checks"].append("tampered")
                again = await engine.submit(RELABELED)
                await again.wait()
                assert again.source == "cache", again.error
                assert again.payload == original

        run(body())


class TestOneCanonicalPass:
    """Each submission canonicalizes once (DESIGN.md §15.1)."""

    def test_hit_and_solve_each_refine_once(self, monkeypatch):
        calls = {}
        names = (
            "operation_fingerprints",
            "problem_key",
            "canonical_ids",
            "structure_table",
        )
        for name in names:
            original = getattr(canonical, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            # The fingerprints wherever they are looked up; the three
            # spans the benchmark tracer hooks, in the engine's namespace.
            if name == "operation_fingerprints":
                monkeypatch.setattr(canonical, name, wrapper)
            monkeypatch.setattr(engine_module, name, wrapper, raising=False)
        once = dict.fromkeys(names, 1)

        async def body():
            async with ServeEngine(config()) as engine:
                solved = await engine.submit(ASSAY)
                await solved.wait()
                assert solved.source == "solve", solved.error
                assert calls == once
                calls.clear()
                hit = await engine.submit(RELABELED)
                await hit.wait()
                assert hit.source == "cache", hit.error
                assert calls == once

        run(body())


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_solve(self):
        async def body():
            async with ServeEngine(config(workers=1)) as engine:
                jobs = [await engine.submit(ASSAY) for _ in range(4)]
                await asyncio.gather(*(j.wait() for j in jobs))
                sources = sorted(j.source for j in jobs)
                assert sources == ["coalesced"] * 3 + ["solve"]
                assert all(j.state == JobState.DONE for j in jobs)
                assert engine.flights.coalesced == 3
                # One solve fed four answers.
                assert engine.completed == 1

        run(body())


class TestAdmission:
    def test_full_queue_rejects_explicitly(self):
        async def body():
            # No workers started: the queue only fills.
            engine = ServeEngine(config(queue_capacity=2))
            variants = [
                ASSAY.replace("duration=6", f"duration={d}")
                for d in (11, 12, 13)
            ]
            first = await engine.submit(variants[0])
            second = await engine.submit(variants[1])
            third = await engine.submit(variants[2])
            assert first.state == JobState.QUEUED
            assert second.state == JobState.QUEUED
            assert third.state == JobState.REJECTED
            assert "queue full" in third.error["error"]

        run(body())

    def test_filling_queue_sheds_budget(self):
        async def body():
            engine = ServeEngine(config(queue_capacity=4))
            variants = [
                ASSAY.replace("duration=6", f"duration={d}")
                for d in (11, 12, 13, 14)
            ]
            jobs = [await engine.submit(v) for v in variants]
            assert [j.shed_multiplier for j in jobs] == [1.0, 1.0, 0.5, 0.25]

        run(body())

    def test_shed_solve_records_the_rung(self):
        async def body():
            engine = ServeEngine(config(queue_capacity=2, workers=1))
            # Prefill to depth 1 so the next submission sheds.
            blocker = await engine.submit(
                ASSAY.replace("duration=6", "duration=9")
            )
            shed = await engine.submit(ASSAY)
            assert shed.shed_multiplier == 0.5
            await engine.start()
            await asyncio.gather(blocker.wait(), shed.wait())
            await engine.stop()
            assert shed.state == JobState.DONE, shed.error
            rungs = shed.payload["resilience"]["rungs"]
            assert rungs.get("serve_shed") == 1

        run(body())


class TestStatus:
    def test_status_shape_and_readiness(self):
        async def body():
            engine = ServeEngine(config())
            assert engine.status()["ready"] is False
            async with engine:
                status = engine.status()
                assert status["ready"] is True
                assert status["workers"] == 2
                assert status["queue"] == {"depth": 0, "capacity": 16}
                job = await engine.submit(ASSAY)
                await job.wait()
                status = engine.status()
                assert status["jobs"]["completed"] == 1
                assert status["latency"]["solve"]["count"] == 1
                assert status["latency"]["solve"]["p50"] > 0

        run(body())
