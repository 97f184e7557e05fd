"""Chaos suite for the crash-safety layer (DESIGN.md §14).

Mirrors :mod:`tests.resilience.test_chaos`: each test arms one of the
four new fault sites, runs a full synthesis in supervised and/or
checkpointed mode, and asserts the run degrades along the intended
rung while the result still executes on the chip simulator.
"""

import warnings

import pytest

from repro.core.mappers import ILPMapper, WindowedILPMapper
from repro.core.simulation import ChipSimulator
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.errors import (
    CorruptJournalWarning,
    DegradedResultWarning,
    SolverError,
)
from repro.geometry import GridSpec
from repro.resilience import FAULTS, DegradationLadder

from tests.conftest import build_tiny_assay


def synthesize_tiny(expect_degraded=True, grid=GridSpec(8, 8), **config_kwargs):
    graph, schedule = build_tiny_assay()
    config = SynthesisConfig(grid=grid, **config_kwargs)
    synthesizer = ReliabilitySynthesizer(config)
    if expect_degraded:
        with pytest.warns(DegradedResultWarning):
            return synthesizer.synthesize(graph, schedule)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegradedResultWarning)
        return synthesizer.synthesize(graph, schedule)


def assert_simulator_valid(result):
    report = ChipSimulator(result).run()
    assert report.products_delivered >= 1


class TestWorkerSites:
    def test_worker_crash_retries_and_recovers(self):
        with FAULTS.inject({"worker.crash": 1}):
            result = synthesize_tiny(supervised=True)
            assert FAULTS.fired("worker.crash") == 1
        assert result.resilience.count(DegradationLadder.WORKER_RETRY) >= 1
        assert result.resilience.count(DegradationLadder.WORKER_SERIAL) == 0
        assert_simulator_valid(result)

    def test_worker_hang_is_killed_and_retried(self):
        with FAULTS.inject({"worker.hang": 1}):
            result = synthesize_tiny(supervised=True)
        assert result.resilience.count(DegradationLadder.WORKER_RETRY) >= 1
        assert_simulator_valid(result)

    def test_worker_oom_is_killed_and_retried(self):
        with FAULTS.inject({"worker.oom": 1}):
            result = synthesize_tiny(supervised=True)
        assert result.resilience.count(DegradationLadder.WORKER_RETRY) >= 1
        assert_simulator_valid(result)

    @pytest.mark.parametrize("time_budget", [None, 3.0])
    def test_every_attempt_lost_falls_back_to_serial(self, time_budget):
        # Enough planned crashes to exhaust all retries of the first
        # supervised solve: the mapper must re-solve in-process (the
        # worker_serial rung), not fail the synthesis.  With a budget
        # the solve is the anytime race's exact lane, and the rung it
        # engages must still reach the run's report.  On 8x8 the packer
        # meets the peak floor (40) and the race starts no exact lane;
        # on 5x5 the optimum is 80, so the lane must run.
        grid = GridSpec(8, 8) if time_budget is None else GridSpec(5, 5)
        with FAULTS.inject({"worker.crash": 3}):
            result = synthesize_tiny(
                supervised=True, time_budget=time_budget, grid=grid
            )
        assert result.resilience.count(DegradationLadder.WORKER_SERIAL) >= 1
        if time_budget is not None:
            assert result.metrics.mapper == "anytime"
        assert_simulator_valid(result)

    def test_shrunk_window_halves_report_their_lost_workers(
        self, monkeypatch
    ):
        # The full window's workers are all lost and its serial
        # re-solve fails, so the window is split; each half then loses
        # its workers too.  Every half's worker_serial must reach the
        # run's report, next to the window's own.
        original = ILPMapper.solve_built
        calls = []

        def fail_first(self, built, limit):
            calls.append(1)
            if len(calls) == 1:
                raise SolverError("serial window re-solve failed")
            return original(self, built, limit)

        monkeypatch.setattr(ILPMapper, "solve_built", fail_first)
        with FAULTS.inject({"worker.crash": 9}):
            result = synthesize_tiny(
                supervised=True, mapper=WindowedILPMapper(window_size=3)
            )
            assert FAULTS.fired("worker.crash") == 9
        report = result.resilience
        assert report.count(DegradationLadder.WINDOW_SHRINK) == 1
        assert report.count(DegradationLadder.WORKER_SERIAL) == 3
        assert_simulator_valid(result)

    def test_unfaulted_supervised_run_is_clean(self):
        result = synthesize_tiny(supervised=True, expect_degraded=False)
        assert result.resilience is None or not result.resilience.degraded
        assert_simulator_valid(result)


class TestCheckpointSite:
    def test_corrupt_append_costs_one_resolve(self, tmp_path):
        # Windowed mapping writes one record per window, so flipping a
        # single append still leaves intact records to replay from.
        ckpt = str(tmp_path)
        with FAULTS.inject({"checkpoint.corrupt": 1}):
            first = synthesize_tiny(
                expect_degraded=False,
                checkpoint=ckpt,
                mapper=WindowedILPMapper(window_size=2),
            )
            assert FAULTS.fired("checkpoint.corrupt") == 1

        # The resumed run loads the damaged journal: the flipped record
        # warns and misses, every intact record replays, and the final
        # design matches the uninterrupted one.  (One recording context
        # for both categories — nested pytest.warns would swallow the
        # inner capture.)
        graph, schedule = build_tiny_assay()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = ReliabilitySynthesizer(
                SynthesisConfig(
                    grid=GridSpec(8, 8),
                    checkpoint=ckpt,
                    mapper=WindowedILPMapper(window_size=2),
                )
            ).synthesize(graph, schedule)
        categories = {w.category for w in caught}
        assert CorruptJournalWarning in categories
        assert DegradedResultWarning in categories
        assert second.resilience.count(
            DegradationLadder.CHECKPOINT_RESUME
        ) >= 1
        assert second.metrics.mapping_objective == (
            first.metrics.mapping_objective
        )
        assert_simulator_valid(second)

    def test_clean_checkpoint_resume_replays_everything(self, tmp_path):
        ckpt = str(tmp_path)
        first = synthesize_tiny(expect_degraded=False, checkpoint=ckpt)
        second = synthesize_tiny(checkpoint=ckpt)
        mapping_stats = second.metrics  # resumed run, same design
        assert second.resilience.count(
            DegradationLadder.CHECKPOINT_RESUME
        ) >= 1
        assert mapping_stats.mapping_objective == (
            first.metrics.mapping_objective
        )
        assert_simulator_valid(second)
