"""Unit tests for the deterministic fault injector."""

import pytest

from repro.resilience import FAULTS, FaultInjector, FaultSpec


@pytest.fixture
def injector():
    return FaultInjector()


class TestArming:
    def test_disarmed_by_default(self, injector):
        assert not injector.armed

    def test_inject_arms_and_disarms(self, injector):
        with injector.inject({"x": 1}):
            assert injector.armed
        assert not injector.armed

    def test_disarms_on_error(self, injector):
        with pytest.raises(RuntimeError, match="boom"):
            with injector.inject({"x": 1}):
                raise RuntimeError("boom")
        assert not injector.armed

    def test_double_arm_rejected(self, injector):
        with injector.inject({"x": 1}):
            with pytest.raises(RuntimeError, match="already armed"):
                with injector.inject({"y": 1}):
                    pass

    def test_fired_counts_survive_disarm(self, injector):
        with injector.inject({"x": 2}):
            assert injector.should_fire("x")
            assert injector.should_fire("x")
        assert injector.fired("x") == 2
        assert injector.fired() == {"x": 2}


class TestPlans:
    def test_int_plan_fires_n_times(self, injector):
        with injector.inject({"x": 2}):
            fires = [injector.should_fire("x") for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_after_skips_leading_calls(self, injector):
        with injector.inject({"x": FaultSpec(times=1, after=2)}):
            fires = [injector.should_fire("x") for _ in range(5)]
        assert fires == [False, False, True, False, False]

    def test_times_none_fires_every_call(self, injector):
        with injector.inject({"x": FaultSpec(times=None)}):
            assert all(injector.should_fire("x") for _ in range(10))

    def test_mapping_plan_normalized(self, injector):
        with injector.inject({"x": {"times": 1, "after": 1}}):
            assert not injector.should_fire("x")
            assert injector.should_fire("x")

    def test_bad_plan_rejected(self, injector):
        with pytest.raises(TypeError):
            with injector.inject({"x": "often"}):
                pass

    def test_unplanned_site_never_fires(self, injector):
        with injector.inject({"x": 1}):
            assert not injector.should_fire("y")
        assert injector.fired("y") == 0


class TestDeterminism:
    def probabilistic_run(self, seed):
        injector = FaultInjector()
        with injector.inject(
            {"x": FaultSpec(times=None, prob=0.5)}, seed=seed
        ):
            return [injector.should_fire("x") for _ in range(32)]

    def test_same_seed_same_fires(self):
        assert self.probabilistic_run(7) == self.probabilistic_run(7)

    def test_different_seed_different_fires(self):
        assert self.probabilistic_run(1) != self.probabilistic_run(2)

    def test_reentry_replays_the_same_stream(self, injector):
        """Re-arming resets the crc32(site)^seed RNGs: the probabilistic
        stream replays identically across inject re-entry."""
        plan = {"x": FaultSpec(times=None, prob=0.5)}
        streams = []
        for _ in range(2):
            with injector.inject(plan, seed=9):
                streams.append(
                    [injector.should_fire("x") for _ in range(32)]
                )
        assert streams[0] == streams[1]

    def test_sites_draw_independent_streams(self, injector):
        plan = {
            "a": FaultSpec(times=None, prob=0.5),
            "b": FaultSpec(times=None, prob=0.5),
        }
        with injector.inject(plan, seed=3):
            a = [injector.should_fire("a") for _ in range(32)]
            b = [injector.should_fire("b") for _ in range(32)]
        assert a != b  # site key is part of the RNG seed


class TestModuleSingleton:
    def test_production_singleton_disarmed(self):
        assert not FAULTS.armed

    def test_all_documented_sites_exist_in_code(self):
        """The module docstring's site table lists exactly the sites the
        code checks: a site that loses its ``should_fire`` call but keeps
        its row fails, and so does a new call with no row."""
        import pathlib
        import re

        import repro
        import repro.resilience.faults as faults_module

        table = faults_module.__doc__.split("\n=====")[1:3]
        assert len(table) == 2, "site table not found in the docstring"
        documented = set(re.findall(r"^``([\w.]+)``", table[1], re.M))
        src = pathlib.Path(repro.__file__).parent
        checked = {
            site
            for path in src.rglob("*.py")
            for site in re.findall(
                r'should_fire\(\s*"([^"]+)"\s*\)', path.read_text()
            )
        }
        assert len(documented) >= 10
        assert documented == checked


class TestChipSitesZeroOverhead:
    """The chip.* sites cost one attribute read when disarmed."""

    def test_disarmed_injected_failures_never_consult_the_plan(
        self, monkeypatch
    ):
        from repro.geometry import Point
        from repro.resilience import FailureModel, FailureProcess
        import repro.resilience.faults as faults_module

        process = FailureProcess(FailureModel())

        def boom(self, site):  # pragma: no cover - must not run
            raise AssertionError("should_fire consulted while disarmed")

        monkeypatch.setattr(faults_module.FaultInjector, "should_fire", boom)
        assert not faults_module.FAULTS.armed
        dead_c, dead_e = process.injected_failures({Point(0, 0): 1}, {})
        assert dead_c == [] and dead_e == []

    def test_armed_chip_sites_kill_the_most_worn_resource(self):
        from repro.geometry import Point
        from repro.architecture.channel_edges import ChannelEdge
        from repro.resilience import FAULTS, FailureModel, FailureProcess

        process = FailureProcess(FailureModel())
        cells = {Point(0, 0): 5, Point(1, 0): 9}
        edges = {
            ChannelEdge(0, 0, horizontal=True): 3,
            ChannelEdge(0, 0, horizontal=False): 8,
        }
        with FAULTS.inject({"chip.valve_dead": 1, "chip.edge_dead": 1}):
            dead_c, dead_e = process.injected_failures(cells, edges)
        assert dead_c == [Point(1, 0)]
        assert dead_e == [ChannelEdge(0, 0, horizontal=False)]
