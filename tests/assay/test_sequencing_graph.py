"""Unit tests for the sequencing graph DAG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssayError
from repro.assay.operation import OperationKind
from repro.assay.sequencing_graph import SequencingGraph
from repro.assays.fuzzer import fuzz_graph


def small_graph():
    g = SequencingGraph("g")
    g.add_input("i0")
    g.add_input("i1")
    g.add_mix("a", ("i0", "i1"), duration=4, volume=8)
    g.add_input("i2")
    g.add_mix("b", ("a", "i2"), duration=4, volume=8)
    g.add_detect("d", "b", duration=2)
    return g


class TestConstruction:
    def test_duplicate_names_rejected(self):
        g = SequencingGraph()
        g.add_input("x")
        with pytest.raises(AssayError):
            g.add_input("x")

    def test_unknown_parent_rejected(self):
        g = SequencingGraph()
        g.add_input("x")
        with pytest.raises(AssayError):
            g.add_dependency("nope", "x")

    def test_self_edge_rejected(self):
        g = SequencingGraph()
        g.add_input("x")
        with pytest.raises(AssayError):
            g.add_dependency("x", "x")

    def test_duplicate_edge_rejected(self):
        g = small_graph()
        with pytest.raises(AssayError):
            g.add_dependency("i0", "a")

    def test_accessors(self):
        g = small_graph()
        assert len(g) == 6
        assert "a" in g and "zz" not in g
        assert [p.name for p in g.parents("b")] == ["a", "i2"]
        assert [c.name for c in g.children("a")] == ["b"]
        assert [op.name for op in g.mix_operations()] == ["a", "b"]
        assert [op.name for op in g.mix_parents("b")] == ["a"]
        assert {op.name for op in g.roots()} == {"i0", "i1", "i2"}
        assert {op.name for op in g.sinks()} == {"d"}


class TestAnalysis:
    def test_topological_order_respects_edges(self):
        g = small_graph()
        order = [op.name for op in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")

    def test_cycle_detection(self):
        g = SequencingGraph()
        g.add_input("i0")
        g.add_input("i1")
        g.add_mix("a", ("i0",), duration=4, volume=8)
        g.add_mix("b", ("i1", "a"), duration=4, volume=8)
        g.add_dependency("b", "a")  # closes a cycle
        with pytest.raises(AssayError, match="cycle"):
            g.topological_order()

    def test_critical_path_length(self):
        lengths = small_graph().critical_path_lengths()
        # a (4) -> b (4) -> d (2) = 10
        assert lengths["a"] == 10
        assert lengths["d"] == 2
        assert lengths["i2"] == 6  # i2 (0) -> b (4) -> d (2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), operations=st.integers(4, 40))
    def test_critical_path_lengths_match_a_reference(self, seed, operations):
        g = fuzz_graph(seed, operations)
        memo = {}

        def longest(name):
            # Longest duration sum down to a sink, by memoized recursion
            # over the children: no topological order involved.
            if name not in memo:
                memo[name] = g.operation(name).duration + max(
                    (longest(c.name) for c in g.children(name)), default=0
                )
            return memo[name]

        assert g.critical_path_lengths() == {
            op.name: longest(op.name) for op in g.operations()
        }

    def test_ancestors(self):
        g = small_graph()
        assert g.ancestors("d") == {"b", "a", "i0", "i1", "i2"}
        assert g.ancestors("i0") == set()


class TestValidation:
    def test_valid_graph_passes(self):
        small_graph().validate()

    def test_mix_without_inputs(self):
        g = SequencingGraph()
        g.add_operation(
            __import__("repro.assay.operation", fromlist=["Operation"]).Operation(
                "m", OperationKind.MIX, duration=4, volume=8
            )
        )
        with pytest.raises(AssayError, match="no inputs"):
            g.validate()

    def test_detect_needs_exactly_one_parent(self):
        g = small_graph()
        g.add_input("i3")
        g.add_dependency("i3", "d")
        with pytest.raises(AssayError, match="exactly one parent"):
            g.validate()

    def test_input_with_parent_rejected(self):
        g = SequencingGraph()
        g.add_input("i0")
        g.add_input("i1")
        g._children["i0"].append("i1")  # bypass the public API
        g._parents["i1"].append("i0")
        with pytest.raises(AssayError, match="no parents"):
            g.validate()

    def test_ratio_parent_count_mismatch(self):
        from repro.assay.operation import MixRatio

        g = SequencingGraph()
        for i in range(3):
            g.add_input(f"i{i}")
        g.add_mix(
            "m", ("i0", "i1", "i2"), duration=4, volume=8,
            ratio=MixRatio((1, 3)),
        )
        with pytest.raises(AssayError, match="ratio"):
            g.validate()
