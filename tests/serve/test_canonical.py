"""The canonical problem IR: invariance, collision and regression tests.

The serve cache's correctness rests on two claims proven here:

* :func:`problem_key` is invariant under representation accidents
  (operation reordering, node relabeling, dict-order permutations) and
  sensitive to real changes (a duration, a ratio, a grid);
* :func:`spec_key` — extracted from the checkpoint journal into
  :mod:`repro.serve.canonical` — is byte-identical to the journal's
  historical serializer, so existing journals keep resuming.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.operation import MixRatio
from repro.assay.schedule import Schedule
from repro.assay.scheduler import ListScheduler, SchedulerConfig
from repro.assay.sequencing_graph import SequencingGraph
from repro.assays.fuzzer import fuzz_graph
from repro.geometry import GridSpec, Point
from repro.core.mapping_model import MappingSpec
from repro.core.tasks import MappingTask
from repro.serve.canonical import (
    canonical_ids,
    canonical_json,
    operation_fingerprints,
    problem_key,
    spec_key,
    structure_table,
)


def chain_graph(names=("a", "b", "m", "d"), *, duration=6, ratio=(1, 1)):
    """input a + input b -> mix m -> detect d, under arbitrary names."""
    a, b, m, d = names
    g = SequencingGraph("t")
    g.add_input(a, volume=4)
    g.add_input(b, volume=4)
    g.add_mix(m, (a, b), duration=duration, volume=8, ratio=MixRatio(ratio))
    g.add_detect(d, m, duration=2)
    return g


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, None]}) == '{"a":[2,null],"b":1}'

    def test_dict_order_invariant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )


class TestSpecKeyRegression:
    def test_pinned_hash(self):
        """Byte-for-byte compatible with the pre-extraction journal.

        This hash was computed by the checkpoint journal's original
        in-module canonicalizer; a change here means every existing
        journal on disk stops resuming.
        """
        spec = MappingSpec(
            grid=GridSpec(8, 8),
            tasks=[
                MappingTask("m1", 8, 4, 0, 2, 6, ()),
                MappingTask("m2", 4, 2, 4, 5, 9, ("m1",)),
            ],
            base_load={Point(1, 1): 3},
            blocked_cells=frozenset({Point(0, 0)}),
            anchor_stride=2,
        )
        assert spec_key(spec) == (
            "9ceafa3ece05d953e4276c7e731f064f"
            "af5e556d32d3740ffd65faed094a68d6"
        )

    def test_sensitive_to_grid(self):
        tasks = [MappingTask("m1", 8, 4, 0, 2, 6, ())]
        a = MappingSpec(grid=GridSpec(8, 8), tasks=list(tasks))
        b = MappingSpec(grid=GridSpec(9, 8), tasks=list(tasks))
        assert spec_key(a) != spec_key(b)


class TestProblemKeyInvariance:
    def test_reorder_invariant(self):
        g1 = SequencingGraph("t")
        g1.add_input("a", volume=4)
        g1.add_input("b", volume=4)
        g1.add_mix("m", ("a", "b"), duration=6, volume=8, ratio=MixRatio((1, 1)))
        g2 = SequencingGraph("t")
        g2.add_input("b", volume=4)
        g2.add_input("a", volume=4)
        g2.add_mix("m", ("a", "b"), duration=6, volume=8, ratio=MixRatio((1, 1)))
        assert problem_key(g1) == problem_key(g2)

    def test_relabel_invariant(self):
        g1 = chain_graph(("a", "b", "m", "d"))
        g2 = chain_graph(("x", "y", "z", "w"))
        assert problem_key(g1) == problem_key(g2)

    def test_name_of_graph_ignored(self):
        g1, g2 = chain_graph(), chain_graph()
        g2.name = "completely-different"
        assert problem_key(g1) == problem_key(g2)

    def test_duration_changes_key(self):
        assert problem_key(chain_graph(duration=6)) != problem_key(
            chain_graph(duration=7)
        )

    def test_ratio_changes_key(self):
        assert problem_key(chain_graph(ratio=(1, 1))) != problem_key(
            chain_graph(ratio=(1, 3))
        )

    def test_asymmetric_ratio_orientation_matters(self):
        """1:3 of (a, b) differs from 1:3 of (b, a) when a != b."""
        def oriented(first_volume):
            g = SequencingGraph("t")
            g.add_input("a", volume=first_volume)
            g.add_input("b", volume=4)
            g.add_mix(
                "m", ("a", "b"), duration=6, volume=8, ratio=MixRatio((1, 3))
            )
            return g

        g_ab = oriented(4)
        # Make the inputs distinguishable, then swap which one plays
        # the 3-part: structurally different problems.
        g1 = SequencingGraph("t")
        g1.add_input("a", volume=2)
        g1.add_input("b", volume=4)
        g1.add_mix("m", ("a", "b"), duration=6, volume=8, ratio=MixRatio((1, 3)))
        g2 = SequencingGraph("t")
        g2.add_input("a", volume=2)
        g2.add_input("b", volume=4)
        g2.add_mix("m", ("b", "a"), duration=6, volume=8, ratio=MixRatio((1, 3)))
        assert problem_key(g1) != problem_key(g2)
        assert problem_key(g_ab) == problem_key(g_ab)

    def test_automorphic_swap_same_key(self):
        """Identical inputs under a symmetric ratio: swapping is a no-op."""
        g1 = chain_graph(("a", "b", "m", "d"))
        g2 = chain_graph(("b", "a", "m", "d"))
        assert problem_key(g1) == problem_key(g2)

    def test_schedule_enters_key(self):
        g = chain_graph()
        s1 = Schedule(g, transport_delay=3)
        s2 = Schedule(g, transport_delay=3)
        for name, start in (("a", 0), ("b", 0), ("m", 1), ("d", 8)):
            s1.add(name, start)
            s2.add(name, start + (1 if name == "m" else 0))
        assert problem_key(g, s1) != problem_key(g, s2)

    def test_grid_and_options_enter_key(self):
        g = chain_graph()
        assert problem_key(g, grid=GridSpec(8, 8)) != problem_key(
            g, grid=GridSpec(10, 10)
        )
        assert problem_key(g, anchor_stride=1) != problem_key(
            g, anchor_stride=2
        )
        assert problem_key(g, routing_convenient=True) != problem_key(
            g, routing_convenient=False
        )


class TestStructureTable:
    def test_equal_across_relabel(self):
        g1 = chain_graph(("a", "b", "m", "d"))
        g2 = chain_graph(("p", "q", "r", "s"))
        assert structure_table(g1) == structure_table(g2)

    def test_ids_cover_all_operations(self):
        g = chain_graph()
        ids = canonical_ids(g)
        assert set(ids) == {"a", "b", "m", "d"}
        assert len(set(ids.values())) == 4  # all distinct here

    def test_duplicate_group_indices(self):
        """Structurally identical twins share a fingerprint, not an id."""
        g = SequencingGraph("t")
        g.add_input("a", volume=4)
        g.add_input("b", volume=4)
        fps = operation_fingerprints(g)
        assert fps["a"] == fps["b"]
        ids = canonical_ids(g)
        assert ids["a"] != ids["b"]
        assert {i.rsplit(".", 1)[1] for i in ids.values()} == {"0", "1"}

    def test_table_differs_for_different_problems(self):
        assert structure_table(chain_graph(duration=6)) != structure_table(
            chain_graph(duration=7)
        )

    def test_twin_groups_pair_consistently_across_relabelings(self):
        """Regression (hypothesis-found): twin inputs feeding twin mixes.

        Name-order tie-breaking paired the duplicate groups differently
        under relabeling (mix ``g.0`` ended up with parent ``f.1``
        instead of ``f.0``), so a relabeled resubmission's table never
        matched the cached one.  The canonical (individualize-refine)
        tie-break pairs them consistently.
        """
        ops = [("input", 2)] * 4 + [
            ("mix", 2, 4, (0, 1)),
            ("mix", 2, 4, (0, 2)),
        ]
        base = [f"op{i}" for i in range(len(ops))]
        shuffled = list(base)
        random.Random(1).shuffle(shuffled)
        g1 = _random_problem(ops, base)
        g2 = _random_problem(ops, [f"node_{s}" for s in shuffled])
        assert problem_key(g1) == problem_key(g2)
        assert structure_table(g1) == structure_table(g2)


class TestPinnedKeys:
    """Keys and ids recorded before the one-pass canonicalization.

    A cache written by an older server must keep hitting: a change to
    any value here changes every stored key, and must come with an
    ``ir`` bump in :func:`problem_key`.
    """

    FUZZ_IDS = {
        "in0": "1d0a5f2b4d1cc131.0",
        "in1": "ed365dbde59593fa.0",
        "in2": "fb6cd5f028dd53b9.0",
        "in3": "a3c4933d8e21f7fb.0",
        "m1": "1cabe45d2a6298b8.0",
        "m2": "3f500c8f9b1fa15e.0",
        "m3": "36ceff59e5356bda.0",
        "m4": "f8725e64dbced724.0",
        "m5": "0b8067dda3f23798.0",
        "m6": "3377b73378108c83.0",
        "m7": "7ba0407e3e048981.0",
        "m8": "09d44e5748cb297f.0",
    }

    def test_fuzz_problem_key_and_ids(self):
        graph = fuzz_graph(1, 12)
        schedule = ListScheduler(SchedulerConfig()).schedule(graph)
        assert {name: e.start for name, e in schedule.entries.items()} == {
            "in0": 0, "in1": 0, "in2": 0, "in3": 0, "m1": 0, "m4": 0,
            "m2": 11, "m3": 22, "m5": 35, "m6": 48, "m7": 61, "m8": 74,
        }
        key = (
            "1484e682c66ae616938966b94b26276b"
            "487946054f60e0edee52aa0b27bf9eca"
        )
        assert problem_key(graph, schedule, GridSpec(10, 10)) == key
        assert canonical_ids(graph, schedule) == self.FUZZ_IDS
        # Handing over the fingerprints changes nothing.
        fingerprints = operation_fingerprints(graph, schedule)
        assert problem_key(
            graph, schedule, GridSpec(10, 10), fingerprints=fingerprints
        ) == key
        assert canonical_ids(graph, schedule, fingerprints) == self.FUZZ_IDS

    def test_twin_groups_ids(self):
        # Twin inputs feeding twin mixes: the individualization pivots.
        ops = [("input", 2)] * 4 + [
            ("mix", 2, 4, (0, 1)),
            ("mix", 2, 4, (0, 2)),
        ]
        graph = _random_problem(ops, [f"op{i}" for i in range(len(ops))])
        assert problem_key(graph) == (
            "fc3c30d53015d987f6fbb21a7682f8ff"
            "a15b2796e073bc1175939b97a555a24b"
        )
        assert canonical_ids(graph) == {
            "op0": "103d26425550c4b2.0",
            "op1": "159a60b88b9d57de.1",
            "op2": "159a60b88b9d57de.0",
            "op3": "5caa03942b189f1b.0",
            "op4": "5a0ec621814d03ed.1",
            "op5": "5a0ec621814d03ed.0",
        }


def _random_problem(draw_ops, names):
    """Build a graph from an abstract op list under the given names."""
    g = SequencingGraph("t")
    for index, op in enumerate(draw_ops):
        name = names[index]
        if op[0] == "input":
            g.add_input(name, volume=op[1])
        else:
            _, duration, volume, parents = op
            g.add_mix(
                name,
                tuple(names[p] for p in parents),
                duration=duration,
                volume=volume,
                ratio=MixRatio((1,) * len(parents)) if len(parents) > 1
                else MixRatio((1, 1)),
            )
    return g


@st.composite
def abstract_problems(draw):
    """A DAG as abstract ops: inputs first, mixes over earlier ops."""
    n_inputs = draw(st.integers(min_value=2, max_value=4))
    ops = [
        ("input", draw(st.sampled_from([2, 3, 4])))
        for _ in range(n_inputs)
    ]
    n_mixes = draw(st.integers(min_value=1, max_value=4))
    for _ in range(n_mixes):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(ops) - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        ops.append(
            (
                "mix",
                draw(st.integers(min_value=2, max_value=12)),
                draw(st.sampled_from([4, 6, 8, 10])),
                tuple(parents),
            )
        )
    return ops


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(ops=abstract_problems(), seed=st.integers(0, 2**16))
    def test_relabel_never_changes_key(self, ops, seed):
        base = [f"op{i}" for i in range(len(ops))]
        shuffled = list(base)
        random.Random(seed).shuffle(shuffled)
        renamed = [f"node_{s}" for s in shuffled]
        g1 = _random_problem(ops, base)
        g2 = _random_problem(ops, renamed)
        assert problem_key(g1) == problem_key(g2)
        assert structure_table(g1) == structure_table(g2)

    @settings(max_examples=30, deadline=None)
    @given(ops=abstract_problems(), seed=st.integers(0, 2**16))
    def test_mutating_an_attribute_changes_key(self, ops, seed):
        g1 = _random_problem(ops, [f"op{i}" for i in range(len(ops))])
        mutated = list(ops)
        rng = random.Random(seed)
        mixes = [i for i, op in enumerate(mutated) if op[0] == "mix"]
        index = rng.choice(mixes)
        kind, duration, volume, parents = mutated[index]
        mutated[index] = (kind, duration + 1, volume, parents)
        g2 = _random_problem(mutated, [f"op{i}" for i in range(len(mutated))])
        assert problem_key(g1) != problem_key(g2)

    @settings(max_examples=20, deadline=None)
    @given(ops=abstract_problems())
    def test_key_is_deterministic(self, ops):
        names = [f"op{i}" for i in range(len(ops))]
        assert problem_key(_random_problem(ops, names)) == problem_key(
            _random_problem(ops, names)
        )
