"""The from-scratch MILP stack driving the *real* mapping model.

The reproduction must not silently depend on HiGHS: these tests run the
paper's dynamic-device mapping ILP through the self-contained branch &
bound (with the from-scratch simplex as its relaxation engine) and
require the same optimum HiGHS finds.
"""

from repro.core.mappers import ILPMapper
from repro.core.mapping_model import MappingSpec
from repro.core.tasks import MappingTask
from repro.geometry import GridSpec


def tiny_spec():
    """Two concurrent ops + one child whose storage overlaps them in
    time (so the c5 machinery is actually exercised) — small enough for
    pure Python."""
    tasks = [
        MappingTask("a", 4, 40, 0, 0, 5, ()),
        MappingTask("b", 4, 40, 0, 0, 5, ()),
        MappingTask("c", 4, 40, 3, 8, 12, ("a", "b")),
    ]
    return MappingSpec(GridSpec(5, 5), tasks)


def test_branch_bound_solves_real_mapping_model():
    own = ILPMapper(backend="branch_bound", max_nodes=50_000).map_tasks(
        tiny_spec()
    )
    highs = ILPMapper(backend="scipy").map_tasks(tiny_spec())
    assert own.optimal and highs.optimal
    assert own.objective == highs.objective == 40

    # Both must produce legal layouts (non-overlap of a and b).
    for result in (own, highs):
        ra = result.placements["a"].rect
        rb = result.placements["b"].rect
        assert not ra.overlaps(rb)


def test_branch_bound_respects_c5_forbidding():
    spec = tiny_spec()
    spec.forbidden_overlaps = {("a", "c"), ("b", "c")}
    own = ILPMapper(backend="branch_bound", max_nodes=50_000).map_tasks(spec)
    rc = own.placements["c"].rect
    assert not rc.overlaps(own.placements["b"].rect)
