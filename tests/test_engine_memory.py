"""Memory of an empty engine: per-vertex state must not scale with the level count."""

import gc
import tracemalloc

import pytest

from colorbench.harness import make_engine

N = 20_000
# An eager layout adds one container per vertex and level; the smallest, an
# empty CellList, is larger than this. A level may still cost a pointer and a
# color coordinate.
MAX_BYTES_PER_LEVEL = 32


def empty_engine_bytes_per_vertex(name, delta, beta):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, engine = make_engine(name, N, delta, seed=1, beta=beta)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    levels = engine.hier.L if name == "rand-vc" else engine.params.levels
    return levels, used / N


@pytest.mark.parametrize("name", ["rand-vc", "det-vc"])
def test_empty_engine_bytes_per_vertex_do_not_grow_with_levels(name):
    configs = ((32, 21.0), (1024, 2.0))
    measured = sorted(empty_engine_bytes_per_vertex(name, d, b) for d, b in configs)
    assert all(per_vertex <= 400 for _, per_vertex in measured), measured
    (few, fewer_bytes), (many, more_bytes) = measured
    assert few < many
    assert more_bytes - fewer_bytes <= MAX_BYTES_PER_LEVEL * (many - few), measured
