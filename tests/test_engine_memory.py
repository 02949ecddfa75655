"""Engine memory: per-vertex state must not scale with the level count or with delta."""

import gc
import tracemalloc

import pytest

from colorbench import EdgeColoring, new_graph, verify
from colorbench.harness import TraceSpec, generate, make_engine

N = 20_000
# An eager layout adds one container per vertex and level; the smallest, an
# empty dict (64 B), is larger than this. A level may still cost a pointer and
# a color coordinate.
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


def replay_bytes_per_edge(name, spec):
    """Bytes the graph and engine allocate replaying ``spec``, per final edge."""
    events = generate(spec)
    graph, _ = make_engine(name, spec.n, spec.delta)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for ev in events:
            graph.apply(ev)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / graph.num_edges


def test_edge_coloring_bytes_per_edge_do_not_grow_with_delta():
    # A sparse graph at delta=1024: a tree as wide as the palette would cost
    # about 32 KB per touched vertex.
    per_edge = replay_bytes_per_edge("edge-c", TraceSpec(4000, 1024, 6000, 3, "insert-heavy"))
    assert per_edge <= 1024, per_edge


def test_edge_c_keeps_no_second_copy_of_its_colors():
    # Dense insert-heavy graph, about 16,000 edges. With a color -> handle map
    # per vertex beside the handles and the trees, fixed-mode edge-c took
    # 305 B per edge here; with the colors on the handles and in the trees
    # only, 220 B; with no handles, the colors in the adjacency slots, 163 B.
    per_edge = replay_bytes_per_edge("edge-c", TraceSpec(300, 128, 20_000, 3, "insert-heavy"))
    assert per_edge <= 260, per_edge


def tracked_objects_a_perfect_matching_adds(graph):
    """Objects the collector tracks that inserting edges (0, 1), (2, 3), ... leaves alive."""
    gc.collect()
    before = len(gc.get_objects())
    for u in range(0, graph.n - 1, 2):
        graph.insert(u, u + 1)
    gc.collect()
    return len(gc.get_objects()) - before


def test_edge_c_tracks_one_container_per_vertex_with_a_tree():
    # The bare graph adds no tracked object here: its adjacency dicts hold
    # ints and None only, so the collector does not track them (a handle per
    # edge made it about 3,000). A tree kept as an object holding a node list
    # added two more per vertex; a tree kept as the bare node list adds one.
    n = 2000
    tracked_objects_a_perfect_matching_adds(new_graph(n, 4))  # first-run allocations
    bare = tracked_objects_a_perfect_matching_adds(new_graph(n, 4))
    graph = new_graph(n, 4)
    engine = EdgeColoring(graph)
    added = tracked_objects_a_perfect_matching_adds(graph)
    trees = sum(t is not None for t in engine.tree)
    assert trees == n
    assert added - bare <= trees, (bare, added)


@pytest.mark.parametrize("name", [None, "greedy-baseline"])
def test_an_insert_adds_no_tracked_object_per_edge(name):
    # A handle per edge added one tracked object per edge and made each
    # adjacency dict tracked: about 3,000 for these 1,000 edges.
    n = 2000
    tracked_objects_a_perfect_matching_adds(new_graph(n, 4))  # first-run allocations
    graph = new_graph(n, 4) if name is None else make_engine(name, n, 4)[0]
    added = tracked_objects_a_perfect_matching_adds(graph)
    assert added <= 16, added


def test_greedy_keeps_no_per_edge_object():
    # Sparse insert-heavy graph, about 16,000 edges on 4,000 vertices. With a
    # handle per edge stored under both endpoints, greedy-baseline took
    # 141 B per edge here; with one adjacency slot per endpoint, 85 B.
    spec = TraceSpec(4000, 32, 20_000, 3, "insert-heavy")
    per_edge = replay_bytes_per_edge("greedy-baseline", spec)
    assert per_edge <= 100, per_edge


def tracked_objects_alive_after(build):
    """Objects the collector tracks that ``build()`` leaves alive."""
    gc.collect()
    before = len(gc.get_objects())
    built = build()  # kept alive while counted
    gc.collect()
    return len(gc.get_objects()) - before


def test_det_vc_tracks_no_container_per_vertex_on_an_empty_graph():
    # Prefix classes in one flat list and each color in a bytearray, which
    # the collector does not track: a handful of objects for the engine.
    # A list of classes and a list of coordinates per vertex added 2n.
    n = 2000
    for _ in range(2):  # the first round warms up first-run allocations
        bare = tracked_objects_alive_after(lambda: new_graph(n, 32))
        built = tracked_objects_alive_after(lambda: make_engine("det-vc", n, 32))
    assert built - bare <= 16, (bare, built)


def test_det_vc_tracks_one_container_per_stored_prefix_set():
    # Length 0 is the graph's adjacency dict, so an insert adds a tracked
    # object only for each prefix class of length 1 and up that it fills.
    n = 2000
    tracked_objects_a_perfect_matching_adds(new_graph(n, 32))  # first-run allocations
    bare = tracked_objects_a_perfect_matching_adds(new_graph(n, 32))
    graph, engine = make_engine("det-vc", n, 32)
    added = tracked_objects_a_perfect_matching_adds(graph)
    counts = verify.check_tuple_invariant(graph, engine)[1]
    w = engine.params.levels + 1
    stored = sum(map(bool, counts)) - sum(map(bool, counts[::w]))  # nonempty, length >= 1
    assert stored > n
    assert added - bare <= stored, (bare, added, stored)


def test_det_vc_keeps_no_second_copy_of_the_adjacency():
    # Dense insert-heavy graph, about 16,000 edges. With its own copy of each
    # neighbour set at prefix length 0, det-vc took 316 B per edge here;
    # without it 164 B, and greedy-baseline, with no per-edge state, 142 B.
    # With no handle per edge, det-vc takes 107 B and greedy-baseline 86 B.
    per_edge = replay_bytes_per_edge("det-vc", TraceSpec(300, 128, 20_000, 3, "insert-heavy"))
    assert per_edge <= 220, per_edge


def test_rand_vc_keeps_no_second_copy_of_the_adjacency_while_dormant():
    # Sparse insert-heavy graph, about 16,000 edges on 4,000 vertices, at the
    # default beta=21: beta**4 is far above delta, so no vertex leaves level 4.
    # With its own copy of each neighbour set at level 4, rand-vc took 362 B
    # per edge here; reading the graph's, 221 B, and greedy-baseline 141 B.
    # With no handle per edge, rand-vc takes 165 B and greedy-baseline 85 B.
    per_edge = replay_bytes_per_edge("rand-vc", TraceSpec(4000, 32, 20_000, 3, "insert-heavy"))
    assert per_edge <= 290, per_edge
