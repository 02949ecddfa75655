"""Dynamic graph core: update legality, degree accounting, adjacency slots and the edge view."""

import random

import pytest

from colorbench import (
    DegreeBoundExceeded,
    DuplicateEdge,
    InternalInvariantViolation,
    MissingEdge,
    SelfLoop,
    UnknownVertex,
    new_graph,
)
from colorbench.graph import DELETE, INSERT, UpdateEvent


def test_empty_graph():
    g = new_graph(0, 5)
    assert g.n == 0
    assert g.num_edges == 0


def test_insert_and_degree_counting():
    g = new_graph(10, 4)
    for v in range(1, 5):
        g.insert(0, v)
    assert g.degree(0) == 4
    with pytest.raises(DegreeBoundExceeded):
        g.insert(0, 5)
    assert g.degree(0) == 4
    g.delete(0, 1)
    assert g.degree(0) == 3


def test_adaptive_mode_has_no_bound():
    g = new_graph(10, None)
    for v in range(1, 10):
        g.insert(0, v)
    assert g.degree(0) == 9


def test_update_errors():
    g = new_graph(5, 3)
    g.insert(0, 1)
    with pytest.raises(DuplicateEdge):
        g.insert(1, 0)  # canonical identity: order-insensitive
    with pytest.raises(MissingEdge):
        g.delete(2, 3)
    with pytest.raises(SelfLoop):
        g.insert(2, 2)
    with pytest.raises(UnknownVertex):
        g.insert(0, 9)
    with pytest.raises(UnknownVertex):
        g.degree(-1)


def test_receipt_shape():
    g = new_graph(4, 2)
    r = g.apply(UpdateEvent(INSERT, 1, 0))
    assert (r.kind, r.u, r.v) == (INSERT, 0, 1)
    assert r.sequence_number == 1
    r = g.apply(UpdateEvent(DELETE, 0, 1))
    assert r.sequence_number == 2


def test_degree_sum_and_cookies_under_random_churn():
    rng = random.Random(7)
    g = new_graph(30, 6)
    live = set()
    for _ in range(3000):
        u, v = rng.randrange(30), rng.randrange(30)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in live:
            g.delete(*e)
            live.remove(e)
        else:
            try:
                g.insert(*e)
                live.add(e)
            except DegreeBoundExceeded:
                pass
        assert g.num_edges == len(live)
    assert sum(g.degree(v) for v in range(30)) == 2 * g.num_edges
    g.check_adjacency()
    assert set(g.edges()) == live


def one_sided_graph():
    """A graph whose edge (0, 1) is stored at 0 but not at 1."""
    g = new_graph(4, 3)
    g.insert(0, 1)
    g.insert(1, 2)
    del g._adj[1][0]
    return g


def test_check_adjacency_names_the_vertex_of_a_one_sided_edge():
    with pytest.raises(InternalInvariantViolation, match="^vertex 0: edge to 1 "):
        one_sided_graph().check_adjacency()


def test_check_adjacency_raises_under_python_O(run_optimized):
    script = (
        "from colorbench import InternalInvariantViolation\n"
        "from test_graph import one_sided_graph\n"
        "try:\n"
        "    one_sided_graph().check_adjacency()\n"
        "except InternalInvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(script).startswith("vertex 0: edge to 1 ")


def test_check_adjacency_names_both_values_of_a_color_written_into_one_slot():
    g = new_graph(4, 3)
    g.insert(0, 1)
    g._adj[0][1] = 3
    expected = "^vertex 0: edge to 1 is 3 here and None at 1$"
    with pytest.raises(InternalInvariantViolation, match=expected):
        g.check_adjacency()


def test_writing_a_color_through_the_edge_view_sets_both_slots():
    g = new_graph(4, 3)
    g.insert(2, 1)
    h = g.handle(2, 1)
    assert (h.lo, h.hi, h.color) == (1, 2, None)
    h.color = 4
    assert g._adj[1][2] == g._adj[2][1] == 4
    assert g.handle(1, 2).color == 4
    g.check_adjacency()


def test_edge_view_is_the_same_from_either_end_and_absent_edges_raise():
    g = new_graph(4, 3)
    g.insert(0, 3)
    g.insert(0, 2)
    assert g.handle(3, 0) == g.handle(0, 3)
    assert g.handle(0, 2) != g.handle(0, 3)
    with pytest.raises(MissingEdge):
        g.handle(0, 1)
    g.delete(0, 3)
    with pytest.raises(MissingEdge):
        g.handle(3, 0)


class RaisingEngine:
    def on_insert(self, lo, hi):
        raise RuntimeError("engine fault")


def test_graph_refuses_updates_after_an_engine_failure():
    g = new_graph(4, 3)
    g.attach(RaisingEngine())
    with pytest.raises(RuntimeError, match="engine fault"):
        g.insert(0, 1)
    assert (g.num_edges, g.seq) == (1, 1)
    state = (g.num_edges, g.seq, [dict(a) for a in g._adj])
    # valid and invalid updates alike are refused, naming the failed update
    for kind, u, v in ((INSERT, 2, 3), (DELETE, 0, 1), (INSERT, 0, 1)):
        with pytest.raises(InternalInvariantViolation, match="^update 1 failed"):
            g.apply(UpdateEvent(kind, u, v))
        assert (g.num_edges, g.seq, [dict(a) for a in g._adj]) == state
