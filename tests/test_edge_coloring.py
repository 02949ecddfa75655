"""Edge coloring: search goldens, tree queries, worst-case work, adaptive."""

import csv
import hashlib
import io
import math
import random
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorbench import (
    INSERT,
    DynamicGraph,
    EdgeColoring,
    InternalInvariantViolation,
    RangeOutOfBounds,
    new_graph,
)
from colorbench import verify
from colorbench.edge_coloring import _next_pow2, _tree_problem, count_range, grown
from colorbench.edge_coloring import add as tree_add
from colorbench.harness import TraceSpec, audit_engine, generate, make_engine, run


# -- counting tree -----------------------------------------------------------------


def tree_cap(node):
    """The highest color a counting tree (a node list) covers."""
    return len(node) >> 1


def test_next_pow2():
    assert [_next_pow2(x) for x in (1, 2, 3, 4, 5, 2047, 2048)] == [
        1, 2, 4, 4, 8, 2048, 2048,
    ]


def test_tree_matches_naive_bitmap():
    rng = random.Random(5)
    t = [0] * 64  # capacity 32
    bits = [0] * 33  # 1-based
    for _ in range(400):
        c = rng.randrange(1, 33)
        if bits[c]:
            bits[c] = 0
            tree_add(t, c, -1)
        else:
            bits[c] = 1
            tree_add(t, c, 1)
        a = rng.randrange(1, 34)
        b = rng.randrange(a, 34)
        count, _ = count_range(t, a, b)
        assert count == sum(bits[a:b])
    assert t[1] == sum(bits)


def test_tree_grow_preserves_counts():
    t = [0] * 8  # capacity 4
    for c in (1, 3, 4):
        tree_add(t, c, 1)
    big = grown(t, 16)
    assert big[1] == 3
    for a in range(1, 6):
        for b in range(a, 6):
            assert count_range(big, a, b)[0] == count_range(t, a, b)[0]


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_grown_equals_tree_rebuilt_from_the_same_leaves(log_cap, log_factor, data):
    cap = 1 << log_cap
    new_cap = cap << log_factor
    colors = data.draw(st.sets(st.integers(min_value=1, max_value=cap)))
    t = [0] * (2 * cap)
    rebuilt = [0] * (2 * new_cap)
    for c in colors:
        tree_add(t, c, 1)
        tree_add(rebuilt, c, 1)
    assert grown(t, new_cap) == rebuilt


def test_grown_refuses_a_narrower_or_uneven_capacity():
    for bad in (2, 12):
        with pytest.raises(ValueError):
            grown([0] * 8, bad)


@given(
    st.lists(st.integers(min_value=1, max_value=64), max_size=80),
    st.integers(min_value=1, max_value=65),
    st.integers(min_value=0, max_value=64),
)
def test_tree_range_counts_match_model(toggles, a, span):
    t = [0] * 128  # capacity 64
    bits = [0] * 65
    for c in toggles:
        delta = -1 if bits[c] else 1
        bits[c] += delta
        tree_add(t, c, delta)
    b = min(a + span, 65)
    assert count_range(t, a, b)[0] == sum(bits[a:b])


# -- fixed-palette coloring -----------------------------------------------------------


def test_first_edge_gets_color_one():
    g = new_graph(4, 3)
    ec = EdgeColoring(g)
    assert g.insert(2, 3).stats["color_assigned"] == 1


def test_triangle_coloring_order():
    g = new_graph(3, 2)
    ec = EdgeColoring(g)
    assert g.insert(0, 1).stats["color_assigned"] == 1
    assert g.insert(1, 2).stats["color_assigned"] == 2
    assert g.insert(0, 2).stats["color_assigned"] == 3
    assert verify.check_edge_coloring(g, ec.palette)[0].passed


@pytest.mark.parametrize("delta", [3, None])
def test_a_color_is_in_both_slots_and_the_edge_view_reads_it(delta):
    g = new_graph(4, delta)
    ec = EdgeColoring(g)
    g.insert(0, 1)
    c = g.insert(2, 1).stats["color_assigned"]
    assert c == 2
    assert g._adj[1][2] == g._adj[2][1] == c
    assert g.handle(2, 1).color == g.handle(1, 2).color == c
    g.check_adjacency()


def test_star_fills_colors_in_order():
    delta = 9
    g = new_graph(10, delta)
    ec = EdgeColoring(g)
    got = [g.insert(0, v).stats["color_assigned"] for v in range(1, 10)]
    assert got == list(range(1, 10))


def test_tree_width_follows_the_largest_color_held():
    g = new_graph(40, 32)
    ec = EdgeColoring(g)
    assert ec.tree == [None] * 40
    for v in range(1, 10):
        g.insert(0, v)  # the star's edges take colors 1..9 in order
    assert tree_cap(ec.tree[0]) == 16
    assert [tree_cap(ec.tree[v]) for v in range(1, 10)] == [1, 2, 4, 4, 8, 8, 8, 8, 16]
    for v in range(1, 10):
        g.delete(0, v)
    assert tree_cap(ec.tree[0]) == 16  # a tree never narrows
    ec.self_check()


def test_a_vertex_without_a_tree_gets_its_partners_width():
    g = new_graph(40, 32)
    ec = EdgeColoring(g)
    for v in range(1, 10):
        g.insert(0, v)
    g.delete(0, 2)  # frees color 2
    assert tree_cap(ec.tree[0]) == 16 and ec.tree[20] is None
    assert g.insert(0, 20).stats["color_assigned"] == 2
    assert tree_cap(ec.tree[20]) == 16  # its partner's width, not next_pow2(2)
    assert g.insert(21, 22).stats["color_assigned"] == 1
    assert tree_cap(ec.tree[21]) == tree_cap(ec.tree[22]) == 1
    ec.self_check()


def test_a_vertex_without_a_tree_gets_a_fresh_one_not_a_copy(monkeypatch):
    g = new_graph(40, 32)
    ec = EdgeColoring(g)
    for v in range(6, 15):
        g.insert(5, v)  # colors 1..9: vertex 5's tree has capacity 16
    g.delete(5, 7)  # frees color 2
    g.delete(5, 8)  # frees color 3
    copies = []

    def counted(node, new_cap):
        copies.append(new_cap)
        return grown(node, new_cap)

    monkeypatch.setattr("colorbench.edge_coloring.grown", counted)
    # a tree-less endpoint below, then above, its partner; then two tree-less
    assert g.insert(1, 5).stats["color_assigned"] == 2
    assert g.insert(5, 20).stats["color_assigned"] == 3
    assert g.insert(21, 22).stats["color_assigned"] == 1
    assert copies == []
    assert [tree_cap(ec.tree[v]) for v in (1, 20, 21, 22)] == [16, 16, 1, 1]
    ec.self_check()


@pytest.mark.parametrize("delta, mode", [(16, "uniform-random"), (None, "sliding-window")])
def test_coloring_or_uncoloring_an_edge_leaves_its_trees_at_one_width(delta, mode):
    g, ec = make_engine("edge-c", 40, delta, seed=7)
    written = []
    color, uncolor = ec.color, ec._uncolor

    def one_width(u, v):
        written.append((u, v))
        assert len(ec.tree[u]) == len(ec.tree[v])

    def checked_color(u, v):
        c, visits = color(u, v)
        one_width(u, v)
        return c, visits

    def checked_uncolor(u, v, c):
        visits = uncolor(u, v, c)
        one_width(u, v)
        return visits

    # a shrink fixup recolors another edge of u or v, which may pair (and so
    # widen) one of the deleted edge's trees after the delete wrote them
    ec.color, ec._uncolor = checked_color, checked_uncolor
    fixups = 0
    for ev in generate(TraceSpec(40, delta, 1500, 7, mode)):
        written.clear()
        r = g.apply(ev)
        assert written[0] == (min(ev.u, ev.v), max(ev.u, ev.v))
        assert len(written) == 1 + 2 * r.stats["recolored_edges"]
        fixups += r.stats["recolored_edges"]
        ec.self_check()
    assert (fixups > 0) == (delta is None)


@pytest.mark.parametrize("delta", [3, None])
def test_insert_delete_round_trip_restores_empty_state(delta):
    g = new_graph(4, delta)
    ec = EdgeColoring(g)
    g.insert(0, 1)
    g.delete(0, 1)
    if delta is None:
        assert ec.held == [{}] * 4
    else:
        assert ec.held is None  # fixed mode keeps no color -> endpoint map
    assert all(x == 0 for x in ec.tree[0])
    assert all(x == 0 for x in ec.tree[1])


def test_path_delete_keeps_other_colors():
    g = new_graph(4, 2)
    ec = EdgeColoring(g)
    g.insert(0, 1)
    g.insert(1, 2)
    g.insert(2, 3)
    before = ec.edge_colors()
    root_before = ec.tree[1][1]
    g.delete(1, 2)
    after = ec.edge_colors()
    assert after == {e: c for e, c in before.items() if e != (1, 2)}
    assert ec.tree[1][1] == root_before - 1
    assert ec.tree[2][1] == 1
    assert verify.check_edge_coloring(g, ec.palette)[0].passed


def test_properness_and_palette_on_random_trace():
    g, ec = make_engine("edge-c", 80, 16, seed=2)
    events = generate(TraceSpec(80, 16, 4000, 8, "uniform-random"))
    for ev in events:
        g.apply(ev)
    assert verify.check_edge_coloring(g, ec.palette)[0].passed
    assert ec.max_color_seen <= 2 * 16 - 1
    assert ec.invariant_failures == 0
    ec.self_check()


def test_worst_case_visits_bound_every_update():
    delta = 16
    bound = 8 * math.ceil(math.log2(2 * delta))
    g, ec = make_engine("edge-c", 60, delta, seed=3)
    events = generate(TraceSpec(60, delta, 3000, 4, "sliding-window"))
    for ev in events:
        r = g.apply(ev)
        assert r.stats["tree_visits"] <= bound


@pytest.mark.parametrize("seed", [13, 14, 15])
def test_adaptive_visits_bound_every_update(seed):
    # With C the capacity of the widest tree after the update (trees never
    # narrow, so C covers every tree the update read), ``color`` reads at
    # most 4 + 2 lg C nodes in its search (2 for the whole span, 2 for the
    # roots' level when the span is wider than the trees, 2 per level below)
    # and 2 lg C + 2 in its walk; ``_uncolor`` is one walk, 2 lg C + 2. An
    # insert colors once: 4 lg C + 6. A delete uncolors its edge and makes
    # at most four fixups (``_shrink_fixups``), each an uncolor and a color:
    # 5 (2 lg C + 2) + 4 (4 lg C + 6) = 26 lg C + 34. A color is at most
    # deg(u) + deg(v) - 1 <= 2n - 3, so C <= next_pow2(2n - 3).
    n = 80
    g, ec = make_engine("edge-c", n, None, seed=seed)
    fixups = 0
    for ev in generate(TraceSpec(n, None, 6000, seed, "sliding-window")):
        r = g.apply(ev)
        cap = max(map(len, filter(None, ec.tree))) >> 1
        assert cap <= _next_pow2(2 * n - 3)
        lg = cap.bit_length() - 1
        bound = 4 * lg + 6 if r.kind == INSERT else 26 * lg + 34
        assert r.stats["tree_visits"] <= bound
        assert r.stats["recolored_edges"] <= 4
        fixups += r.stats["recolored_edges"]
    assert fixups > 0


# -- range queries ----------------------------------------------------------------------


def test_range_count_trivial_and_full():
    g = new_graph(6, 4)
    ec = EdgeColoring(g)
    for v in range(1, 5):
        g.insert(0, v)
    assert ec.range_count(0, 3, 3) == 0
    assert ec.range_count(0, 1, 2 * 4) == 4  # root counter = degree


def test_range_count_exhaustive_small_palettes():
    for delta in (2, 3, 5, 8, 16):
        g, ec = make_engine("edge-c", 24, delta, seed=delta)
        events = generate(TraceSpec(24, delta, 600, delta, "uniform-random"))
        for ev in events:
            g.apply(ev)
        for v in (0, 5, 11):
            held = set(g._adj[v].values())
            for a in range(1, 2 * delta + 1):
                for b in range(a, 2 * delta + 1):
                    naive = sum(1 for c in held if a <= c < b)
                    assert ec.range_count(v, a, b) == naive


def test_range_count_bounds_checked():
    g = new_graph(4, 4)
    ec = EdgeColoring(g)
    g.insert(0, 1)
    with pytest.raises(RangeOutOfBounds):
        ec.range_count(0, 0, 3)
    with pytest.raises(RangeOutOfBounds):
        ec.range_count(0, 1, 2 * 4 + 2)
    with pytest.raises(RangeOutOfBounds):
        ec.range_count(0, 5, 4)


def test_adaptive_range_count_reaches_past_a_small_tree():
    n = 6
    g = new_graph(n, None)
    ec = EdgeColoring(g)
    g.insert(0, 1)
    g.insert(0, 2)
    assert tree_cap(ec.tree[1]) == 1
    assert ec.range_count(1, 1, 2 * (n - 1) + 1) == 1
    assert ec.range_count(1, 2, 9) == 0  # above the tree: v holds none of them
    assert ec.range_count(0, 2, 11) == 1
    assert ec.range_count(5, 1, 11) == 0  # no tree yet
    with pytest.raises(RangeOutOfBounds):
        ec.range_count(1, 1, 2 * (n - 1) + 2)


# -- adaptive mode -------------------------------------------------------------------------


def test_the_mode_is_read_from_the_graphs_degree_bound():
    # No bound selects adaptive mode: the palette follows the endpoint degrees.
    g = DynamicGraph(4, None)
    ec = EdgeColoring(g)
    assert ec.adaptive and ec.palette is None
    assert g.insert(0, 1).stats["color_assigned"] == 1
    assert g.insert(1, 2).stats["color_assigned"] == 2  # within 2*deg(1)-1 = 3
    assert sorted(ec.held[1]) == [1, 2]
    bounded = EdgeColoring(DynamicGraph(4, 3))
    assert not bounded.adaptive and bounded.palette == 5 and bounded.held is None


def test_adaptive_single_edge_color_one():
    g = new_graph(2, None)
    ec = EdgeColoring(g)
    assert g.insert(0, 1).stats["color_assigned"] == 1


def test_adaptive_path_palette():
    g = new_graph(3, None)
    ec = EdgeColoring(g)
    g.insert(0, 1)
    g.insert(1, 2)
    assert all(c <= 3 for c in ec.edge_colors().values())
    assert verify.check_edge_coloring(g, ec.palette)[0].passed


def test_adaptive_shrink_recolors_stranded_edge():
    # Star 0-{1,2,3,4} plus 1-{2,3,4}: edge (1,4) lands on color 5 (degrees
    # 4+2). Deleting (1,2) then (1,3) drops deg(1) to 2, stranding color 5
    # above the (1,4) palette 2*max(2,2)-1 = 3; the fixup re-colors it to 2.
    g = new_graph(5, None)
    ec = EdgeColoring(g)
    for v in (1, 2, 3, 4):
        g.insert(0, v)
    g.insert(1, 2)
    g.insert(1, 3)
    r = g.insert(1, 4)
    assert r.stats["color_assigned"] == 5
    assert g.delete(1, 2).stats["recolored_edges"] == 0
    r = g.delete(1, 3)
    assert r.stats["recolored_edges"] == 1
    assert ec.edge_colors()[(1, 4)] == 2
    assert verify.check_edge_coloring(g, ec.palette)[0].passed
    ec.self_check()


def test_adaptive_random_trace_palette_per_edge():
    g, ec = make_engine("edge-c", 50, None, seed=6)
    events = generate(TraceSpec(50, None, 3000, 12, "sliding-window"))
    for ev in events:
        g.apply(ev)
        for (u, v), c in ec.edge_colors().items():
            assert c <= 2 * max(g.degree(u), g.degree(v)) - 1
    assert verify.check_edge_coloring(g, ec.palette)[0].passed
    ec.self_check()


# -- search versus a full-width reference -------------------------------------------------


def reference_color(ec, u, v, span):
    """The search run on full-width bitmaps rebuilt from the colors in the adjacency."""
    adj = ec.graph._adj
    held = [set(adj[x].values()) - {None} for x in (u, v)]
    lo, size = 1, span
    while size > 1:
        size >>= 1
        left = sum(sum(1 for c in hs if lo <= c < lo + size) for hs in held)
        if left >= size:
            lo += size
    return lo


@pytest.mark.parametrize("delta, mode", [(64, "uniform-random"), (None, "sliding-window")])
def test_narrow_trees_pick_the_full_width_color(delta, mode):
    g, ec = make_engine("edge-c", 60, delta, seed=4)
    expected = []
    color = ec.color

    def checked_color(u, v):
        if delta is None:
            span = _next_pow2(max(1, g.degree(u) + g.degree(v) - 1))
        else:
            span = ec.cap
        expected.append(reference_color(ec, u, v, span))
        c, visits = color(u, v)
        assert c == expected[-1]
        return c, visits

    ec.color = checked_color
    for ev in generate(TraceSpec(60, delta, 3000, 5, mode)):
        g.apply(ev)
    assert len(expected) > 1500
    ec.self_check()


# -- golden colors ---------------------------------------------------------------------------

# sha256 of the color_assigned column and of the sorted final edge_colors()
# items, recorded with full-width trees on every touched vertex.
GOLDEN = {
    (400, 64, 11, "uniform-random"): (
        "fefb784181b75355125e6d4987da323fc2e108f7f07dc69e9ef8696ea157cd9d",
        "34353e22ad859dcd9f09b60e3286b85c27b04862782567782ae12c20bd352b0e",
    ),
    (300, None, 12, "sliding-window"): (
        "03fe150ab77ba2438b1c8388efaeba5688a19893dc653f10084f66e0a6db89a9",
        "bd0dc02e2b0e63c83b59dbf8f8b75390a9bdf4822762cbfe1fd8e253e1fdf4c9",
    ),
}


@pytest.mark.parametrize("n, delta, seed, mode", sorted(GOLDEN, key=str))
def test_colors_match_the_full_width_golden(n, delta, seed, mode):
    spec = TraceSpec(n, delta, 6000, seed, mode)
    buf = io.StringIO()
    res = run(generate(spec), "edge-c", n, delta, seed=seed, audit_every=500, metrics_out=buf)
    assert res.exit_code == 0
    column = [row["color_assigned"] for row in csv.DictReader(io.StringIO(buf.getvalue()))]
    final = sorted(res.engine_obj.edge_colors().items())
    assert (
        hashlib.sha256(",".join(column).encode()).hexdigest(),
        hashlib.sha256(repr(final).encode()).hexdigest(),
    ) == GOLDEN[(n, delta, seed, mode)]


# sha256 of every receipt's fields (in RECEIPT_FIELDS order) and of the sorted
# final edge_colors() items, and the invariant_checks total. The dense trace
# searches palette-wide trees at both endpoints in most inserts; the adaptive
# one has deletes leave trees wider than the search span. The receipts and
# totals were recorded again when an edge's two trees were first paired to
# one width (a widened tree's nodes are read, and two checks are counted per
# search); the final colors did not change.
RECEIPT_GOLDEN = {
    (129, 128, 20000, 11, "insert-heavy"): (
        "5a611134ed831c770bf720a6ad7a673c8267084389b19611a01e84bf190f56c3",
        "3bfb309ab3060885f645e6bd8cc29d6fda0b9160f0fe359c364071449474f391",
        28152,
    ),
    (60, None, 6000, 13, "sliding-window"): (
        "6da38b7712d8674fea69ca1dad91a0f01bd87a3346008248848c60e750cdcd6e",
        "5a485e62f0b45aea4415687818f7f7188f14573ff2da76b719902adfa9121ca9",
        7724,
    ),
}


@pytest.mark.parametrize("n, delta, ops, seed, mode", sorted(RECEIPT_GOLDEN, key=str))
def test_receipts_match_the_golden(n, delta, ops, seed, mode):
    g, ec = make_engine("edge-c", n, delta, seed=seed)
    rows = []
    for ev in generate(TraceSpec(n, delta, ops, seed, mode)):
        stats = g.apply(ev).stats
        rows.append(tuple(stats[k] for k in EdgeColoring.RECEIPT_FIELDS))
    final = sorted(ec.edge_colors().items())
    assert (
        hashlib.sha256(repr(rows).encode()).hexdigest(),
        hashlib.sha256(repr(final).encode()).hexdigest(),
        ec.invariant_checks,
    ) == RECEIPT_GOLDEN[(n, delta, ops, seed, mode)]


@pytest.mark.parametrize("delta, mode", [(16, "uniform-random"), (None, "sliding-window")])
def test_every_search_runs_through_color(monkeypatch, delta, mode):
    # perfbench times the search by wrapping EdgeColoring.color by name
    calls = []
    color = EdgeColoring.color

    def counted(self, u, v):
        calls.append((u, v))
        return color(self, u, v)

    monkeypatch.setattr(EdgeColoring, "color", counted)
    g, ec = make_engine("edge-c", 40, delta, seed=5)
    inserts = fixups = 0
    for ev in generate(TraceSpec(40, delta, 2000, 5, mode)):
        r = g.apply(ev)
        inserts += r.kind == INSERT
        fixups += r.stats["recolored_edges"]
    assert len(calls) == inserts + fixups
    assert inserts > 500 and (fixups > 0) == (delta is None)


# -- search failures ---------------------------------------------------------------------------


def two_wide_trees(delta):
    """Vertices 0 and 3 hold color 1 in trees of capacity 8; vertex 4 holds
    color 1 in a tree of capacity 1.

    Edge (0, 3) took color 5 while both endpoints held colors 1 and 2, which
    grew both trees; deleting it, (0, 2) and (3, 5) leaves them wide, and
    pairing widens the trees of 2 and 5 to 8 as well. Vertex 4 last shared
    an edge with 3 while both trees had capacity 1.
    """
    g = new_graph(6, delta)
    ec = EdgeColoring(g)
    for u, v in ((0, 1), (0, 2), (3, 4), (3, 5)):
        g.insert(u, v)
    assert g.insert(0, 3).stats["color_assigned"] == 5
    for u, v in ((0, 3), (0, 2), (3, 5)):
        g.delete(u, v)
    assert [tree_cap(t) for t in ec.tree] == [8, 1, 8, 8, 1, 8]
    ec.self_check()
    return g, ec


# Inserting (0, v): v = 3 finds both endpoints' trees at one width, v = 4 a
# tree of capacity 1 that the search widens to 0's capacity 8 first. Both
# endpoints then have degree 2, so the search span is the palette's 8 in
# fixed mode and next_pow2(3) = 4 in adaptive mode, where the trees are
# twice as wide as the span.
SEARCHES = {
    "fixed-equal-widths": (4, 3, 8),
    "fixed-unequal-widths": (4, 4, 8),
    "adaptive-equal-widths": (None, 3, 4),
    "adaptive-unequal-widths": (None, 4, 4),
}


def assert_paired_and_refuses_the_next_update(g, ec, v):
    # the search paired the trees before it failed: v's tree, widened or
    # not, still counts its one color
    assert tree_cap(ec.tree[0]) == tree_cap(ec.tree[v]) == 8
    assert _tree_problem(ec.tree[v], [1]) == ""
    with pytest.raises(InternalInvariantViolation, match="failed in the engine"):
        g.insert(1, 2)


@pytest.mark.parametrize("delta, v, span", SEARCHES.values(), ids=SEARCHES.keys())
def test_a_search_range_read_full_fails_the_update(delta, v, span):
    g, ec = two_wide_trees(delta)
    t = ec.tree[0]
    # the node of 0's tree that counts [1, span]: with v's color 1 it reads full
    t[tree_cap(t) // span] += span - 1
    checks = ec.invariant_checks
    with pytest.raises(
        InternalInvariantViolation,
        match=rf"^search range \[1, {span + 1}\) full while coloring \(0, {v}\)$",
    ):
        g.insert(0, v)
    assert ec.invariant_failures == 1
    assert ec.invariant_checks == checks + 1  # the one check made, on the whole span
    assert g._adj[0][v] is None
    assert_paired_and_refuses_the_next_update(g, ec, v)


@pytest.mark.parametrize("delta, v, span", SEARCHES.values(), ids=SEARCHES.keys())
def test_a_search_turned_into_a_half_not_full_fails_the_landing_bound(delta, v, span):
    g, ec = two_wide_trees(delta)
    t = ec.tree[0]
    cap = tree_cap(t)
    t[cap // 2] += 1  # [1, 2] reads full: the search turns right, to [3, 4]
    t[cap + 2] += 1  # color 3 reads held: it turns right again, to color 4
    checks = ec.invariant_checks
    with pytest.raises(
        InternalInvariantViolation,
        match=rf"^color 4 for \(0, {v}\) above deg\(u\) \+ deg\(v\) - 1 = 3$",
    ):
        g.insert(0, v)
    assert ec.invariant_failures == 1
    assert ec.invariant_checks == checks + 2  # the whole-span and the landing check
    assert g._adj[0][v] is None
    assert_paired_and_refuses_the_next_update(g, ec, v)


# -- self-check ------------------------------------------------------------------------------


def corrupted_engine():
    g, ec = make_engine("edge-c", 30, 8, seed=1)
    for ev in generate(TraceSpec(30, 8, 300, 2, "uniform-random")):
        g.apply(ev)
    v = next(v for v, t in enumerate(ec.tree) if t is not None and tree_cap(t) > 1)
    ec.tree[v][1] += 1
    return g, ec, v


def test_corrupted_tree_fails_the_rebuild_audit():
    g, ec, v = corrupted_engine()
    with pytest.raises(InternalInvariantViolation, match=f"vertex {v}:"):
        ec.self_check()
    reports = dict(audit_engine("edge-c", g, ec, deep=True))
    assert not reports["tree-rebuild"].passed
    assert f"vertex {v}:" in str(reports["tree-rebuild"].violations)


def rebuilt_tree_problem(node, colors):
    """Reference: ``_tree_problem`` as it was when it rebuilt every row of the
    tree from the held colors, leaves first."""
    if node is None:
        return "holds colors but has no tree" if colors else ""
    cap = len(node) >> 1
    bits = [0] * cap
    for c in colors:
        if c is None or not 1 <= c <= cap:
            return f"color {c} outside its tree's range [1, {cap}]"
        if bits[c - 1]:
            return f"two edges share color {c}"
        bits[c - 1] = 1
    row = node[cap:]
    if row != bits:
        return "leaf row differs from the held colors"
    width = cap
    while width > 1:
        row = list(map(add, row[0::2], row[1::2]))
        width >>= 1
        if node[width : 2 * width] != row:
            return f"row of {width} nodes is not the sum of the row below"
    return ""


def cap_8_star():
    """Vertex 0 holds colors 1..5 in a tree of capacity 8."""
    g = new_graph(6, 5)
    ec = EdgeColoring(g)
    for w in range(1, 6):
        g.insert(0, w)
    assert tree_cap(ec.tree[0]) == 8
    return g, ec


def _bump(*indices):
    def corrupt(g, ec):
        for i in indices:
            ec.tree[0][i] += 1
    return corrupt


def _recolor(w, color_of):
    """Set the color of star edge (0, w) behind the engine's back."""
    def corrupt(g, ec):
        g.handle(0, w).color = color_of(g)
    return corrupt


TREE_CORRUPTIONS = {
    "root": _bump(1),
    "row-of-2": _bump(3),
    "row-of-4": _bump(6),
    "leaf": _bump(8 + 6),
    "rows-of-4-and-1": _bump(5, 1),
    "leaf-and-row-of-2": _bump(8, 2),
    "color-outside-the-tree": _recolor(5, lambda g: 9),
    "color-none": _recolor(3, lambda g: None),
    "color-of-a-sibling-edge": _recolor(3, lambda g: g._adj[0][4]),
}


@pytest.mark.parametrize("corrupt", TREE_CORRUPTIONS.values(), ids=TREE_CORRUPTIONS.keys())
def test_self_check_names_what_the_row_rebuild_names(corrupt):
    g, ec = cap_8_star()
    corrupt(g, ec)
    colors = [list(nbrs.values()) for nbrs in g._adj]
    problems = [_tree_problem(t, cs) for t, cs in zip(ec.tree, colors)]
    assert problems == [rebuilt_tree_problem(t, cs) for t, cs in zip(ec.tree, colors)]
    assert problems[0]
    with pytest.raises(InternalInvariantViolation) as exc:
        ec.self_check()
    assert str(exc.value) == f"vertex 0: {problems[0]}"


def test_corrupted_tree_fails_the_rebuild_audit_under_python_O(run_optimized):
    script = (
        "from test_edge_coloring import corrupted_engine\n"
        "from colorbench.harness import audit_engine\n"
        "g, ec, v = corrupted_engine()\n"
        "print(dict(audit_engine('edge-c', g, ec, deep=True))['tree-rebuild'].passed)\n"
    )
    assert run_optimized(script) == "False"


def _drop_entry(g, ec):
    del ec.held[0][3]


def _entry_to_another_endpoint(g, ec):
    ec.held[0][3] = 2


def _extra_entry(g, ec):
    ec.held[0][9] = 5


COLOR_MAP_CORRUPTIONS = {
    "entry-dropped": _drop_entry,
    "entry-to-another-endpoint": _entry_to_another_endpoint,
    "extra-entry": _extra_entry,
}


@pytest.mark.parametrize(
    "corrupt", COLOR_MAP_CORRUPTIONS.values(), ids=COLOR_MAP_CORRUPTIONS.keys()
)
def test_adaptive_color_map_is_checked_against_the_handles(corrupt):
    g = new_graph(6, None)
    ec = EdgeColoring(g)
    for w in range(1, 6):
        g.insert(0, w)
    assert ec.held[0] == {c: w for w, c in g._adj[0].items()}
    ec.self_check()
    corrupt(g, ec)
    with pytest.raises(InternalInvariantViolation, match="vertex 0: color map differs"):
        ec.self_check()
    reports = dict(audit_engine("edge-c", g, ec, deep=True))
    assert not reports["tree-rebuild"].passed
    assert reports["proper-edge"].passed and reports["edge-palette"].passed
