"""Edge coloring: search goldens, tree queries, worst-case work, adaptive."""

import csv
import hashlib
import io
import math
import random

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
from colorbench.edge_coloring import _tree_problem, add as tree_add, prefix, widen
from colorbench.harness import TraceSpec, audit_engine, generate, make_engine, run


# -- counting tree -----------------------------------------------------------------


def tree_cap(t):
    """The highest color a Fenwick tree (a slot list) covers."""
    return len(t) - 1


def next_pow2(x):
    """The least power of two >= x, for x >= 1."""
    return 1 << (x - 1).bit_length()


def rebuilt_tree(cap, colors):
    """The Fenwick tree over [1, cap] holding ``colors``, slot by slot from its
    definition: slot j counts the colors in (j - lowbit(j), j]."""
    return [sum(1 for c in colors if j - (j & -j) < c <= j) for j in range(cap + 1)]


def range_count(t, a, b):
    """Colors held in [a, b), as the engine counts them: two prefix sums."""
    return prefix(t, b - 1) - prefix(t, a - 1)


def walk_slots(cap, c):
    """Slots an add of color c visits in a tree over [1, cap]."""
    visits = 0
    while c <= cap:
        visits += 1
        c += c & -c
    return visits


def test_tree_matches_naive_bitmap():
    rng = random.Random(5)
    t = [0] * 33  # capacity 32
    bits = [0] * 33  # 1-based
    for _ in range(400):
        c = rng.randrange(1, 33)
        delta = -1 if bits[c] else 1
        bits[c] += delta
        assert tree_add(t, c, delta) == walk_slots(32, c)
        a = rng.randrange(1, 34)
        b = rng.randrange(a, 34)
        assert range_count(t, a, b) == sum(bits[a:b])
    assert t == rebuilt_tree(32, [c for c in range(33) if bits[c]])
    assert t[32] == sum(bits)


@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=1, max_value=64), max_size=80),
    st.data(),
)
def test_prefix_and_range_counts_match_a_bitmap(log_cap, toggles, data):
    cap = 1 << log_cap
    t = [0] * (cap + 1)
    bits = [0] * (cap + 1)
    for c in toggles:
        c = (c - 1) % cap + 1
        delta = -1 if bits[c] else 1
        bits[c] += delta
        tree_add(t, c, delta)
    assert t == rebuilt_tree(cap, [c for c in range(cap + 1) if bits[c]])
    assert [prefix(t, c) for c in range(cap + 1)] == [sum(bits[: c + 1]) for c in range(cap + 1)]
    a = data.draw(st.integers(min_value=1, max_value=cap + 1))
    b = data.draw(st.integers(min_value=a, max_value=cap + 1))
    assert range_count(t, a, b) == sum(bits[a:b])


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_widen_equals_tree_rebuilt_from_the_same_colors(log_cap, log_factor, data):
    cap = 1 << log_cap
    new_cap = cap << log_factor
    colors = data.draw(st.sets(st.integers(min_value=1, max_value=cap)))
    t = [0] * (cap + 1)
    for c in colors:
        tree_add(t, c, 1)
    assert widen(t, new_cap) == new_cap - cap
    assert t == rebuilt_tree(new_cap, colors)  # this list, extended in place


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


def test_a_vertex_without_a_tree_gets_one_as_wide_as_the_span():
    g = new_graph(40, 32)
    ec = EdgeColoring(g)
    for v in range(1, 10):
        g.insert(0, v)  # colors 1..9: vertex 0's tree has capacity 16
    for v in range(3, 10):
        g.delete(0, v)  # vertex 0 keeps colors 1 and 2
    assert g.insert(0, 20).stats["color_assigned"] == 3
    # span next_pow2(3 + 1 - 1) = 4: not its partner's width
    assert tree_cap(ec.tree[0]) == 16 and tree_cap(ec.tree[20]) == 4
    assert g.insert(21, 22).stats["color_assigned"] == 1
    assert tree_cap(ec.tree[21]) == tree_cap(ec.tree[22]) == 1
    ec.self_check()


@pytest.mark.parametrize("delta, mode", [(16, "uniform-random"), (None, "sliding-window")])
def test_trees_widen_in_place_and_never_narrow(delta, mode):
    g, ec = make_engine("edge-c", 40, delta, seed=7)
    fixups = widenings = 0
    for ev in generate(TraceSpec(40, delta, 1500, 7, mode)):
        before = list(ec.tree)
        widths = [None if t is None else len(t) for t in before]
        r = g.apply(ev)
        for t, old, width in zip(ec.tree, before, widths):
            if old is not None:
                assert t is old and len(t) >= width
                widenings += len(t) > width
        # every cell a tree holds was written once, by its creation or a widening
        assert ec.widened_cells == sum(len(t) for t in ec.tree if t)
        fixups += r.stats["recolored_edges"]
        ec.self_check()
    assert widenings > 0 and (fixups > 0) == (delta is None)
    assert ec.totals()["widened_cells"] == ec.widened_cells


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
    total_before = ec.tree[1][-1]  # the top slot counts every color held
    g.delete(1, 2)
    after = ec.edge_colors()
    assert after == {e: c for e, c in before.items() if e != (1, 2)}
    assert ec.tree[1][-1] == total_before - 1
    assert ec.tree[2][-1] == 1
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
    # most 2 + 2 lg C slots in its search (2 for the whole span, 2 per level
    # below; the span is at most C, the width its trees are widened to) and
    # 2 lg C + 2 in its two walks (an add visits at most lg C + 1 slots of a
    # tree); ``_uncolor`` is two walks, 2 lg C + 2. An insert colors once:
    # 4 lg C + 4. A delete uncolors its edge and makes at most four fixups
    # (``_shrink_fixups``), each an uncolor and a color:
    # 5 (2 lg C + 2) + 4 (4 lg C + 4) = 26 lg C + 26. A span is at most
    # next_pow2(deg(u) + deg(v) - 1) <= next_pow2(2n - 3), and so is C.
    n = 80
    g, ec = make_engine("edge-c", n, None, seed=seed)
    fixups = 0
    for ev in generate(TraceSpec(n, None, 6000, seed, "sliding-window")):
        r = g.apply(ev)
        cap = max(map(len, filter(None, ec.tree))) - 1
        assert cap <= next_pow2(2 * n - 3)
        lg = cap.bit_length() - 1
        bound = 4 * lg + 4 if r.kind == INSERT else 26 * lg + 26
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
        span = next_pow2(g.degree(u) + g.degree(v) - 1)
        if delta is not None:
            # fixed mode: the reference searches the whole palette's span,
            # never narrower than the engine's
            assert span <= next_pow2(ec.palette)
            span = next_pow2(ec.palette)
        expected.append(reference_color(ec, u, v, span))
        c, visits = color(u, v)
        assert c == expected[-1]
        return c, visits

    ec.color = checked_color
    for ev in generate(TraceSpec(60, delta, 3000, 5, mode)):
        g.apply(ev)
    assert len(expected) > 1500
    ec.self_check()


def test_fixed_and_adaptive_modes_color_an_insert_only_trace_alike():
    # both search next_pow2(deg(u) + deg(v) - 1): a search over the whole
    # palette turns left at every wider level, down to that span
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        delta = rng.randrange(1, 12)
        fixed, adaptive = new_graph(n, delta), new_graph(n, None)
        engines = EdgeColoring(fixed), EdgeColoring(adaptive)
        for _ in range(n * delta):
            u, v = rng.sample(range(n), 2)
            if fixed.has_edge(u, v) or max(fixed.degree(u), fixed.degree(v)) == delta:
                continue
            c = fixed.insert(u, v).stats["color_assigned"]
            assert adaptive.insert(u, v).stats["color_assigned"] == c
        assert engines[0].edge_colors() == engines[1].edge_colors()
        for ec in engines:
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
# search), and again when both modes searched one span, next_pow2(deg(u) +
# deg(v) - 1), over trees widened to it first, and again when each tree
# became a Fenwick tree walked at its own width; the final colors did not
# change.
RECEIPT_GOLDEN = {
    (129, 128, 20000, 11, "insert-heavy"): (
        "63acf87e20f5af3d11d4908efa1385902a3b552a960d9530cf33289ed6d37029",
        "3bfb309ab3060885f645e6bd8cc29d6fda0b9160f0fe359c364071449474f391",
        28152,
    ),
    (60, None, 6000, 13, "sliding-window"): (
        "8513b0f399a4fdd2109d0db3bccc7fcf2fe6cab48a1bd6b25ee2ff4057c5c416",
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
    widened both trees to its span, 8; deleting it, (0, 2) and (3, 5) leaves
    them wide, and the trees of 2 and 5 at the span of their one edge, 2.
    Vertex 4 last shared an edge with 3 while both trees had capacity 1.
    """
    g = new_graph(6, delta)
    ec = EdgeColoring(g)
    for u, v in ((0, 1), (0, 2), (3, 4), (3, 5)):
        g.insert(u, v)
    assert g.insert(0, 3).stats["color_assigned"] == 5
    for u, v in ((0, 3), (0, 2), (3, 5)):
        g.delete(u, v)
    assert [tree_cap(t) for t in ec.tree] == [8, 1, 2, 8, 1, 2]
    ec.self_check()
    return g, ec


# Inserting (0, v): v = 3 finds both endpoints' trees at capacity 8, v = 4 a
# tree of capacity 1 that the search widens to the span first, leaving the
# two trees at different widths. Both endpoints then have degree 2, so the
# search span is next_pow2(3) = 4 in both modes, half the width of 0's tree.
SEARCHES = {
    "fixed-equal-widths": (4, 3, 4),
    "fixed-unequal-widths": (4, 4, 4),
    "adaptive-equal-widths": (None, 3, 4),
    "adaptive-unequal-widths": (None, 4, 4),
}


def assert_widened_and_refuses_the_next_update(g, ec, v, span):
    # the search widened v's tree to the span before it failed, and v's
    # tree, widened or not, still counts its one color
    assert tree_cap(ec.tree[0]) == 8
    assert tree_cap(ec.tree[v]) == max(span, 8 if v == 3 else 1)
    assert _tree_problem(ec.tree[v], [1]) == ""
    with pytest.raises(InternalInvariantViolation, match="failed in the engine"):
        g.insert(1, 2)


@pytest.mark.parametrize("delta, v, span", SEARCHES.values(), ids=SEARCHES.keys())
def test_a_search_range_read_full_fails_the_update(delta, v, span):
    g, ec = two_wide_trees(delta)
    # slot span of 0's tree counts [1, span]: with v's color 1 it reads full
    ec.tree[0][span] += span - 1
    checks = ec.invariant_checks
    with pytest.raises(
        InternalInvariantViolation,
        match=rf"^search range \[1, {span + 1}\) full while coloring \(0, {v}\)$",
    ):
        g.insert(0, v)
    assert ec.invariant_failures == 1
    assert ec.invariant_checks == checks + 1  # the one check made, on the whole span
    assert g._adj[0][v] is None
    assert_widened_and_refuses_the_next_update(g, ec, v, span)


@pytest.mark.parametrize("delta, v, span", SEARCHES.values(), ids=SEARCHES.keys())
def test_a_search_turned_into_a_half_not_full_fails_the_landing_bound(delta, v, span):
    g, ec = two_wide_trees(delta)
    t = ec.tree[0]
    t[2] += 1  # slot 2 counts [1, 2], which reads full: the search turns right, to [3, 4]
    t[3] += 1  # slot 3 counts color 3, which reads held: it turns right again, to color 4
    checks = ec.invariant_checks
    with pytest.raises(
        InternalInvariantViolation,
        match=rf"^color 4 for \(0, {v}\) above deg\(u\) \+ deg\(v\) - 1 = 3$",
    ):
        g.insert(0, v)
    assert ec.invariant_failures == 1
    assert ec.invariant_checks == checks + 2  # the whole-span and the landing check
    assert g._adj[0][v] is None
    assert_widened_and_refuses_the_next_update(g, ec, v, span)


@pytest.mark.parametrize("delta, v, span", SEARCHES.values(), ids=SEARCHES.keys())
def test_a_search_reads_its_span_not_the_width_of_the_trees(delta, v, span):
    g, ec = two_wide_trees(delta)
    assert tree_cap(ec.tree[0]) == 2 * span
    r = g.insert(0, v)
    c = r.stats["color_assigned"]
    assert c == 3  # both endpoints hold color 1, so [1, 2] is full
    # the whole span and one slot per level below it, then a walk per tree
    walks = sum(walk_slots(tree_cap(ec.tree[x]), c) for x in (0, v))
    assert r.stats["tree_visits"] == 2 * span.bit_length() + walks
    ec.self_check()


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


def rebuilt_tree_problem(t, colors):
    """Reference: ``_tree_problem`` by a rebuild of the tree from its
    definition, compared slot by slot."""
    if t is None:
        return "holds colors but has no tree" if colors else ""
    cap = tree_cap(t)
    if cap not in [1 << k for k in range(cap.bit_length())]:
        return f"capacity {cap} is not a power of two"
    for i, c in enumerate(colors):
        if c is None or not 1 <= c <= cap:
            return f"color {c} outside its tree's range [1, {cap}]"
        if c in colors[:i]:
            return f"two edges share color {c}"
    for j, (have, want) in enumerate(zip(t, rebuilt_tree(cap, colors))):
        if have != want:
            counted = f"colors [{j - (j & -j) + 1}, {j}]" if j else "no color"
            return f"slot {j}, counting {counted}, holds {have}, not {want}"
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


def _resize(slots):
    def corrupt(g, ec):
        ec.tree[0][9:] = [0] * slots
    return corrupt


# the slots of a Fenwick tree over [1, 8], by kind, holding colors 1..5:
# t[0] = 0; odd slots count one color (1, 1, 1, 0); 2 and 6 count a pair
# (2, 1); 4 and 8 count [1, slot], the tree's total at 8 (4, 5)
TREE_CORRUPTIONS = {
    "slot-0": (_bump(0), "slot 0, counting no color, holds 1, not 0"),
    "one-color-held": (_bump(5), "slot 5, counting colors [5, 5], holds 2, not 1"),
    "one-color-free": (_bump(7), "slot 7, counting colors [7, 7], holds 1, not 0"),
    "pair": (_bump(6), "slot 6, counting colors [5, 6], holds 2, not 1"),
    "prefix": (_bump(4), "slot 4, counting colors [1, 4], holds 5, not 4"),
    "total": (_bump(8), "slot 8, counting colors [1, 8], holds 6, not 5"),
    "total-and-pair": (_bump(8, 2), "slot 2, counting colors [1, 2], holds 3, not 2"),
    "extra-slot": (_resize(1), "capacity 9 is not a power of two"),
    "color-outside-the-tree": (
        _recolor(5, lambda g: 9), "color 9 outside its tree's range [1, 8]"
    ),
    "color-zero": (_recolor(5, lambda g: 0), "color 0 outside its tree's range [1, 8]"),
    "color-none": (_recolor(3, lambda g: None), "color None outside its tree's range [1, 8]"),
    "color-of-a-sibling-edge": (
        _recolor(3, lambda g: g._adj[0][4]), "two edges share color 4"
    ),
}


@pytest.mark.parametrize(
    "corrupt, message", TREE_CORRUPTIONS.values(), ids=TREE_CORRUPTIONS.keys()
)
def test_self_check_names_the_slot_a_rebuild_names(corrupt, message):
    g, ec = cap_8_star()
    corrupt(g, ec)
    colors = [list(nbrs.values()) for nbrs in g._adj]
    problems = [_tree_problem(t, cs) for t, cs in zip(ec.tree, colors)]
    assert problems == [rebuilt_tree_problem(t, cs) for t, cs in zip(ec.tree, colors)]
    assert problems[0] == message
    with pytest.raises(InternalInvariantViolation) as exc:
        ec.self_check()
    assert str(exc.value) == f"vertex 0: {message}"


@pytest.mark.parametrize("delta, mode", [(8, "uniform-random"), (None, "sliding-window")])
def test_self_check_equals_the_rebuild_on_clean_and_corrupted_trees(delta, mode):
    g, ec = make_engine("edge-c", 30, delta, seed=2)
    for ev in generate(TraceSpec(30, delta, 600, 2, mode)):
        g.apply(ev)
    colors = [list(nbrs.values()) for nbrs in g._adj]
    rng = random.Random(2)
    for v, (t, cs) in enumerate(zip(ec.tree, colors)):
        assert _tree_problem(t, cs) == rebuilt_tree_problem(t, cs) == ""
        if t is not None:
            t[rng.randrange(len(t))] += rng.choice((-1, 1))
            assert _tree_problem(t, cs) == rebuilt_tree_problem(t, cs) != ""


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
