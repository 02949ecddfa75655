"""Tuple coloring: parameter derivation, repair loop, potential accounting."""

import hashlib
import math
import random

import pytest

from colorbench import (
    DeltaTooSmall,
    GreedyVertexColoring,
    InvalidSpec,
    TupleVertexColoring,
    make_det_engine,
    new_graph,
)
from colorbench import verify
from colorbench.det_coloring import NO_NEIGHBORS, DetParams
from colorbench.harness import TraceSpec, generate, make_engine


# -- parameters ------------------------------------------------------------------


def test_params_two_to_sixteen():
    p = DetParams.compute(2**16)
    assert p.eta == pytest.approx(math.exp(4.0))
    assert p.levels == 5
    assert p.radix == 20
    assert p.radix**p.levels == 3_200_000
    assert p.radix**p.levels <= p.eta * p.delta


def test_params_two_fifty_six():
    p = DetParams.compute(256)
    assert p.eta == pytest.approx(math.exp(16.0 / 3.0))
    assert p.levels == 5
    assert p.radix == 8
    assert 8**5 <= p.eta * 256 <= 9**5


@pytest.mark.parametrize("delta", [2**8, 2**12, 2**16, 2**20])
def test_params_inequalities_exact(delta):
    p = DetParams.compute(delta)
    lam, L = p.radix, p.levels
    assert math.log2(delta) <= lam
    assert lam**L <= p.eta * delta <= (lam + 1) ** L
    # last-coordinate threshold strictly below one, in exact integers
    assert delta * (lam + 1) ** L < (lam * (lam - 1)) ** L


def test_params_hold_across_a_delta_sweep():
    for delta in list(range(16, 700)) + [10**3, 10**4, 10**5, 123457]:
        DetParams.compute(delta)  # raises if any derived inequality fails


def test_threshold_table_starts_at_delta():
    p = DetParams.compute(64)
    assert p.max_allowed[0] == 64  # f(0) = 1: empty product


def test_delta_too_small():
    with pytest.raises(DeltaTooSmall):
        DetParams.compute(15)


def test_a_radix_above_one_byte_is_refused():
    # a coordinate is stored in one byte
    assert DetParams.compute(2**221).radix == 255
    with pytest.raises(InvalidSpec, match=f"degree bound {2**222} needs radix 262"):
        DetParams.compute(2**222)


def test_small_delta_falls_back_to_greedy():
    g = new_graph(20, 8)
    eng = make_det_engine(g)
    assert isinstance(eng, GreedyVertexColoring)
    events = generate(TraceSpec(20, 8, 500, 3, "conflict-heavy"))
    for ev in events:
        g.apply(ev)
    assert verify.check_proper_vertex(g, eng.chi).passed
    assert max(eng.chi) <= 9


# -- start coloring ---------------------------------------------------------------


def test_start_colors_count_up_through_the_palette_and_wrap():
    g = new_graph(20_000, 32)
    eng = TupleVertexColoring(g)
    palette = eng.params.palette
    assert palette == 15_625 < g.n
    assert eng.colors() == [v % palette + 1 for v in range(g.n)]
    assert verify.check_tuple_state(g, eng).passed


@pytest.mark.parametrize("seed", [1, 2])
def test_spread_start_needs_few_repairs_on_a_sparse_trace(seed):
    # From the all-ones start these traces took 2,122 and 2,118 repairs.
    g, eng = make_engine("det-vc", 3000, 32)
    for ev in generate(TraceSpec(3000, 32, 3000, seed, "uniform-random")):
        g.apply(ev)
    assert eng.fix_iterations_total <= 300
    assert verify.check_tuple_state(g, eng).passed


# -- structural updates -----------------------------------------------------------


def row(eng, v):
    """v's prefix classes, lengths 0 to L, read from the engine's flat list."""
    w = eng.params.levels + 1
    return eng.nstar[v * w : (v + 1) * w]


def test_insert_differing_first_coordinate_touches_level_zero_only():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    eng.coords[1][0] = 2
    g.insert(0, 1)
    assert row(eng, 0)[0].keys() == {1} and row(eng, 1)[0].keys() == {0}
    assert not row(eng, 0)[1] and not row(eng, 1)[1]
    assert eng.phi == 2


def test_insert_identical_tuples_triggers_repair():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    eng.coords[0] = bytearray([1] * eng.params.levels)
    eng.coords[1] = bytearray([1] * eng.params.levels)
    r = g.insert(0, 1)
    assert r.stats["fix_iterations"] >= 1
    assert eng.coords[0] != eng.coords[1]
    assert verify.check_tuple_state(g, eng).passed


def test_repair_counts_iterations_and_rewritten_coordinates():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    assert eng.fix_invariant(()) == (0, 0)  # nothing to repair
    # Wire one identical-tuple edge by hand, then repair via the public op.
    g.attach(None)
    g.insert(2, 3)
    L = eng.params.levels
    eng.coords[2] = bytearray([1] * L)
    eng.coords[3] = bytearray([1] * L)
    # length 0 is the graph's adjacency, which already holds the edge
    for j in range(1, L + 1):
        eng.nstar[2 * (L + 1) + j] = {3}
        eng.nstar[3 * (L + 1) + j] = {2}
    eng.phi += 2 * (L + 1)
    repairs, rewritten = eng.fix_invariant((2, 3))
    assert repairs == 1
    # vertex 2 is repaired; vertex 3 keeps its tuple
    old = bytearray([1] * L)
    assert eng.coords[3] == old and eng.coords[2] != old
    # smallest index whose threshold a single shared neighbor breaks
    k = next(j for j in range(1, L + 1) if eng.params.max_allowed[j] < 1)
    new = eng.coords[2]
    assert new[: k - 1] == old[: k - 1] and new[k - 1] != old[k - 1]
    assert rewritten == L - k + 1
    # the shared prefix is now exactly k - 1 long
    assert 3 in row(eng, 2)[k - 1] and 3 not in row(eng, 2)[k]
    assert verify.check_tuple_state(g, eng).passed
    assert eng.fix_invariant((2, 3)) == (0, 0)  # both within their bounds now


def record_fix_calls(eng):
    """Wrap eng's fix_invariant on the instance; returns the vertices each call starts from."""
    seen = []
    fix = eng.fix_invariant

    def recorded(start):
        seen.append(list(start))
        return fix(start)

    eng.fix_invariant = recorded
    return seen


@pytest.mark.parametrize("hub", [20, 0], ids=["higher-endpoint", "lower-endpoint"])
def test_an_insert_repairs_only_when_a_class_it_grew_breaks_its_bound(hub):
    # At delta=32 the bounds are (32, 9, 2, 0, ...). The hub, one endpoint of
    # the last insert, first gains nine neighbors sharing only its first
    # coordinate: its length-1 class reaches its bound exactly, and no insert
    # calls the repair loop. The last insert, (0, 20), shares two coordinates
    # and takes only the hub's length-1 class over; both length-2 classes stay
    # within theirs. Both endpoints are queued, lower first, and the hub moves
    # to the free first coordinate 2. The receipts are those of an engine
    # that queued both endpoints of every insert.
    g = new_graph(21, 32)
    eng = TupleVertexColoring(g)
    assert eng.params.max_allowed == (32, 9, 2, 0, 0, 0, 0)
    L = eng.params.levels
    for x in range(1, 10):
        eng.coords[x][:] = bytearray([1, 2 + x % 4] + [1] * (L - 2))
    eng.coords[0][:] = bytearray([1] * L)
    eng.coords[20][:] = bytearray([1, 1] + [2] * (L - 2))
    seen = record_fix_calls(eng)
    filled = [g.insert(hub, x).stats for x in range(1, 10)]
    assert filled == [
        {"fix_iterations": 0, "coords_rewritten": 0, "phi_before": 4 * k,
         "phi_after": 4 * k, "cells_touched": 6}
        for k in range(1, 10)
    ]
    assert len(row(eng, hub)[1]) == eng.params.max_allowed[1] and seen == []
    assert g.insert(0, 20).stats == {
        "fix_iterations": 1, "coords_rewritten": 6, "phi_before": 42,
        "phi_after": 20, "cells_touched": 48,
    }
    assert seen == [[0, 20]]
    other = 20 - hub
    assert list(eng.coords[hub]) == [2] + [1] * (L - 1)
    assert list(eng.coords[other]) == ([1] * L if other == 0 else [1, 1] + [2] * (L - 2))
    assert verify.check_tuple_state(g, eng).passed


def test_an_insert_whose_first_coordinates_differ_does_no_queue_work():
    g = new_graph(4, 32)
    eng = TupleVertexColoring(g)
    eng.coords[3][0] = 2
    seen = record_fix_calls(eng)
    assert g.insert(0, 3).stats == {
        "fix_iterations": 0, "coords_rewritten": 0, "phi_before": 2,
        "phi_after": 2, "cells_touched": 3,
    }
    assert seen == []
    assert eng.fix_iterations_total == 0
    assert verify.check_tuple_state(g, eng).passed


def test_a_repair_that_takes_a_neighbor_over_its_bound_queues_it_behind_both_endpoints():
    # The last insert of a searched conflict-heavy trace (n=17, delta=16,
    # bounds (16, 6, 2, 1, 0, 0, 0, 0)) joins vertices 1 and 14 of equal
    # colors: 1's length-2 class and 14's length-1 class go over. Vertex 1 is
    # repaired first, at k=2, and its new second coordinate puts it in the
    # length-2 class of vertex 13, which was at its bound. So 13 is queued
    # once, behind 14, and repaired after it within the same insert. The
    # receipt and colors are those of the engine that kept its queue on itself.
    spec = TraceSpec(17, 16, 142, 147, "conflict-heavy")
    *fill, last = generate(spec)
    g, eng = make_engine("det-vc", spec.n, spec.delta)
    for ev in fill:
        g.apply(ev)
    assert eng.fix_iterations_total == 52
    assert (last.kind, last.u, last.v) == ("+", 1, 14) and eng.coords[1] == eng.coords[14]
    assert len(row(eng, 13)[2]) == eng.params.max_allowed[2] == 2
    repaired = []
    fix = eng._fix_vertex

    def recorded(x, k, q, queued):
        rewritten = fix(x, k, q, queued)
        repaired.append((x, k, list(q)))  # the queue that x's repair leaves
        return rewritten

    eng._fix_vertex = recorded
    assert g.apply(last).stats == {
        "fix_iterations": 3, "coords_rewritten": 19, "phi_before": 218,
        "phi_after": 184, "cells_touched": 142,
    }
    assert repaired == [(1, 2, [14, 13]), (14, 1, [13]), (13, 2, [])]
    assert [list(eng.coords[x]) for x in (1, 14, 13)] == [
        [1, 2, 2, 1, 1, 1, 1], [3, 2, 1, 1, 1, 1, 1], [1, 4, 1, 1, 1, 1, 1],
    ]
    assert eng.colors() == [
        65, 1281, 4353, 65, 8193, 321, 321, 4161, 4097, 3073, 1281, 2049, 1089,
        3073, 9217, 1025, 12289,
    ]
    assert verify.check_tuple_invariant(g, eng)[0].passed
    assert verify.check_tuple_state(g, eng).passed


def test_receipts_and_colors_match_the_golden_on_a_dense_trace():
    # sha256 of every receipt (its values in field order, one line each) and
    # of the final colors, on a conflict-heavy trace that fills a 129-vertex
    # graph to degree delta=128, where the bounds are (128, 20, 3, 0, 0, 0).
    # Recorded when every insert queued both endpoints and ran the repair loop.
    spec = TraceSpec(129, 128, 20000, 7, "conflict-heavy")
    g, eng = make_engine("det-vc", spec.n, spec.delta)
    assert eng.params.max_allowed == (128, 20, 3, 0, 0, 0)
    rows = [",".join(map(str, g.apply(ev).stats.values())) for ev in generate(spec)]
    rows.append(",".join(map(str, eng.colors())))
    assert eng.fix_iterations_total == 777
    assert max(map(len, g._adj)) == 128
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "a8b29f3a06c8976726af8223c0370db29a1e303cf3aff2959544ef262a7340d4"
    )


def test_delete_updates_every_shared_prefix_level():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    g.insert(0, 1)  # repair leaves some shared prefix i < L
    i = 0
    while i < eng.params.levels and eng.coords[0][i] == eng.coords[1][i]:
        i += 1
    phi0 = eng.phi
    g.delete(0, 1)
    assert eng.phi == phi0 - 2 * (i + 1)
    assert all(not s for s in row(eng, 0))
    assert verify.check_tuple_state(g, eng).passed


def test_deleting_every_edge_returns_every_class_to_the_shared_empty_set():
    g, eng = make_engine("det-vc", 60, 16, seed=4)
    for ev in generate(TraceSpec(60, 16, 2000, 13, "insert-heavy")):
        g.apply(ev)
    assert eng.fix_iterations_total > 0
    for lo, hi in list(g.edges()):
        g.delete(lo, hi)
    assert all(cls is NO_NEIGHBORS for v in range(g.n) for cls in row(eng, v)[1:])
    # length 0 is the graph's own adjacency, now empty
    assert all(row(eng, v)[0] is g._adj[v] and not g._adj[v] for v in range(g.n))
    assert eng.phi == 0
    assert verify.check_tuple_state(g, eng).passed


def test_length_zero_class_is_the_graphs_neighbor_view():
    g, eng = make_engine("det-vc", 200, 32, seed=5)
    for ev in generate(TraceSpec(200, 32, 3000, 11, "conflict-heavy")):
        g.apply(ev)
    assert any(g._adj[v] for v in range(200)) and eng.fix_iterations_total > 0
    for v in range(200):
        assert row(eng, v)[0] is g._adj[v]
    assert verify.check_tuple_state(g, eng).passed


def test_potential_empty_graph_is_zero():
    g = new_graph(10, 16)
    eng = TupleVertexColoring(g)
    assert eng.phi == 0


def test_repair_picks_least_loaded_value():
    # 13 neighbors of vertex 0 share its first coordinate value 3 alongside
    # classes of sizes 3, 1, 2 at values 1, 2, 4; the 7th same-class insert
    # breaks the level-1 bound (6 for delta=16) and the rewrite must take
    # the unique least-loaded value 2.
    g = new_graph(20, 16)
    eng = TupleVertexColoring(g)
    first = [1, 1, 1, 2, 4, 4] + [3] * 7
    for j, c in enumerate(first, start=1):
        eng.coords[j][0] = c
        eng.coords[j][1] = 2 + (j % 3)  # spread second coordinates off value 1
    eng.coords[0][0] = 3
    assert eng.params.max_allowed[1] == 6
    fixes = 0
    for j in range(1, 14):
        fixes += g.insert(0, j).stats["fix_iterations"]
    assert fixes == 1
    assert eng.coords[0][0] == 2
    assert verify.check_tuple_state(g, eng).passed


def test_repair_instrumentation_clean_on_random_traces():
    for seed, delta in ((1, 16), (2, 32)):
        g, eng = make_engine("det-vc", 100, delta, seed=seed)
        events = generate(TraceSpec(100, delta, 4000, seed, "uniform-random"))
        for ev in events:
            g.apply(ev)
        assert eng.fix_iterations_total > 0
        assert eng.flip_budget_violations == 0
        assert eng.argmin_bound_violations == 0
        assert eng.pair_count_violations == 0
        assert eng.drop_bound_violations == 0
        assert eng.iter_cost_max_ratio <= 8.0
        assert verify.check_tuple_state(g, eng).passed
        assert verify.check_proper_vertex(g, eng.colors()).passed


def test_phi_step_bounded_by_update_footprint():
    g, eng = make_engine("det-vc", 60, 16, seed=3)
    events = generate(TraceSpec(60, 16, 2000, 9, "insert-heavy"))
    L = eng.params.levels
    prev = 0
    for ev in events:
        r = g.apply(ev)
        assert abs(r.stats["phi_before"] - prev) <= 2 * (L + 1)
        prev = r.stats["phi_after"]


def test_properness_after_every_insert_small_trace():
    g, eng = make_engine("det-vc", 200, 32, seed=5)
    events = generate(TraceSpec(200, 32, 3000, 11, "conflict-heavy"))
    for ev in events:
        g.apply(ev)
        chi = eng.colors()
        assert chi[ev.u] != chi[ev.v] or ev.kind == "-"
    report = verify.check_proper_vertex(g, eng.colors())
    assert report.passed
    assert max(eng.colors()) <= eng.params.palette


def test_rebuild_oracle_after_heavy_churn_and_drain():
    g, eng = make_engine("det-vc", 80, 16, seed=7)
    rng = random.Random(13)
    for _ in range(5000):
        u, v = rng.randrange(80), rng.randrange(80)
        if u == v:
            continue
        if g.has_edge(u, v):
            g.delete(u, v)
        else:
            try:
                g.insert(u, v)
            except Exception:
                pass
    assert verify.check_tuple_state(g, eng).passed
    for lo, hi in list(g.edges()):
        g.delete(lo, hi)
    assert eng.phi == 0
    assert verify.check_tuple_state(g, eng).passed


def test_needs_degree_bound():
    with pytest.raises(ValueError):
        TupleVertexColoring(new_graph(5, None))
