"""Tuple coloring: parameter derivation, repair loop, potential accounting."""

import math
import random

import pytest

from colorbench import (
    DeltaTooSmall,
    GreedyVertexColoring,
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


def test_small_delta_falls_back_to_greedy():
    g = new_graph(20, 8)
    eng = make_det_engine(g)
    assert isinstance(eng, GreedyVertexColoring)
    events = generate(TraceSpec(20, 8, 500, 3, "conflict-heavy"))
    for ev in events:
        g.apply(ev)
    assert verify.check_proper_vertex(g, eng.chi).passed
    assert max(eng.chi) <= 9


# -- structural updates -----------------------------------------------------------


def test_insert_differing_first_coordinate_touches_level_zero_only():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    eng.coords[1][0] = 2
    g.insert(0, 1)
    assert eng.nstar[0][0] == {1} and eng.nstar[1][0] == {0}
    assert not eng.nstar[0][1] and not eng.nstar[1][1]
    assert eng.potential() == 2


def test_insert_identical_tuples_triggers_repair():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    r = g.insert(0, 1)
    assert r.stats["fix_iterations"] >= 1
    assert eng.coords[0] != eng.coords[1]
    assert verify.check_tuple_state(g, eng).passed


def test_repair_events_name_vertex_index_and_tuples():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    assert eng.fix_invariant() == []  # nothing queued
    # Wire one identical-tuple edge by hand, then repair via the public op.
    g.attach(None)
    g.insert(2, 3)
    L = eng.params.levels
    for j in range(L + 1):
        eng.nstar[2][j] = {3}
        eng.nstar[3][j] = {2}
    eng.phi += 2 * (L + 1)
    for x in (2, 3):
        eng._queue.append(x)
        eng._inq[x] = 1
    events = eng.fix_invariant()
    assert len(events) == 1
    x, k, old, new = events[0]
    assert x == 2 and old == (1,) * L
    # smallest index whose threshold a single shared neighbor breaks
    assert k == next(j for j in range(1, L + 1) if eng.params.max_allowed[j] < 1)
    assert new[: k - 1] == old[: k - 1] and new[k - 1] != old[k - 1]
    assert verify.check_tuple_state(g, eng).passed
    assert eng.fix_invariant() == []


def test_delete_updates_every_shared_prefix_level():
    g = new_graph(4, 16)
    eng = TupleVertexColoring(g)
    g.insert(0, 1)  # repair leaves some shared prefix i < L
    i = 0
    while i < eng.params.levels and eng.coords[0][i] == eng.coords[1][i]:
        i += 1
    phi0 = eng.potential()
    g.delete(0, 1)
    assert eng.potential() == phi0 - 2 * (i + 1)
    assert all(not s for s in eng.nstar[0])
    assert verify.check_tuple_state(g, eng).passed


def test_deleting_every_edge_returns_every_class_to_the_shared_empty_set():
    g, eng = make_engine("det-vc", 60, 16, seed=4)
    for ev in generate(TraceSpec(60, 16, 2000, 13, "insert-heavy")):
        g.apply(ev)
    assert eng.fix_iterations_total > 0
    for h in list(g.edges()):
        g.delete(h.lo, h.hi)
    assert all(cls is NO_NEIGHBORS for classes in eng.nstar for cls in classes)
    assert eng.potential() == 0
    assert verify.check_tuple_state(g, eng).passed


def test_potential_empty_graph_is_zero():
    g = new_graph(10, 16)
    eng = TupleVertexColoring(g)
    assert eng.potential() == 0


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
    for h in list(g.edges()):
        g.delete(h.lo, h.hi)
    assert eng.potential() == 0
    assert verify.check_tuple_state(g, eng).passed


def test_needs_degree_bound():
    with pytest.raises(ValueError):
        TupleVertexColoring(new_graph(5, None))
