"""Randomized vertex coloring: properness, pools, chains, adaptive palettes."""

import random

import pytest

from colorbench import InternalInvariantViolation, RandVertexColoring, new_graph
from colorbench import verify
from colorbench.harness import TraceSpec, generate, make_engine


class IndexRng:
    """Stub RNG whose randrange always picks a fixed index."""

    def __init__(self, idx):
        self.idx = idx

    def randrange(self, n):
        return min(self.idx, n - 1)


def churn(g, seed, steps, n=None):
    rng = random.Random(seed)
    n = n if n is not None else g.n
    for _ in range(steps):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if g.has_edge(u, v):
            g.delete(u, v)
        else:
            try:
                g.insert(u, v)
            except Exception:
                pass


# -- driver behavior --------------------------------------------------------------


def test_delete_never_recolors():
    g = new_graph(20, 8)
    eng = RandVertexColoring(g, seed=5)
    churn(g, 1, 400)
    for h in list(g.edges()):
        r = g.delete(h.lo, h.hi)
        assert r.stats["recolor_calls"] == 0


def test_insert_between_different_colors_never_recolors():
    g = new_graph(20, 8)
    eng = RandVertexColoring(g, seed=5)
    rng = random.Random(9)
    for _ in range(500):
        u, v = rng.randrange(20), rng.randrange(20)
        if u == v or g.has_edge(u, v) or eng.chi[u] == eng.chi[v]:
            continue
        try:
            r = g.insert(u, v)
        except Exception:
            continue
        assert r.stats["recolor_calls"] == 0


def test_conflicting_insert_recolors_latest_stamped_endpoint():
    g = new_graph(4, 3)
    eng = RandVertexColoring(g, seed=0)
    eng.chi[0] = eng.chi[1] = 2
    eng.tau[0], eng.tau[1] = 0, 7
    r = g.insert(0, 1)
    assert r.stats["recolor_calls"] >= 1
    assert eng.chi[0] == 2  # untouched: older stamp
    assert eng.chi[1] != 2
    assert verify.check_proper_vertex(g, eng.chi).passed


def test_conflicting_insert_tie_breaks_to_smaller_id():
    g = new_graph(4, 3)
    eng = RandVertexColoring(g, seed=0)
    eng.chi[2] = eng.chi[3] = 1
    eng.tau[2] = eng.tau[3] = 0
    g.insert(2, 3)
    assert eng.chi[3] == 1
    assert eng.chi[2] != 1


def test_properness_after_every_update_on_random_trace():
    for seed in (1, 2):
        g, eng = make_engine("rand-vc", 50, 8, seed=seed)
        events = generate(TraceSpec(50, 8, 1200, seed + 10, "uniform-random"))
        for ev in events:
            g.apply(ev)
            assert eng.chi[ev.u] != eng.chi[ev.v] or ev.kind == "-"
        assert verify.check_proper_vertex(g, eng.chi).passed
        assert max(eng.chi) <= eng.palette


# -- recolor mechanics -----------------------------------------------------------


def test_isolated_vertex_recolor_no_recursion():
    g = new_graph(5, 4)
    eng = RandVertexColoring(g, seed=3)
    chain = eng.recolor(0)
    assert len(chain) == 1
    assert 1 <= eng.chi[0] <= 5


def test_unique_draw_recurses_exactly_once_to_below_neighbor():
    # Center promoted to level 5, then stripped to one below-neighbor; a
    # forced draw of that neighbor's color must push the conflict down to
    # level 4 where a blank color ends the chain.
    g = new_graph(40, 32)
    eng = RandVertexColoring(g, seed=0, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    assert eng.hier.level_of(0) == 5
    for v in range(2, 18):
        g.delete(0, v)
    assert eng.hier.level_of(0) == 5
    assert eng.hier.below_degree(0) == 1

    view = eng.blank_unique(0)
    assert view.unique == [eng.chi[1]]
    eng.rng = IndexRng(view.unique[0] - 1)  # pool is ascending: color c at index c-1
    old_below_color = eng.chi[1]
    chain = eng.recolor(0)
    assert [v for v, _ in chain] == [0, 1]
    assert eng.chi[0] == old_below_color
    assert eng.chi[1] != old_below_color
    assert verify.check_proper_vertex(g, eng.chi).passed


def test_blank_unique_partition_and_classification():
    g = new_graph(40, 32)
    eng = RandVertexColoring(g, seed=1, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    for v in range(4, 18):
        eng.chi[v] = v  # distinct fillers
    eng.chi[1] = eng.chi[2] = 31
    eng.chi[3] = 32
    # rebuild tables to match the forced colors
    eng.mu = verify.rebuild_upper_color_counts(g, eng.hier, eng.chi)
    view = eng.blank_unique(0)
    assert 31 in view.twice_plus
    assert 32 in view.unique
    assert len(view.blank) + len(view.unique) + len(view.twice_plus) == (
        eng.palette - len(eng.mu[0])
    )


def test_no_below_neighbors_means_all_free_colors_blank():
    g = new_graph(10, 5)
    eng = RandVertexColoring(g, seed=2)
    g.insert(0, 1)
    view = eng.blank_unique(0)
    assert view.unique == [] and view.twice_plus == []
    assert len(view.blank) == eng.palette - len(eng.mu[0])


def test_blank_unique_matches_brute_force_on_random_graphs():
    rng = random.Random(123)
    for trial in range(20):
        n = rng.randrange(5, 50)
        delta = rng.choice([4, 8, 16])
        g, eng = make_engine("rand-vc", n, delta, seed=trial, beta=2)
        churn(g, trial + 50, 300)
        for v in range(n):
            blank, unique, rest = verify.brute_blank_unique(
                g, eng.chi, eng.hier, v, eng.palette
            )
            view = eng.blank_unique(v)
            assert set(view.blank) == blank
            assert set(view.unique) == unique
            assert set(view.twice_plus) == rest


def test_pool_floor_claim_observed():
    # |blank| + |unique| >= 1 + below/2 at every vertex, not just at recolors.
    g, eng = make_engine("rand-vc", 80, 16, seed=4, beta=2)
    churn(g, 99, 2500)
    for v in range(80):
        view = eng.blank_unique(v)
        assert 2 * (len(view.blank) + len(view.unique)) >= 2 + eng.hier.below_degree(v)


def test_chain_length_within_level_range():
    g, eng = make_engine("rand-vc", 150, 64, seed=6, beta=2)
    events = generate(TraceSpec(150, 64, 6000, 21, "insert-heavy"))
    cap = eng.hier.L - 3
    for ev in events:
        r = g.apply(ev)
        assert r.stats["chain_len_max"] <= cap


def test_recolor_that_does_not_descend_raises():
    g = new_graph(4, 8)
    eng = RandVertexColoring(g, seed=1)
    with pytest.raises(InternalInvariantViolation):
        eng._recolor(0, [], parent_level=eng.hier.level[0])


# -- table consistency across moves ------------------------------------------------


def test_tables_match_rebuild_after_level_moves():
    g, eng = make_engine("rand-vc", 120, 64, seed=8, beta=2)
    events = generate(TraceSpec(120, 64, 8000, 31, "insert-heavy"))
    for ev in events:
        g.apply(ev)
    assert len(set(eng.hier.level)) > 1, "trace failed to exercise level moves"
    assert verify.rebuild_upper_color_counts(g, eng.hier, eng.chi) == eng.mu
    for h in list(g.edges()):
        g.delete(h.lo, h.hi)
    assert verify.rebuild_upper_color_counts(g, eng.hier, eng.chi) == eng.mu
    assert all(not m for m in eng.mu)


def test_move_with_no_neighbors_changes_no_tables():
    g = new_graph(10, 8)
    eng = RandVertexColoring(g, seed=0, beta=2)
    before = [dict(m) for m in eng.mu]
    eng._on_level_move(3, 4, 5)
    assert eng.mu == before


# -- adaptive palettes ---------------------------------------------------------------


def test_adaptive_isolated_vertex_forced_to_one():
    g = new_graph(5, None)
    eng = RandVertexColoring(g, seed=9, adaptive=True)
    assert eng.chi == [1] * 5
    chain = eng.recolor(0)
    assert eng.chi[0] == 1  # only color in the singleton palette


def test_adaptive_pool_stays_within_degree_plus_one():
    g = new_graph(30, None)
    eng = RandVertexColoring(g, seed=10, adaptive=True)
    churn(g, 77, 800, n=30)
    for v in range(30):
        view = eng.blank_unique(v)
        limit = g.degree(v) + 1
        assert all(c <= limit for c in view.blank + view.unique + view.twice_plus)
        assert eng.chi[v] <= limit


def test_adaptive_delete_recolors_stranded_color():
    g = new_graph(30, None)
    eng = RandVertexColoring(g, seed=11, adaptive=True)
    churn(g, 78, 1200, n=30)
    for h in list(g.edges()):
        r = g.delete(h.lo, h.hi)
        assert eng.chi[h.lo] <= g.degree(h.lo) + 1
        assert eng.chi[h.hi] <= g.degree(h.hi) + 1
        assert verify.check_proper_vertex(g, eng.chi).passed
    assert eng.chi == [1] * 30


# -- determinism -----------------------------------------------------------------------


def test_same_seed_same_run():
    def run(seed):
        g, eng = make_engine("rand-vc", 60, 8, seed=seed)
        events = generate(TraceSpec(60, 8, 2000, 40, "conflict-heavy"))
        receipts = [tuple(sorted(g.apply(ev).stats.items())) for ev in events]
        return receipts, eng.chi[:]

    assert run(5) == run(5)
    r1, _ = run(5)
    r2, _ = run(6)
    assert r1 != r2  # different seeds draw different colors somewhere
