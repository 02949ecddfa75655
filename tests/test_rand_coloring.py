"""Randomized vertex coloring: properness, pools, chains, adaptive palettes."""

import hashlib
import random

import pytest

from colorbench import InternalInvariantViolation, RandVertexColoring, new_graph
from colorbench import verify
from colorbench.graph import DELETE, INSERT, UpdateEvent
from colorbench.harness import TraceSpec, generate, make_engine
from colorbench.hierarchy import BOTTOM_LEVEL


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
    for lo, hi in list(g.edges()):
        r = g.delete(lo, hi)
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


@pytest.mark.parametrize("palette", [2, 17, 32, 33, 129])
def test_start_colors_are_one_randint_per_vertex(palette):
    n = 500
    for seed in (0, 1, 7, 2024):
        eng = RandVertexColoring(new_graph(n, palette - 1), seed=seed)
        assert eng.palette == palette
        ref = random.Random(seed)
        assert eng.chi == [ref.randint(1, palette) for _ in range(n)]
        # the stream is left where n randint calls leave it
        assert eng.rng.getstate() == ref.getstate()


# -- recolor mechanics -----------------------------------------------------------


def test_isolated_vertex_recolor_no_recursion():
    g = new_graph(5, 4)
    eng = RandVertexColoring(g, seed=3)
    chain, _ = eng.recolor(0)
    assert len(chain) == 1
    assert 1 <= eng.chi[0] <= 5


def test_isolated_vertex_draws_from_the_whole_palette():
    # Every color is blank for an isolated vertex, so the pool's last index
    # is the top of the palette, above beta**level = 16 at level 4.
    g = new_graph(5, 32)
    eng = RandVertexColoring(g, seed=0, beta=2)
    assert eng.hier.level[0] == BOTTOM_LEVEL
    eng.rng = IndexRng(10**6)
    chain, pool_min = eng.recolor(0)
    assert chain == [(0, 33)]
    assert pool_min == 33


def test_unique_draw_recurses_exactly_once_to_below_neighbor():
    # Center promoted to level 5, then stripped to one below-neighbor; a
    # forced draw of that neighbor's color must push the conflict down to
    # level 4 where a blank color ends the chain.
    g = new_graph(40, 32)
    eng = RandVertexColoring(g, seed=0, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    assert eng.hier.level[0] == 5
    for v in range(2, 18):
        g.delete(0, v)
    assert eng.hier.level[0] == 5
    assert eng.hier.below_degree(0) == 1

    view = eng.blank_unique(0)
    assert view.unique == [eng.chi[1]]
    eng.rng = IndexRng(view.unique[0] - 1)  # pool is ascending: color c at index c-1
    old_below_color = eng.chi[1]
    chain, _ = eng.recolor(0)
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


def test_every_draw_spans_the_brute_force_blank_unique_split():
    g, eng = make_engine("rand-vc", 66, 32, seed=2, beta=2)
    entered = []  # a draw happens before any descent, so the last entry draws
    draws = []  # (pool size, level) of every draw
    inner, real = eng._recolor, eng.rng

    def recolor(v, chain, parent_level):
        entered.append(v)
        return inner(v, chain, parent_level)

    class CheckedRng:
        def randrange(self, n):
            v = entered[-1]
            blank, unique, _ = verify.brute_blank_unique(g, eng.chi, eng.hier, v, eng.palette)
            assert n == len(blank | unique), (v, n, len(blank | unique))
            draws.append((n, eng.hier.level[v]))
            return real.randrange(n)

    eng._recolor = recolor
    eng.rng = CheckedRng()
    moves = recolors = 0
    for ev in block_cycles(4, 2, 32, 1):
        stats = g.apply(ev).stats
        moves += stats["level_moves"]
        recolors += stats["recolor_calls"]
    assert moves, "trace failed to exercise level moves"
    assert len(draws) == recolors > 0
    assert any(n > 2**level for n, level in draws), "no pool wider than beta**level"


# -- table consistency across moves ------------------------------------------------


def test_tables_match_rebuild_after_level_moves():
    g, eng = make_engine("rand-vc", 120, 64, seed=8, beta=2)
    events = generate(TraceSpec(120, 64, 8000, 31, "insert-heavy"))
    for ev in events:
        g.apply(ev)
    assert len(set(eng.hier.level)) > 1, "trace failed to exercise level moves"
    assert verify.rebuild_upper_color_counts(g, eng.hier, eng.chi) == eng.mu
    for lo, hi in list(g.edges()):
        g.delete(lo, hi)
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
    eng = RandVertexColoring(g, seed=9)
    assert eng.chi == [1] * 5
    chain, _ = eng.recolor(0)
    assert eng.chi[0] == 1  # only color in the singleton palette


def test_adaptive_pool_stays_within_degree_plus_one():
    g = new_graph(30, None)
    eng = RandVertexColoring(g, seed=10)
    churn(g, 77, 800, n=30)
    for v in range(30):
        view = eng.blank_unique(v)
        limit = g.degree(v) + 1
        assert all(c <= limit for c in view.blank + view.unique + view.twice_plus)
        assert eng.chi[v] <= limit


def test_adaptive_delete_recolors_stranded_color():
    g = new_graph(30, None)
    eng = RandVertexColoring(g, seed=11)
    churn(g, 78, 1200, n=30)
    for lo, hi in list(g.edges()):
        r = g.delete(lo, hi)
        assert eng.chi[lo] <= g.degree(lo) + 1
        assert eng.chi[hi] <= g.degree(hi) + 1
        assert verify.check_proper_vertex(g, eng.chi).passed
    assert eng.chi == [1] * 30


# -- determinism -----------------------------------------------------------------------


def block_cycles(seed, blocks, delta, cycles, fill=0.9, floor=0.02):
    """Fill disjoint blocks of delta+1 vertices, drain them, and fill again.

    Each cycle inserts random absent pairs until a ``fill`` share of all
    block pairs is live, then deletes random live pairs down to a ``floor``
    share; a last fill ends the trace. Filling promotes vertices and
    draining demotes them, so at beta=2 the hierarchy moves hundreds of times.
    """
    rng = random.Random(seed)
    size = delta + 1
    absent = [(b * size + i, b * size + j) for b in range(blocks)
              for i in range(size) for j in range(i + 1, size)]
    total = len(absent)
    live, events = [], []
    for cycle in range(cycles + 1):
        rng.shuffle(absent)
        k = int(fill * total) - len(live)
        events += [UpdateEvent(INSERT, *e) for e in absent[:k]]
        live += absent[:k]
        del absent[:k]
        if cycle == cycles:
            return events
        rng.shuffle(live)
        k = len(live) - int(floor * total)
        events += [UpdateEvent(DELETE, *e) for e in live[:k]]
        absent += live[:k]
        del live[:k]


@pytest.fixture(scope="module")
def cycled():
    """rand-vc at beta=2 after two fill-and-drain cycles on a block of 129.

    At delta=128 the top level is 7, whose floor of 2**2 lower neighbors lets
    a demotion re-file up to three neighbors, so their order is observable.
    """
    g, eng = make_engine("rand-vc", 129, 128, seed=1, beta=2)
    moves = sum(g.apply(ev).stats["level_moves"] for ev in block_cycles(1, 1, 128, 2))
    return g, eng, moves


def neighbor_layout(hier):
    """Each vertex's below set and nonempty same sets, in iteration order."""
    lines = []
    for v in range(hier.n):
        bands = [
            f"{j}:{','.join(map(str, hier.same_list(v, j)))}"
            for j in range(BOTTOM_LEVEL, hier.L + 1)
            if hier.same_list(v, j)
        ]
        lines.append(f"{v} below:{','.join(map(str, hier.below[v]))} {' '.join(bands)}")
    return "\n".join(lines)


def test_colors_levels_and_neighbor_order_match_the_golden(cycled):
    # Levels and layout recorded when the neighbor sets were linked lists of
    # cells (626 promotions, 153 demotions); colors recorded when the draw
    # became uniform over every blank or unique color. The order of each set
    # decides the order of restore-queue entries and of recolor scans, so a
    # set that kept membership but not order would fail at least the layout
    # digest.
    g, eng, moves = cycled
    assert moves == 779

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(",".join(map(str, eng.chi))) == (
        "74659343187ab683d69a207b40b7468a839ddb40f7959c275ac4e3b9ec4fc187"
    )
    assert digest(",".join(map(str, eng.hier.level))) == (
        "24a8c4fe79e3298ba60dbfb33ae3e05af4f23462659916a266a2e68412714cf7"
    )
    assert digest(neighbor_layout(eng.hier)) == (
        "57ffe5928d490d3444f08fa093b7a967c90e16b1ba3da6c88e06309b67a4a7f5"
    )


def test_receipts_and_colors_match_the_golden_while_levels_move():
    # sha256 of every receipt (its values in field order, one line each) and
    # of the final colors, on the trace the cycled fixture replays. Unlike the
    # layout golden, it pins each update's cells_touched and level_moves.
    # Recorded before the hierarchy stopped rechecking the bound a change
    # cannot break.
    g, eng = make_engine("rand-vc", 129, 128, seed=1, beta=2)
    rows = [",".join(map(str, g.apply(ev).stats.values())) for ev in block_cycles(1, 1, 128, 2)]
    rows.append(",".join(map(str, eng.chi)))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "561e20ecb17a5a20dcd1b158e7e96ff372589d60a6aa4c68ff66481bb75984e9"
    )


def test_blank_unique_matches_brute_force_after_level_moves(cycled):
    g, eng, _ = cycled
    assert len(set(eng.hier.level)) > 2
    unique_seen = 0
    for v in range(g.n):
        blank, unique, rest = verify.brute_blank_unique(g, eng.chi, eng.hier, v, eng.palette)
        view = eng.blank_unique(v)
        assert (view.blank, view.unique, view.twice_plus) == (
            sorted(blank), sorted(unique), sorted(rest)
        )
        unique_seen += bool(unique)
    assert unique_seen, "no vertex had a color held by exactly one lower neighbor"


# sha256 of every receipt (its values in field order, one line each) and of
# the final colors, with engine seed 3, on runs where beta**4 is at least the
# degree bound, so that no vertex can leave level 4: the CSV-golden trace of
# tests/test_harness.py at beta=21, an adaptive sliding-window run (n=60,
# beta=21) and an adaptive conflict-heavy run at n=17, beta=2, whose bound
# n - 1 = 16 equals beta**4. Recorded when every vertex still kept its own
# copy of its neighbors at level 4.
DORMANT_GOLDEN = {
    (200, 32, "conflict-heavy", 4000, 21):
        "e19753ccaf645ab58dc1d8912006c07b6361c28af630745ea93537fda32396aa",
    (60, None, "sliding-window", 4000, 21):
        "b7a16c68d273f18c5ca8c16b5ed248b77ead109885085ec5d09c79256e24111e",
    (17, None, "conflict-heavy", 2000, 2):
        "442788c7f9f0bf2acdaefe16bdaf4e46d0a959052b5aab6cc05aadc625607993",
}


@pytest.mark.parametrize("case", sorted(DORMANT_GOLDEN, key=str))
def test_receipts_and_colors_match_the_golden_while_no_level_can_move(case):
    n, delta, mode, updates, beta = case
    g, eng = make_engine("rand-vc", n, delta, seed=3, beta=beta)
    assert eng.hier.pow[BOTTOM_LEVEL] >= (delta or n - 1)
    rows = [
        ",".join(map(str, g.apply(ev).stats.values()))
        for ev in generate(TraceSpec(n, delta, updates, 5, mode))
    ]
    rows.append(",".join(map(str, eng.chi)))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == DORMANT_GOLDEN[case]
    assert set(eng.hier.level) == {BOTTOM_LEVEL}


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
