"""Level partition: band search, restore loop, amortized trend."""

import random

import pytest

from colorbench import InternalInvariantViolation, InvalidBase, new_graph
from colorbench.hierarchy import EMPTY_NEIGHBORS, LevelPartition
from colorbench.verify import check_hierarchy


def attach(n, delta, beta):
    """Graph plus a bare partition wired to its updates."""
    g = new_graph(n, delta)

    class Shim:
        RECEIPT_FIELDS = ("level_moves",)

        def __init__(self):
            self.part = LevelPartition(n, delta, beta)

        def on_insert(self, lo, hi):
            return (self.part.on_structural_update(lo, hi, "+"),)

        def on_delete(self, lo, hi, value):
            return (self.part.on_structural_update(lo, hi, "-"),)

    shim = Shim()
    g.attach(shim)
    return g, shim.part


# -- configuration ---------------------------------------------------------------


def test_level_count_floors_at_five():
    assert LevelPartition(4, 1, beta=21).L == 5


def test_level_count_exact_power():
    assert LevelPartition(4, 21**7, beta=21).L == 7


def test_base_below_two_rejected():
    with pytest.raises(InvalidBase):
        LevelPartition(4, 8, beta=1.5)


def test_initial_state_all_bottom():
    p = LevelPartition(6, 100, beta=2)
    assert p.level == [4] * 6
    assert [len(b) for b in p.below] == [0] * 6


# -- promotion ---------------------------------------------------------------------


def test_star_center_promotes_at_seventeen_same_level_neighbors():
    # beta=2: 17 level-4 neighbors break the 2**4 band; minimum admissible
    # level is 5 (17 <= 2**5).
    g, p = attach(40, 32, beta=2)
    for v in range(1, 17):
        g.insert(0, v)
        assert p.level[0] == 4  # 16 <= 16: boundary, not dirty
    r = g.insert(0, 17)
    assert p.level[0] == 5
    assert r.stats["level_moves"] == 1
    assert check_hierarchy(g, p).passed


def test_exact_band_boundary_is_clean():
    g, p = attach(40, 32, beta=2)
    for v in range(1, 17):
        g.insert(0, v)
    assert p.level[0] == 4
    assert not p.violates_upper(0)


def test_promotion_skips_levels_when_band_full():
    # 33 neighbors at once would overflow the 2**5 band too; landing is the
    # minimum k with |N(4,k)| <= 2**k, here 6.
    g, p = attach(40, 33, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    assert p.level[0] == 5
    for v in range(18, 33):
        g.insert(0, v)
    assert p.level[0] == 5  # 32 == 2**5 sits exactly on the band edge
    g.insert(0, 33)
    assert p.level[0] == 6  # 33 <= 64
    assert check_hierarchy(g, p).passed


def test_move_that_leaves_its_band_raises():
    # beta=2. Five level-4 neighbors fit level 4; promoting anyway lands at 5
    # with 5 below, under the 2**4 arrival bar.
    g, p = attach(40, 32, beta=2)
    for v in range(1, 6):
        g.insert(0, v)
    with pytest.raises(InternalInvariantViolation):
        p.promote(0)
    # Seventeen leaves hold vertex 0 at level 5; demoting it anyway would put
    # all 17 at level 4, over the 2**4 band.
    g, p = attach(40, 32, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    with pytest.raises(InternalInvariantViolation):
        p.demote(0)


# -- demotion -----------------------------------------------------------------------


def test_star_center_demotes_to_bottom_when_below_empties():
    g, p = attach(40, 32, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    assert p.level[0] == 5
    # below-degree floor at level 5 is 2**0 = 1
    for v in range(1, 17):
        g.delete(0, v)
        assert p.level[0] == 5
    g.delete(0, 17)
    assert p.level[0] == 4
    assert check_hierarchy(g, p).passed


def synthetic_partition(levels, edges, delta, beta):
    """Raw partition state for drop tests, bypassing the restore loop."""
    n = len(levels)
    p = LevelPartition(n, delta, beta)
    for v, lv in enumerate(levels):
        p.level[v] = lv
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if levels[b] < levels[a]:
                if p.below[a] is EMPTY_NEIGHBORS:
                    p.below[a] = {}
                p.below[a][b] = None
            else:
                p.same[a].setdefault(levels[b], {})[b] = None
    return p


def test_demotion_lands_at_maximum_supported_level():
    # Vertex 0 at level 10 (beta=2, L=10) with 16 below-neighbors at level 4
    # and 8 at level 5: below-degree 24 < 2**5 violates the floor; level 5 is
    # the highest k whose arrival bar |N(4, k-1)| >= 2**(k-1) is met (16 >= 16).
    levels = [10] + [4] * 16 + [5] * 8
    edges = [(0, v) for v in range(1, 25)]
    p = synthetic_partition(levels, edges, delta=1024, beta=2)
    assert p.L == 10
    assert p.violates_lower(0)
    assert p.demote(0) == 5
    assert p.level[0] == 5
    assert p.below_degree(0) == 16
    assert len(p.same_list(0, 5)) == 8


def test_demotion_falls_to_bottom_when_no_level_supports():
    # below-degree profile |N(4,4)| = 1, |N(4,5)| = 3 from level 7: no k in
    # (4,7) reaches its 2**(k-1) arrival bar, so the landing is level 4.
    levels = [7] + [4] + [5] * 2
    edges = [(0, v) for v in range(1, 4)]
    p = synthetic_partition(levels, edges, delta=100, beta=2)
    assert p.violates_lower(0)
    assert p.demote(0) == 4
    assert p.level[0] == 4
    # all former below-neighbors now sit at or above vertex 0
    assert p.below_degree(0) == 0
    assert len(p.same_list(0, 4)) == 1
    assert len(p.same_list(0, 5)) == 2


def test_shared_empty_neighbor_set_refuses_writes_and_stays_empty():
    g, p = attach(40, 32, beta=2)
    assert p.below[0] is EMPTY_NEIGHBORS and p.same_list(0, 5) is EMPTY_NEIGHBORS
    with pytest.raises(TypeError):
        EMPTY_NEIGHBORS[1] = None
    with pytest.raises(TypeError):
        del EMPTY_NEIGHBORS[1]
    with pytest.raises(AttributeError):
        EMPTY_NEIGHBORS.update({1: None})
    # The promotion moves a whole band into vertex 0's below set; the leaves
    # never gain a lower neighbor, so their below sets stay the shared one.
    for v in range(1, 18):
        g.insert(0, v)
    assert p.level[0] == 5 and p.below_degree(0) == 17
    for v in range(1, 18):
        g.delete(0, v)
    assert p.level[0] == 4
    assert all(p.below[v] is EMPTY_NEIGHBORS for v in range(1, 40))
    assert len(EMPTY_NEIGHBORS) == 0 and list(EMPTY_NEIGHBORS) == []


# -- full maintenance over traces ----------------------------------------------------


@pytest.mark.parametrize("beta", [2, 4, 21])
def test_invariants_hold_after_every_update(beta):
    rng = random.Random(beta)
    g, p = attach(60, 24, beta=beta)
    live = []
    for _ in range(1500):
        u, v = rng.randrange(60), rng.randrange(60)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if g.has_edge(*e):
            g.delete(*e)
            live.remove(e)
        else:
            try:
                g.insert(*e)
                live.append(e)
            except Exception:
                continue
        assert not any(p.violates_upper(v) for v in range(60))
        assert not any(p.violates_lower(v) for v in range(60))
    report = check_hierarchy(g, p)
    assert report.passed, report.violations[:5]


def test_invariants_hold_after_every_update_through_promotions_and_demotions():
    # Fill a block of 65 vertices to 90% of its pairs, drain it to 2% and
    # fill it again: filling promotes vertices and draining demotes them.
    # Each update rechecks only the bound it can break, so a skipped check
    # that mattered would leave a violator behind here.
    rng = random.Random(5)
    g, p = attach(65, 64, beta=2)
    moves = {"up": 0, "down": 0}

    def listener(x, old, new):
        moves["up" if new > old else "down"] += 1

    p.move_listener = listener
    absent = [(u, v) for u in range(65) for v in range(u + 1, 65)]
    live = []
    for fill, floor in ((0.9, 0.02), (0.9, None)):
        rng.shuffle(absent)
        k = int(fill * 65 * 64 / 2) - len(live)
        steps = [(g.insert, e) for e in absent[:k]]
        live += absent[:k]
        del absent[:k]
        if floor is not None:
            rng.shuffle(live)
            k = len(live) - int(floor * 65 * 64 / 2)
            steps += [(g.delete, e) for e in live[:k]]
            absent += live[:k]
            del live[:k]
        for op, e in steps:
            op(*e)
            assert not any(p.violates_upper(v) for v in range(65))
            assert not any(p.violates_lower(v) for v in range(65))
            assert not p._q1 and not p._q2
    assert moves["up"] > 0 and moves["down"] > 0, moves
    report = check_hierarchy(g, p)
    assert report.passed, report.violations[:5]


def _star(center, leaves):
    return [("+", center, v) for v in leaves]


# (n, delta, updates, levels of vertices 0 and 1 after them). Each last
# update moves vertex 0, and that move breaks a bound of neighbor 1 (or, in
# the first case, 1's promotion breaks 0's), which only the check that the
# move makes on its neighbors queues: the last receipt holds two moves.
NEIGHBOR_MOVES = {
    # 1 promotes to 5 and leaves 0 at level 5 with no lower neighbor.
    "promotion-demotes-a-neighbor": (40, 32, _star(0, range(1, 18))
        + [("-", 0, v) for v in range(2, 18)] + _star(1, range(18, 35)), (4, 5)),
    # 0 falls 6 -> 4 onto 1's level, where 1 already has 16 neighbors.
    "demotion-fills-a-band-it-lands-in": (80, 64, _star(0, range(1, 34))
        + [("-", 0, v) for v in range(3, 34)] + _star(1, range(34, 50))
        + [("-", 0, 2)], (4, 5)),
    # 0 falls 6 -> 4 past 1 at level 5, which already has 32 below.
    "demotion-fills-a-band-it-passes": (80, 64, _star(0, range(1, 34))
        + _star(1, range(34, 66)) + [("-", 0, v) for v in range(2, 34)], (4, 6)),
}


@pytest.mark.parametrize("case", sorted(NEIGHBOR_MOVES))
def test_a_move_that_breaks_a_neighbors_bound_moves_the_neighbor(case):
    n, delta, updates, levels = NEIGHBOR_MOVES[case]
    g, p = attach(n, delta, beta=2)
    for kind, u, v in updates:
        r = g.insert(u, v) if kind == "+" else g.delete(u, v)
        assert not any(p.violates_upper(w) or p.violates_lower(w) for w in range(n))
    assert r.stats["level_moves"] == 2
    assert (p.level[0], p.level[1]) == levels
    assert check_hierarchy(g, p).passed


def test_unknown_update_kind_raises_before_any_write():
    g, p = attach(40, 32, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    assert p.level[0] == 5

    def snapshot():
        return (
            list(p.level),
            [list(b) for b in p.below],
            [[(j, list(s)) for j, s in same.items()] for same in p.same],
            list(p._q1), list(p._q2), bytes(p._in_q1), bytes(p._in_q2),
            p.cells_touched,
        )

    before = snapshot()
    with pytest.raises(ValueError):
        p.on_structural_update(0, 1, "?")
    assert snapshot() == before


def test_moves_are_deterministic():
    def run():
        g, p = attach(50, 30, beta=2)
        rng = random.Random(3)
        moves = []
        for _ in range(800):
            u, v = rng.randrange(50), rng.randrange(50)
            if u == v:
                continue
            if g.has_edge(u, v):
                r = g.delete(u, v)
            else:
                try:
                    r = g.insert(u, v)
                except Exception:
                    continue
            moves.append(r.stats["level_moves"])
        return moves, p.level[:]

    assert run() == run()


# -- amortized work ---------------------------------------------------------------


def test_amortized_cell_touches_trend():
    # Total list-cell touches across a trace stay within a constant multiple
    # of beta**2 * L per update.
    for beta in (2, 4):
        g, p = attach(80, 32, beta=beta)
        rng = random.Random(17)
        ops = 0
        for _ in range(4000):
            u, v = rng.randrange(80), rng.randrange(80)
            if u == v:
                continue
            if g.has_edge(u, v):
                g.delete(u, v)
            else:
                try:
                    g.insert(u, v)
                except Exception:
                    continue
            ops += 1
        budget = 8 * beta * beta * p.L * ops
        assert p.cells_touched <= budget, (beta, p.cells_touched, budget)
