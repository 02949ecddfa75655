"""Level partition: band search, restore loop, tokens, amortized trend."""

import random

import pytest

from colorbench import InternalInvariantViolation, InvalidBase, new_graph
from colorbench.dllist import Cell
from colorbench.graph import EdgeHandle
from colorbench.hierarchy import LevelPartition
from colorbench.verify import check_hierarchy


def attach(n, delta, beta):
    """Graph plus a bare partition wired to its updates."""
    g = new_graph(n, delta)

    class Shim:
        def __init__(self):
            self.part = LevelPartition(n, delta, beta)

        def on_insert(self, h):
            return {"level_moves": len(self.part.on_structural_update(h, "+"))}

        def on_delete(self, h):
            return {"level_moves": len(self.part.on_structural_update(h, "-"))}

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
    assert p.dump().splitlines() == [f"{v} 4 0" for v in range(6)]


# -- promotion ---------------------------------------------------------------------


def test_star_center_promotes_at_seventeen_same_level_neighbors():
    # beta=2: 17 level-4 neighbors break the 2**4 band; minimum admissible
    # level is 5 (17 <= 2**5).
    g, p = attach(40, 32, beta=2)
    for v in range(1, 17):
        g.insert(0, v)
        assert p.level_of(0) == 4  # 16 <= 16: boundary, not dirty
    r = g.insert(0, 17)
    assert p.level_of(0) == 5
    assert r.stats["level_moves"] == 1
    assert check_hierarchy(g, p).passed


def test_exact_band_boundary_is_clean():
    g, p = attach(40, 32, beta=2)
    for v in range(1, 17):
        g.insert(0, v)
    assert p.level_of(0) == 4
    assert not p.violates_upper(0)


def test_promotion_skips_levels_when_band_full():
    # 33 neighbors at once would overflow the 2**5 band too; landing is the
    # minimum k with |N(4,k)| <= 2**k, here 6.
    g, p = attach(40, 33, beta=2)
    for v in range(1, 18):
        g.insert(0, v)
    assert p.level_of(0) == 5
    for v in range(18, 33):
        g.insert(0, v)
    assert p.level_of(0) == 5  # 32 == 2**5 sits exactly on the band edge
    g.insert(0, 33)
    assert p.level_of(0) == 6  # 33 <= 64
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
    assert p.level_of(0) == 5
    # below-degree floor at level 5 is 2**0 = 1
    for v in range(1, 17):
        g.delete(0, v)
        assert p.level_of(0) == 5
    g.delete(0, 17)
    assert p.level_of(0) == 4
    assert check_hierarchy(g, p).passed


def synthetic_partition(levels, edges, delta, beta):
    """Raw partition state for drop tests, bypassing the restore loop."""
    n = len(levels)
    p = LevelPartition(n, delta, beta)
    for v, lv in enumerate(levels):
        p.level[v] = lv
    for u, v in edges:
        h = EdgeHandle(min(u, v), max(u, v))
        cu, cv = Cell(h.hi, h), Cell(h.lo, h)
        p._home(h.lo, p.level[h.hi]).append(cu)
        p._home(h.hi, p.level[h.lo]).append(cv)
        h.cell_lo, h.cell_hi = cu, cv
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
    assert p.level_of(0) == 5
    assert p.below_degree(0) == 16
    assert p.same_list(0, 5).size == 8


def test_demotion_falls_to_bottom_when_no_level_supports():
    # below-degree profile |N(4,4)| = 1, |N(4,5)| = 3 from level 7: no k in
    # (4,7) reaches its 2**(k-1) arrival bar, so the landing is level 4.
    levels = [7] + [4] + [5] * 2
    edges = [(0, v) for v in range(1, 4)]
    p = synthetic_partition(levels, edges, delta=100, beta=2)
    assert p.violates_lower(0)
    assert p.demote(0) == 4
    assert p.level_of(0) == 4
    # all former below-neighbors now sit at or above vertex 0
    assert p.below_degree(0) == 0
    assert p.same_list(0, 4).size == 1
    assert p.same_list(0, 5).size == 2


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


# -- tokens ---------------------------------------------------------------------------


def test_tokens_empty_graph():
    p = LevelPartition(5, 10, beta=2)
    ledger, delta = p.audit_tokens()
    assert ledger.total == 0
    assert delta == 0


def test_edge_token_is_levels_above_endpoints():
    g, p = attach(4, 4, beta=21)  # L = 5, everything at level 4
    g.insert(0, 1)
    ledger, delta = p.audit_tokens()
    assert ledger.edge_tokens == {(0, 1): 1}  # 5 - max(4, 4)
    assert ledger.vertex_tokens == {}
    assert delta == 1


def test_vertex_token_closed_form():
    # level-6 vertex with empty below list at beta=2: (2**5 - 0) / (2*2) = 8
    p = synthetic_partition([6, 4], [], delta=100, beta=2)
    ledger, _ = p.audit_tokens()
    assert ledger.vertex_tokens[0] == 8.0


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
