"""(2*delta - 1) edge coloring with logarithmic worst-case work per update.

Each vertex keeps its incident colors in an occupancy map plus an implicit
complete binary counting tree over a power-of-two color range (pad leaves
stay zero forever). Coloring an inserted edge binary-searches the range,
descending into whichever half still has a color free at both endpoints;
each probe is a single tree-node read because the search ranges coincide
with tree nodes.

The landing color never exceeds deg(u) + deg(v) - 1: every rejected left
half was fully occupied, so the colors below the landing point are covered
by the at most deg(u) + deg(v) - 2 already-colored incident edges. That is
what keeps the palette inside 2*delta - 1 (fixed mode) and inside
2*max(deg(u), deg(v)) - 1 per edge (adaptive mode).

Adaptive mode grows trees on demand (capacity doubling) and, after a
deletion shrinks an endpoint's degree, re-colors the at most two incident
edges per endpoint whose colors the smaller palette no longer admits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import InternalInvariantViolation, RangeOutOfBounds
from .graph import DynamicGraph, EdgeHandle


def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length() if x > 1 else 1


class CountingTree:
    """Implicit complete binary tree of occupancy bits with subtree counts.

    ``node[cap + c - 1]`` is color c's bit; every internal node holds the sum
    of its children. Visit counts returned by mutators feed the worst-case
    work instrumentation.
    """

    __slots__ = ("cap", "node")

    def __init__(self, cap: int):
        self.cap = cap
        self.node = [0] * (2 * cap)

    def add(self, color: int, delta: int) -> int:
        idx = self.cap + color - 1
        node = self.node
        visits = 0
        while idx:
            node[idx] += delta
            visits += 1
            idx >>= 1
        return visits

    def count_range(self, a: int, b: int) -> Tuple[int, int]:
        """Sum of bits for colors in [a, b); returns (sum, node visits)."""
        if a >= b:
            return 0, 0
        node = self.node
        lo = self.cap + a - 1
        hi = self.cap + b - 1
        total = 0
        visits = 0
        while lo < hi:
            if lo & 1:
                total += node[lo]
                visits += 1
                lo += 1
            if hi & 1:
                hi -= 1
                total += node[hi]
                visits += 1
            lo >>= 1
            hi >>= 1
        return total, visits

    def grown(self, new_cap: int) -> "CountingTree":
        assert new_cap >= self.cap and new_cap & (new_cap - 1) == 0
        t = CountingTree(new_cap)
        t.node[new_cap : new_cap + self.cap] = self.node[self.cap : 2 * self.cap]
        for i in range(new_cap - 1, 0, -1):
            t.node[i] = t.node[2 * i] + t.node[2 * i + 1]
        return t


class EdgeColoring:
    """Edge-coloring engine; fixed palette 2*delta-1 or adaptive per-edge."""

    def __init__(self, graph: DynamicGraph, adaptive: bool = False):
        self.graph = graph
        self.adaptive = adaptive
        if not adaptive:
            if graph.max_degree is None:
                raise ValueError("fixed-palette edge coloring needs a degree bound")
            self.palette = max(1, 2 * graph.max_degree - 1)
            self.cap = _next_pow2(self.palette)
        else:
            self.palette = None
            self.cap = 1
        n = graph.n
        self.held: List[Dict[int, EdgeHandle]] = [dict() for _ in range(n)]
        self.tree: List[Optional[CountingTree]] = [None] * n

        self.invariant_checks = 0
        self.invariant_failures = 0
        self.max_color_seen = 0
        graph.attach(self)

    # -- engine protocol ---------------------------------------------------------

    def on_insert(self, h: EdgeHandle) -> Dict[str, int]:
        c, visits = self.color(h)
        return {
            "tree_visits": visits,
            "recolored_edges": 0,
            "color_assigned": c,
            "cells_touched": visits,
        }

    def on_delete(self, h: EdgeHandle) -> Dict[str, int]:
        visits = self._uncolor(h)
        recolored = 0
        if self.adaptive:
            recolored, extra = self._shrink_fixups(h.lo, h.hi)
            visits += extra
        return {
            "tree_visits": visits,
            "recolored_edges": recolored,
            "color_assigned": 0,
            "cells_touched": visits,
        }

    # -- coloring ----------------------------------------------------------------

    def _tree_for(self, v: int, cap: int) -> CountingTree:
        t = self.tree[v]
        if t is None:
            t = CountingTree(cap)
            self.tree[v] = t
        elif t.cap < cap:
            t = t.grown(cap)
            self.tree[v] = t
        return t

    def color(self, h: EdgeHandle) -> Tuple[int, int]:
        """Assign a color to a present, currently uncolored edge.

        Fig-style binary search over [1, R+1): keep the invariant that the
        current range holds strictly fewer incident colors (over both
        endpoints) than slots, preferring the left half.
        """
        u, v = h.lo, h.hi
        du = self.graph.degree(u)
        dv = self.graph.degree(v)
        if self.adaptive:
            span = _next_pow2(max(1, du + dv - 1))
        else:
            span = self.cap
        tu = self._tree_for(u, span)
        tv = self._tree_for(v, span)
        iu = tu.cap // span
        iv = tv.cap // span
        nu, nv = tu.node, tv.node
        su = nu[iu]
        sv = nv[iv]
        visits = 2
        size = span
        lo = 1
        while True:
            self.invariant_checks += 1
            if su + sv >= size:
                self.invariant_failures += 1
                raise InternalInvariantViolation(
                    f"search range [{lo}, {lo + size}) full while coloring ({u}, {v})"
                )
            if size == 1:
                break
            size >>= 1
            iu <<= 1
            iv <<= 1
            lu = nu[iu]
            lv = nv[iv]
            visits += 2
            if lu + lv < size:
                su, sv = lu, lv
            else:
                su -= lu
                sv -= lv
                iu += 1
                iv += 1
                lo += size

        c = lo
        # rejected left halves were full, so colors below c are covered by
        # the <= du+dv-2 already-colored incident edges
        assert c <= du + dv - 1
        h.color = c
        self.held[u][c] = h
        self.held[v][c] = h
        visits += tu.add(c, 1)
        visits += tv.add(c, 1)
        if c > self.max_color_seen:
            self.max_color_seen = c
        return c, visits

    def _uncolor(self, h: EdgeHandle) -> int:
        c = h.color
        u, v = h.lo, h.hi
        del self.held[u][c]
        del self.held[v][c]
        h.color = None
        return self.tree[u].add(c, -1) + self.tree[v].add(c, -1)

    def _shrink_fixups(self, u: int, v: int) -> Tuple[int, int]:
        """Re-color incident edges stranded above their shrunken palettes.

        Only colors 2d and 2d+1 (d = the endpoint's new degree) can newly
        exceed a palette, and each color occurs at most once per endpoint,
        hence at most four candidate edges; processed in ascending
        (endpoint, color) order.
        """
        degree = self.graph.degree
        candidates = []
        for x in (u, v):
            dx = degree(x)
            for c in (2 * dx, 2 * dx + 1):
                h2 = self.held[x].get(c)
                if h2 is not None and c > 2 * max(dx, degree(h2.other(x))) - 1:
                    candidates.append((x, c, h2))
        candidates.sort(key=lambda t: (t[0], t[1]))
        visits = 0
        for _, _, h2 in candidates:
            visits += self._uncolor(h2)
            _, w = self.color(h2)
            visits += w
        return len(candidates), visits

    # -- queries -----------------------------------------------------------------

    def range_count(self, v: int, a: int, b: int) -> int:
        """Occupied colors of v in [a, b); answered from the counting tree."""
        end = self.palette + 1 if self.palette is not None else (
            self.tree[v].cap + 1 if self.tree[v] is not None else 2
        )
        if not 1 <= a <= b <= end:
            raise RangeOutOfBounds(f"range [{a}, {b}) outside [1, {end})")
        t = self.tree[v]
        if t is None:
            return 0
        count, _ = t.count_range(a, min(b, t.cap + 1))
        return count

    def edge_colors(self) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for u, adj in enumerate(self.graph._adj):
            for v, h in adj.items():
                if u < v:
                    out[(u, v)] = h.color
        return out

    # -- structural self-check ------------------------------------------------------

    def self_check(self) -> None:
        """Rebuild every bitmap/tree from the occupancy maps and compare."""
        for v in range(self.graph.n):
            t = self.tree[v]
            holds = self.held[v]
            assert len(holds) == self.graph.degree(v)
            if t is None:
                assert not holds
                continue
            for c, h in holds.items():
                assert h.color == c and v in (h.lo, h.hi)
            for c in range(1, t.cap + 1):
                bit = t.node[t.cap + c - 1]
                assert bit == (1 if c in holds else 0), (v, c)
            for i in range(1, t.cap):
                assert t.node[i] == t.node[2 * i] + t.node[2 * i + 1]
            assert t.node[1] == len(holds)
