"""(2*delta - 1) edge coloring with logarithmic worst-case work per update.

An edge's color is kept in the graph's adjacency, in both endpoints' slots
(``_adj[u][v]`` and ``_adj[v][u]``), and a vertex's colors are counted in an
implicit complete binary counting tree per vertex; only adaptive mode adds a
map per vertex from a color to the other endpoint of the edge holding it,
for the deletion fixups below. A vertex has no tree until its first edge; the
tree then covers colors [1, cap], cap a power of two, and grows when a
larger color lands there or when an edge pairs it with a wider tree (below).
A vertex of small degree among neighbors of small degree therefore keeps a
small tree whatever delta is, in fixed and adaptive mode alike.

A tree is a plain list ``node`` of 2 * cap counts: ``node[cap + c - 1]`` is
color c's bit, every internal node holds the sum of its two children, and
``node[0]`` is unused, so cap is ``len(node) >> 1``. The module functions
``add``, ``count_range`` and ``grown`` work on such a list. A vertex thus
holds one container the garbage collector tracks, not an object and a list.

An edge's two trees have one width whenever the engine reads or writes them:
before coloring or uncoloring an edge whose trees differ, ``_pair`` widens
the narrower one with ``grown``, and gives a vertex with no tree an empty one
as wide as its partner's (capacity 1 if neither has a tree). A color landing
above that width grows both trees together. So a range is the same node in
both trees, the search reads both with one node index, and a color is added
or removed in one leaf-to-root walk over both.

Coloring an inserted edge binary-searches [1, span + 1), where span is the
palette rounded up to a power of two (fixed mode) or
next_pow2(deg(u) + deg(v) - 1) (adaptive mode), descending into whichever
half still has a color free at both endpoints. Where a search range is a
node of the trees, its count is one node read per tree. Where the range is
wider than the trees, they have no node for it: on the leftmost path the
range holds all of both endpoints' colors, so the count is the roots'
sum, and once the search turns right past the trees it holds none. So the
levels wider than the trees are decided from the two roots alone, with no
loop: the search turns right at the first such level no larger than the
roots' sum, and then stops with the range's first color.

Only the check on the whole span can find a range full: once it passes, the
count is below twice the next half's size, a left turn keeps it below the
half's size, and a right turn subtracts at least that size. So the search
makes two checks, that one and the landing check below, and
invariant_checks counts those two per completed search.

The landing color never exceeds deg(u) + deg(v) - 1: every rejected left
half was fully occupied, so the colors below the landing point are covered
by the at most deg(u) + deg(v) - 2 already-colored incident edges. That is
what keeps the palette inside 2*delta - 1 (fixed mode) and inside
2*max(deg(u), deg(v)) - 1 per edge (adaptive mode).

Growing a tree copies its rows into a wider one, when a color lands above
its width or when pairing widens it to its partner's; that copying is not
counted in the tree_visits and cells_touched statistics, which count node
reads and writes of the search and of the add/remove walks only. A copy
costs O(cap), so an update that grows a tree does more than O(log delta)
work: README states this deviation from the paper's worst case.

After a deletion shrinks an endpoint's degree, adaptive mode re-colors the at
most two incident edges per endpoint whose colors the smaller palette no
longer admits. It finds them by color in the color-to-endpoint map: the
adjacency alone would need a scan of the endpoint's edges, more than
O(log delta).
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .errors import InternalInvariantViolation, RangeOutOfBounds
from .graph import DynamicGraph


def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length() if x > 1 else 1


def add(node: List[int], color: int, delta: int) -> int:
    """Add delta to color's bit and every count above it; returns node visits."""
    idx = (len(node) >> 1) + color - 1
    visits = 0
    while idx:
        node[idx] += delta
        visits += 1
        idx >>= 1
    return visits


def count_range(node: List[int], a: int, b: int) -> Tuple[int, int]:
    """Sum of bits for colors in [a, b); returns (sum, node visits)."""
    if a >= b:
        return 0, 0
    cap = len(node) >> 1
    lo = cap + a - 1
    hi = cap + b - 1
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


def grown(node: List[int], new_cap: int) -> List[int]:
    """A copy covering [1, new_cap]; new_cap is a power of two >= the tree's cap.

    The tree becomes the subtree rooted at node new_cap // cap of the wider
    one, so each of its rows is copied with one slice assignment; the nodes
    above that subtree's root all hold the root count.
    """
    cap = len(node) >> 1
    if new_cap < cap or new_cap & (new_cap - 1):
        raise ValueError(f"cannot grow a tree of capacity {cap} to {new_cap}")
    new = [0] * (2 * new_cap)
    offset = new_cap // cap
    width = 1
    while width <= cap:
        new[offset * width : (offset + 1) * width] = node[width : 2 * width]
        width <<= 1
    offset >>= 1
    while offset:
        new[offset] = node[1]
        offset >>= 1
    return new


class EdgeColoring:
    """Edge-coloring engine; fixed palette 2*delta-1 or adaptive per-edge."""

    # what every on_insert / on_delete returns, in order
    RECEIPT_FIELDS = ("tree_visits", "recolored_edges", "color_assigned", "cells_touched")

    def __init__(self, graph: DynamicGraph):
        self.graph = graph
        self.adaptive = graph.max_degree is None
        # color -> other endpoint per vertex, kept in adaptive mode only:
        # _shrink_fixups looks colors up
        self.held: Optional[List[Dict[int, int]]] = None
        if not self.adaptive:
            self.palette = max(1, 2 * graph.max_degree - 1)
            self.cap = _next_pow2(self.palette)
        else:
            self.palette = None
            self.held = [{} for _ in range(graph.n)]
        n = graph.n
        self.tree: List[Optional[List[int]]] = [None] * n

        self.invariant_checks = 0
        self.invariant_failures = 0
        self.max_color_seen = 0
        # run totals
        self.tree_visits = 0
        self.recolored_edges = 0
        graph.attach(self)

    # -- engine protocol ---------------------------------------------------------

    def on_insert(self, lo: int, hi: int) -> Tuple[int, int, int, int]:
        c, visits = self.color(lo, hi)
        self.tree_visits += visits
        return visits, 0, c, visits

    def on_delete(self, lo: int, hi: int, value: int) -> Tuple[int, int, int, int]:
        visits = self._uncolor(lo, hi, value)
        recolored = 0
        if self.adaptive:
            recolored, extra = self._shrink_fixups(lo, hi)
            visits += extra
            self.recolored_edges += recolored
        self.tree_visits += visits
        return visits, recolored, 0, visits

    def totals(self) -> Dict[str, int]:
        """The run's recolored edges and tree visits since the engine was
        built; a tree visit is its cell."""
        return {
            "recolored_edges": self.recolored_edges,
            "tree_visits": self.tree_visits,
            "cum_cells_touched": self.tree_visits,
        }

    # -- coloring ----------------------------------------------------------------

    def color(self, u: int, v: int) -> Tuple[int, int]:
        """Assign a color to the present edge (u, v), u < v, which holds none.

        Fig-style binary search over [1, span+1): keep the invariant that the
        current range holds strictly fewer incident colors (over both
        endpoints) than slots, preferring the left half. The invariant is
        checked on the whole span, the one range that can break it.

        The two trees are paired to one width first, so a range is the same
        node in both and one node index reads them. Levels wider than the
        trees are decided from the two roots without a read, and the search
        stops once it turns right past the trees. The color is added to both
        trees in one walk.
        """
        adj = self.graph._adj
        at_u, at_v = adj[u], adj[v]
        du = len(at_u)
        dv = len(at_v)
        if self.adaptive:
            span = _next_pow2(max(1, du + dv - 1))
        else:
            span = self.cap
        tree = self.tree
        nu = tree[u]
        nv = tree[v]
        if nu is None or nv is None or len(nu) != len(nv):
            nu, nv = self._pair(u, v)
        cap = len(nu) >> 1
        # the node counting [1, span], or the roots if the span is wider
        i = cap // span or 1
        count = nu[i] + nv[i]
        visits = 2
        size = span
        lo = 1
        if count >= size:
            self.invariant_checks += 1
            self.invariant_failures += 1
            raise InternalInvariantViolation(
                f"search range [1, {span + 1}) full while coloring ({u}, {v})"
            )
        if span > cap:
            # The levels wider than the trees read no node: each range holds
            # both roots. The search turns right at the first one no larger
            # than their sum, the largest power of two in it, and is then past
            # the trees, where every half is empty, so the color is lo.
            if count >= 2 * cap:
                lo += 1 << (count.bit_length() - 1)
                size = 1
            else:
                # the level of size cap reads the roots again, and turns
                # right past the trees if they fill it
                size = cap
                visits += 2
                if count >= size:
                    lo += size
                    size = 1
        visits += 2 * (size.bit_length() - 1)
        while size > 1:
            size >>= 1
            i <<= 1
            if nu[i] + nv[i] >= size:
                lo += size
                i += 1
        # the whole-span check above and the landing check below
        self.invariant_checks += 2

        c = lo
        # rejected left halves were full, so colors below c are covered by
        # the <= du+dv-2 already-colored incident edges
        if c > du + dv - 1:
            self.invariant_failures += 1
            raise InternalInvariantViolation(
                f"color {c} for ({u}, {v}) above deg(u) + deg(v) - 1 = {du + dv - 1}"
            )
        at_u[v] = at_v[u] = c
        if self.adaptive:
            self.held[u][c] = v
            self.held[v][c] = u
        if c > cap:
            cap = _next_pow2(c)
            nu = tree[u] = grown(nu, cap)
            nv = tree[v] = grown(nv, cap)
        # one leaf-to-root walk over both trees, one node per level each
        i = cap + c - 1
        visits += 2 * i.bit_length()
        while i:
            nu[i] += 1
            nv[i] += 1
            i >>= 1
        if c > self.max_color_seen:
            self.max_color_seen = c
        return c, visits

    def _pair(self, u: int, v: int) -> Tuple[List[int], List[int]]:
        """Give u's and v's trees one width; returns them.

        A vertex with no tree gets an empty one as wide as its partner's, or
        of capacity 1 if neither has one; otherwise the narrower tree is
        widened to the other's width.
        """
        tree = self.tree
        nu = tree[u] or [0] * len(tree[v] or (0, 0))
        nv = tree[v] or [0] * len(nu)
        if len(nu) < len(nv):
            nu = grown(nu, len(nv) >> 1)
        elif len(nv) < len(nu):
            nv = grown(nv, len(nu) >> 1)
        tree[u] = nu
        tree[v] = nv
        return nu, nv

    def _uncolor(self, u: int, v: int, c: int) -> int:
        """Take color c of edge (u, v) out of both endpoints' trees and maps;
        the caller clears or removes the edge's slots."""
        if self.adaptive:
            del self.held[u][c], self.held[v][c]
        nu = self.tree[u]
        nv = self.tree[v]
        if len(nu) != len(nv):
            nu, nv = self._pair(u, v)
        i = (len(nu) >> 1) + c - 1
        visits = 2 * i.bit_length()
        while i:
            nu[i] -= 1
            nv[i] -= 1
            i >>= 1
        return visits

    def _shrink_fixups(self, u: int, v: int) -> Tuple[int, int]:
        """Re-color incident edges stranded above their shrunken palettes.

        Only colors 2d and 2d+1 (d = the endpoint's new degree) can newly
        exceed a palette, and each color occurs at most once per endpoint,
        hence at most four candidate edges; processed in ascending
        (endpoint, color) order.
        """
        adj = self.graph._adj
        degree = self.graph.degree
        candidates = []
        for x in (u, v):
            dx = degree(x)
            for c in (2 * dx, 2 * dx + 1):
                y = self.held[x].get(c)
                if y is not None and c > 2 * max(dx, degree(y)) - 1:
                    candidates.append((x, c, y))
        candidates.sort()  # (endpoint, color) pairs are distinct
        visits = 0
        for x, c, y in candidates:
            lo, hi = (x, y) if x < y else (y, x)
            visits += self._uncolor(lo, hi, c)
            adj[lo][hi] = adj[hi][lo] = None
            _, w = self.color(lo, hi)
            visits += w
        return len(candidates), visits

    # -- queries -----------------------------------------------------------------

    def range_count(self, v: int, a: int, b: int) -> int:
        """Occupied colors of v in [a, b); answered from the counting tree.

        The range must lie in [1, palette + 1); in adaptive mode the palette
        is the largest one any edge can get, 2 * (n - 1). Colors above v's
        tree are not held by v and count as 0.
        """
        palette = self.palette or max(1, 2 * (self.graph.n - 1))
        if not 1 <= a <= b <= palette + 1:
            raise RangeOutOfBounds(f"range [{a}, {b}) outside [1, {palette + 1})")
        t = self.tree[v]
        if t is None:
            return 0
        top = (len(t) >> 1) + 1
        count, _ = count_range(t, min(a, top), min(b, top))
        return count

    def edge_colors(self) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for u, adj in enumerate(self.graph._adj):
            for v, c in adj.items():
                if u < v:
                    out[(u, v)] = c
        return out

    # -- structural self-check ------------------------------------------------------

    def self_check(self, colors: Optional[List[Optional[int]]] = None) -> None:
        """Check every tree, and in adaptive mode every color map, against
        the colors in the graph's adjacency. ``colors`` is
        ``graph.handle_colors()`` for the same state (read if not given).

        A vertex's colors are its slice of that flat list. The leaf row must
        mark exactly those colors and each internal node must hold the sum of
        its two children, which together is the tree rebuilt from them. Raises
        InternalInvariantViolation naming the first vertex that disagrees.
        """
        adj = self.graph._adj
        if colors is None:
            colors = self.graph.handle_colors()
        ends = accumulate(map(len, adj))
        for v, (t, nbrs, end) in enumerate(zip(self.tree, adj, ends)):
            own = colors[end - len(nbrs) : end]
            problem = _tree_problem(t, own)
            if not problem and self.adaptive and self.held[v] != dict(zip(own, nbrs)):
                problem = "color map differs from the colors of its edges"
            if problem:
                raise InternalInvariantViolation(f"vertex {v}: {problem}")


def _tree_problem(node: Optional[List[int]], colors: List[Optional[int]]) -> str:
    """What is wrong with a vertex's tree given its edges' colors, or ''."""
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
    if node[cap:] != bits:
        return "leaf row differs from the held colors"
    # sums[i - 1] is the sum of node i's children, 2i and 2i + 1
    sums = list(map(operator.add, node[2::2], node[3::2]))
    if node[1:cap] != sums:
        width = cap >> 1
        while node[width : 2 * width] == sums[width - 1 : 2 * width - 1]:
            width >>= 1
        return f"row of {width} nodes is not the sum of the row below"
    return ""
