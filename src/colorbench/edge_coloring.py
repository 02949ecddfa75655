"""(2*delta - 1) edge coloring with logarithmic worst-case work per update.

An edge's color is kept in the graph's adjacency, in both endpoints' slots
(``_adj[u][v]`` and ``_adj[v][u]``), and a vertex's colors are counted in an
implicit complete binary counting tree per vertex; only adaptive mode adds a
map per vertex from a color to the other endpoint of the edge holding it,
for the deletion fixups below. A vertex has no tree until its first edge; the
tree then covers colors [1, cap], cap a power of two, and grows when an edge's
search span is wider or when an edge pairs it with a wider tree (below). A
vertex of small degree among neighbors of small degree therefore keeps a
small tree whatever delta is, in fixed and adaptive mode alike.

A tree is a plain list ``node`` of 2 * cap counts: ``node[cap + c - 1]`` is
color c's bit, every internal node holds the sum of its two children, and
``node[0]`` is unused, so cap is ``len(node) >> 1``. The module functions
``add``, ``count_range`` and ``grown`` work on such a list. A vertex thus
holds one container the garbage collector tracks, not an object and a list.

An edge's two trees have one width whenever the engine reads or writes them,
and before a search that width is at least the search span (below): where
the trees differ or are narrower, ``_pair`` widens them with ``grown``, and
gives a vertex with no tree an empty one as wide. So a range is the same node
in both trees, the search reads both with one node index, and a color is
added or removed in one leaf-to-root walk over both.

Coloring an inserted edge binary-searches [1, span + 1), span =
next_pow2(deg(u) + deg(v) - 1) in fixed and adaptive mode alike, descending
into whichever half still has a color free at both endpoints, one node read
per tree and level. A search over the whole palette would pick the same
color: both endpoints hold at most deg(u) + deg(v) - 2 colors, so at every
level wider than span the left half is not full, and the search turns left
until its range is [1, span].

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

Growing a tree copies its rows into a wider one, when a search span or a
partner's tree is wider; that copying is not counted in the tree_visits and
cells_touched statistics, which count node reads and writes of the search
and of the add/remove walks only. A copy costs O(cap), so an update that
grows a tree does more than O(log delta) work: README states this deviation
from the paper's worst case.

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

        Fig-style binary search over [1, span+1), span =
        next_pow2(deg(u) + deg(v) - 1): keep the invariant that the current
        range holds strictly fewer incident colors (over both endpoints) than
        slots, preferring the left half. The invariant is checked on the whole
        span, the one range that can break it.

        The two trees are first paired to one width of at least span, so
        [1, span] is a node of both, one node index reads them, and the
        search is one descent from that node. The color is added to both
        trees in one walk.
        """
        adj = self.graph._adj
        at_u, at_v = adj[u], adj[v]
        du = len(at_u)
        dv = len(at_v)
        # next_pow2(du + dv - 1); du and dv count the new edge
        span = 1 << (du + dv - 2).bit_length()
        tree = self.tree
        nu = tree[u]
        nv = tree[v]
        if nu is None or nv is None or len(nu) != len(nv) or len(nu) < 2 * span:
            nu, nv = self._pair(u, v, span)
        cap = len(nu) >> 1
        i = cap // span  # the node counting [1, span]
        if nu[i] + nv[i] >= span:
            self.invariant_checks += 1
            self.invariant_failures += 1
            raise InternalInvariantViolation(
                f"search range [1, {span + 1}) full while coloring ({u}, {v})"
            )
        c = 1
        size = span
        while size > 1:
            size >>= 1
            i <<= 1
            if nu[i] + nv[i] >= size:
                c += size
                i += 1
        # the whole-span check above and the landing check below
        self.invariant_checks += 2

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
        # one leaf-to-root walk over both trees, one node per level each;
        # the search read the whole span and one node per level below it
        i = cap + c - 1
        visits = 2 * span.bit_length() + 2 * i.bit_length()
        while i:
            nu[i] += 1
            nv[i] += 1
            i >>= 1
        if c > self.max_color_seen:
            self.max_color_seen = c
        return c, visits

    def _pair(self, u: int, v: int, cap: int) -> Tuple[List[int], List[int]]:
        """Give u's and v's trees one width, capacity at least cap (a power
        of two); returns them.

        The width is the widest of cap and the two trees; a vertex with no
        tree gets an empty one that wide, and a narrower tree is widened to
        it with ``grown``.
        """
        tree = self.tree
        width = max(2 * cap, len(tree[u] or ()), len(tree[v] or ()))
        for x in (u, v):
            t = tree[x]
            if t is None:
                tree[x] = [0] * width
            elif len(t) < width:
                tree[x] = grown(t, width >> 1)
        return tree[u], tree[v]

    def _uncolor(self, u: int, v: int, c: int) -> int:
        """Take color c of edge (u, v) out of both endpoints' trees and maps;
        the caller clears or removes the edge's slots."""
        if self.adaptive:
            del self.held[u][c], self.held[v][c]
        nu = self.tree[u]
        nv = self.tree[v]
        if len(nu) != len(nv):
            nu, nv = self._pair(u, v, 1)
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
