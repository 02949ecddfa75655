"""(2*delta - 1) edge coloring with logarithmic worst-case work per update.

An edge's color is kept in the graph's adjacency, in both endpoints' slots
(``_adj[u][v]`` and ``_adj[v][u]``), and a vertex's colors are counted in an
implicit complete binary counting tree per vertex; only adaptive mode adds a
map per vertex from a color to the other endpoint of the edge holding it,
for the deletion fixups below. A vertex has no tree until its first edge; the
tree then covers colors [1, cap], cap being the smallest power of two that
holds every color the vertex has held, and doubles when a larger color lands
there. A vertex of small degree therefore keeps a small tree whatever delta
is, in fixed and adaptive mode alike.

A tree is a plain list ``node`` of 2 * cap counts: ``node[cap + c - 1]`` is
color c's bit, every internal node holds the sum of its two children, and
``node[0]`` is unused, so cap is ``len(node) >> 1``. The module functions
``add``, ``count_range`` and ``grown`` work on such a list. A vertex thus
holds one container the garbage collector tracks, not an object and a list.

Coloring an inserted edge binary-searches [1, span + 1), where span is the
palette rounded up to a power of two (fixed mode) or
next_pow2(deg(u) + deg(v) - 1) (adaptive mode), descending into whichever
half still has a color free at both endpoints. Where a search range is a
node of an endpoint's tree, its count is one node read. Where the range is
wider than the tree, the tree has no node for it: on the leftmost path the
range holds all of the endpoint's colors, so the count is the root already
in hand, and once the search turns right past the tree it holds none.

So the levels wider than both trees are decided from the two roots alone,
with no loop: the search turns right at the first such level no larger
than the roots' sum. Once it has turned right past both trees every half is
empty, and the search stops there with the range's first color. When both
trees have the same width, a range is the same node in both, so the descent
reads both trees with one node index; trees of two widths take a loop that
keeps an index per tree. Adding or removing a color in two trees of one
width is one leaf-to-root walk over both. None of this changes what is
counted: a level with no node to read adds no visit, and its invariant
check cannot fail (a left turn keeps the sum below the half's size, and
past both trees it is 0), so tree_visits counts the same node reads and
invariant_checks still adds one check per level, span.bit_length() per
search.

The landing color never exceeds deg(u) + deg(v) - 1: every rejected left
half was fully occupied, so the colors below the landing point are covered
by the at most deg(u) + deg(v) - 2 already-colored incident edges. That is
what keeps the palette inside 2*delta - 1 (fixed mode) and inside
2*max(deg(u), deg(v)) - 1 per edge (adaptive mode).

Growing a tree copies its rows into a wider one; that copying is not
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


# Stands in for the tree of a vertex that has never held a color; never written.
_NO_COLORS = (0, 0)


class EdgeColoring:
    """Edge-coloring engine; fixed palette 2*delta-1 or adaptive per-edge."""

    # the keys of every on_insert / on_delete receipt, in order
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
        graph.attach(self)

    # -- engine protocol ---------------------------------------------------------

    def on_insert(self, lo: int, hi: int) -> Dict[str, int]:
        c, visits = self.color(lo, hi)
        return {
            "tree_visits": visits,
            "recolored_edges": 0,
            "color_assigned": c,
            "cells_touched": visits,
        }

    def on_delete(self, lo: int, hi: int, value: int) -> Dict[str, int]:
        visits = self._uncolor(lo, hi, value)
        recolored = 0
        if self.adaptive:
            recolored, extra = self._shrink_fixups(lo, hi)
            visits += extra
        return {
            "tree_visits": visits,
            "recolored_edges": recolored,
            "color_assigned": 0,
            "cells_touched": visits,
        }

    # -- coloring ----------------------------------------------------------------

    def color(self, u: int, v: int) -> Tuple[int, int]:
        """Assign a color to the present edge (u, v), u < v, which holds none.

        Fig-style binary search over [1, span+1): keep the invariant that the
        current range holds strictly fewer incident colors (over both
        endpoints) than slots, preferring the left half.

        Levels wider than both trees are decided from the two roots without a
        read, and the search stops once it turns right past both trees.
        Trees of one width share a node index at every level, and the color
        is added to both in one walk; trees of two widths take the loop with
        an index per tree. Skipped levels read no node and their checks
        cannot fail, so the visits, invariant checks and color are those of
        a descent through every level.
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
        nu = tree[u] or _NO_COLORS
        nv = tree[v] or _NO_COLORS
        cu = len(nu) >> 1
        cv = len(nv) >> 1
        # iu == 0: u's tree has no node for the current range (see module doc)
        iu = cu // span
        iv = cv // span
        su = nu[iu or 1]
        sv = nv[iv or 1]
        visits = 2
        size = span
        lo = 1
        if su + sv >= size:
            raise self._search_full(lo, size, span, u, v)
        wide = cu if cu > cv else cv
        if span > wide:
            # The levels wider than both trees read no node: each range holds
            # both roots. The search turns right at the first one no larger
            # than their sum, the largest power of two in it, and is then past
            # both trees, where every half is empty, so the color is lo.
            roots = su + sv
            if roots >= 2 * wide:
                lo += 1 << (roots.bit_length() - 1)
                size = 1
            else:
                # the level of size wide reads the wider root again, or both
                # roots if the widths are equal, and turns right past both
                # trees if the roots fill it
                size = wide
                visits += 1 if cu != cv else 2
                if roots >= size:
                    lo += size
                    size = 1
        if cu == cv:
            # One node index for both trees, node 1 if the range is the roots.
            # Only the sum of the two counts steers, so it is kept as one.
            i = iu or 1
            count = su + sv
            visits += 2 * (size.bit_length() - 1)
            while size > 1:
                size >>= 1
                i <<= 1
                left = nu[i] + nv[i]
                if left < size:
                    count = left
                else:
                    count -= left
                    lo += size
                    i += 1
                if count >= size:
                    raise self._search_full(lo, size, span, u, v)
        else:
            # A tree with no node for the range (index 0) has all of its
            # colors in it on the leftmost path and none once the search is
            # past the tree.
            while size > 1:
                size >>= 1
                if lo == 1:
                    iu = cu // size
                    iv = cv // size
                else:
                    iu <<= 1
                    iv <<= 1
                if iu:
                    lu = nu[iu]
                    visits += 1
                else:
                    lu = su
                if iv:
                    lv = nv[iv]
                    visits += 1
                else:
                    lv = sv
                if lu + lv < size:
                    su, sv = lu, lv
                else:
                    su -= lu
                    sv -= lv
                    lo += size
                    # node 1 is a root: the range right of it is past the tree
                    iu = iu + 1 if iu > 1 else 0
                    iv = iv + 1 if iv > 1 else 0
                if su + sv >= size:
                    raise self._search_full(lo, size, span, u, v)
        # one check per level, size span down to 1
        self.invariant_checks += span.bit_length()

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
        # create or grow each tree so that it covers c
        if nu is _NO_COLORS:
            nu = tree[u] = [0] * (2 * _next_pow2(c))
        elif cu < c:
            nu = tree[u] = grown(nu, _next_pow2(c))
        if nv is _NO_COLORS:
            nv = tree[v] = [0] * (2 * _next_pow2(c))
        elif cv < c:
            nv = tree[v] = grown(nv, _next_pow2(c))
        i = (len(nu) >> 1) + c - 1
        if len(nu) == len(nv):
            # one leaf-to-root walk; a walk visits one node per level
            visits += 2 * i.bit_length()
            while i:
                nu[i] += 1
                nv[i] += 1
                i >>= 1
        else:
            visits += add(nu, c, 1) + add(nv, c, 1)
        if c > self.max_color_seen:
            self.max_color_seen = c
        return c, visits

    def _search_full(self, lo: int, size: int, span: int, u: int, v: int) -> Exception:
        """Count a search range found full; returns the exception to raise."""
        self.invariant_checks += (span // size).bit_length()
        self.invariant_failures += 1
        return InternalInvariantViolation(
            f"search range [{lo}, {lo + size}) full while coloring ({u}, {v})"
        )

    def _uncolor(self, u: int, v: int, c: int) -> int:
        """Take color c of edge (u, v) out of both endpoints' trees and maps;
        the caller clears or removes the edge's slots."""
        if self.adaptive:
            del self.held[u][c], self.held[v][c]
        nu = self.tree[u]
        nv = self.tree[v]
        i = (len(nu) >> 1) + c - 1
        if len(nu) == len(nv):
            visits = 2 * i.bit_length()
            while i:
                nu[i] -= 1
                nv[i] -= 1
                i >>= 1
            return visits
        return add(nu, c, -1) + add(nv, c, -1)

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
