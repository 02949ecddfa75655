"""(2*delta - 1) edge coloring with logarithmic worst-case work per update.

An edge's color is kept in the graph's adjacency, in both endpoints' slots
(``_adj[u][v]`` and ``_adj[v][u]``), and a vertex's colors are counted in a
Fenwick tree per vertex (Fenwick 1994, *A new data structure for cumulative
frequency tables*); only adaptive mode adds a map per vertex from a color to
the other endpoint of the edge holding it, for the deletion fixups below. A
vertex has no tree until its first edge; the tree then covers colors
[1, cap], cap a power of two, and is widened when an edge's search span is
wider. A vertex of small degree among neighbors of small degree therefore
keeps a small tree whatever delta is, in fixed and adaptive mode alike.

A tree is a plain list ``t`` of cap + 1 counts: slot j counts the colors in
(j - lowbit(j), j], lowbit(j) = j & -j, and ``t[0]`` stays 0, so cap is
``len(t) - 1``. Slot j counts the same colors in every tree with cap >= j,
so an edge's two trees need not share a width: the search reads both with
one index, and a color is added to or removed from each tree in a walk at
that tree's own width. The module functions ``add``, ``prefix`` and
``widen`` work on such a list. A vertex thus holds one container the
garbage collector tracks, not an object and a list.

Widening is in place: the tree is extended with zeros, and each new
power-of-two slot, which counts [1, slot], is set to the tree's total. No
existing slot is moved or rewritten, and the tree stays the same list
object, which never narrows. The cells written by creating and widening
trees are counted in ``widened_cells``, apart from the tree_visits and
cells_touched statistics, which count the slot reads and writes of the
search and of the add/remove walks only. Widening writes O(cap) cells, so
an update that widens a tree does more than O(log delta) work: README
states this deviation from the paper's worst case.

Coloring an inserted edge binary-searches [1, span + 1), span =
next_pow2(deg(u) + deg(v) - 1) in fixed and adaptive mode alike, over trees
first widened to at least span, descending into whichever half still has a
color free at both endpoints. With the range [c, c + 2 size), the left half
[c, c + size) is slot c - 1 + size, one read per tree and level. A search
over the whole palette would pick the same color: both endpoints hold at
most deg(u) + deg(v) - 2 colors, so at every level wider than span the left
half is not full, and the search turns left until its range is [1, span].

Only the check on the whole span, slot span, can find a range full: once it
passes, the count is below twice the next half's size, a left turn keeps it
below the half's size, and a right turn subtracts at least that size. So the
search makes two checks, that one and the landing check below, and
invariant_checks counts those two per completed search.

The landing color never exceeds deg(u) + deg(v) - 1: every rejected left
half was fully occupied, so the colors below the landing point are covered
by the at most deg(u) + deg(v) - 2 already-colored incident edges. That is
what keeps the palette inside 2*delta - 1 (fixed mode) and inside
2*max(deg(u), deg(v)) - 1 per edge (adaptive mode).

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


def add(t: List[int], color: int, delta: int) -> int:
    """Add delta to color's count in tree t; returns the slots visited.

    The walk visits color and each slot above it whose range covers it,
    lowbit growing by at least one bit a step: cap.bit_length() slots less
    one for each one bit of color - 1.
    """
    top = len(t)
    visits = (top - 1).bit_length() - (color - 1).bit_count()
    while color < top:
        t[color] += delta
        color += color & -color
    return visits


def prefix(t: List[int], color: int) -> int:
    """Colors held in [1, color], for 0 <= color <= the tree's cap."""
    total = 0
    while color:
        total += t[color]
        color &= color - 1
    return total


def widen(t: List[int], cap: int) -> int:
    """Extend tree t in place to cover [1, cap], a power of two at least its
    own cap; returns the cells added.

    The new slots above the old cap count nothing held, except the powers of
    two, which count [1, slot]: the tree's total, the old slot cap.
    """
    old = len(t) - 1
    total = t[old]
    t += [0] * (cap - old)
    slot = cap
    while slot > old:
        t[slot] = total
        slot >>= 1
    return cap - old


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
        self.widened_cells = 0
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
        built, a tree visit being its cell, and the cells written by creating
        and widening trees."""
        return {
            "recolored_edges": self.recolored_edges,
            "tree_visits": self.tree_visits,
            "cum_cells_touched": self.tree_visits,
            "widened_cells": self.widened_cells,
        }

    # -- coloring ----------------------------------------------------------------

    def color(self, u: int, v: int) -> Tuple[int, int]:
        """Assign a color to the present edge (u, v), u < v, which holds none.

        Fig-style binary search over [1, span+1), span =
        next_pow2(deg(u) + deg(v) - 1): keep the invariant that the current
        range holds strictly fewer incident colors (over both endpoints) than
        slots, preferring the left half. The invariant is checked on the whole
        span, the one range that can break it.

        A tree narrower than span, or a missing one, is first widened to span
        in place, so slot span counts [1, span] in both trees and one slot
        index reads them at every level. The color is then added to each
        tree at its own width.
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
        if nu is None or len(nu) <= span:
            nu = self._widened(u, span)
        if nv is None or len(nv) <= span:
            nv = self._widened(v, span)
        if nu[span] + nv[span] >= span:
            self.invariant_checks += 1
            self.invariant_failures += 1
            raise InternalInvariantViolation(
                f"search range [1, {span + 1}) full while coloring ({u}, {v})"
            )
        # each level halves the range (i, i + 2 * size]: slot i + size counts
        # its left half, (i, i + size]
        i = 0
        size = span
        while size > 1:
            size >>= 1
            j = i + size
            if nu[j] + nv[j] >= size:
                i = j
        c = i + 1
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
        # the search read the whole span and one slot per level below it
        visits = 2 * span.bit_length() + add(nu, c, 1) + add(nv, c, 1)
        if c > self.max_color_seen:
            self.max_color_seen = c
        return c, visits

    def _widened(self, x: int, cap: int) -> List[int]:
        """x's tree, created or widened in place to cover [1, cap]."""
        t = self.tree[x]
        if t is None:
            t = self.tree[x] = [0] * (cap + 1)
            self.widened_cells += cap + 1
        else:
            self.widened_cells += widen(t, cap)
        return t

    def _uncolor(self, u: int, v: int, c: int) -> int:
        """Take color c of edge (u, v) out of both endpoints' trees, each at
        its own width, and maps; the caller clears or removes the edge's
        slots."""
        if self.adaptive:
            del self.held[u][c], self.held[v][c]
        tree = self.tree
        return add(tree[u], c, -1) + add(tree[v], c, -1)

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
        tree are not held by v and count as 0. The count is a difference of
        two prefix sums.
        """
        palette = self.palette or max(1, 2 * (self.graph.n - 1))
        if not 1 <= a <= b <= palette + 1:
            raise RangeOutOfBounds(f"range [{a}, {b}) outside [1, {palette + 1})")
        t = self.tree[v]
        if t is None:
            return 0
        cap = len(t) - 1
        return prefix(t, min(b - 1, cap)) - prefix(t, min(a - 1, cap))

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

        A vertex's colors are its slice of that flat list. Its tree must
        equal the one rebuilt from them: the prefix counts of their bits
        (``accumulate``), and slot j the difference of prefix counts j and
        j & (j - 1), read through a getter of those indices kept per width,
        and the comparison made in C. Only a tree that differs is searched
        for its first wrong slot, to name it. Raises
        InternalInvariantViolation naming the first vertex that disagrees.
        """
        adj = self.graph._adj
        if colors is None:
            colors = self.graph.handle_colors()
        adaptive = self.adaptive
        ends = accumulate(map(len, adj))
        for v, (t, nbrs, end) in enumerate(zip(self.tree, adj, ends)):
            own = colors[end - len(nbrs) : end]
            problem = _tree_problem(t, own)
            if not problem and adaptive and self.held[v] != dict(zip(own, nbrs)):
                problem = "color map differs from the colors of its edges"
            if problem:
                raise InternalInvariantViolation(f"vertex {v}: {problem}")


class _Below(dict):
    """cap -> a getter of the prefix counts below each slot's range, at
    j & (j - 1) for slot j; built once per width."""

    def __missing__(self, cap: int) -> operator.itemgetter:
        below = self[cap] = operator.itemgetter(*[j & (j - 1) for j in range(cap + 1)])
        return below


_BELOW = _Below()


def _tree_problem(t: Optional[List[int]], colors: List[Optional[int]]) -> str:
    """What is wrong with a vertex's tree given its edges' colors, or ''."""
    if t is None:
        return "holds colors but has no tree" if colors else ""
    cap = len(t) - 1
    if cap < 1 or cap & (cap - 1):
        return f"capacity {cap} is not a power of two"
    bits = [0] * (cap + 1)
    for c in colors:
        if c is None or not 1 <= c <= cap:
            return f"color {c} outside its tree's range [1, {cap}]"
        if bits[c]:
            return f"two edges share color {c}"
        bits[c] = 1
    # slot j counts the colors in (j & (j - 1), j]: with the prefix counts
    # below its range added, every slot reads the prefix count at j
    counts = list(accumulate(bits))
    below = _BELOW[cap](counts)
    read = list(map(operator.add, t, below))
    if read == counts:
        return ""
    j = list(map(operator.ne, read, counts)).index(True)
    counted = f"colors [{(j & (j - 1)) + 1}, {j}]" if j else "no color"
    return f"slot {j}, counting {counted}, holds {t[j]}, not {counts[j] - below[j]}"
