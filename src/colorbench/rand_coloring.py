"""Randomized proper vertex coloring over the level partition.

On an insert that collides two equal-colored endpoints, the endpoint
recolored most recently redraws from its blank-or-unique colors: colors not
held by any neighbor at the same level or above, and held by at most one
neighbor strictly below. Drawing a unique color pushes the conflict to that
single lower-level neighbor, so recolor chains descend strictly and die out
within the level range.

Adaptive mode clamps every vertex's palette to {1, ..., degree+1} and
recolors a vertex whose color an edge deletion strands above that bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import InternalInvariantViolation
from .graph import DynamicGraph, EdgeHandle
from .hierarchy import LevelPartition


@dataclass
class BlankUniqueView:
    """Colors of one vertex's free palette split by below-neighbor usage."""

    blank: List[int]
    unique: List[int]
    twice_plus: List[int]  # used by two or more below-neighbors


class RandVertexColoring:
    """Seedable randomized coloring engine; deterministic given (trace, seed).

    The update stream must be generated independently of the seed (oblivious
    adversary); replaying a trace with the same seed reproduces every draw.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        seed: int = 0,
        beta: float = 21.0,
        adaptive: bool = False,
    ):
        self.graph = graph
        self.seed = seed
        self.rng = random.Random(seed)
        self.adaptive = adaptive
        n = graph.n
        delta_cap = graph.max_degree if graph.max_degree is not None else max(1, n - 1)
        self.palette = max(1, delta_cap) + 1
        self.hier = LevelPartition(n, max(1, delta_cap), beta)
        self.hier.move_listener = self._on_level_move
        if float(beta).is_integer():
            self.pool_cap = [int(p) for p in self.hier.pow]
        else:
            self.pool_cap = [math.ceil(p) for p in self.hier.pow]

        if adaptive:
            self.chi = [1] * n
        else:
            self.chi = [self.rng.randint(1, self.palette) for _ in range(n)]
        self.tau = [0] * n
        self.mu: List[Dict[int, int]] = [dict() for _ in range(n)]

        # instrumentation
        self.cells = 0
        self.claim_checks = 0
        self.recolor_total = 0
        self.max_color_seen = max(self.chi, default=0)
        graph.attach(self)

    # -- engine protocol ------------------------------------------------------

    def on_insert(self, h: EdgeHandle) -> Dict[str, int]:
        c0, h0 = self.cells, self.hier.cells_touched
        self._edge_tables(h, self._bump)
        moves = self.hier.on_structural_update(h, "+")
        chain: List[Tuple[int, int]] = []
        pool_min = 0
        if self.chi[h.lo] == self.chi[h.hi]:
            x = h.lo if self.tau[h.lo] >= self.tau[h.hi] else h.hi
            chain, pool_min = self._run_recolor(x)
        return self._receipt(moves, chain, pool_min, c0, h0)

    def on_delete(self, h: EdgeHandle) -> Dict[str, int]:
        c0, h0 = self.cells, self.hier.cells_touched
        self._edge_tables(h, self._drop)
        moves = self.hier.on_structural_update(h, "-")
        chain: List[Tuple[int, int]] = []
        pool_min = 0
        if self.adaptive:
            # A shrunken palette may strand either endpoint's color.
            for x in (h.lo, h.hi):
                if self.chi[x] > self.graph.degree(x) + 1:
                    part, pmin = self._run_recolor(x)
                    chain += part
                    pool_min = min(pool_min, pmin) if pool_min else pmin
        return self._receipt(moves, chain, pool_min, c0, h0)

    def _receipt(self, moves, chain, pool_min, c0, h0) -> Dict[str, int]:
        return {
            "recolor_calls": len(chain),
            "chain_len_max": len(chain),
            "pool_size_min": pool_min,
            "cells_touched": (self.cells - c0) + (self.hier.cells_touched - h0),
            "level_moves": len(moves),
        }

    # -- recoloring ---------------------------------------------------------------

    def recolor(self, v: int) -> List[Tuple[int, int]]:
        """Redraw v's color; returns the chain of (vertex, new color) writes."""
        chain, _ = self._run_recolor(v)
        return chain

    def _run_recolor(self, v: int) -> Tuple[List[Tuple[int, int]], int]:
        chain: List[Tuple[int, int]] = []
        pool_min = self._recolor(v, chain, self.hier.L + 1)
        self.recolor_total += len(chain)
        if len(chain) > self.hier.L - 3:
            raise InternalInvariantViolation(
                f"recolor chain of {len(chain)} exceeded the level range"
            )
        return chain, pool_min

    def _recolor(self, v: int, chain: List[Tuple[int, int]], parent_level: int) -> int:
        hl = self.hier
        i = hl.level[v]
        if i >= parent_level:
            raise InternalInvariantViolation(
                f"recolor chain did not descend: vertex {v} at level {i}, "
                f"parent at level {parent_level}"
            )

        below = hl.below[v]
        counts: Dict[int, int] = {}
        chi = self.chi
        for cell in below.cells():
            c = chi[cell.neighbor]
            counts[c] = counts.get(c, 0) + 1
        self.cells += below.size

        limit = self.graph.degree(v) + 1 if self.adaptive else self.palette
        cap = self.pool_cap[i]
        muv = self.mu[v]
        pool: List[int] = []
        blank_unique = 0
        for c in range(1, limit + 1):
            if c in muv:
                continue
            if counts.get(c, 0) <= 1:
                blank_unique += 1
                if len(pool) < cap:
                    pool.append(c)
        self.cells += limit

        self.claim_checks += 1
        if 2 * blank_unique < 2 + below.size:
            raise InternalInvariantViolation(
                f"blank+unique count {blank_unique} below guaranteed floor "
                f"for vertex {v} (below-degree {below.size})"
            )
        if not pool:
            raise InternalInvariantViolation(f"empty recolor pool at vertex {v}")

        c = pool[self.rng.randrange(len(pool))]
        old = chi[v]
        chi[v] = c
        self.tau[v] = self.graph.seq
        chain.append((v, c))
        if c > self.max_color_seen:
            self.max_color_seen = c

        for lst in (below, hl.same_list(v, i)):
            for cell in lst.cells():
                w = cell.neighbor
                self._drop(w, old)
                self._bump(w, c)
            self.cells += 2 * lst.size

        pool_min = len(pool)
        if counts.get(c, 0) == 1:
            for cell in below.cells():
                self.cells += 1
                w = cell.neighbor
                if chi[w] == c:
                    pool_min = min(pool_min, self._recolor(w, chain, i))
                    break
        return pool_min

    def blank_unique(self, v: int) -> BlankUniqueView:
        """Classify v's free colors by how many below-neighbors hold each."""
        hl = self.hier
        counts: Dict[int, int] = {}
        for cell in hl.below[v].cells():
            c = self.chi[cell.neighbor]
            counts[c] = counts.get(c, 0) + 1
        limit = self.graph.degree(v) + 1 if self.adaptive else self.palette
        muv = self.mu[v]
        view = BlankUniqueView([], [], [])
        for c in range(1, limit + 1):
            if c in muv:
                continue
            cnt = counts.get(c, 0)
            if cnt == 0:
                view.blank.append(c)
            elif cnt == 1:
                view.unique.append(c)
            else:
                view.twice_plus.append(c)
        return view

    # -- color table maintenance ----------------------------------------------------

    def _edge_tables(self, h: EdgeHandle, op) -> None:
        """Count an arriving/departing edge in the endpoints' upper tables.

        Runs before the hierarchy reacts, so levels are still current; an
        endpoint tracks the other's color iff the other sits at its level
        or above.
        """
        level = self.hier.level
        lu, lv = level[h.lo], level[h.hi]
        if lv >= lu:
            op(h.lo, self.chi[h.hi])
        if lu >= lv:
            op(h.hi, self.chi[h.lo])
        self.cells += 2

    def _bump(self, w: int, c: int) -> None:
        m = self.mu[w]
        m[c] = m.get(c, 0) + 1

    def _drop(self, w: int, c: int) -> None:
        m = self.mu[w]
        left = m[c] - 1
        if left:
            m[c] = left
        else:
            del m[c]

    def _on_level_move(self, x: int, i: int, k: int) -> None:
        """Re-point the color multiplicity tables across one level move.

        Called by the hierarchy before it restructures any list, so every
        band below still reflects the old level assignment. A neighbor y
        tracks x's color iff level(x) >= level(y), and vice versa; the
        branches below are exactly the membership flips the move causes.
        """
        chi = self.chi
        hl = self.hier
        cx = chi[x]
        if k > i:
            for j in range(i, k + 1):
                lst = hl.same_list(x, j)
                for cell in lst.cells():
                    y = cell.neighbor
                    if j > i:
                        self._bump(y, cx)
                    if j < k:
                        self._drop(x, chi[y])
                self.cells += lst.size
        else:
            level = hl.level
            for lst in (hl.below[x], hl.same_list(x, i)):
                for cell in lst.cells():
                    y = cell.neighbor
                    jy = level[y]
                    if k < jy <= i:
                        self._drop(y, cx)
                    if k <= jy < i:
                        self._bump(x, chi[y])
                self.cells += lst.size

    # -- snapshots ----------------------------------------------------------------

    def colors(self) -> List[int]:
        return list(self.chi)
