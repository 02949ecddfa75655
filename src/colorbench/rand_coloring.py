"""Randomized proper vertex coloring over the level partition.

On an insert that collides two equal-colored endpoints, the endpoint
recolored most recently redraws uniformly from all of its blank-or-unique
colors: colors not held by any neighbor at the same level or above, and held
by at most one neighbor strictly below. The draw uses the very split that
``blank_unique`` returns, and a receipt's ``pool_size_min`` is the smallest
such split (blank plus unique) along the chain. Drawing a unique color
pushes the conflict to that single lower-level neighbor, so recolor chains
descend strictly and die out within the level range.

Adaptive mode clamps every vertex's palette to {1, ..., degree+1} and
recolors a vertex whose color an edge deletion strands above that bound.

The color multiplicity tables ``mu`` are written in place inside each loop
that changes them, not through a helper: on an active hierarchy these loops
run once per endpoint or neighbor of every update, move and recolor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import InternalInvariantViolation
from .graph import DynamicGraph
from .hierarchy import DEFAULT_BETA, LevelPartition


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

    # what every on_insert / on_delete returns, in order
    RECEIPT_FIELDS = (
        "recolor_calls", "chain_len_max", "pool_size_min", "cells_touched", "level_moves"
    )

    def __init__(self, graph: DynamicGraph, seed: int = 0, beta: float = DEFAULT_BETA):
        self.graph = graph
        self.rng = random.Random(seed)
        self.adaptive = graph.max_degree is None
        n = graph.n
        delta_cap = graph.max_degree if graph.max_degree is not None else max(1, n - 1)
        self.palette = max(1, delta_cap) + 1
        self.hier = LevelPartition(n, max(1, delta_cap), beta, graph._adj)
        self.hier.move_listener = self._on_level_move

        self.chi = [1] * n
        if not self.adaptive:
            # randint(1, palette) for each vertex, inlined as CPython's
            # randrange does it: the same draws at a fraction of the calls
            bits = self.rng.getrandbits
            palette = self.palette
            k = palette.bit_length()
            chi = self.chi
            for v in range(n):
                r = bits(k)
                while r >= palette:
                    r = bits(k)
                chi[v] = r + 1
        self.tau = [0] * n
        self.mu: List[Dict[int, int]] = [dict() for _ in range(n)]

        # instrumentation; the run totals are these counters and the
        # hierarchy's cells
        self.cells = 0
        self.recolor_calls = 0
        self.level_moves = 0
        self.chain_len_max = 0
        self.claim_checks = 0
        self.max_color_seen = max(self.chi, default=0)
        graph.attach(self)

    # -- engine protocol ------------------------------------------------------

    def on_insert(self, lo: int, hi: int) -> Tuple[int, ...]:
        c0, h0 = self.cells, self.hier.cells_touched
        chi, mu, level = self.chi, self.mu, self.hier.level
        # Count the new edge in the endpoints' upper tables while the levels
        # are still current: an endpoint tracks the other's color iff the
        # other sits at its level or above.
        c_lo, c_hi = chi[lo], chi[hi]
        if level[hi] >= level[lo]:
            m = mu[lo]
            m[c_hi] = m.get(c_hi, 0) + 1
        if level[lo] >= level[hi]:
            m = mu[hi]
            m[c_lo] = m.get(c_lo, 0) + 1
        self.cells += 2
        moves = self.hier.on_structural_update(lo, hi, "+")
        chain: List[Tuple[int, int]] = []
        pool_min = 0
        if c_lo == c_hi:
            x = lo if self.tau[lo] >= self.tau[hi] else hi
            chain, pool_min = self.recolor(x)
        return self._receipt(moves, chain, pool_min, c0, h0)

    def on_delete(self, lo: int, hi: int, value: None) -> Tuple[int, ...]:
        c0, h0 = self.cells, self.hier.cells_touched
        chi, mu, level = self.chi, self.mu, self.hier.level
        for v, u in ((lo, hi), (hi, lo)):
            if level[u] >= level[v]:
                m, c = mu[v], chi[u]
                left = m[c] - 1
                if left:
                    m[c] = left
                else:
                    del m[c]
        self.cells += 2
        moves = self.hier.on_structural_update(lo, hi, "-")
        chain: List[Tuple[int, int]] = []
        pool_min = 0
        if self.adaptive:
            # A shrunken palette may strand either endpoint's color.
            for x in (lo, hi):
                if chi[x] > self._palette_limit(x):
                    part, pmin = self.recolor(x)
                    chain += part
                    pool_min = min(pool_min, pmin) if pool_min else pmin
        return self._receipt(moves, chain, pool_min, c0, h0)

    def _receipt(self, moves, chain, pool_min, c0, h0) -> Tuple[int, ...]:
        """Count one update in the run totals; its values in RECEIPT_FIELDS order."""
        k = len(chain)
        if k:
            self.recolor_calls += k
            if k > self.chain_len_max:
                self.chain_len_max = k
        self.level_moves += moves
        cells = (self.cells - c0) + (self.hier.cells_touched - h0)
        return k, k, pool_min, cells, moves

    def totals(self) -> Dict[str, int]:
        """The run's recolors, level moves, longest chain and cells since the
        engine was built."""
        return {
            "recolor_calls": self.recolor_calls,
            "level_moves": self.level_moves,
            "chain_len_max": self.chain_len_max,
            "cum_cells_touched": self.cells + self.hier.cells_touched,
        }

    # -- recoloring ---------------------------------------------------------------

    def recolor(self, v: int) -> Tuple[List[Tuple[int, int]], int]:
        """Redraw v's color.

        Returns the chain of (vertex, new color) writes and the smallest
        blank-or-unique pool drawn from along it.
        """
        chain: List[Tuple[int, int]] = []
        pool_min = self._recolor(v, chain, self.hier.L + 1)
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
        view = self.blank_unique(v)
        self.cells += len(below) + self._palette_limit(v)
        pool = sorted(view.blank + view.unique)

        self.claim_checks += 1
        if 2 * len(pool) < 2 + len(below):
            raise InternalInvariantViolation(
                f"blank+unique count {len(pool)} below guaranteed floor "
                f"for vertex {v} (below-degree {len(below)})"
            )

        c = pool[self.rng.randrange(len(pool))]
        chi = self.chi
        old = chi[v]
        chi[v] = c
        self.tau[v] = self.graph.seq
        chain.append((v, c))
        if c > self.max_color_seen:
            self.max_color_seen = c

        mu = self.mu
        for nbrs in (below, hl.same_list(v, i)):
            for w in nbrs:
                m = mu[w]
                left = m[old] - 1
                if left:
                    m[old] = left
                else:
                    del m[old]
                m[c] = m.get(c, 0) + 1
            self.cells += 2 * len(nbrs)

        pool_min = len(pool)
        if c in view.unique:
            for w in below:
                self.cells += 1
                if chi[w] == c:
                    pool_min = min(pool_min, self._recolor(w, chain, i))
                    break
        return pool_min

    def blank_unique(self, v: int) -> BlankUniqueView:
        """Classify v's free colors by how many below-neighbors hold each."""
        chi = self.chi
        counts: Dict[int, int] = {}
        for u in self.hier.below[v]:
            c = chi[u]
            counts[c] = counts.get(c, 0) + 1
        muv = self.mu[v]
        view = BlankUniqueView([], [], [])
        for c in range(1, self._palette_limit(v) + 1):
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

    def _palette_limit(self, v: int) -> int:
        return self.graph.degree(v) + 1 if self.adaptive else self.palette

    # -- color table maintenance ----------------------------------------------------

    def _on_level_move(self, x: int, i: int, k: int) -> None:
        """Re-point the color multiplicity tables across one level move.

        Called by the hierarchy before it restructures any set, so every
        band below still reflects the old level assignment. A neighbor y
        tracks x's color iff level(x) >= level(y), and vice versa; the
        branches below are exactly the membership flips the move causes.
        """
        chi, mu = self.chi, self.mu
        hl = self.hier
        cx = chi[x]
        mu_x = mu[x]
        if k > i:
            for j in range(i, k + 1):
                nbrs = hl.same_list(x, j)
                for y in nbrs:
                    if j > i:
                        m = mu[y]
                        m[cx] = m.get(cx, 0) + 1
                    if j < k:
                        cy = chi[y]
                        left = mu_x[cy] - 1
                        if left:
                            mu_x[cy] = left
                        else:
                            del mu_x[cy]
                self.cells += len(nbrs)
        else:
            level = hl.level
            for nbrs in (hl.below[x], hl.same_list(x, i)):
                for y in nbrs:
                    jy = level[y]
                    if k < jy <= i:
                        m = mu[y]
                        left = m[cx] - 1
                        if left:
                            m[cx] = left
                        else:
                            del m[cx]
                    if k <= jy < i:
                        cy = chi[y]
                        mu_x[cy] = mu_x.get(cy, 0) + 1
                self.cells += len(nbrs)

    # -- snapshots ----------------------------------------------------------------

    def colors(self) -> List[int]:
        return list(self.chi)
