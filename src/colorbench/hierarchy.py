"""Level partition of the vertex set with self-restoring band invariants.

Every vertex sits at a level in [4, L]. Two invariants are maintained after
every edge update:

  1. a vertex above level 4 keeps at least beta**(level-5) neighbors strictly
     below its level, and
  2. every vertex has at most beta**level neighbors at or below its level.

Violations are queued (invariant-2 fixes take priority, FIFO within a queue)
and repaired by moving one vertex at a time: up to the minimum level whose
band can absorb it, or down to the maximum level that still supports it.
A move listener observes each move before the sets are restructured, which
is what the color-table bookkeeping of the randomized engine hangs off.

Each kind of change moves a vertex's two counts (its below set, and its
upper count: below set plus the set at its own level) one way only, so it
can break only one bound, and only that bound is checked:

  - an insert grows its endpoints' counts: only their upper bound;
  - a delete shrinks them: only their lower bound;
  - a promotion takes the mover out of its neighbors' below sets and upper
    counts: only their lower bound;
  - a demotion puts the mover into their below sets and upper counts: only
    their upper bound.

Skipping the other check leaves the queues exactly as a check of both
bounds would: every violator is queued from the change that made it one
(the restore loop runs until both queues are empty, and a moved vertex
lands inside its band or raises), so a bound the change could not break is
either kept or already queued, and its check would append nothing.

Each neighbor set is a dict ``{neighbor: None}``: ``below[v]`` holds v's
neighbors strictly below its level, ``same[v][j]`` those at level j >= v's.
Adding, removing and testing a neighbor are O(1) expected, and ``len()`` is
the band size. The sets must keep insertion order, not merely membership:
moving a vertex rechecks its neighbors in the order its sets yield them,
which is the order of the FIFO restore queues and so of later moves, and
the randomized engine's recolor scans walk a below set in that order too,
which its cell counts record. A dict removes a key from anywhere and
appends a re-added key at the end, so each set yields its members in the
order they last arrived.

Memory grows with the occupied (vertex, level) classes, not with n*(L+1):
``below[v]`` is the shared read-only ``EMPTY_NEIGHBORS`` until v gains a
lower neighbor, and ``same[v]`` maps a level to its set only once a neighbor
at that level arrives. A write to a set not yet created creates it.

A vertex leaves level 4 only with more than beta**4 neighbors at or below
its level, so when beta**4 is at least the degree bound (n - 1 in adaptive
mode) no vertex ever moves: every below set stays empty and the level-4 set
would be the vertex's whole adjacency. A partition handed the graph's
adjacency decides this once, at construction, and is then ``dormant``: it
stores no ``same`` sets, ``same_list(v, 4)`` is the live keys view of the
graph's adjacency dict for v (insertion-ordered in the same way), and an
update only charges the two cells its link or unlink would have cost, so
cell counts, draws and colors are those of the stored sets. The randomized
engine at the default beta=21 is dormant below delta = 194,481.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence

from .errors import InternalInvariantViolation, InvalidBase
from .graph import DELETE, INSERT

BOTTOM_LEVEL = 4

# The growth base every engine and command uses unless told otherwise.
DEFAULT_BETA = 21.0

MoveListener = Callable[[int, int, int], None]  # (vertex, old level, new level)

Neighbors = Dict[int, None]  # an insertion-ordered set of neighbor ids

# Stands in for every neighbor set not yet created; refuses every write.
EMPTY_NEIGHBORS: Mapping[int, None] = MappingProxyType({})


class LevelPartition:
    """Per-vertex levels plus partitioned neighbor sets and dirty queues.

    ``beta`` may be any real >= 2; integral values use exact integer powers
    for all band comparisons. Coloring correctness never depends on beta,
    only the amortized accounting does. ``adjacency`` is the graph's list
    of per-vertex neighbor dicts, which a dormant partition reads in place
    of stored level-4 sets; without it every set is stored.
    """

    def __init__(
        self,
        n: int,
        max_degree: int,
        beta: float = DEFAULT_BETA,
        adjacency: Optional[Sequence[Mapping[int, object]]] = None,
    ):
        if not beta >= 2:  # NaN too
            raise InvalidBase(f"growth base {beta} below minimum 2")
        if max_degree < 1:
            raise ValueError("degree bound must be at least 1")
        self.n = n
        if float(beta).is_integer():
            beta = int(beta)

        # Smallest L with beta**L >= max_degree, floored at 5.
        levels = 0
        p = 1
        while p < max_degree:
            p *= beta
            levels += 1
        self.L = max(5, levels)
        self.pow = [beta**i for i in range(self.L + 1)]

        self.level = [BOTTOM_LEVEL] * n
        self.below: List[Neighbors] = [EMPTY_NEIGHBORS] * n
        # No degree can exceed beta**4, so no vertex ever leaves level 4 and
        # its level-4 set would be its whole adjacency: read the graph's.
        self.dormant = adjacency is not None and self.pow[BOTTOM_LEVEL] >= max_degree
        self._adj = adjacency
        self.same: List[Dict[int, Neighbors]] = [] if self.dormant else [{} for _ in range(n)]
        self._q2: deque[int] = deque()
        self._q1: deque[int] = deque()
        self._in_q2 = bytearray(n)
        self._in_q1 = bytearray(n)
        self.move_listener: Optional[MoveListener] = None
        self.cells_touched = 0

    # -- basic views ---------------------------------------------------------

    def below_degree(self, v: int) -> int:
        return len(self.below[v])

    def same_list(self, v: int, j: int) -> Collection[int]:
        if self.dormant:
            return self._adj[v].keys() if j == BOTTOM_LEVEL else EMPTY_NEIGHBORS
        return self.same[v].get(j, EMPTY_NEIGHBORS)

    # -- invariant predicates --------------------------------------------------

    def violates_upper(self, v: int) -> bool:
        lv = self.level[v]
        return len(self.below[v]) + len(self.same[v].get(lv, EMPTY_NEIGHBORS)) > self.pow[lv]

    def violates_lower(self, v: int) -> bool:
        lv = self.level[v]
        return lv > BOTTOM_LEVEL and len(self.below[v]) < self.pow[lv - 5]

    # -- structural updates ------------------------------------------------------

    def on_structural_update(self, lo: int, hi: int, kind: str) -> int:
        """Absorb one update of edge (lo, hi) and drain both dirty queues.

        Returns the number of level moves performed (0 while dormant); the
        ``move_listener`` sees each one. The graph adjacency must already
        reflect the update.
        """
        if self.dormant:
            self.cells_touched += 2  # the link or unlink a stored set would cost
            return 0
        level, below, same, pow_ = self.level, self.below, self.same, self.pow
        if kind == INSERT:
            in_q2 = self._in_q2
            for v, u in ((lo, hi), (hi, lo)):
                lv, lu = level[v], level[u]
                if lu < lv:
                    nbrs = below[v]
                    if nbrs is EMPTY_NEIGHBORS:
                        nbrs = below[v] = {}
                    nbrs[u] = None
                    at = same[v].get(lv, EMPTY_NEIGHBORS)
                else:
                    same_v = same[v]
                    at = same_v.get(lu)
                    if at is None:
                        at = same_v[lu] = {}
                    at[u] = None
                    if lu > lv:
                        continue  # filed above v's band: neither count moved
                # Only v's upper bound can break.
                if len(below[v]) + len(at) > pow_[lv] and not in_q2[v]:
                    in_q2[v] = 1
                    self._q2.append(v)
        elif kind == DELETE:
            in_q1 = self._in_q1
            for v, u in ((lo, hi), (hi, lo)):
                lv, lu = level[v], level[u]
                if lu >= lv:
                    del same[v][lu][u]
                    continue  # the upper count fell or held: no bound can break
                nbrs = below[v]
                del nbrs[u]
                # Only v's lower bound can break.
                if len(nbrs) < pow_[lv - 5] and not in_q1[v]:
                    in_q1[v] = 1
                    self._q1.append(v)
        else:
            raise ValueError(f"unknown update kind {kind!r}")
        self.cells_touched += 2
        return self._restore() if self._q2 or self._q1 else 0

    def _restore(self) -> int:
        moves = 0
        while self._q2 or self._q1:
            if self._q2:
                x = self._q2.popleft()
                self._in_q2[x] = 0
                if not self.violates_upper(x):
                    continue
                self.promote(x)
                moves += 1
            else:
                x = self._q1.popleft()
                self._in_q1[x] = 0
                if not self.violates_lower(x):
                    continue
                # Upper-bound fixes drained first, so x satisfies invariant 2 here.
                self.demote(x)
                moves += 1
        return moves

    # -- moves ----------------------------------------------------------------

    def promote(self, x: int) -> int:
        """Move an invariant-2 violator up; returns the landing level."""
        level, below, same, pow_ = self.level, self.below, self.same, self.pow
        i = level[x]
        same_x = same[x]
        cum = len(below[x])
        k = 0
        for j in range(i, self.L + 1):
            cum += len(same_x.get(j, EMPTY_NEIGHBORS))
            self.cells_touched += 1
            if j > i and cum <= pow_[j]:
                k = j
                break
        if not k:
            raise InternalInvariantViolation(
                f"no admissible level above {i} for vertex {x}"
            )

        if self.move_listener is not None:
            self.move_listener(x, i, k)

        # Every band j < k becomes part of x's below set.
        level[x] = k
        below_x = below[x]
        for j in range(i, k):
            band = same_x.pop(j, None)
            if band is not None:
                if below_x is EMPTY_NEIGHBORS:
                    below_x = below[x] = {}
                below_x.update(band)
        self.cells_touched += k - i

        # Re-home x in every neighbor at level <= k; bands above k keep x below.
        # A neighbor u above i loses x from its below set, so only u's lower
        # bound can break; one at or below i keeps both counts or sheds x from
        # its upper count.
        in_q1, q1 = self._in_q1, self._q1
        moved = 0
        for nbrs in (below_x, same_x.get(k, EMPTY_NEIGHBORS)):
            moved += len(nbrs)
            for u in nbrs:
                lu = level[u]
                same_u = same[u]
                dst = same_u.get(k)
                if dst is None:
                    dst = same_u[k] = {}
                if lu > i:
                    src = below[u]
                    del src[x]
                    dst[x] = None
                    if len(src) < pow_[lu - 5] and not in_q1[u]:
                        in_q1[u] = 1
                        q1.append(u)
                else:
                    del same_u[i][x]
                    dst[x] = None
        self.cells_touched += moved
        self._check_landing(x)
        return k

    def demote(self, x: int) -> int:
        """Move an invariant-1 violator down; returns the landing level."""
        level, below, same, pow_ = self.level, self.below, self.same, self.pow
        i = level[x]
        same_x = same[x]
        below_x = below[x]

        counts = [0] * (self.L + 1)
        for u in below_x:
            counts[level[u]] += 1
        self.cells_touched += len(below_x)

        k = BOTTOM_LEVEL
        acc = len(below_x)
        for j in range(i - 1, BOTTOM_LEVEL, -1):
            acc -= counts[j]  # now |N_x(4, j-1)|
            self.cells_touched += 1
            if acc >= pow_[j - 1]:
                k = j
                break

        if self.move_listener is not None:
            self.move_listener(x, i, k)

        # Each below neighbor at level >= k joins x's set for its level.
        level[x] = k
        for u in list(below_x):
            lu = level[u]
            if lu >= k:
                del below_x[u]
                nbrs = same_x.get(lu)
                if nbrs is None:
                    nbrs = same_x[lu] = {}
                nbrs[u] = None
                self.cells_touched += 1

        # Re-home x in every neighbor at level <= i; x stays below the rest.
        # A neighbor below k only moves x between two bands above its own;
        # one at k up to i - 1 gains x in its upper count, so only its upper
        # bound can break; one at i moves x within its upper count.
        for u in below_x:
            same_u = same[u]
            del same_u[i][x]
            dst = same_u.get(k)
            if dst is None:
                dst = same_u[k] = {}
            dst[x] = None
        moved = len(below_x)
        in_q2, q2 = self._in_q2, self._q2
        for j in range(k, i + 1):
            nbrs = same_x.get(j, EMPTY_NEIGHBORS)
            moved += len(nbrs)
            for u in nbrs:
                same_u = same[u]
                del same_u[i][x]
                if j == k:
                    dst = same_u.get(k)
                    if dst is None:
                        dst = same_u[k] = {}
                else:
                    dst = below[u]
                    if dst is EMPTY_NEIGHBORS:
                        dst = below[u] = {}
                dst[x] = None
                if j < i and (
                    len(below[u]) + len(same_u.get(j, EMPTY_NEIGHBORS)) > pow_[j]
                ) and not in_q2[u]:
                    in_q2[u] = 1
                    q2.append(u)
        self.cells_touched += moved
        self._check_landing(x)
        return k

    def _check_landing(self, x: int) -> None:
        """Raise unless a moved vertex sits inside the band of its new level."""
        k = self.level[x]
        below = len(self.below[x])
        at = len(self.same[x].get(k, EMPTY_NEIGHBORS))
        if below + at > self.pow[k] or (k > BOTTOM_LEVEL and below < self.pow[k - 1]):
            raise InternalInvariantViolation(
                f"vertex {x} landed at level {k} outside its band: "
                f"{below} below, {at} at its level"
            )
