"""Level partition of the vertex set with self-restoring band invariants.

Every vertex sits at a level in [4, L]. Two invariants are maintained after
every edge update:

  1. a vertex above level 4 keeps at least beta**(level-5) neighbors strictly
     below its level, and
  2. every vertex has at most beta**level neighbors at or below its level.

Violations are queued (invariant-2 fixes take priority, FIFO within a queue)
and repaired by moving one vertex at a time: up to the minimum level whose
band can absorb it, or down to the maximum level that still supports it.
A move listener observes each move before the lists are restructured, which
is what the color-table bookkeeping of the randomized engine hangs off.

Memory grows with the occupied (vertex, level) classes, not with n*(L+1):
``below[v]`` is the shared read-only ``EMPTY_CELLS`` until v gains a lower
neighbor, and ``same[v]`` maps a level to its list only once a neighbor at
that level arrives. Every write goes through ``_home``, which creates the list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .dllist import EMPTY_CELLS, Cell, CellList
from .errors import InternalInvariantViolation, InvalidBase
from .graph import DELETE, INSERT, EdgeHandle

BOTTOM_LEVEL = 4

MoveListener = Callable[[int, int, int], None]  # (vertex, old level, new level)


@dataclass
class TokenLedger:
    """Diagnostic token snapshot; never consulted by the algorithm itself."""

    vertex_tokens: Dict[int, float] = field(default_factory=dict)
    edge_tokens: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.vertex_tokens.values()) + sum(self.edge_tokens.values())


class LevelPartition:
    """Per-vertex levels plus partitioned neighborhood lists and dirty queues.

    ``beta`` may be any real >= 2; integral values use exact integer powers
    for all band comparisons. Coloring correctness never depends on beta,
    only the amortized accounting does.
    """

    def __init__(self, n: int, max_degree: int, beta: float = 21.0):
        if beta < 2:
            raise InvalidBase(f"growth base {beta} below minimum 2")
        if max_degree < 1:
            raise ValueError("degree bound must be at least 1")
        self.n = n
        self.beta = beta
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
        self.below: List[CellList] = [EMPTY_CELLS] * n
        self.same: List[Dict[int, CellList]] = [{} for _ in range(n)]
        self._q2: deque[int] = deque()
        self._q1: deque[int] = deque()
        self._in_q2 = bytearray(n)
        self._in_q1 = bytearray(n)
        self.move_listener: Optional[MoveListener] = None
        self.cells_touched = 0
        self._last_token_total = 0.0

    # -- basic views ---------------------------------------------------------

    def level_of(self, v: int) -> int:
        return self.level[v]

    def below_degree(self, v: int) -> int:
        return self.below[v].size

    def same_list(self, v: int, j: int) -> CellList:
        return self.same[v].get(j, EMPTY_CELLS)

    # -- invariant predicates --------------------------------------------------

    def violates_upper(self, v: int) -> bool:
        lv = self.level[v]
        return self.below[v].size + self.same[v].get(lv, EMPTY_CELLS).size > self.pow[lv]

    def violates_lower(self, v: int) -> bool:
        lv = self.level[v]
        return lv > BOTTOM_LEVEL and self.below[v].size < self.pow[lv - 5]

    def _recheck(self, v: int) -> None:
        if not self._in_q2[v] and self.violates_upper(v):
            self._in_q2[v] = 1
            self._q2.append(v)
        if not self._in_q1[v] and self.violates_lower(v):
            self._in_q1[v] = 1
            self._q1.append(v)

    # -- structural updates ------------------------------------------------------

    def on_structural_update(self, handle: EdgeHandle, kind: str) -> List[Tuple[int, int, int]]:
        """Absorb one edge update and drain both dirty queues.

        Returns the level moves performed, as (vertex, old, new) triples.
        The graph adjacency must already reflect the update.
        """
        if kind == INSERT:
            self._link(handle)
        elif kind == DELETE:
            self._unlink(handle)
        else:
            raise ValueError(f"unknown update kind {kind!r}")
        self._recheck(handle.lo)
        self._recheck(handle.hi)
        return self._restore()

    def _home(self, owner: int, neighbor_level: int) -> CellList:
        """owner's list for a neighbor at neighbor_level, created on first use."""
        if neighbor_level < self.level[owner]:
            lst = self.below[owner]
            if lst is EMPTY_CELLS:
                lst = self.below[owner] = CellList()
            return lst
        same = self.same[owner]
        lst = same.get(neighbor_level)
        if lst is None:
            lst = same[neighbor_level] = CellList()
        return lst

    def _link(self, h: EdgeHandle) -> None:
        lo, hi = h.lo, h.hi
        cell_lo = Cell(hi, h)
        cell_hi = Cell(lo, h)
        self._home(lo, self.level[hi]).append(cell_lo)
        self._home(hi, self.level[lo]).append(cell_hi)
        h.cell_lo, h.cell_hi = cell_lo, cell_hi
        self.cells_touched += 2

    def _unlink(self, h: EdgeHandle) -> None:
        self._home(h.lo, self.level[h.hi]).remove(h.cell_lo)
        self._home(h.hi, self.level[h.lo]).remove(h.cell_hi)
        h.cell_lo = h.cell_hi = None
        self.cells_touched += 2

    def _restore(self) -> List[Tuple[int, int, int]]:
        moves: List[Tuple[int, int, int]] = []
        while self._q2 or self._q1:
            if self._q2:
                x = self._q2.popleft()
                self._in_q2[x] = 0
                if not self.violates_upper(x):
                    continue
                old = self.level[x]
                moves.append((x, old, self.promote(x)))
            else:
                x = self._q1.popleft()
                self._in_q1[x] = 0
                if not self.violates_lower(x):
                    continue
                # Upper-bound fixes drained first, so x satisfies invariant 2 here.
                old = self.level[x]
                moves.append((x, old, self.demote(x)))
        return moves

    # -- moves ----------------------------------------------------------------

    def promote(self, x: int) -> int:
        """Move an invariant-2 violator up; returns the landing level."""
        i = self.level[x]
        same_x = self.same[x]
        cum = self.below[x].size
        k = 0
        for j in range(i, self.L + 1):
            cum += same_x.get(j, EMPTY_CELLS).size
            self.cells_touched += 1
            if j > i and cum <= self.pow[j]:
                k = j
                break
        if not k:
            raise InternalInvariantViolation(
                f"no admissible level above {i} for vertex {x}"
            )

        if self.move_listener is not None:
            self.move_listener(x, i, k)

        self.level[x] = k  # first, so that _home files every band j < k as below
        for j in range(i, k):
            lst = same_x.pop(j, None)
            if lst is not None:
                self._home(x, j).steal(lst)
            self.cells_touched += 1

        # Re-home x in every neighbor at level <= k; bands above k keep x below.
        for cell in self.below[x].cells():
            self._rehome_twin(cell, i, k)
        for cell in same_x.get(k, EMPTY_CELLS).cells():
            self._rehome_twin(cell, i, k)
        self._recheck(x)
        self._check_landing(x)
        return k

    def demote(self, x: int) -> int:
        """Move an invariant-1 violator down; returns the landing level."""
        i = self.level[x]
        same_x = self.same[x]
        below_x = self.below[x]

        counts = [0] * (self.L + 1)
        level = self.level
        for cell in below_x.cells():
            counts[level[cell.neighbor]] += 1
            self.cells_touched += 1

        k = BOTTOM_LEVEL
        acc = below_x.size
        for j in range(i - 1, BOTTOM_LEVEL, -1):
            acc -= counts[j]  # now |N_x(4, j-1)|
            self.cells_touched += 1
            if acc >= self.pow[j - 1]:
                k = j
                break

        if self.move_listener is not None:
            self.move_listener(x, i, k)

        level[x] = k  # first, so that _home files each cell by the new level
        for cell in below_x.cells():
            ju = level[cell.neighbor]
            if ju >= k:
                below_x.remove(cell)
                self._home(x, ju).append(cell)
                self.cells_touched += 1

        for cell in below_x.cells():
            self._rehome_twin(cell, i, k)
        for j in range(k, i + 1):
            for cell in same_x.get(j, EMPTY_CELLS).cells():
                self._rehome_twin(cell, i, k)
        self._recheck(x)
        self._check_landing(x)
        return k

    def _check_landing(self, x: int) -> None:
        """Raise unless a moved vertex sits inside the band of its new level."""
        k = self.level[x]
        below = self.below[x].size
        at = self.same[x].get(k, EMPTY_CELLS).size
        if below + at > self.pow[k] or (k > BOTTOM_LEVEL and below < self.pow[k - 1]):
            raise InternalInvariantViolation(
                f"vertex {x} landed at level {k} outside its band: "
                f"{below} below, {at} at its level"
            )

    def _rehome_twin(self, cell: Cell, old: int, new: int) -> None:
        """Fix x's cell inside one neighbor's lists after x moved old -> new."""
        u = cell.neighbor
        h = cell.handle
        twin = h.cell_lo if u == h.lo else h.cell_hi
        src = self._home(u, old)
        dst = self._home(u, new)
        if src is not dst:
            src.remove(twin)
            dst.append(twin)
            self.cells_touched += 1
            self._recheck(u)

    # -- diagnostics --------------------------------------------------------------

    def audit_tokens(self) -> Tuple[TokenLedger, float]:
        """Closed-form token snapshot plus net change since the last snapshot."""
        ledger = TokenLedger()
        for v in range(self.n):
            lv = self.level[v]
            if lv > BOTTOM_LEVEL:
                slack = self.pow[lv - 1] - self.below[v].size
                if slack > 0:
                    ledger.vertex_tokens[v] = slack / (2 * self.beta)
            same_v = self.same[v]
            bands = (same_v.get(j, EMPTY_CELLS) for j in range(lv, self.L + 1))
            for lst in (self.below[v], *bands):
                for cell in lst.cells():
                    u = cell.neighbor
                    if v < u:
                        ledger.edge_tokens[(v, u)] = self.L - max(lv, self.level[u])
        total = ledger.total
        delta = total - self._last_token_total
        self._last_token_total = total
        return ledger, delta

    def dump(self) -> str:
        """Per-vertex ``v level below_size`` lines, for golden-file tests."""
        return "\n".join(
            f"{v} {self.level[v]} {self.below[v].size}" for v in range(self.n)
        )
