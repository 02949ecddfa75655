"""Intrusive doubly linked lists with externally held cells.

A ``Cell`` is owned by whoever created it (here: one endpoint's view of one
edge) and can be unlinked from its current list and relinked elsewhere in
O(1), which is what makes constant-time level moves possible. Lists carry an
explicit size counter so band sizes are O(1) reads.

``EMPTY_CELLS`` is one shared empty list that stands in for every list not
yet created, so a structure can read an absent list without allocating one.
It refuses every write.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import InternalInvariantViolation


class Cell:
    """One edge as seen from one endpoint. ``neighbor`` is the other endpoint."""

    __slots__ = ("prev", "next", "neighbor", "handle")

    def __init__(self, neighbor: int, handle=None):
        self.prev: Optional[Cell] = None
        self.next: Optional[Cell] = None
        self.neighbor = neighbor
        self.handle = handle

    def __repr__(self) -> str:
        return f"Cell(neighbor={self.neighbor})"


class CellList:
    """Doubly linked list of cells with O(1) append/remove/splice."""

    __slots__ = ("head", "tail", "size")

    def __init__(self):
        self.head: Optional[Cell] = None
        self.tail: Optional[Cell] = None
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def append(self, cell: Cell) -> None:
        cell.prev = self.tail
        cell.next = None
        if self.tail is None:
            self.head = cell
        else:
            self.tail.next = cell
        self.tail = cell
        self.size += 1

    def remove(self, cell: Cell) -> None:
        prev, nxt = cell.prev, cell.next
        if prev is None:
            self.head = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self.tail = prev
        else:
            nxt.prev = prev
        cell.prev = cell.next = None
        self.size -= 1

    def steal(self, other: "CellList") -> None:
        """Splice every cell of ``other`` onto the end of this list; O(1)."""
        if other.head is None:
            return
        if self.tail is None:
            self.head = other.head
        else:
            self.tail.next = other.head
            other.head.prev = self.tail
        self.tail = other.tail
        self.size += other.size
        other.head = other.tail = None
        other.size = 0

    def cells(self) -> Iterator[Cell]:
        cur = self.head
        while cur is not None:
            nxt = cur.next  # snapshot so callers may unlink cur
            yield cur
            cur = nxt

    def neighbors(self) -> Iterator[int]:
        cur = self.head
        while cur is not None:
            yield cur.neighbor
            cur = cur.next


class _EmptyCellList(CellList):
    """Read-only empty list; writing to it would change every reader's view."""

    __slots__ = ()

    def _refuse(self, _cell_or_list) -> None:
        raise InternalInvariantViolation("write to the shared empty cell list")

    append = remove = steal = _refuse


EMPTY_CELLS: CellList = _EmptyCellList()
