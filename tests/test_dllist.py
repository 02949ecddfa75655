"""Intrusive list behavior against a plain-list model."""

import random

import pytest

from colorbench import InternalInvariantViolation
from colorbench.dllist import EMPTY_CELLS, Cell, CellList


def contents(lst):
    return [c.neighbor for c in lst.cells()]


def test_append_remove_size():
    lst = CellList()
    cells = [Cell(i) for i in range(5)]
    for c in cells:
        lst.append(c)
    assert len(lst) == 5
    assert contents(lst) == [0, 1, 2, 3, 4]

    lst.remove(cells[2])
    assert contents(lst) == [0, 1, 3, 4]
    lst.remove(cells[0])
    assert contents(lst) == [1, 3, 4]
    lst.remove(cells[4])
    assert contents(lst) == [1, 3]
    assert len(lst) == 2


def test_removed_cell_relinks_elsewhere():
    a, b = CellList(), CellList()
    cell = Cell(7)
    a.append(cell)
    a.remove(cell)
    b.append(cell)
    assert contents(a) == []
    assert contents(b) == [7]


def test_steal_splices_everything_in_order():
    a, b = CellList(), CellList()
    for i in range(3):
        a.append(Cell(i))
    for i in range(3, 6):
        b.append(Cell(i))
    a.steal(b)
    assert contents(a) == [0, 1, 2, 3, 4, 5]
    assert contents(b) == []
    assert len(a) == 6 and len(b) == 0

    empty = CellList()
    a.steal(empty)
    assert len(a) == 6
    empty.steal(a)
    assert contents(empty) == [0, 1, 2, 3, 4, 5]


def test_iteration_survives_removal_of_current():
    lst = CellList()
    cells = [Cell(i) for i in range(10)]
    for c in cells:
        lst.append(c)
    for c in lst.cells():
        if c.neighbor % 2 == 0:
            lst.remove(c)
    assert contents(lst) == [1, 3, 5, 7, 9]


def test_random_ops_match_model():
    rng = random.Random(42)
    lst = CellList()
    model = []
    for step in range(2000):
        if model and rng.random() < 0.45:
            idx = rng.randrange(len(model))
            lst.remove(model.pop(idx))
        else:
            c = Cell(step)
            model.append(c)
            lst.append(c)
        assert len(lst) == len(model)
    assert contents(lst) == [c.neighbor for c in model]


def test_shared_empty_list_refuses_writes():
    full = CellList()
    full.append(Cell(1))
    with pytest.raises(InternalInvariantViolation):
        EMPTY_CELLS.append(Cell(2))
    with pytest.raises(InternalInvariantViolation):
        EMPTY_CELLS.steal(full)
    full.steal(EMPTY_CELLS)
    assert EMPTY_CELLS.size == 0 and EMPTY_CELLS.head is None
    assert contents(full) == [1]
