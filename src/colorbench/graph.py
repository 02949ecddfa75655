"""Dynamic graph core: fixed vertex universe, edge updates, engine dispatch.

The graph is the source of truth for adjacency and degrees. A coloring
engine may be attached; every accepted update notifies it exactly once and
the engine's instrumentation comes back in the receipt. The engine returns
that instrumentation as a tuple of values in the order of its
``RECEIPT_FIELDS``, and the receipt is a tuple that keeps the values and
the field names side by side: ``stats``, the dict of the two, is built only
when it is read. Run totals are the engine's own counters, not a fold of
receipts.

The graph keeps no object per edge. ``_adj[v]`` maps each neighbor u of v
to the edge's slot: its color under the edge-coloring engine, which writes
the color into both endpoints' slots, and None under every other engine.
An engine is told an update's endpoints (lo, hi), lo < hi, and a delete
also hands it the slot just removed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import (
    DegreeBoundExceeded,
    DuplicateEdge,
    InternalInvariantViolation,
    MissingEdge,
    SelfLoop,
    UnknownVertex,
)

VertexId = int

INSERT = "+"
DELETE = "-"


# A slot may hold None, so a lookup that can miss defaults to this instead.
_ABSENT = object()


class EdgeHandle:
    """A query view of one live edge, endpoints (lo, hi) with lo < hi.

    Only ``DynamicGraph.handle`` builds one; no update does. ``color`` reads
    the edge's slot in the adjacency, and writing it writes both endpoints'
    slots.
    """

    __slots__ = ("_adj", "lo", "hi")

    def __init__(self, adj: List[Dict[int, Optional[int]]], lo: int, hi: int):
        self._adj = adj
        self.lo = lo
        self.hi = hi

    @property
    def color(self) -> Optional[int]:
        return self._adj[self.lo][self.hi]

    @color.setter
    def color(self, c: Optional[int]) -> None:
        self._adj[self.lo][self.hi] = self._adj[self.hi][self.lo] = c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeHandle):
            return NotImplemented
        return self._adj is other._adj and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self) -> str:
        return f"EdgeHandle({self.lo}, {self.hi})"


@dataclass(frozen=True)
class UpdateEvent:
    """One trace step. ``kind`` uses the trace notation '+' / '-'."""

    kind: str
    u: int
    v: int


class UpdateReceipt(namedtuple("UpdateReceipt", "sequence_number kind u v values fields")):
    """What one accepted update did, including downstream engine work.

    ``values`` is the engine's work in the order of ``fields``, its
    ``RECEIPT_FIELDS`` (both empty with no engine attached). ``apply`` builds
    the tuple in one C call and no dict; ``stats`` maps each field to its
    value and is built anew each time it is read.
    """

    __slots__ = ()

    @property
    def stats(self) -> Dict[str, int]:
        return dict(zip(self.fields, self.values))


# builds an UpdateReceipt from one tuple in C; the namedtuple's own __new__
# is a Python-level function
_receipt = tuple.__new__


class DynamicGraph:
    """Undirected simple graph on a fixed vertex set [0, n).

    ``max_degree=None`` selects adaptive mode: no bound is enforced and the
    attached engine is expected to track live degrees itself. Single-writer;
    do not interleave queries with ``apply`` from other threads.

    An engine that raises leaves it out of step with the adjacency, which
    changed first; the graph then refuses every later update.
    """

    def __init__(self, n: int, max_degree: Optional[int] = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if max_degree is not None and max_degree < 0:
            raise ValueError("degree bound must be nonnegative")
        self.n = n
        self.max_degree = max_degree
        self._adj: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
        self.num_edges = 0
        self.seq = 0
        self.engine = None
        self._failed_seq: Optional[int] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, engine) -> None:
        """Attach the coloring engine notified on every accepted update."""
        self.engine = engine

    # -- queries -----------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise UnknownVertex(f"vertex {v} outside [0, {self.n})")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return iter(self._adj[v])

    def handle(self, u: int, v: int) -> EdgeHandle:
        """A view of the live edge (u, v), for queries and tests."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise MissingEdge(f"edge ({u}, {v}) not present")
        lo, hi = (u, v) if u < v else (v, u)
        return EdgeHandle(self._adj, lo, hi)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every live edge once, as (lo, hi) with lo < hi, in vertex order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield u, v

    def handle_colors(self) -> List[Optional[int]]:
        """The slot of every edge, vertex by vertex: v's deg(v) entries, in
        its adjacency order, follow those of every vertex below v.

        Each edge appears twice, once under each endpoint. The list is read
        in one C-level pass, and an audit that hands it to several checks
        reads the adjacency once.
        """
        return list(chain.from_iterable(map(dict.values, self._adj)))

    # -- updates -----------------------------------------------------------

    def apply(self, event: UpdateEvent) -> UpdateReceipt:
        if self._failed_seq is not None:
            raise InternalInvariantViolation(
                f"update {self._failed_seq} failed in the engine; "
                "the graph and the engine are out of step"
            )
        u, v = event.u, event.v
        n = self.n
        if not 0 <= u < n:
            raise UnknownVertex(f"vertex {u} outside [0, {n})")
        if not 0 <= v < n:
            raise UnknownVertex(f"vertex {v} outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        lo, hi = (u, v) if u < v else (v, u)
        adj = self._adj
        kind = event.kind

        if kind == INSERT:
            at_lo, at_hi = adj[lo], adj[hi]
            if hi in at_lo:
                raise DuplicateEdge(f"edge ({lo}, {hi}) already present")
            bound = self.max_degree
            if bound is not None and (len(at_lo) >= bound or len(at_hi) >= bound):
                raise DegreeBoundExceeded(f"insert ({lo}, {hi}) exceeds degree bound {bound}")
            at_lo[hi] = None
            at_hi[lo] = None
            self.num_edges += 1
        elif kind == DELETE:
            value = adj[lo].pop(hi, _ABSENT)
            if value is _ABSENT:
                raise MissingEdge(f"edge ({lo}, {hi}) not present")
            del adj[hi][lo]
            self.num_edges -= 1
        else:
            raise ValueError(f"unknown update kind {kind!r}")
        self.seq += 1

        engine = self.engine
        if engine is None:
            return _receipt(UpdateReceipt, (self.seq, kind, lo, hi, (), ()))
        try:
            if kind == INSERT:
                values = engine.on_insert(lo, hi)
            else:
                values = engine.on_delete(lo, hi, value)
        except BaseException:
            self._failed_seq = self.seq
            raise
        return _receipt(UpdateReceipt, (self.seq, kind, lo, hi, values, engine.RECEIPT_FIELDS))

    def insert(self, u: int, v: int) -> UpdateReceipt:
        return self.apply(UpdateEvent(INSERT, u, v))

    def delete(self, u: int, v: int) -> UpdateReceipt:
        return self.apply(UpdateEvent(DELETE, u, v))

    # -- structural self-check ----------------------------------------------

    def check_adjacency(self) -> None:
        """Full-scan structural audit; raises InternalInvariantViolation
        naming the first vertex whose adjacency is corrupt."""
        adj = self._adj
        for u, nbrs in enumerate(adj):
            if self.max_degree is not None and len(nbrs) > self.max_degree:
                raise InternalInvariantViolation(
                    f"vertex {u}: degree {len(nbrs)} above the bound {self.max_degree}"
                )
            for v, c in nbrs.items():
                # _ABSENT equals no slot value, so a one-sided edge fails too
                back = adj[v].get(u, _ABSENT)
                if u == v or back != c:
                    there = "absent" if back is _ABSENT else repr(back)
                    raise InternalInvariantViolation(
                        f"vertex {u}: edge to {v} is {c!r} here and {there} at {v}"
                    )
        total = sum(map(len, adj))
        if total != 2 * self.num_edges:
            raise InternalInvariantViolation(
                f"degree sum {total} != 2 * {self.num_edges} edges"
            )


def new_graph(n: int, max_degree: Optional[int] = None) -> DynamicGraph:
    """Create an empty graph; ``max_degree=None`` means adaptive mode."""
    return DynamicGraph(n, max_degree)
