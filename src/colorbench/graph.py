"""Dynamic graph core: fixed vertex universe, edge updates, engine dispatch.

The graph is the source of truth for adjacency and degrees. A coloring
engine may be attached; every accepted update notifies it exactly once and
the engine's instrumentation comes back in the receipt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

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


class EdgeHandle:
    """A live edge. Endpoints are stored canonically as (lo, hi), lo < hi.

    ``color`` is scratch for the edge-coloring engine; it stays None until
    that engine colors the edge.
    """

    __slots__ = ("lo", "hi", "color")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.color = None

    def other(self, v: int) -> int:
        return self.hi if v == self.lo else self.lo

    def __repr__(self) -> str:
        return f"EdgeHandle({self.lo}, {self.hi})"


@dataclass(frozen=True)
class UpdateEvent:
    """One trace step. ``kind`` uses the trace notation '+' / '-'."""

    kind: str
    u: int
    v: int


@dataclass
class UpdateReceipt:
    """What one accepted update did, including downstream engine work."""

    sequence_number: int
    kind: str
    u: int
    v: int
    stats: Dict[str, int] = field(default_factory=dict)


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
        self._adj: list[Dict[int, EdgeHandle]] = [dict() for _ in range(n)]
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
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise MissingEdge(f"edge ({u}, {v}) not present") from None

    def edges(self) -> Iterator[EdgeHandle]:
        for u in range(self.n):
            for v, h in self._adj[u].items():
                if u < v:
                    yield h

    def handle_colors(self) -> List[Optional[int]]:
        """The ``color`` of every edge handle, vertex by vertex: v's deg(v)
        entries, in its adjacency order, follow those of every vertex below v.

        Each edge appears twice, once under each endpoint. The list is read
        in one C-level pass, and an audit that hands it to several checks
        reads the handles once.
        """
        return list(map(attrgetter("color"), chain.from_iterable(map(dict.values, self._adj))))

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

        if event.kind == INSERT:
            if hi in self._adj[lo]:
                raise DuplicateEdge(f"edge ({lo}, {hi}) already present")
            if self.max_degree is not None:
                if (
                    len(self._adj[lo]) >= self.max_degree
                    or len(self._adj[hi]) >= self.max_degree
                ):
                    raise DegreeBoundExceeded(
                        f"insert ({lo}, {hi}) exceeds degree bound {self.max_degree}"
                    )
            h = EdgeHandle(lo, hi)
            self._adj[lo][hi] = h
            self._adj[hi][lo] = h
            self.num_edges += 1
        elif event.kind == DELETE:
            h = self._adj[lo].pop(hi, None)
            if h is None:
                raise MissingEdge(f"edge ({lo}, {hi}) not present")
            del self._adj[hi][lo]
            self.num_edges -= 1
        else:
            raise ValueError(f"unknown update kind {event.kind!r}")
        self.seq += 1

        engine = self.engine
        if engine is None:
            return UpdateReceipt(self.seq, event.kind, lo, hi, {})
        try:
            stats = engine.on_insert(h) if event.kind == INSERT else engine.on_delete(h)
        except BaseException:
            self._failed_seq = self.seq
            raise
        return UpdateReceipt(self.seq, event.kind, lo, hi, stats)

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
            for v, h in nbrs.items():
                back = adj[v].get(u)
                if u == v or back is not h or (h.lo, h.hi) != (min(u, v), max(u, v)):
                    raise InternalInvariantViolation(
                        f"vertex {u}: edge to {v} is {h!r} here and {back!r} at {v}"
                    )
        total = sum(map(len, adj))
        if total != 2 * self.num_edges:
            raise InternalInvariantViolation(
                f"degree sum {total} != 2 * {self.num_edges} edges"
            )


def new_graph(n: int, max_degree: Optional[int] = None) -> DynamicGraph:
    """Create an empty graph; ``max_degree=None`` means adaptive mode."""
    return DynamicGraph(n, max_degree)
