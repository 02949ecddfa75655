"""Deterministic vertex coloring with tuple colors and a self-repairing bound.

Colors are L-tuples over a radix lam; a vertex keeps, for every prefix
length i, the set of neighbors sharing its length-i prefix. The engine
maintains, for all v and i:

    D_i(v) <= (delta / lam**i) * f(i),   f(i) = ((lam+1)/(lam-1))**i

which at i = L forces D_L(v) = 0, i.e. a proper coloring. A violated vertex
rewrites its color coordinate-by-coordinate from the smallest violated index,
each time picking the value that minimizes the surviving prefix class.

A run starts vertex v at color (v mod lam**L) + 1: its tuple is the base-lam
digits of v mod lam**L, most significant first, as ``color_of`` reads them.
Any coloring of the empty graph is proper and the repair bound holds from
any proper start, whereas a (1, ..., 1) start for every vertex makes nearly
every insert between fresh vertices share all L coordinates and force a
repair. With the most significant digit first, ids below lam**(L-k) share
their first k coordinates, so a graph on few vertices still starts in few
prefix classes and exercises the repair loop; the least significant digit
first would split it at coordinate 1 (a 200-vertex delta=128 trace then
needs no repair at all).

All threshold comparisons are done in exact integer arithmetic:
D * (lam*(lam-1))**i <= delta * (lam+1)**i, so no float rounding can ever
flip a verdict.

An insert of (u, v) grows only the classes it joins: u's and v's classes of
lengths 1..i, i being their common prefix length. A delete only shrinks
classes, and never repairs. Between updates every class is within its bound,
since an insert's repair runs until its queue is empty and a repair that
leaves its vertex violating raises. So an insert can break a bound only in
one of the 2i classes it grew, and only those are checked, each as it is
joined. When none is over, the repair loop is not entered: it would have
popped both endpoints, found neither violating and changed nothing. When one
is over, it starts from both endpoints, u first, as a check of every class
queues them. So the queue, and every repair after it, are those that check
gives.

A repair's queue, the set of vertices in it and its per-value counts are
locals of that repair; the engine keeps none of them between updates.

The classes sit in one flat list, v's length-j class at ``nstar[v*(L+1) + j]``,
and each vertex's coordinates in a ``bytearray``, which the collector does not
track. The length-0 class of v is all of N(v), which the graph already keeps:
slot 0 of v's row is the graph's own adjacency dict for v, and updates join
and leave classes of length 1 and up only. The cell count and the potential
phi still charge length 0 one entry per endpoint, as if it were stored.

A prefix class of length 1 and up holds a set only while it has members:
every empty class is the shared ``NO_NEIGHBORS``, and a class that empties
returns to it, so sets grow with the occupied classes; an empty one costs a slot.

Below ``DELTA_MIN`` the parameter scheme degenerates and a plain greedy
(delta+1) engine is substituted; ``make_det_engine`` dispatches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, product, repeat, starmap
from typing import AbstractSet, Deque, Dict, FrozenSet, Iterable, List, Set, Tuple

from .errors import DeltaTooSmall, InternalInvariantViolation, InvalidSpec
from .graph import DynamicGraph

DELTA_MIN = 16

NO_NEIGHBORS: FrozenSet[int] = frozenset()


def _join(nstar: List[AbstractSet[int]], k: int, u: int) -> Set[int]:
    """Add u to the prefix class at nstar[k], creating its set on first use."""
    cls = nstar[k]
    if cls is NO_NEIGHBORS:
        cls = nstar[k] = set()
    cls.add(u)
    return cls


def _leave(nstar: List[AbstractSet[int]], k: int, u: int) -> None:
    """Remove u from the prefix class at nstar[k], releasing the set once empty."""
    cls = nstar[k]
    cls.remove(u)
    if not cls:
        nstar[k] = NO_NEIGHBORS


def _start_coords(n: int, lam: int, levels: int) -> List[bytearray]:
    """Coordinates of the start coloring: vertex v gets the base-lam digits
    of v mod lam**levels, most significant first, each plus one.

    ``product`` counts in that digit order; a fresh one starts every
    lam**levels vertices. (``cycle`` would keep every tuple until the end,
    which doubled set-up time through garbage collection at n=30,000.)
    """
    counters = starmap(product, repeat([range(1, lam + 1)] * levels))
    return list(map(bytearray, islice(chain.from_iterable(counters), n)))


@dataclass(frozen=True)
class DetParams:
    """Derived tuple-coloring parameters for a fixed degree bound."""

    delta: int
    eta: float
    levels: int  # tuple length L
    radix: int  # per-coordinate alphabet size
    palette: int  # radix ** levels
    max_allowed: Tuple[int, ...]  # floor threshold per prefix length, index 0..L

    @staticmethod
    def compute(delta: int) -> "DetParams":
        if delta < DELTA_MIN:
            raise DeltaTooSmall(
                f"degree bound {delta} below {DELTA_MIN}; use the greedy engine"
            )
        lg_delta = math.log2(delta)
        lglg = math.log2(lg_delta)
        eta = math.exp(16.0 / lglg)
        lg_ed = math.log2(eta) + lg_delta
        levels = int(lg_ed / lglg)
        radix = int(2.0 ** (lg_ed / levels))
        if radix > 255:  # a coordinate is one byte
            raise InvalidSpec(f"degree bound {delta} needs radix {radix}; det-vc allows 255")

        allowed = tuple(
            (delta * (radix + 1) ** i) // ((radix * (radix - 1)) ** i)
            for i in range(levels + 1)
        )
        params = DetParams(delta, eta, levels, radix, radix**levels, allowed)
        params._validate()
        return params

    def _validate(self) -> None:
        # The flooring of radix keeps radix**levels <= eta*delta (a ceiling
        # would not); the trade is that radix can undershoot lg(delta) by a
        # fraction when lg(delta) is not integral. Correctness rests on the
        # exact last-coordinate check below, not on that lower bound.
        lam, L = self.radix, self.levels
        ed = self.eta * self.delta
        ok = (
            lam >= 2
            and lam**L <= ed <= (lam + 1) ** L
            # threshold at the last coordinate is below 1, in exact integers
            and self.delta * (lam + 1) ** L < (lam * (lam - 1)) ** L
        )
        if not ok:
            raise InternalInvariantViolation(
                f"parameter derivation failed for delta={self.delta}: "
                f"eta={self.eta:.4f} L={L} radix={lam}"
            )


class TupleVertexColoring:
    """Deterministic lam**L-palette engine for a degree-bounded graph."""

    # what every on_insert / on_delete returns, in order
    RECEIPT_FIELDS = (
        "fix_iterations", "coords_rewritten", "phi_before", "phi_after", "cells_touched"
    )

    def __init__(self, graph: DynamicGraph):
        if graph.max_degree is None:
            raise ValueError("tuple coloring needs a fixed degree bound")
        self.graph = graph
        self.params = DetParams.compute(graph.max_degree)
        n = graph.n
        L = self.params.levels
        self.coords: List[bytearray] = _start_coords(n, self.params.radix, L)
        # nstar[v * (L + 1) + i] = neighbors sharing v's length-i prefix.
        # Length 0 is all of N(v): the graph's own adjacency dict.
        self.nstar: List[AbstractSet[int]] = [NO_NEIGHBORS] * (n * (L + 1))
        self.nstar[:: L + 1] = graph._adj
        self.phi = 0

        # instrumentation, all expected to stay zero / bounded
        self.cells = 0
        self.fix_iterations_total = 0
        # structural |dPhi| > 2(L+1): an insert adds 2(i + 1) and
        # _common_prefix returns i <= L, so nothing increments it; it stays
        # because criterion 5 and perfbench read it
        self.flip_budget_violations = 0
        self.argmin_bound_violations = 0  # chosen class larger than average
        self.pair_count_violations = 0  # S+/S- outside their guaranteed bounds
        self.drop_bound_violations = 0  # per-iteration potential drop too small
        self.iter_cost_max_ratio = 0.0  # measured cost / analytic cost bound
        graph.attach(self)

    # -- engine protocol ------------------------------------------------------

    def _common_prefix(self, u: int, v: int) -> int:
        cu, cv = self.coords[u], self.coords[v]
        i = 0
        L = self.params.levels
        while i < L and cu[i] == cv[i]:
            i += 1
        self.cells += i + 1
        return i

    def on_insert(self, u: int, v: int) -> Tuple[int, ...]:
        c0 = self.cells
        i = self._common_prefix(u, v)
        nst, w = self.nstar, self.params.levels + 1
        allowed = self.params.max_allowed
        over = False
        for j in range(1, i + 1):
            # both joins always happen, and either class may be the one over
            over |= len(_join(nst, u * w + j, v)) > allowed[j]
            over |= len(_join(nst, v * w + j, u)) > allowed[j]
        self.phi += 2 * (i + 1)
        self.cells += 2 * (i + 1)
        phi_before = self.phi

        if over:
            # both endpoints, u first, whichever is over, as a check of
            # every class queued them
            repairs, rewritten = self.fix_invariant((u, v))
            return repairs, rewritten, phi_before, self.phi, self.cells - c0
        return 0, 0, phi_before, phi_before, self.cells - c0

    def on_delete(self, u: int, v: int, value: None) -> Tuple[int, ...]:
        c0 = self.cells
        i = self._common_prefix(u, v)
        nst, w = self.nstar, self.params.levels + 1
        for j in range(1, i + 1):
            _leave(nst, u * w + j, v)
            _leave(nst, v * w + j, u)
        self.phi -= 2 * (i + 1)
        self.cells += 2 * (i + 1)
        # Dropping a neighbor can only shrink prefix classes; no repair needed.
        return 0, 0, self.phi, self.phi, self.cells - c0

    def totals(self) -> Dict[str, int]:
        """The run's repair iterations and cells since the engine was built."""
        return {"fix_iterations": self.fix_iterations_total, "cum_cells_touched": self.cells}

    # -- repair loop -----------------------------------------------------------

    def _violating_index(self, x: int) -> int:
        w = self.params.levels + 1
        allowed = self.params.max_allowed
        nst, base = self.nstar, x * w
        for j in range(1, w):
            if len(nst[base + j]) > allowed[j]:
                return j
        return 0

    def fix_invariant(self, start: Iterable[int]) -> Tuple[int, int]:
        """Repair the vertices in ``start`` and every neighbor a repair takes
        over a bound; FIFO, rechecking on pop. The queue and the set of
        queued vertices live for this one call.

        Returns (repair iterations, coordinates rewritten); an iteration at
        smallest violated prefix length k rewrites coordinates k..L.
        """
        repairs = rewritten = 0
        q = deque(start)
        queued = set(q)
        while q:
            x = q.popleft()
            queued.discard(x)
            k = self._violating_index(x)
            if k:
                rewritten += self._fix_vertex(x, k, q, queued)
                repairs += 1
        self.fix_iterations_total += repairs
        return repairs, rewritten

    def _fix_vertex(self, x: int, k: int, q: Deque[int], queued: Set[int]) -> int:
        """One repair iteration: rewrite coordinates k..L of x's color, and
        queue each neighbor not yet queued whose class it takes over its bound."""
        p = self.params
        L, lam, delta = p.levels, p.radix, p.delta
        allowed = p.max_allowed
        nst, w = self.nstar, L + 1
        bx = x * w
        coords = self.coords
        cx = coords[x]
        cells0 = self.cells
        phi0 = self.phi

        s_minus = 0
        for j in range(k, w):
            sj = nst[bx + j]
            for u in sj:
                _leave(nst, u * w + j, x)
            s_minus += len(sj)
            self.phi -= 2 * len(sj)
            self.cells += len(sj)
            nst[bx + j] = NO_NEIGHBORS

        self.cells += lam + 1
        s_plus = 0
        prefix = nst[bx + k - 1]
        for j in range(k, w):
            cj = j - 1  # coordinate index
            if prefix:
                load = [0] * (lam + 1)
                for u in prefix:
                    load[coords[u][cj]] += 1
                # Smallest value of the least-loaded class. The cells are the
                # cost model's, whose one array of counts (lam + 1, above) is
                # zeroed after each count: 2 |prefix|, and a scan from value 1
                # to the first empty class, O(min(lam, |prefix|)).
                best = min(load[1:])
                alpha = load.index(best, 1)
                self.cells += (lam if best else alpha) + 2 * len(prefix)
                if best * lam > len(prefix):
                    self.argmin_bound_violations += 1
            else:
                alpha, best = 1, 0

            cx[cj] = alpha
            if best:
                new_set = set()
                for u in prefix:
                    if coords[u][cj] == alpha:
                        new_set.add(u)
                        dj = _join(nst, u * w + j, x)
                        s_plus += 1
                        if len(dj) > allowed[j] and u not in queued:
                            queued.add(u)
                            q.append(u)
                self.cells += len(prefix)
                self.phi += 2 * len(new_set)
                nst[bx + j] = new_set
                prefix = new_set
            else:
                prefix = NO_NEIGHBORS

        if self._violating_index(x):
            raise InternalInvariantViolation(f"repair left vertex {x} violating")

        # Pair-count and potential-drop guarantees for this iteration, checked
        # in exact integers over the neighbor-side pairs.
        lam_k1 = lam ** (k - 1)
        lm1_k = (lam - 1) ** k
        rhs = delta * (lam + 1) ** (k - 1)
        if not s_minus > allowed[k]:
            self.pair_count_violations += 1
        if not s_plus * lam_k1 * lm1_k < rhs:
            self.pair_count_violations += 1
        drop = phi0 - self.phi
        if not drop * lam_k1 * lam * lm1_k >= rhs:
            self.drop_bound_violations += 1

        cost = self.cells - cells0
        cost_bound = lam + (L + 1) * (delta / lam ** (k - 1)) * (
            (lam + 1) / (lam - 1)
        ) ** (k - 1)
        ratio = cost / cost_bound
        if ratio > self.iter_cost_max_ratio:
            self.iter_cost_max_ratio = ratio
        return L - k + 1

    # -- views -------------------------------------------------------------------

    def color_of(self, v: int) -> int:
        """Tuple color encoded into [1, radix**levels]."""
        c = 0
        for x in self.coords[v]:
            c = c * self.params.radix + (x - 1)
        return c + 1

    def colors(self) -> List[int]:
        return [self.color_of(v) for v in range(self.graph.n)]


class GreedyVertexColoring:
    """O(delta) baseline: a conflicting insert rescans one endpoint's
    neighborhood and takes the smallest free color."""

    # what every on_insert / on_delete returns, in order
    RECEIPT_FIELDS = ("recolor_calls", "cells_touched")

    def __init__(self, graph: DynamicGraph):
        self.graph = graph
        cap = graph.max_degree if graph.max_degree is not None else max(1, graph.n - 1)
        self.palette = cap + 1
        self.chi = [1] * graph.n
        self.cells = 0
        self.recolor_calls = 0
        graph.attach(self)

    def on_insert(self, lo: int, hi: int) -> Tuple[int, int]:
        chi = self.chi
        if chi[lo] != chi[hi]:
            return 0, 0
        v = hi
        used = set()
        for w in self.graph.neighbors(v):
            used.add(chi[w])
        c = 1
        while c in used:
            c += 1
        cells = self.graph.degree(v) + c
        self.cells += cells
        chi[v] = c
        self.recolor_calls += 1
        return 1, cells

    def on_delete(self, lo: int, hi: int, value: None) -> Tuple[int, int]:
        return 0, 0

    def totals(self) -> Dict[str, int]:
        """The run's recolors and cells since the engine was built."""
        return {"recolor_calls": self.recolor_calls, "cum_cells_touched": self.cells}

    def colors(self) -> List[int]:
        return list(self.chi)


def make_det_engine(graph: DynamicGraph):
    """Tuple engine for delta >= DELTA_MIN, greedy fallback below."""
    if graph.max_degree is None:
        raise ValueError("deterministic engine needs a fixed degree bound")
    if graph.max_degree < DELTA_MIN:
        return GreedyVertexColoring(graph)
    return TupleVertexColoring(graph)
