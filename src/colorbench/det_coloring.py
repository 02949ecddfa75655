"""Deterministic vertex coloring with tuple colors and a self-repairing bound.

Colors are L-tuples over a radix lam; a vertex keeps, for every prefix
length i, the set of neighbors sharing its length-i prefix. The engine
maintains, for all v and i:

    D_i(v) <= (delta / lam**i) * f(i),   f(i) = ((lam+1)/(lam-1))**i

which at i = L forces D_L(v) = 0, i.e. a proper coloring. A violated vertex
rewrites its color coordinate-by-coordinate from the smallest violated index,
each time picking the value that minimizes the surviving prefix class.

All threshold comparisons are done in exact integer arithmetic:
D * (lam*(lam-1))**i <= delta * (lam+1)**i, so no float rounding can ever
flip a verdict.

A prefix class holds a set only while it has members: every empty class is
the shared ``NO_NEIGHBORS``, and a class that empties returns to it, so
memory grows with the occupied (vertex, prefix length) classes and not with
n*(L+1).

Below ``DELTA_MIN`` the parameter scheme degenerates and a plain greedy
(delta+1) engine is substituted; ``make_det_engine`` dispatches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Set, Tuple

from .errors import DeltaTooSmall, InternalInvariantViolation
from .graph import DynamicGraph, EdgeHandle

DELTA_MIN = 16

NO_NEIGHBORS: FrozenSet[int] = frozenset()


def _join(classes: List[AbstractSet[int]], j: int, u: int) -> Set[int]:
    """Add u to prefix class j, creating its set on first use."""
    cls = classes[j]
    if cls is NO_NEIGHBORS:
        cls = classes[j] = set()
    cls.add(u)
    return cls


def _leave(classes: List[AbstractSet[int]], j: int, u: int) -> None:
    """Remove u from prefix class j, releasing the set once it is empty."""
    cls = classes[j]
    cls.remove(u)
    if not cls:
        classes[j] = NO_NEIGHBORS


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

    def __init__(self, graph: DynamicGraph, params: DetParams | None = None):
        if graph.max_degree is None:
            raise ValueError("tuple coloring needs a fixed degree bound")
        self.graph = graph
        self.params = params if params is not None else DetParams.compute(graph.max_degree)
        n = graph.n
        L = self.params.levels
        self.coords: List[List[int]] = [[1] * L for _ in range(n)]
        # nstar[v][i] = neighbors sharing v's length-i prefix; level 0 is all.
        self.nstar: List[List[AbstractSet[int]]] = [
            [NO_NEIGHBORS] * (L + 1) for _ in range(n)
        ]
        self.phi = 0
        self._queue: deque[int] = deque()
        self._inq = bytearray(n)
        # scratch counts, all-zeros between operations
        self.scratch = [0] * (self.params.radix + 1)

        # instrumentation, all expected to stay zero / bounded
        self.cells = 0
        self.fix_iterations_total = 0
        self.flip_budget_violations = 0  # structural |dPhi| > 2(L+1)
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

    def on_insert(self, h: EdgeHandle) -> Dict[str, int]:
        c0 = self.cells
        u, v = h.lo, h.hi
        i = self._common_prefix(u, v)
        nu, nv = self.nstar[u], self.nstar[v]
        for j in range(i + 1):
            _join(nu, j, v)
            _join(nv, j, u)
        self.phi += 2 * (i + 1)
        self.cells += 2 * (i + 1)
        if 2 * (i + 1) > 2 * (self.params.levels + 1):
            self.flip_budget_violations += 1
        phi_before = self.phi

        for x in (u, v):
            if not self._inq[x]:
                self._inq[x] = 1
                self._queue.append(x)
        events = self.fix_invariant()
        return {
            "fix_iterations": len(events),
            "coords_rewritten": sum(len(old) - (k - 1) for _, k, old, _ in events),
            "phi_before": phi_before,
            "phi_after": self.phi,
            "cells_touched": self.cells - c0,
        }

    def on_delete(self, h: EdgeHandle) -> Dict[str, int]:
        c0 = self.cells
        u, v = h.lo, h.hi
        i = self._common_prefix(u, v)
        nu, nv = self.nstar[u], self.nstar[v]
        for j in range(i + 1):
            _leave(nu, j, v)
            _leave(nv, j, u)
        self.phi -= 2 * (i + 1)
        self.cells += 2 * (i + 1)
        # Dropping a neighbor can only shrink prefix classes; no repair needed.
        return {
            "fix_iterations": 0,
            "coords_rewritten": 0,
            "phi_before": self.phi,
            "phi_after": self.phi,
            "cells_touched": self.cells - c0,
        }

    # -- repair loop -----------------------------------------------------------

    def _violating_index(self, x: int) -> int:
        nx = self.nstar[x]
        allowed = self.params.max_allowed
        for j in range(1, self.params.levels + 1):
            if len(nx[j]) > allowed[j]:
                return j
        return 0

    def fix_invariant(self) -> List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]]:
        """Repair every queued violator; FIFO, rechecking on pop.

        Returns one (vertex, k, old tuple, new tuple) event per repair
        iteration, k being the smallest violated prefix length.
        """
        events: List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]] = []
        q = self._queue
        while q:
            x = q.popleft()
            self._inq[x] = 0
            k = self._violating_index(x)
            if not k:
                continue
            old = tuple(self.coords[x])
            self._fix_vertex(x, k)
            events.append((x, k, old, tuple(self.coords[x])))
        self.fix_iterations_total += len(events)
        return events

    def _fix_vertex(self, x: int, k: int) -> int:
        """One repair iteration: rewrite coordinates k..L of x's color."""
        p = self.params
        L, lam, delta = p.levels, p.radix, p.delta
        allowed = p.max_allowed
        nst = self.nstar
        nx = nst[x]
        coords = self.coords
        cx = coords[x]
        cells0 = self.cells
        phi0 = self.phi

        s_minus = 0
        for j in range(k, L + 1):
            sj = nx[j]
            for u in sj:
                _leave(nst[u], j, x)
            s_minus += len(sj)
            self.phi -= 2 * len(sj)
            self.cells += len(sj)
            nx[j] = NO_NEIGHBORS

        zeros = self.scratch
        self.cells += lam + 1
        s_plus = 0
        prefix = nx[k - 1]
        for j in range(k, L + 1):
            cj = j - 1  # coordinate list index
            if prefix:
                for u in prefix:
                    zeros[coords[u][cj]] += 1
                # Smallest value of the least-loaded class. Some class among
                # the first len(prefix)+1 must be empty, so the scan is
                # O(min(lam, |prefix|)) despite the early exit on zero.
                alpha, best = 1, zeros[1]
                self.cells += 1
                if best:
                    for a in range(2, lam + 1):
                        self.cells += 1
                        za = zeros[a]
                        if za < best:
                            alpha, best = a, za
                            if not za:
                                break
                for u in prefix:
                    zeros[coords[u][cj]] -= 1
                self.cells += 2 * len(prefix)
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
                        dj = _join(nst[u], j, x)
                        s_plus += 1
                        if len(dj) > allowed[j] and not self._inq[u]:
                            self._inq[u] = 1
                            self._queue.append(u)
                self.cells += len(prefix)
                self.phi += 2 * len(new_set)
                nx[j] = new_set
                prefix = new_set
            else:
                prefix = nx[j]  # empty

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

    def potential(self) -> int:
        return self.phi

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

    def __init__(self, graph: DynamicGraph, palette: int | None = None):
        self.graph = graph
        if palette is None:
            cap = graph.max_degree if graph.max_degree is not None else max(1, graph.n - 1)
            palette = cap + 1
        self.palette = palette
        self.chi = [1] * graph.n
        self.cells = 0
        self.recolor_total = 0
        graph.attach(self)

    def on_insert(self, h: EdgeHandle) -> Dict[str, int]:
        c0 = self.cells
        recolors = 0
        chi = self.chi
        if chi[h.lo] == chi[h.hi]:
            v = h.hi
            used = set()
            for w in self.graph.neighbors(v):
                used.add(chi[w])
            self.cells += self.graph.degree(v)
            c = 1
            while c in used:
                c += 1
            self.cells += c
            chi[v] = c
            recolors = 1
            self.recolor_total += 1
        return {"recolor_calls": recolors, "cells_touched": self.cells - c0}

    def on_delete(self, h: EdgeHandle) -> Dict[str, int]:
        return {"recolor_calls": 0, "cells_touched": 0}

    def colors(self) -> List[int]:
        return list(self.chi)


def make_det_engine(graph: DynamicGraph):
    """Tuple engine for delta >= DELTA_MIN, greedy fallback below."""
    if graph.max_degree is None:
        raise ValueError("deterministic engine needs a fixed degree bound")
    if graph.max_degree < DELTA_MIN:
        return GreedyVertexColoring(graph)
    return TupleVertexColoring(graph)
