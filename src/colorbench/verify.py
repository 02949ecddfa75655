"""Brute-force oracles and invariant auditors.

Everything here recomputes from first principles (adjacency, levels,
colors) with plain scans and no shared state with the engines, so a
disagreement always blames the engine. These run in tests and at periodic
harness checkpoints only; performance is a non-goal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .graph import DynamicGraph


@dataclass
class AuditReport:
    passed: bool
    violations: List[tuple] = field(default_factory=list)

    @staticmethod
    def from_violations(violations: List[tuple]) -> "AuditReport":
        return AuditReport(not violations, violations)

    def to_json(self, check: str = "") -> str:
        return json.dumps(
            {
                "check": check,
                "passed": self.passed,
                "violations": [list(v) for v in self.violations[:20]],
                "violation_count": len(self.violations),
            }
        )


def check_proper_vertex(graph: DynamicGraph, chi: Sequence[int]) -> AuditReport:
    """Full edge scan: no edge may join equal colors."""
    bad: List[tuple] = []
    for u in range(graph.n):
        cu = chi[u]
        for v in graph._adj[u]:
            if u < v and cu == chi[v]:
                bad.append(("proper-vertex", (u, v), cu, chi[v]))
    return AuditReport.from_violations(bad)


def check_proper_edge(
    graph: DynamicGraph, edge_colors: Dict[Tuple[int, int], int]
) -> AuditReport:
    """Per-vertex incident scan: no two edges at a vertex share a color."""
    bad: List[tuple] = []
    for v in range(graph.n):
        seen: Dict[int, Tuple[int, int]] = {}
        for u in graph._adj[v]:
            e = (v, u) if v < u else (u, v)
            c = edge_colors.get(e)
            if c is None:
                if v < u:
                    bad.append(("uncolored-edge", e, None, None))
                continue
            if c in seen:
                bad.append(("proper-edge", v, e, seen[c]))
            else:
                seen[c] = e
    return AuditReport.from_violations(bad)


def recount_band_invariants(graph: DynamicGraph, part) -> Tuple[AuditReport, List[int]]:
    """Both band invariants recounted from adjacency and levels alone.

    Also returns the recounted below-degrees so fuller audits can reuse them.
    """
    bad: List[tuple] = []
    level = part.level
    n = graph.n
    below_count = [0] * n
    at_level = [0] * n
    for u in range(n):
        lu = level[u]
        for v in graph._adj[u]:
            if u < v:
                lv = level[v]
                if lu < lv:
                    below_count[v] += 1
                elif lv < lu:
                    below_count[u] += 1
                else:
                    at_level[u] += 1
                    at_level[v] += 1
    pows = part.pow
    for v in range(n):
        lv = level[v]
        if not 4 <= lv <= part.L:
            bad.append(("level-range", v, lv, (4, part.L)))
        elif lv > 4 and below_count[v] < pows[lv - 5]:
            bad.append(("invariant-1", v, below_count[v], pows[lv - 5]))
        elif below_count[v] + at_level[v] > pows[lv]:
            bad.append(("invariant-2", v, below_count[v] + at_level[v], pows[lv]))
    return AuditReport.from_violations(bad), below_count


def check_hierarchy(graph: DynamicGraph, part) -> AuditReport:
    """Recount both band invariants and the list partition from adjacency."""
    report, below_count = recount_band_invariants(graph, part)
    bad = report.violations
    level = part.level
    for v in range(graph.n):
        lv = level[v]
        blist = part.below[v]
        if blist.size != below_count[v]:
            bad.append(("below-counter", v, blist.size, below_count[v]))
        seen: Set[int] = set()
        for cell in blist.cells():
            u = cell.neighbor
            seen.add(u)
            if not level[u] < lv:
                bad.append(("below-band", v, u, (level[u], lv)))
        for j in range(4, part.L + 1):
            lst = part.same_list(v, j)
            count = 0
            for cell in lst.cells():
                u = cell.neighbor
                seen.add(u)
                count += 1
                if level[u] != j or j < lv:
                    bad.append(("same-band", v, u, (level[u], j, lv)))
            if count != lst.size:
                bad.append(("same-counter", v, j, (count, lst.size)))
        adj_v = graph._adj[v]
        if len(seen) != len(adj_v) or any(u not in adj_v for u in seen):
            bad.append(("partition", v, sorted(seen), sorted(adj_v)))
    return AuditReport.from_violations(bad)


def brute_blank_unique(
    graph: DynamicGraph,
    chi: Sequence[int],
    part,
    v: int,
    palette_limit: int,
) -> Tuple[Set[int], Set[int], Set[int]]:
    """Blank/unique/rest split of v's free colors, straight from definitions."""
    lv = part.level[v]
    upper = {chi[u] for u in graph.neighbors(v) if part.level[u] >= lv}
    below: Dict[int, int] = {}
    for u in graph.neighbors(v):
        if part.level[u] < lv:
            below[chi[u]] = below.get(chi[u], 0) + 1
    blank: Set[int] = set()
    unique: Set[int] = set()
    rest: Set[int] = set()
    for c in range(1, palette_limit + 1):
        if c in upper:
            continue
        k = below.get(c, 0)
        (blank if k == 0 else unique if k == 1 else rest).add(c)
    return blank, unique, rest


def rebuild_upper_color_counts(
    graph: DynamicGraph, part, chi: Sequence[int]
) -> List[Dict[int, int]]:
    """Fresh per-vertex multiplicity tables of colors at same-or-higher level."""
    fresh: List[Dict[int, int]] = [dict() for _ in range(graph.n)]
    level = part.level
    for v in range(graph.n):
        t = fresh[v]
        for u in graph.neighbors(v):
            if level[u] >= level[v]:
                t[chi[u]] = t.get(chi[u], 0) + 1
    return fresh


def check_tuple_invariant(graph: DynamicGraph, engine) -> AuditReport:
    """Per-level class-size bound via recount against the threshold table.

    Class sizes are recounted from colors alone (each edge classified once);
    this is the fast per-checkpoint audit. ``check_tuple_state`` additionally
    rebuilds the stored sets themselves.
    """
    bad: List[tuple] = []
    p = engine.params
    coords = engine.coords
    L = p.levels
    counts = [[0] * (L + 1) for _ in range(graph.n)]
    for u in range(graph.n):
        cu = coords[u]
        for v in graph._adj[u]:
            if u < v:
                cv = coords[v]
                i = 0
                while i < L and cu[i] == cv[i]:
                    i += 1
                for j in range(i + 1):
                    counts[u][j] += 1
                    counts[v][j] += 1
    allowed = p.max_allowed
    for v in range(graph.n):
        for j in range(L + 1):
            if counts[v][j] > allowed[j]:
                bad.append(("degree-bound", v, j, (counts[v][j], allowed[j])))
    return AuditReport.from_violations(bad)


def check_tuple_state(graph: DynamicGraph, engine) -> AuditReport:
    """Rebuild all prefix-class sets from colors; verify counters, nesting,
    the per-level degree bound, and the stored potential."""
    bad: List[tuple] = []
    p = engine.params
    coords = engine.coords
    L = p.levels
    phi = 0
    for v in range(graph.n):
        cv = coords[v]
        fresh: List[Set[int]] = [set() for _ in range(L + 1)]
        for u in graph.neighbors(v):
            cu = coords[u]
            i = 0
            while i < L and cu[i] == cv[i]:
                i += 1
            for j in range(i + 1):
                fresh[j].add(u)
        for j in range(L + 1):
            stored = engine.nstar[v][j]
            if stored != fresh[j]:
                bad.append(("prefix-set", v, j, (sorted(stored), sorted(fresh[j]))))
            if j and not fresh[j] <= fresh[j - 1]:
                bad.append(("nesting", v, j, None))
            if len(fresh[j]) > p.max_allowed[j]:
                bad.append(("degree-bound", v, j, (len(fresh[j]), p.max_allowed[j])))
            phi += len(fresh[j])
        if any(not 1 <= c <= p.radix for c in cv):
            bad.append(("coordinate-range", v, tuple(cv), p.radix))
    if phi != engine.phi:
        bad.append(("potential", None, engine.phi, phi))
    if any(engine.scratch):
        bad.append(("scratch-dirty", None, engine.scratch, None))
    return AuditReport.from_violations(bad)


def greedy_static_vertex(graph: DynamicGraph) -> List[int]:
    """Static greedy coloring, vertices in id order, smallest free color."""
    chi = [0] * graph.n
    for v in range(graph.n):
        used = {chi[u] for u in graph.neighbors(v) if chi[u]}
        c = 1
        while c in used:
            c += 1
        chi[v] = c
    return chi
