"""Brute-force oracles and invariant auditors.

Everything here recomputes from first principles (adjacency, levels,
colors) with plain scans and no shared state with the engines, so a
disagreement always blames the engine. These run in tests, at the harness's
periodic checkpoints and in the deep audit that ends every ``harness.run``,
so their cost is part of every run's time, and the benchmark times them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


def check_edge_coloring(
    graph: DynamicGraph, palette: Optional[int]
) -> Tuple[AuditReport, List[tuple]]:
    """Properness and palette of the edge colors held by the graph's handles.

    ``palette`` is the fixed palette, or None in adaptive mode, where edge
    (u, v) may use colors up to 2 * max(deg u, deg v) - 1. Returns the
    properness report (``uncolored-edge`` and ``proper-edge`` violations) and
    the ``edge-palette`` violations, each edge's under its lower endpoint.

    Each vertex's colors are read once, in bulk. A vertex whose colors are
    all set, distinct and within its bound (the palette, or 2 * deg(v) - 1,
    which no incident edge's own bound is below) owns no violation; only a
    vertex that fails is walked edge by edge to list them.
    """
    proper: List[tuple] = []
    bad_palette: List[tuple] = []
    color_of = attrgetter("color")
    adj = graph._adj
    for v, nbrs in enumerate(adj):
        if not nbrs:
            continue
        colors = list(map(color_of, nbrs.values()))
        distinct = set(colors)
        bound = palette if palette is not None else 2 * len(colors) - 1
        if None not in distinct and len(distinct) == len(colors) and max(distinct) <= bound:
            continue
        seen: Dict[int, Tuple[int, int]] = {}
        for u, h in nbrs.items():
            c = h.color
            e = (v, u) if v < u else (u, v)
            if c is None:
                if v < u:
                    proper.append(("uncolored-edge", e, None, None))
                    bad_palette.append(("edge-palette", e, None, palette))
                continue
            if c in seen:
                proper.append(("proper-edge", v, e, seen[c]))
            else:
                seen[c] = e
            if v < u:
                limit = palette if palette is not None else 2 * max(len(nbrs), len(adj[u])) - 1
                if c > limit:
                    bad_palette.append(("edge-palette", e, c, palette))
    return AuditReport.from_violations(proper), bad_palette


def recount_band_invariants(
    graph: DynamicGraph, part, chi: Optional[Sequence[int]] = None
) -> tuple:
    """Both band invariants recounted from adjacency and levels alone.

    Returns the report and the recounted below-degrees, which
    ``check_hierarchy`` reuses when handed them. Given the colors ``chi``,
    the same pass over each vertex's neighbors also rebuilds its table of
    the colors held at its level or above, as ``rebuild_upper_color_counts``
    does, and returns the tables third.
    """
    bad: List[tuple] = []
    level = part.level
    n = graph.n
    below_count = [0] * n
    at_level = [0] * n
    upper = None if chi is None else [{} for _ in range(n)]
    for u, nbrs in enumerate(graph._adj):
        lu = level[u]
        below = at = 0
        for v in nbrs:
            lv = level[v]
            if lv < lu:
                below += 1
            elif lv == lu:
                at += 1
        below_count[u] = below
        at_level[u] = at
        if upper is not None:
            table = upper[u]
            for v in nbrs:
                if level[v] >= lu:
                    c = chi[v]
                    table[c] = table.get(c, 0) + 1
    pows = part.pow
    for v in range(n):
        lv = level[v]
        if not 4 <= lv <= part.L:
            bad.append(("level-range", v, lv, (4, part.L)))
        elif lv > 4 and below_count[v] < pows[lv - 5]:
            bad.append(("invariant-1", v, below_count[v], pows[lv - 5]))
        elif below_count[v] + at_level[v] > pows[lv]:
            bad.append(("invariant-2", v, below_count[v] + at_level[v], pows[lv]))
    report = AuditReport.from_violations(bad)
    return (report, below_count) if upper is None else (report, below_count, upper)


def check_hierarchy(
    graph: DynamicGraph,
    part,
    recount: Optional[Tuple[AuditReport, List[int]]] = None,
) -> AuditReport:
    """Recount both band invariants and the neighbor-set partition from adjacency.

    ``recount`` is a ``recount_band_invariants`` result for the same state;
    passing it skips a second recount.
    """
    report, below_count = recount or recount_band_invariants(graph, part)
    bad = list(report.violations)
    level = part.level
    for v in range(graph.n):
        lv = level[v]
        below = part.below[v]
        if len(below) != below_count[v]:
            bad.append(("below-counter", v, len(below), below_count[v]))
        seen: Set[int] = set(below)
        for u in below:
            if not level[u] < lv:
                bad.append(("below-band", v, u, (level[u], lv)))
        for j in range(4, part.L + 1):
            for u in part.same_list(v, j):
                seen.add(u)
                if level[u] != j or j < lv:
                    bad.append(("same-band", v, u, (level[u], j, lv)))
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
    """Fresh per-vertex multiplicity tables of colors at same-or-higher level.

    The tests' reference for the tables ``recount_band_invariants`` builds
    in its own pass when given the colors.
    """
    fresh: List[Dict[int, int]] = [dict() for _ in range(graph.n)]
    level = part.level
    for v in range(graph.n):
        t = fresh[v]
        for u in graph.neighbors(v):
            if level[u] >= level[v]:
                t[chi[u]] = t.get(chi[u], 0) + 1
    return fresh


def check_tuple_invariant(graph: DynamicGraph, engine) -> Tuple[AuditReport, List[List[int]]]:
    """Per-level class-size bound via recount against the threshold table.

    Class sizes are recounted from colors alone, each edge classified once:
    ``counts[v][j]`` neighbors of v share its length-j prefix. The counts are
    returned too, for ``check_tuple_state`` to reuse.
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
    return AuditReport.from_violations(bad), counts


def check_tuple_state(
    graph: DynamicGraph,
    engine,
    recount: Optional[Tuple[AuditReport, List[List[int]]]] = None,
) -> AuditReport:
    """Check stored prefix classes, coordinates, phi and scratch against the
    class sizes of ``recount``, a ``check_tuple_invariant`` result for the same
    state (recounted if not given). A set of the recounted size whose members
    are all neighbors sharing v's length-j prefix is the class rebuilt from colors."""
    report, counts = recount or check_tuple_invariant(graph, engine)
    bad = list(report.violations)
    p = engine.params
    coords = engine.coords
    for v in range(graph.n):
        cv = coords[v]
        adj_v = graph._adj[v]
        for j, (stored, size) in enumerate(zip(engine.nstar[v], counts[v])):
            if len(stored) != size or (
                size and any(u not in adj_v or coords[u][:j] != cv[:j] for u in stored)
            ):
                bad.append(("prefix-set", v, j, (sorted(stored), size)))
        if any(not 1 <= c <= p.radix for c in cv):
            bad.append(("coordinate-range", v, tuple(cv), p.radix))
    phi = sum(map(sum, counts))
    if phi != engine.phi:
        bad.append(("potential", None, engine.phi, phi))
    if any(engine.scratch):
        bad.append(("scratch-dirty", None, engine.scratch, None))
    return AuditReport.from_violations(bad)
