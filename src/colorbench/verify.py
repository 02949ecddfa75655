"""Brute-force oracles and invariant auditors.

Everything here recomputes from first principles (adjacency, levels,
colors) with plain scans and no shared state with the engines, so a
disagreement always blames the engine. These run in tests, at the harness's
periodic checkpoints and in the deep audit that ends every ``harness.run``,
so their cost is part of every run's time, and the benchmark times them.

The checks of stored state (edge colors, det-vc's prefix counts and classes,
rand-vc's neighbor sets) do Python-level work only where a check can fail:
verdict, then walk. Each vertex (for det-vc's class sizes and stored
classes, the whole state) first gets a verdict from a few C-level
operations on its adjacency and stored sets (sizes, set equality, identity
or inclusion, counts of levels or coordinates). Only a vertex whose verdict
fails is walked item by item, in the original order, to list its
violations; a vertex that passes owns none, so the walk reports exactly
what a walk of every vertex would. The band recount likewise decides
once whether every vertex is at level 4, as on a dormant hierarchy, and
then reads its counts off the degrees with no per-neighbor walk.
A helper called once per vertex is local to its check: the benchmark's
tracer records a span for every call of a module-level function here.

Every audit keeps a constant number of containers alive, whatever n is.
A per-vertex table or row is built, compared and dropped within its
vertex's turn, and counts that outlive the pass sit in flat lists of ints.
The collector counts container allocations net of frees, so n containers
alive at once set off about n / 700 young collections, and on a large
graph a full collection of everything the run has built as well (at
n = 30,000, one in each deep audit). Nothing here touches the collector's
settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, cycle, repeat
from operator import add, countOf, gt, is_, le, not_
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


def check_vertex_palette(
    graph: DynamicGraph, chi: Sequence[int], palette: Optional[int]
) -> AuditReport:
    """Every vertex color within its limit: the fixed ``palette``, or, when
    it is None (adaptive mode), the vertex's degree + 1.

    Colors start at 1. One C-level verdict first (the smallest color
    against 1, and the largest against the palette or each color against its
    vertex's degree + 1); only a failing state is walked to list its
    violations, in vertex order.
    """
    adj = graph._adj
    if palette is None:
        fits = all(map(le, chi, map(add, map(len, adj), repeat(1))))
    else:
        fits = max(chi, default=0) <= palette
    bad: List[tuple] = []
    if not fits or min(chi, default=1) < 1:
        limits = [len(a) + 1 for a in adj] if palette is None else repeat(palette)
        bad = [
            ("palette", v, c, limit)
            for v, (c, limit) in enumerate(zip(chi, limits))
            if not 1 <= c <= limit
        ]
    return AuditReport.from_violations(bad)


def check_edge_coloring(
    graph: DynamicGraph,
    palette: Optional[int],
    colors: Optional[List[Optional[int]]] = None,
) -> Tuple[AuditReport, List[tuple]]:
    """Properness and palette of the edge colors held in the graph's adjacency.

    ``palette`` is the fixed palette, or None in adaptive mode, where edge
    (u, v) may use colors up to 2 * max(deg u, deg v) - 1. Returns the
    properness report (``uncolored-edge`` and ``proper-edge`` violations) and
    the ``edge-palette`` violations, each edge's under its lower endpoint.
    ``colors`` is ``graph.handle_colors()`` for the same state (read if not given).

    A vertex's colors are its slice of that flat list. Colors start at 1.
    One C-level verdict on the whole list comes first: every color set, none
    below 1 and, in fixed mode, none above the palette. Then a vertex whose
    colors are distinct and, in adaptive mode, at most 2 * deg(v) - 1 (which
    no incident edge's own bound is below) owns no violation; only a vertex
    that fails is walked edge by edge to list them.
    """
    proper: List[tuple] = []
    bad_palette: List[tuple] = []
    adj = graph._adj
    if colors is None:
        colors = graph.handle_colors()
    in_range = (
        None not in colors
        and min(colors, default=1) >= 1
        and (palette is None or max(colors, default=0) <= palette)
    )
    for v, (nbrs, end) in enumerate(zip(adj, accumulate(map(len, adj)))):
        if not nbrs:
            continue
        distinct = set(colors[end - len(nbrs) : end])
        if (
            in_range
            and len(distinct) == len(nbrs)
            and (palette is not None or max(distinct) < 2 * len(nbrs))
        ):
            continue
        seen: Dict[int, Tuple[int, int]] = {}
        for u, c in nbrs.items():
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
                if not 1 <= c <= limit:
                    bad_palette.append(("edge-palette", e, c, palette))
    return AuditReport.from_violations(proper), bad_palette


def recount_band_invariants(
    graph: DynamicGraph,
    part,
    chi: Optional[Sequence[int]] = None,
    mu: Optional[Sequence[Dict[int, int]]] = None,
) -> tuple:
    """Both band invariants recounted from adjacency and levels alone.

    Returns the report and the recounted below-degrees, which
    ``check_hierarchy`` reuses when handed them. Given the colors ``chi``
    and the stored tables ``mu``, the same pass over each vertex's neighbors
    also rebuilds its table of the colors held at its level or above, as
    ``rebuild_upper_color_counts`` does, compares it with the stored one at
    once and drops it; the ``upper-counts`` violations, in vertex order,
    are returned third.

    One C-level count of the levels first decides whether the partition is
    flat, every vertex at level 4, as a dormant hierarchy always is. Then no
    neighbor is below its vertex and every neighbor is at its vertex's
    level, so the below-counts are zeros and the at-level counts are the
    degrees, exactly what the walk counts, and no neighbor's level is read;
    a table counts every neighbor's color. Only invariant 2 can fire there.
    A partition that is not flat is walked neighbor by neighbor.
    """
    bad: List[tuple] = []
    level = part.level
    n = graph.n
    adj = graph._adj
    below_count = [0] * n
    upper_bad: Optional[List[tuple]] = None if mu is None else []
    if countOf(level, 4) == n:
        # flat: no neighbor is below, and every neighbor is at level 4
        at_level = list(map(len, adj))
        if upper_bad is not None:
            for u, nbrs in enumerate(adj):
                table: Dict[int, int] = {}
                for v in nbrs:
                    c = chi[v]
                    table[c] = table.get(c, 0) + 1
                if table != mu[u]:
                    upper_bad.append(("upper-counts", u, mu[u], table))
    else:
        at_level = [0] * n
        for u, nbrs in enumerate(adj):
            lu = level[u]
            below = at = 0
            if upper_bad is None:
                for v in nbrs:
                    lv = level[v]
                    if lv < lu:
                        below += 1
                    elif lv == lu:
                        at += 1
            else:
                table = {}
                for v in nbrs:
                    lv = level[v]
                    if lv < lu:
                        below += 1
                        continue
                    if lv == lu:
                        at += 1
                    c = chi[v]
                    table[c] = table.get(c, 0) + 1
                if table != mu[u]:
                    upper_bad.append(("upper-counts", u, mu[u], table))
            below_count[u] = below
            at_level[u] = at
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
    return (report, below_count) if upper_bad is None else (report, below_count, upper_bad)


def check_hierarchy(
    graph: DynamicGraph,
    part,
    recount: Optional[Tuple[AuditReport, List[int]]] = None,
) -> AuditReport:
    """Recount both band invariants and the neighbor-set partition from adjacency.

    ``recount`` is a ``recount_band_invariants`` result for the same state;
    passing it skips a second recount.

    Each vertex first gets a verdict from C-level checks of its sets: they
    are together as large as its adjacency, and each lies in the adjacency
    with every member at the set's level, below v's for the below set. The
    sets are then disjoint and cover the adjacency, and the below set holds
    exactly the neighbors the recount found below. A dormant partition's only
    set is the adjacency itself, at level 4: there a vertex passes when it
    stores no below set and every vertex is at level 4; if some vertex is
    not, every vertex fails. A vertex that fails is walked member by member
    to list its violations.
    """
    report, below_count = recount or recount_band_invariants(graph, part)
    bad = list(report.violations)
    level = part.level
    level_of = level.__getitem__
    adj = graph._adj
    L = part.L
    if part.dormant:
        verdicts = map(not_, part.below) if countOf(level, 4) == len(level) else repeat(False)
    else:
        def settled(v: int) -> bool:
            lv = level[v]
            below = part.below[v]
            same = part.same[v]
            adj_v = adj[v].keys()
            return (
                len(below) + sum(map(len, same.values())) == len(adj_v)
                and below.keys() <= adj_v
                and (not below or max(map(level_of, below)) < lv)
                and all(
                    not s or (4 <= lv <= j <= L and s.keys() <= adj_v
                              and countOf(map(level_of, s), j) == len(s))
                    for j, s in same.items()
                )
            )

        verdicts = map(settled, range(graph.n))
    for v in compress(range(graph.n), map(not_, verdicts)):
        lv = level[v]
        below = part.below[v]
        if len(below) != below_count[v]:
            bad.append(("below-counter", v, len(below), below_count[v]))
        seen: Set[int] = set(below)
        for u in below:
            if not level[u] < lv:
                bad.append(("below-band", v, u, (level[u], lv)))
        for j in range(4, L + 1):
            for u in part.same_list(v, j):
                seen.add(u)
                if level[u] != j or j < lv:
                    bad.append(("same-band", v, u, (level[u], j, lv)))
        adj_v = adj[v]
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

    The tests' reference for the tables ``recount_band_invariants`` rebuilds
    and compares, one vertex at a time, when given the colors and the
    stored tables.
    """
    fresh: List[Dict[int, int]] = [dict() for _ in range(graph.n)]
    level = part.level
    for v in range(graph.n):
        t = fresh[v]
        for u in graph.neighbors(v):
            if level[u] >= level[v]:
                t[chi[u]] = t.get(chi[u], 0) + 1
    return fresh


def check_tuple_invariant(graph: DynamicGraph, engine) -> Tuple[AuditReport, List[int]]:
    """Per-level class-size bound via recount against the threshold table.

    Class sizes are recounted from colors alone, each edge classified once,
    into one flat list: ``counts[v * (L + 1) + j]`` neighbors of v share its
    length-j prefix. The counts are returned too, for ``check_tuple_proper``
    and ``check_tuple_state`` to reuse.

    A vertex's length-0 count is its degree, and an edge walks the prefix
    lengths from 1 up only when its endpoints' first coordinates agree. One
    C-level verdict checks every count against its bound; only when it fails
    are the counts walked to list the ``degree-bound`` violations.
    """
    p = engine.params
    coords = engine.coords
    L = p.levels
    width = L + 1
    adj = graph._adj
    counts = [0] * (graph.n * width)
    counts[::width] = map(len, adj)
    for u, nbrs in enumerate(adj):
        cu = coords[u]
        a = cu[0]
        base_u = u * width
        for v in nbrs:
            if u < v and coords[v][0] == a:
                cv = coords[v]
                i = 1
                while i < L and cu[i] == cv[i]:
                    i += 1
                base_v = v * width
                for j in range(1, i + 1):
                    counts[base_u + j] += 1
                    counts[base_v + j] += 1
    allowed = p.max_allowed
    if all(map(le, counts, cycle(allowed))):
        return AuditReport(True), counts
    bad: List[tuple] = []
    for k in compress(range(len(counts)), map(gt, counts, cycle(allowed))):
        v, j = divmod(k, width)
        bad.append(("degree-bound", v, j, (counts[k], allowed[j])))
    return AuditReport.from_violations(bad), counts


def coords_in_range(engine) -> bool:
    """Whether every coordinate of det-vc's tuples lies in [1, radix].

    One C-level verdict over the whole state, which an audit computes once
    and hands to both ``check_tuple_proper`` and ``check_tuple_state``.
    """
    digits = set(range(1, engine.params.radix + 1))
    return digits.issuperset(chain.from_iterable(engine.coords))


def check_tuple_proper(
    graph: DynamicGraph,
    engine,
    recount: Optional[Tuple[AuditReport, List[int]]] = None,
    in_range: Optional[bool] = None,
) -> AuditReport:
    """Properness of det-vc's tuple colors, read off ``recount``, a
    ``check_tuple_invariant`` result for the same state (recounted if not given).
    ``in_range`` is ``coords_in_range`` for the same state (computed if not given).

    When every tuple has L coordinates, each in [1, radix], two vertices'
    encoded colors are equal exactly when they share their length-L prefix,
    so the state is proper when every length-L count is 0. Only a state that
    fails this verdict is scanned edge by edge, as ``check_proper_vertex``
    over the encoded colors, to list its violations.
    """
    _, counts = recount or check_tuple_invariant(graph, engine)
    p = engine.params
    L = p.levels
    coords = engine.coords
    if (
        countOf(map(len, coords), L) == len(coords)
        and (coords_in_range(engine) if in_range is None else in_range)
        and not any(counts[L :: L + 1])
    ):
        return AuditReport(True)
    return check_proper_vertex(graph, engine.colors())


def check_tuple_state(
    graph: DynamicGraph,
    engine,
    recount: Optional[Tuple[AuditReport, List[int]]] = None,
    in_range: Optional[bool] = None,
) -> AuditReport:
    """Check stored prefix classes, coordinates and phi against the class
    sizes of ``recount``, a ``check_tuple_invariant`` result for the same
    state (recounted if not given). A set of the recounted size whose members
    are all neighbors sharing v's length-j prefix is the class rebuilt from colors.
    ``in_range`` is ``coords_in_range`` for the same state (computed if not given).

    The whole state first gets one C-level verdict: the stored class sizes
    are the recount, slot 0 of each vertex's row is its adjacency dict, and
    every coordinate is in range. When it passes, members are scanned only in
    the nonempty classes of length 1 and up. When it fails, every vertex is
    walked in full, every class and coordinate, to list violations.
    Prefixes are compared digit by digit when their slices differ, so a
    coordinate row that is not a bytearray still matches an equal one.
    A repair's queue and value counts live only while it runs, so no engine
    state of theirs is left to check.
    """
    report, counts = recount or check_tuple_invariant(graph, engine)
    bad = list(report.violations)
    p = engine.params
    coords = engine.coords
    nstar = engine.nstar
    adj = graph._adj
    radix = p.radix
    width = p.levels + 1

    def check_class(k: int) -> None:
        v, j = divmod(k, width)
        stored, size, adj_v, pre = nstar[k], counts[k], adj[v], coords[v][:j]
        if len(stored) != size or (
            size
            and any(
                u not in adj_v
                or (coords[u][:j] != pre and list(coords[u][:j]) != list(pre))
                for u in stored
            )
        ):
            bad.append(("prefix-set", v, j, (sorted(stored), size)))

    if (
        list(map(len, nstar)) == counts
        and all(map(is_, nstar[::width], adj))
        and (coords_in_range(engine) if in_range is None else in_range)
    ):
        owned = counts[:]
        owned[::width] = repeat(0, graph.n)
        for k in compress(range(len(owned)), owned):
            check_class(k)
    else:
        for v, cv in enumerate(coords):
            for k in range(v * width, v * width + width):
                check_class(k)
            if any(not 1 <= c <= radix for c in cv):
                bad.append(("coordinate-range", v, tuple(cv), radix))
    phi = sum(counts)
    if phi != engine.phi:
        bad.append(("potential", None, engine.phi, phi))
    return AuditReport.from_violations(bad)
