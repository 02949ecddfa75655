"""Oracle self-tests: the auditors must accept good states and flag bad ones."""

import collections
import functools
import gc
import hashlib
import json
import random
from itertools import chain, repeat
from typing import List, Set

import pytest

from colorbench import new_graph
from colorbench import verify
from colorbench.harness import TraceSpec, audit_engine, generate, make_engine


def test_proper_vertex_flags_monochromatic_edge():
    g = new_graph(3, 2)
    g.insert(0, 1)
    report = verify.check_proper_vertex(g, [5, 5, 1])
    assert not report.passed
    assert report.violations[0][1] == (0, 1)
    assert verify.check_proper_vertex(new_graph(0, 1), []).passed


def test_vertex_palette_limits_a_fixed_palette_or_each_degree_plus_one():
    g = new_graph(4, 3)
    g.insert(0, 1)
    g.insert(1, 2)
    chi = [2, 3, 2, 1]  # degrees 1, 2, 1, 0
    assert verify.check_vertex_palette(g, chi, 3).passed
    assert verify.check_vertex_palette(g, chi, None).passed
    chi = [3, 3, 2, 2]
    assert verify.check_vertex_palette(g, chi, 3).passed
    adaptive = verify.check_vertex_palette(g, chi, None)
    assert adaptive.violations == [("palette", 0, 3, 2), ("palette", 3, 2, 1)]
    fixed = verify.check_vertex_palette(g, [4, 1, 5, 1], 3)
    assert fixed.violations == [("palette", 0, 4, 3), ("palette", 2, 5, 3)]
    # colors start at 1, in both modes (vertex 1's limit is 3 in both)
    for palette in (3, None):
        below = verify.check_vertex_palette(g, [2, 0, 2, 1], palette)
        assert below.violations == [("palette", 1, 0, 3)]
    assert verify.check_vertex_palette(new_graph(0, 1), [], None).passed


@pytest.mark.parametrize(
    "name, delta", [("rand-vc", 8), ("rand-vc", None), ("greedy-baseline", 8), ("det-vc", 3)]
)
def test_a_vertex_color_below_one_fails_the_palette_audit(name, delta):
    # det-vc below its smallest degree bound is the greedy engine, whose
    # colors the palette audit reads
    g, eng = make_engine(name, 30, delta, seed=1)
    for ev in generate(TraceSpec(30, delta, 300, 1, "uniform-random")):
        g.apply(ev)
    v = max(range(g.n), key=g.degree)
    eng.chi[v] = 0
    reports = dict(audit_engine(name, g, eng))
    limit = g.degree(v) + 1 if delta is None else eng.palette
    assert reports["palette"].violations == [("palette", v, 0, limit)]
    assert reports["proper-vertex"].passed


def test_proper_edge_flags_shared_color_and_uncolored():
    g = new_graph(3, 2)
    g.insert(0, 1)
    g.insert(1, 2)
    a, b = g.handle(0, 1), g.handle(1, 2)
    a.color, b.color = 1, 2
    assert verify.check_edge_coloring(g, 3)[0].passed
    b.color = 1
    bad, _ = verify.check_edge_coloring(g, 3)
    assert not bad.passed
    b.color = None
    missing, _ = verify.check_edge_coloring(g, 3)
    assert not missing.passed
    assert missing.violations[0][0] == "uncolored-edge"


def test_hierarchy_auditor_flags_injected_violation():
    g, eng = make_engine("rand-vc", 30, 8, seed=1, beta=2)
    for ev in generate(TraceSpec(30, 8, 500, 2, "uniform-random")):
        g.apply(ev)
    assert verify.check_hierarchy(g, eng.hier).passed
    eng.hier.level[3] = 6  # lie about a level; lists no longer match
    report = verify.check_hierarchy(g, eng.hier)
    assert not report.passed


def _slot(eng, v, j):
    """Index of v's length-j prefix class in det-vc's flat class list."""
    return v * (eng.params.levels + 1) + j


def _row(eng, v):
    """v's prefix classes, lengths 0 to L."""
    return eng.nstar[_slot(eng, v, 0) : _slot(eng, v + 1, 0)]


def test_tuple_auditor_flags_corrupted_set():
    g, eng = make_engine("det-vc", 40, 16, seed=2)
    for ev in generate(TraceSpec(40, 16, 800, 3, "uniform-random")):
        g.apply(ev)
    assert verify.check_tuple_state(g, eng).passed
    # length 0 is the graph's adjacency; corrupt a class the engine owns
    victim, j = next(
        (v, j) for v in range(40) for j in range(1, eng.params.levels + 1) if _row(eng, v)[j]
    )
    _row(eng, victim)[j].pop()
    report = verify.check_tuple_state(g, eng)
    assert not report.passed
    assert any(v[0] in ("prefix-set", "potential") for v in report.violations)


def rebuilt_tuple_state(graph, engine):
    """Reference: ``check_tuple_state`` as it was when it rebuilt every prefix
    class from colors as a fresh set. Its nesting check cannot fire, since
    each neighbor joins fresh[0..i]; the comparisons below confirm it never does."""
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
            stored = set(_row(engine, v)[j])
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
    return verify.AuditReport.from_violations(bad)


def _verdict(report):
    """Violations up to order and the evidence a prefix-set line carries."""
    return sorted(repr(v[:3] if v[0] == "prefix-set" else v) for v in report.violations)


def _det_state(seed, n=40, delta=16, ops=800):
    g, eng = make_engine("det-vc", n, delta)
    for ev in generate(TraceSpec(n, delta, ops, seed, "uniform-random")):
        g.apply(ev)
    return g, eng


def _owned_class(eng, rng):
    """A random nonempty (vertex, length >= 1) class the engine owns."""
    classes = [
        (v, j)
        for v in range(len(eng.coords))
        for j in range(1, eng.params.levels + 1)
        if _row(eng, v)[j]
    ]
    return rng.choice(classes)


def _add_non_neighbor(g, eng, rng):
    v, j = _owned_class(eng, rng)
    w = rng.choice([w for w in range(g.n) if w != v and w not in g._adj[v]])
    _row(eng, v)[j].add(w)


def _fill_empty_class(g, eng, rng):
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    j = eng.params.levels
    eng.nstar[_slot(eng, v, j)] = {rng.choice(list(g._adj[v]))}


def _remove_member(g, eng, rng):
    v, j = _owned_class(eng, rng)
    _row(eng, v)[j].remove(rng.choice(sorted(_row(eng, v)[j])))


def _swap_for_non_neighbor(g, eng, rng):
    v, j = _owned_class(eng, rng)
    cls = _row(eng, v)[j]
    cls.remove(rng.choice(sorted(cls)))
    cls.add(rng.choice([w for w in range(g.n) if w not in g._adj[v]]))


def _swap_for_other_neighbor(g, eng, rng):
    # same size, every member a neighbor: only the prefix test can tell
    v, j = rng.choice([
        (v, j)
        for v in range(g.n)
        for j in range(1, eng.params.levels + 1)
        if _row(eng, v)[j] and len(g._adj[v]) > len(_row(eng, v)[j])
    ])
    cls = _row(eng, v)[j]
    cls.remove(rng.choice(sorted(cls)))
    cls.add(rng.choice(sorted(set(g._adj[v]) - cls)))


def _change_coordinate(g, eng, rng):
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    c = rng.randrange(eng.params.levels)
    choices = [a for a in range(eng.params.radix + 2) if a != eng.coords[v][c]]
    eng.coords[v][c] = rng.choice(choices)  # 0 and radix + 1 are out of range


def _nudge_phi(g, eng, rng):
    eng.phi += rng.choice((-2, -1, 1, 2))


CORRUPTIONS = [
    _add_non_neighbor,
    _fill_empty_class,
    _remove_member,
    _swap_for_non_neighbor,
    _swap_for_other_neighbor,
    _change_coordinate,
    _nudge_phi,
]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_tuple_state_agrees_with_the_class_rebuild_on_clean_states(seed):
    g, eng = _det_state(seed)
    report = verify.check_tuple_state(g, eng)
    assert report.passed
    assert _verdict(report) == _verdict(rebuilt_tuple_state(g, eng)) == []


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_tuple_state_agrees_with_the_class_rebuild_on_corrupted_states(corrupt):
    flagged = 0
    for seed in range(6):
        g, eng = _det_state(seed)
        corrupt(g, eng, random.Random(seed))
        report = verify.check_tuple_state(g, eng)
        reference = rebuilt_tuple_state(g, eng)
        assert report.passed == reference.passed
        assert _verdict(report) == _verdict(reference)
        flagged += not report.passed
    # a coordinate change can leave every class and phi right
    assert flagged >= (1 if corrupt is _change_coordinate else 6)


def test_tuple_state_reports_a_prefix_class_with_its_recounted_size():
    g, eng = _det_state(3)
    v, j = _owned_class(eng, random.Random(0))
    size = len(_row(eng, v)[j])
    _row(eng, v)[j].pop()
    report = verify.check_tuple_state(g, eng)
    assert ("prefix-set", v, j, (sorted(_row(eng, v)[j]), size)) in report.violations
    # a standalone call recounts, so a broken bound is still reported
    a = next(a for a in range(g.n) if g._adj[a])
    b = next(iter(g._adj[a]))
    eng.coords[b] = bytearray(eng.coords[a])
    report = verify.check_tuple_state(g, eng)
    assert ("degree-bound", a, eng.params.levels, (1, 0)) in report.violations


@pytest.mark.parametrize("corrupt", [None, _swap_for_other_neighbor, _change_coordinate])
def test_tuple_state_compares_a_list_row_by_its_digits(corrupt):
    # a row held in a list matches an equal bytearray row, so a state whose
    # odd rows are lists gets the same violations as the all-bytearray state
    for seed in range(6):
        g, eng = _det_state(seed)
        if corrupt:
            corrupt(g, eng, random.Random(seed))
        expected = verify.check_tuple_state(g, eng).violations
        if corrupt is None:
            assert expected == []
        eng.coords[1::2] = map(list, eng.coords[1::2])
        assert verify.check_tuple_state(g, eng).violations == expected


def dict_edge_audit(graph, engine):
    """Reference: edge-c's audit as it was, on the ``edge_colors()`` snapshot:
    the dict-based properness scan, then ``audit_engine``'s palette loop.
    Returns the ``proper-edge`` and ``edge-palette`` violations."""
    colors = engine.edge_colors()
    proper: List[tuple] = []
    for v in range(graph.n):
        seen = {}
        for u in graph._adj[v]:
            e = (v, u) if v < u else (u, v)
            c = colors.get(e)
            if c is None:
                if v < u:
                    proper.append(("uncolored-edge", e, None, None))
                continue
            if c in seen:
                proper.append(("proper-edge", v, e, seen[c]))
            else:
                seen[c] = e
    bad: List[tuple] = []
    degree = graph.degree
    if engine.adaptive:
        for (u, v), c in colors.items():
            if c is None or not 1 <= c <= 2 * max(degree(u), degree(v)) - 1:
                bad.append(("edge-palette", (u, v), c, None))
    else:
        limit = engine.palette
        for e, c in colors.items():
            if c is None or not 1 <= c <= limit:
                bad.append(("edge-palette", e, c, limit))
    if engine.invariant_failures:
        bad.append(("search-invariant", None, engine.invariant_failures, 0))
    return proper, bad


def _edge_state(seed, delta, n=40, ops=1500):
    mode = "uniform-random" if delta else "sliding-window"
    g, eng = make_engine("edge-c", n, delta)
    for ev in generate(TraceSpec(n, delta, ops, seed, mode)):
        g.apply(ev)
    return g, eng


def _assert_edge_audit_matches_the_reference(g, eng):
    reports = audit_engine("edge-c", g, eng)
    assert [check for check, _ in reports] == ["proper-edge", "edge-palette"]
    proper, bad = dict_edge_audit(g, eng)
    assert reports[0][1].violations == proper
    assert reports[1][1].violations == bad
    assert reports[0][1].passed == (not proper)
    assert reports[1][1].passed == (not bad)
    return proper, bad


def _share_a_color(g, eng, rng):
    v = rng.choice([v for v in range(g.n) if len(g._adj[v]) >= 2])
    a, b = rng.sample(list(g._adj[v]), 2)
    g.handle(v, a).color = g.handle(v, b).color


def _uncolor(g, eng, rng):
    g.handle(*rng.choice(list(g.edges()))).color = None


def _above_the_palette(g, eng, rng):
    h = g.handle(*rng.choice(list(g.edges())))
    if eng.adaptive:
        h.color = 2 * max(len(g._adj[h.lo]), len(g._adj[h.hi]))
    else:
        h.color = eng.palette + 1


def _below_the_palette(g, eng, rng):
    g.handle(*rng.choice(list(g.edges()))).color = 0


def _search_failure(g, eng, rng):
    eng.invariant_failures += rng.randrange(1, 4)


EDGE_CORRUPTIONS = [
    _share_a_color, _uncolor, _above_the_palette, _below_the_palette, _search_failure
]


@pytest.mark.parametrize("delta", [8, None], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_edge_audit_agrees_with_the_dict_audit_on_clean_states(seed, delta):
    g, eng = _edge_state(seed, delta)
    assert _assert_edge_audit_matches_the_reference(g, eng) == ([], [])


@pytest.mark.parametrize("delta", [8, None], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("corrupt", EDGE_CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_edge_audit_agrees_with_the_dict_audit_on_corrupted_states(corrupt, delta):
    for seed in range(4):
        g, eng = _edge_state(seed, delta)
        corrupt(g, eng, random.Random(seed))
        proper, bad = _assert_edge_audit_matches_the_reference(g, eng)
        assert proper or bad


@pytest.mark.parametrize("delta", [8, None], ids=["fixed", "adaptive"])
def test_an_edge_color_below_one_fails_the_edge_palette_audit(delta):
    g, eng = _edge_state(3, delta)
    e = min(g.edges())
    g.handle(*e).color = 0
    reports = dict(audit_engine("edge-c", g, eng))
    assert reports["proper-edge"].passed
    assert reports["edge-palette"].violations == [("edge-palette", e, 0, delta and eng.palette)]


@pytest.mark.parametrize("low_end", ["lo", "hi"])
def test_adaptive_edge_bound_is_the_larger_endpoints(low_end):
    # Edge (u, w) with deg(u) = 1 and deg(w) = 4 may take colors up to 7: its
    # color 5 fails u's own bound 2 * 1 - 1 but no edge's, and 8 fails both.
    u, w = (0, 1) if low_end == "lo" else (4, 0)
    others = [x for x in range(5) if x not in (u, w)]
    g, eng = make_engine("edge-c", 5, None)
    for x in others:
        g.insert(w, x)
    g.insert(u, w)
    h = g.handle(u, w)
    h.color = 5
    assert _assert_edge_audit_matches_the_reference(g, eng) == ([], [])
    h.color = 8
    _, bad = _assert_edge_audit_matches_the_reference(g, eng)
    assert bad == [("edge-palette", (h.lo, h.hi), 8, None)]


def test_audit_report_json_lines():
    g = new_graph(2, 1)
    g.insert(0, 1)
    report = verify.check_proper_vertex(g, [1, 1])
    row = json.loads(report.to_json("final:proper-vertex"))
    assert row["check"] == "final:proper-vertex"
    assert row["passed"] is False
    assert row["violation_count"] == 1


# -- rand-vc's upper-color tables --------------------------------------------------


def reference_upper_counts(graph, engine):
    """Reference: the deep audit's upper-counts violations as they were, from
    a second pass that rebuilds every table with ``rebuild_upper_color_counts``."""
    fresh = verify.rebuild_upper_color_counts(graph, engine.hier, engine.chi)
    return [
        ("upper-counts", v, engine.mu[v], fresh[v])
        for v in range(graph.n)
        if engine.mu[v] != fresh[v]
    ]


# (delta, beta): levels move at beta=2 and delta=32; beta=21 keeps every
# vertex at level 4; None is adaptive mode.
RAND_CONFIGS = [(32, 2), (32, 21), (None, 2)]


def _rand_state(seed, delta, beta, n=40, ops=1500):
    mode = "uniform-random" if delta else "sliding-window"
    g, eng = make_engine("rand-vc", n, delta, seed=seed, beta=beta)
    for ev in generate(TraceSpec(n, delta, ops, seed, mode)):
        g.apply(ev)
    return g, eng


def _assert_upper_counts_match_the_reference(g, eng):
    reports = dict(audit_engine("rand-vc", g, eng, deep=True))
    expected = reference_upper_counts(g, eng)
    assert reports["upper-counts"].violations == expected
    assert reports["upper-counts"].passed == (not expected)
    return expected


def _vertex_with_table(g, eng, rng):
    return rng.choice([v for v in range(g.n) if eng.mu[v]])


def _raise_a_count(g, eng, rng):
    m = eng.mu[_vertex_with_table(g, eng, rng)]
    m[rng.choice(list(m))] += 1


def _drop_a_color(g, eng, rng):
    m = eng.mu[_vertex_with_table(g, eng, rng)]
    del m[rng.choice(list(m))]


def _add_an_absent_color(g, eng, rng):
    eng.mu[rng.randrange(g.n)][eng.palette + 1] = 1


def _store_a_zero(g, eng, rng):
    m = eng.mu[rng.randrange(g.n)]
    m[next(c for c in range(1, eng.palette + 2) if c not in m)] = 0


def _recolor_behind_the_tables(g, eng, rng):
    # a vertex whose color some neighbor's table counts takes a color no
    # neighbor holds, and no table learns of it
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    taken = {eng.chi[u] for u in g._adj[v]} | {eng.chi[v]}
    eng.chi[v] = next(c for c in range(1, g.n + 2) if c not in taken)


UPPER_CORRUPTIONS = [
    _raise_a_count, _drop_a_color, _add_an_absent_color, _store_a_zero,
    _recolor_behind_the_tables,
]


@pytest.mark.parametrize("delta, beta", RAND_CONFIGS)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_recount_tables_equal_the_rebuild_on_clean_states(seed, delta, beta):
    g, eng = _rand_state(seed, delta, beta)
    if beta == 2 and delta:
        assert len(set(eng.hier.level)) > 1  # the tables cross levels
    fresh = verify.rebuild_upper_color_counts(g, eng.hier, eng.chi)
    assert fresh == eng.mu
    _, below_count, upper_bad = verify.recount_band_invariants(g, eng.hier, eng.chi, eng.mu)
    assert upper_bad == []
    # against empty stored tables, every nonempty rebuilt table is reported
    blank = [{} for _ in range(g.n)]
    _, _, upper_bad = verify.recount_band_invariants(g, eng.hier, eng.chi, blank)
    assert upper_bad == [("upper-counts", v, {}, t) for v, t in enumerate(fresh) if t]
    assert below_count == verify.recount_band_invariants(g, eng.hier)[1]
    assert _assert_upper_counts_match_the_reference(g, eng) == []


@pytest.mark.parametrize("delta, beta", RAND_CONFIGS)
@pytest.mark.parametrize("corrupt", UPPER_CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_upper_counts_audit_agrees_with_the_rebuild_on_corrupted_states(corrupt, delta, beta):
    for seed in range(4):
        g, eng = _rand_state(seed, delta, beta)
        corrupt(g, eng, random.Random(seed))
        assert _assert_upper_counts_match_the_reference(g, eng)


# -- det-vc and rand-vc oracles against their item-by-item forms ---------------------


def edge_major_tuple_invariant(graph, engine):
    """Reference: ``check_tuple_invariant`` as it was, walking every edge's
    common prefix and then every (vertex, prefix length) count."""
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
    return verify.AuditReport.from_violations(bad), counts


def walked_tuple_state(graph, engine, recount):
    """Reference: ``check_tuple_state`` as it was, walking every class of
    every vertex against the recount."""
    report, counts = recount
    bad = list(report.violations)
    p = engine.params
    coords = engine.coords
    for v in range(graph.n):
        cv = coords[v]
        adj_v = graph._adj[v]
        for j, (stored, size) in enumerate(zip(_row(engine, v), counts[v])):
            if len(stored) != size or (
                size and any(u not in adj_v or coords[u][:j] != cv[:j] for u in stored)
            ):
                bad.append(("prefix-set", v, j, (sorted(stored), size)))
        if any(not 1 <= c <= p.radix for c in cv):
            bad.append(("coordinate-range", v, tuple(cv), p.radix))
    phi = sum(map(sum, counts))
    if phi != engine.phi:
        bad.append(("potential", None, engine.phi, phi))
    return verify.AuditReport.from_violations(bad)


def walked_hierarchy(graph, part):
    """Reference: ``check_hierarchy`` as it was, walking every member of
    every stored set of every vertex."""
    report, below_count = verify.recount_band_invariants(graph, part)
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
    return verify.AuditReport.from_violations(bad)


@functools.lru_cache(maxsize=8)
def _trace(n, delta, seed, ops):
    return tuple(generate(TraceSpec(n, delta, ops, seed, "uniform-random")))


def _replayed(name, n, delta, seed, beta=2, ops=None):
    g, eng = make_engine(name, n, delta, seed=seed, beta=beta)
    for ev in _trace(n, delta, seed, ops or 10 * n):
        g.apply(ev)
    return g, eng


def _break_a_length_one_bound(g, eng, rng):
    # move neighbors into v's length-1 class until it is one over its bound:
    # one coordinate when the class is already at the bound
    cap = eng.params.max_allowed[1]
    coords = eng.coords
    v = max(
        (v for v in range(g.n) if len(g._adj[v]) > cap),
        key=lambda v: (len(_row(eng, v)[1]), -v),
    )
    outside = sorted(u for u in g._adj[v] if coords[u][0] != coords[v][0])
    for u in rng.sample(outside, cap + 1 - len(_row(eng, v)[1])):
        coords[u][0] = coords[v][0]


def _copy_a_neighbors_tuple(g, eng, rng):
    # b already shares a's first coordinate, so only classes of length 2 and
    # up change, and the full-length class breaks its bound of 0
    coords = eng.coords
    a, b = rng.choice([
        (a, b)
        for a in range(g.n)
        for b in sorted(g._adj[a])
        if a < b and coords[a][0] == coords[b][0]
    ])
    coords[b] = bytearray(coords[a])


def _coordinate_out_of_range(g, eng, rng):
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    eng.coords[v][rng.randrange(eng.params.levels)] = rng.choice((0, eng.params.radix + 1))


def _length_zero_class_with_a_non_neighbor(g, eng, rng):
    # same size as the adjacency, one member swapped for a non-neighbor
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    cls = set(g._adj[v])
    cls.remove(rng.choice(sorted(cls)))
    cls.add(rng.choice([w for w in range(g.n) if w != v and w not in g._adj[v]]))
    eng.nstar[_slot(eng, v, 0)] = cls


def _lie_about_a_level(g, eng, rng):
    part = eng.hier
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    part.level[v] = rng.choice([j for j in range(4, part.L + 1) if j != part.level[v]])


def _below_set_with_a_non_neighbor(g, eng, rng):
    part = eng.hier
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    w = rng.choice([w for w in range(g.n) if w != v and w not in g._adj[v]])
    part.below[v] = {**part.below[v], w: None}


def _a_same_set(g, part, rng):
    """(v, j) of a random nonempty stored set of v's neighbors at level j."""
    return rng.choice([(v, j) for v in range(g.n) for j, s in sorted(part.same[v].items()) if s])


def _trade_a_member_for_a_non_neighbor(g, eng, rng, below):
    # sizes and levels stay right: only membership can tell
    part = eng.hier
    level = part.level
    if below:
        v = rng.choice([v for v in range(g.n) if part.below[v]])
        members = part.below[v]
        at_its_level = [w for w in range(g.n) if level[w] < level[v]]
    else:
        v, j = _a_same_set(g, part, rng)
        members = part.same[v][j]
        at_its_level = [w for w in range(g.n) if level[w] == j]
    del members[rng.choice(sorted(members))]
    members[rng.choice([w for w in at_its_level if w != v and w not in g._adj[v]])] = None


def _swap_a_below_member_for_a_non_neighbor(g, eng, rng):
    _trade_a_member_for_a_non_neighbor(g, eng, rng, below=True)


def _swap_a_same_member_for_a_non_neighbor(g, eng, rng):
    _trade_a_member_for_a_non_neighbor(g, eng, rng, below=False)


def _drop_a_same_member(g, eng, rng):
    part = eng.hier
    v, j = _a_same_set(g, part, rng)
    del part.same[v][j][rng.choice(sorted(part.same[v][j]))]


def _file_a_same_member_below(g, eng, rng):
    part = eng.hier
    v, j = _a_same_set(g, part, rng)
    u = rng.choice(sorted(part.same[v][j]))
    del part.same[v][j][u]
    part.below[v] = {**part.below[v], u: None}


def _same_set_member_at_the_wrong_level(g, eng, rng):
    part = eng.hier
    v, j = _a_same_set(g, part, rng)
    u = rng.choice(sorted(part.same[v][j]))
    del part.same[v][j][u]
    k = rng.choice([k for k in range(4, part.L + 1) if k != j])
    part.same[v].setdefault(k, {})[u] = None


def _flatten_every_level(g, eng, rng):
    # every vertex at level 4 while the stored sets keep the old bands: the
    # band recount takes its flat branch on a hierarchy that is not dormant
    eng.hier.level[:] = repeat(4, g.n)


TUPLE_CORRUPTIONS = [
    _break_a_length_one_bound,
    _copy_a_neighbors_tuple,
    _coordinate_out_of_range,
    _length_zero_class_with_a_non_neighbor,
    _swap_for_non_neighbor,
]
HIERARCHY_CORRUPTIONS = [
    _lie_about_a_level,
    _below_set_with_a_non_neighbor,
    _swap_a_below_member_for_a_non_neighbor,
    _swap_a_same_member_for_a_non_neighbor,
    _same_set_member_at_the_wrong_level,
    _file_a_same_member_below,
    _drop_a_same_member,
    _flatten_every_level,
]
DORMANT_CORRUPTIONS = [_lie_about_a_level, _below_set_with_a_non_neighbor]


def _failing_audit_digest(name, g, eng):
    lines = [report.to_json(check) for check, report in audit_engine(name, g, eng, deep=True)]
    assert not all(json.loads(line)["passed"] for line in lines)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the deep audit's JSON lines after one corruption, recorded before
# the det-vc and rand-vc oracles skipped the vertices that pass: det-vc on
# n=200, delta=32 (6,000 uniform-random updates, seed 5); rand-vc there at
# beta=2 (levels move) and beta=21 (dormant). The flatten_every_level line
# was recorded while the band recount still walked every neighbor of a flat
# partition.
FAILING_AUDIT_GOLDEN = {
    ("det-vc", 2, "break_a_length_one_bound"): "1078d60511d95efb8d322222cbff184f0160fbda005f960b2bdec6d944027cd5",
    ("det-vc", 2, "copy_a_neighbors_tuple"): "9fdef9c7394373e04fb6185fb7f91cee63fdea43220f834ed4a9a51920733a54",
    ("det-vc", 2, "coordinate_out_of_range"): "13256ca4f2f2026ffefe60e3e8da07c8a90c1f515220631f4cf78de07f3bb415",
    ("det-vc", 2, "length_zero_class_with_a_non_neighbor"): "bbb3870852c194ccb14e43378b1bb8d70aa787bdda15967406132a73f9f306d1",
    ("det-vc", 2, "swap_for_non_neighbor"): "757d62f1dc271a4781ed9b733e4aa758722a07824d3149828e4a80f32e8bd87f",
    ("rand-vc", 2, "lie_about_a_level"): "0de4994ea09d98cc7943dd77a0f33b6a658392e829655d04e26cf7bf201eddc7",
    ("rand-vc", 2, "below_set_with_a_non_neighbor"): "e729f135ace903f9500869112c73fe7bba71c00ae55b9f192d496761eff86b9d",
    ("rand-vc", 2, "swap_a_below_member_for_a_non_neighbor"): "e965ccdcc59729f754cc34d9253e8636992bc7dc49f2974f3d6e3574df606b40",
    ("rand-vc", 2, "swap_a_same_member_for_a_non_neighbor"): "70d281eff91f66f7beacaa0c7e0f573229d45b54e6d5f58840074766a66439fb",
    ("rand-vc", 2, "same_set_member_at_the_wrong_level"): "d99f8867bb9508264e43e9b23b9b8b8d45b447035e900f4db1fd053c0523403f",
    ("rand-vc", 2, "file_a_same_member_below"): "91fcaf642aaf9db67edfecf68fda85385cc07433088be0a8669a5dce76c3d4b8",
    ("rand-vc", 2, "drop_a_same_member"): "3da66f0eaa0a57f60f25088f3befe8cbe8f92663977e358f81dd3710dff74ef6",
    ("rand-vc", 2, "raise_a_count"): "18827d0d781f08fe3e2a7175a98bb44fac283f2b32a2057d9d25e3cbd8bc3ca9",
    ("rand-vc", 2, "flatten_every_level"): "a77424674e21c29b96c3a8a8c28db68a8acdbbdc43b61609527e40aec7891016",
    ("rand-vc", 21, "lie_about_a_level"): "91e924b34540c78a673a6e09654e89d94a886c283797716d6b8a43cc011b3a9d",
    ("rand-vc", 21, "below_set_with_a_non_neighbor"): "85cce0d93b3ed45f0a24be97da1cb8f6dbffba1cdaa512781711840c2e41e792",
    ("rand-vc", 21, "raise_a_count"): "ecfead3a386f01c722868bf1f5c78a3f5e577daea253454984d016bd29cdf8f8",
}


def _failing_audit_cases():
    for corrupt in TUPLE_CORRUPTIONS:
        yield "det-vc", 2, corrupt
    for corrupt in HIERARCHY_CORRUPTIONS + [_raise_a_count]:
        yield "rand-vc", 2, corrupt
    for corrupt in DORMANT_CORRUPTIONS + [_raise_a_count]:
        yield "rand-vc", 21, corrupt


@pytest.mark.parametrize(
    "name, beta, corrupt",
    list(_failing_audit_cases()),
    ids=lambda x: x.__name__.strip("_") if callable(x) else str(x),
)
def test_failing_deep_audit_matches_the_golden(name, beta, corrupt):
    g, eng = _replayed(name, 200, 32, 5, beta=beta, ops=6000)
    corrupt(g, eng, random.Random(5))
    key = (name, beta, corrupt.__name__.strip("_"))
    assert _failing_audit_digest(name, g, eng) == FAILING_AUDIT_GOLDEN[key]


# (n, delta, updates): a sparse graph near its degree bound, and a dense one
# whose rand-vc hierarchy at beta=2 spreads over four levels; the corrupted
# states are the dense one's, the quicker to replay
DENSE_SHAPE = (300, 128, 20_000)
REFERENCE_SHAPES = [(2000, 32, 30_000), DENSE_SHAPE]


def _assert_tuple_oracles_match_the_references(g, eng):
    recount = verify.check_tuple_invariant(g, eng)
    reference = edge_major_tuple_invariant(g, eng)
    assert recount[1] == list(chain.from_iterable(reference[1]))
    assert recount[0].violations == reference[0].violations
    assert recount[0].passed == reference[0].passed
    state = verify.check_tuple_state(g, eng, recount)
    assert state.violations == walked_tuple_state(g, eng, reference).violations
    return state


def _assert_hierarchy_matches_the_reference(g, eng):
    report = verify.check_hierarchy(g, eng.hier)
    assert report.violations == walked_hierarchy(g, eng.hier).violations
    return report


@pytest.mark.parametrize("n, delta, ops", REFERENCE_SHAPES)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_tuple_oracles_equal_the_references_on_clean_states(seed, n, delta, ops):
    g, eng = _replayed("det-vc", n, delta, seed, ops=ops)
    counts = verify.check_tuple_invariant(g, eng)[1]
    width = eng.params.levels + 1
    assert any(any(counts[k + 2 : k + width]) for k in range(0, len(counts), width))
    assert _assert_tuple_oracles_match_the_references(g, eng).passed


@pytest.mark.parametrize("n, delta, ops", REFERENCE_SHAPES)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_hierarchy_equals_the_reference_on_clean_states(seed, n, delta, ops):
    g, eng = _replayed("rand-vc", n, delta, seed, ops=ops)
    assert len(set(eng.hier.level)) > 1 and not eng.hier.dormant
    assert _assert_hierarchy_matches_the_reference(g, eng).passed
    g, eng = _replayed("rand-vc", n, delta, seed, beta=21, ops=ops)
    assert eng.hier.dormant
    assert _assert_hierarchy_matches_the_reference(g, eng).passed


@pytest.mark.parametrize("corrupt", TUPLE_CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_tuple_oracles_equal_the_references_on_corrupted_states(corrupt):
    n, delta, ops = DENSE_SHAPE
    g, eng = _replayed("det-vc", n, delta, 3, ops=ops)
    corrupt(g, eng, random.Random(3))
    assert not _assert_tuple_oracles_match_the_references(g, eng).passed


def _overlong_tuple_with_a_neighbors_color(g, eng, rng):
    # tuples of L and L + 1 coordinates that differ within the first L yet
    # encode to the same color
    a = rng.choice([v for v in range(g.n) if g._adj[v]])
    b = rng.choice(sorted(g._adj[a]))
    L = eng.params.levels
    eng.coords[a] = bytearray([1] * (L - 1) + [2])
    eng.coords[b] = bytearray([1] * L + [2])
    assert eng.color_of(a) == eng.color_of(b)


def _carry_into_a_neighbors_color(g, eng, rng):
    # a last coordinate of radix + 1 carries into the one before it
    a = rng.choice([v for v in range(g.n) if g._adj[v]])
    b = rng.choice(sorted(g._adj[a]))
    L = eng.params.levels
    eng.coords[a] = bytearray([1] * (L - 1) + [eng.params.radix + 1])
    eng.coords[b] = bytearray([1] * (L - 2) + [2, 1])
    assert eng.color_of(a) == eng.color_of(b)


@pytest.mark.parametrize(
    "corrupt",
    [None] + TUPLE_CORRUPTIONS
    + [_overlong_tuple_with_a_neighbors_color, _carry_into_a_neighbors_color],
    ids=lambda f: f.__name__.strip("_") if f else "clean",
)
def test_tuple_properness_equals_the_edge_scan_of_the_encoded_colors(corrupt):
    for seed in (3, 4, 5):
        g, eng = _replayed("det-vc", 200, 32, seed, ops=6000)
        if corrupt:
            corrupt(g, eng, random.Random(seed))
        reference = verify.check_proper_vertex(g, eng.colors())
        if corrupt is None:  # a proper state passes on the verdict alone
            eng.colors = functools.partial(pytest.fail, "the colors were encoded")
        report = verify.check_tuple_proper(g, eng)
        assert report.violations == reference.violations
        assert report.passed == reference.passed
        if corrupt in (
            None,
            _copy_a_neighbors_tuple,
            _overlong_tuple_with_a_neighbors_color,
            _carry_into_a_neighbors_color,
        ):
            assert report.passed == (corrupt is None)


@pytest.mark.parametrize(
    "beta, corrupt",
    [(2, c) for c in HIERARCHY_CORRUPTIONS] + [(21, c) for c in DORMANT_CORRUPTIONS],
    ids=lambda x: x.__name__.strip("_") if callable(x) else f"beta{x}",
)
def test_hierarchy_equals_the_reference_on_corrupted_states(beta, corrupt):
    n, delta, ops = DENSE_SHAPE
    g, eng = _replayed("rand-vc", n, delta, 3, beta=beta, ops=ops)
    corrupt(g, eng, random.Random(3))
    assert not _assert_hierarchy_matches_the_reference(g, eng).passed


# -- rand-vc's band recount against the walk of every neighbor ----------------------


def walked_band_recount(graph, part, chi=None, mu=None):
    """Reference: ``recount_band_invariants`` as it was, walking every
    neighbor of every vertex and reading both levels, flat partition or not."""
    bad = []
    level = part.level
    n = graph.n
    below_count = [0] * n
    at_level = [0] * n
    upper_bad = None if mu is None else []
    for u, nbrs in enumerate(graph._adj):
        lu = level[u]
        below = at = 0
        table = {}
        for v in nbrs:
            lv = level[v]
            if lv < lu:
                below += 1
                continue
            if lv == lu:
                at += 1
            if mu is not None:
                table[chi[v]] = table.get(chi[v], 0) + 1
        if mu is not None and table != mu[u]:
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
    report = verify.AuditReport.from_violations(bad)
    return (report, below_count) if upper_bad is None else (report, below_count, upper_bad)


def _before_the_first_move(seed, n=40, delta=32, ops=1500):
    """A beta=2 state replayed up to the update that first moves a level:
    flat, every vertex at level 4, but not dormant."""
    events = list(generate(TraceSpec(n, delta, ops, seed, "uniform-random")))
    g, eng = make_engine("rand-vc", n, delta, seed=seed, beta=2)
    first = next(k for k, ev in enumerate(events) if g.apply(ev).stats["level_moves"])
    g, eng = make_engine("rand-vc", n, delta, seed=seed, beta=2)
    for ev in events[:first]:
        g.apply(ev)
    assert not eng.hier.dormant and eng.hier.level == [4] * n
    assert max(map(len, g._adj)) > 8  # the degrees are far from zero
    return g, eng


# name -> (state builder for a seed, whether every vertex is at level 4):
# dormant, sparse and dense; flat but not dormant; levels spread; and
# adaptive mode, whose levels may or may not have moved
BAND_STATES = {
    "dormant": (lambda seed: _rand_state(seed, 32, 21), True),
    "dormant-dense": (lambda seed: _replayed("rand-vc", 300, 128, seed, beta=21, ops=3000), True),
    "before-the-first-move": (_before_the_first_move, True),
    "after-moves": (lambda seed: _rand_state(seed, 32, 2), False),
    "adaptive": (lambda seed: _rand_state(seed, None, 2), None),
}


def _assert_band_recount_matches_the_walk(g, eng):
    results = []
    for tables in ((), (eng.chi, eng.mu)):
        got = verify.recount_band_invariants(g, eng.hier, *tables)
        expected = walked_band_recount(g, eng.hier, *tables)
        assert got == expected
        assert repr(got) == repr(expected)  # tables list their colors in the same order
        results.append(got)
    return results


def _one_sided_neighbor(g, eng, rng):
    # adjacency corrupted: v lists a vertex that does not list v
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    g._adj[v][rng.choice([w for w in range(g.n) if w != v and w not in g._adj[v]])] = None


BAND_CORRUPTIONS = UPPER_CORRUPTIONS + [
    _lie_about_a_level, _flatten_every_level, _one_sided_neighbor,
]


@pytest.mark.parametrize("state", sorted(BAND_STATES))
def test_band_recount_equals_the_walk_on_clean_states(state):
    build, flat = BAND_STATES[state]
    for seed in range(3):
        g, eng = build(seed)
        assert flat in (None, eng.hier.level == [4] * g.n)
        (shallow, _), (deep, _, upper_bad) = _assert_band_recount_matches_the_walk(g, eng)
        assert shallow.passed and deep.passed and upper_bad == []


@pytest.mark.parametrize("state", sorted(BAND_STATES))
@pytest.mark.parametrize("corrupt", BAND_CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_band_recount_equals_the_walk_on_corrupted_states(state, corrupt):
    for seed in range(3):
        g, eng = BAND_STATES[state][0](seed)
        corrupt(g, eng, random.Random(seed))
        _assert_band_recount_matches_the_walk(g, eng)


class _CountingDict(dict):
    """An adjacency dict that counts the times it is iterated."""

    iterations = 0

    def __iter__(self):
        _CountingDict.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("delta", [32, 128])
def test_a_shallow_dormant_audit_walks_the_adjacency_only_to_check_properness(
    delta, monkeypatch
):
    g, eng = _replayed("rand-vc", 300, delta, 3, beta=21, ops=3000)
    assert eng.hier.dormant
    monkeypatch.setattr(_CountingDict, "iterations", 0)
    g._adj[:] = map(_CountingDict, g._adj)
    report, _ = verify.recount_band_invariants(g, eng.hier)
    assert report.passed
    assert _CountingDict.iterations == 0
    reports = audit_engine("rand-vc", g, eng)
    assert [check for check, _ in reports] == ["proper-vertex", "palette", "hierarchy-bands"]
    assert all(r.passed for _, r in reports)
    # the properness scan iterates each adjacency dict once, and nothing else does
    assert _CountingDict.iterations == g.n


# -- the traced benchmark ------------------------------------------------------------


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


AUDITED_ENGINES = [
    ("rand-vc", 2), ("rand-vc", 21), ("det-vc", 2), ("edge-c", 2), ("greedy-baseline", 2),
]


@pytest.mark.parametrize("name, beta", AUDITED_ENGINES)
def test_a_deep_audit_calls_verify_as_often_on_a_larger_graph(name, beta, monkeypatch):
    # The benchmark's tracer wraps every function of ``verify`` the way this
    # test does, and records a span per call: a helper called once per vertex
    # would record one per vertex.
    states = [_replayed(name, n, 32, 3, beta=beta) for n in (200, 2000)]
    calls = collections.Counter()
    for attr, fn in list(vars(verify).items()):
        if callable(fn) and not isinstance(fn, type) and fn.__module__ == verify.__name__:
            monkeypatch.setattr(verify, attr, _counting(calls, attr, fn))
    counted = []
    for g, eng in states:
        calls.clear()
        audit_engine(name, g, eng, deep=True)
        counted.append(dict(calls))
    assert counted[0] and counted[0] == counted[1]


@pytest.mark.parametrize("name, beta", AUDITED_ENGINES)
def test_an_audit_sets_off_as_many_collections_on_a_larger_graph(name, beta):
    # An audit that keeps n containers alive at once sets off about n / 100
    # young collections here, and at n = 30,000 a full collection of the
    # whole replay heap.
    states = [_replayed(name, n, 32, 3, beta=beta) for n in (200, 2000)]
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    counted = {False: [], True: []}
    gc.callbacks.append(count)
    try:
        gc.set_threshold(100, *threshold[1:])
        for g, eng in states:
            for deep in counted:
                gc.collect()
                started.clear()
                reports = audit_engine(name, g, eng, deep=deep)
                counted[deep].append(len(started))
                assert all(report.passed for _, report in reports)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert counted[False][0] == counted[False][1]
    assert counted[True][0] == counted[True][1]

