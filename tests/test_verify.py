"""Oracle self-tests: the auditors must accept good states and flag bad ones."""

import json
import random
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


def test_tuple_auditor_flags_corrupted_set():
    g, eng = make_engine("det-vc", 40, 16, seed=2)
    for ev in generate(TraceSpec(40, 16, 800, 3, "uniform-random")):
        g.apply(ev)
    assert verify.check_tuple_state(g, eng).passed
    # length 0 is the graph's adjacency; corrupt a class the engine owns
    victim, j = next(
        (v, j) for v in range(40) for j in range(1, eng.params.levels + 1) if eng.nstar[v][j]
    )
    eng.nstar[victim][j].pop()
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
        for v in range(len(eng.nstar))
        for j in range(1, eng.params.levels + 1)
        if eng.nstar[v][j]
    ]
    return rng.choice(classes)


def _add_non_neighbor(g, eng, rng):
    v, j = _owned_class(eng, rng)
    w = rng.choice([w for w in range(g.n) if w != v and w not in g._adj[v]])
    eng.nstar[v][j].add(w)


def _fill_empty_class(g, eng, rng):
    v = rng.choice([v for v in range(g.n) if g._adj[v]])
    j = eng.params.levels
    eng.nstar[v][j] = {rng.choice(list(g._adj[v]))}


def _remove_member(g, eng, rng):
    v, j = _owned_class(eng, rng)
    eng.nstar[v][j].remove(rng.choice(sorted(eng.nstar[v][j])))


def _swap_for_non_neighbor(g, eng, rng):
    v, j = _owned_class(eng, rng)
    cls = eng.nstar[v][j]
    cls.remove(rng.choice(sorted(cls)))
    cls.add(rng.choice([w for w in range(g.n) if w not in g._adj[v]]))


def _swap_for_other_neighbor(g, eng, rng):
    # same size, every member a neighbor: only the prefix test can tell
    v, j = rng.choice([
        (v, j)
        for v in range(g.n)
        for j in range(1, eng.params.levels + 1)
        if eng.nstar[v][j] and len(g._adj[v]) > len(eng.nstar[v][j])
    ])
    cls = eng.nstar[v][j]
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
    size = len(eng.nstar[v][j])
    eng.nstar[v][j].pop()
    report = verify.check_tuple_state(g, eng)
    assert ("prefix-set", v, j, (sorted(eng.nstar[v][j]), size)) in report.violations
    # a standalone call recounts, so a broken bound is still reported
    a = next(a for a in range(g.n) if g._adj[a])
    b = next(iter(g._adj[a]))
    eng.coords[b] = list(eng.coords[a])
    report = verify.check_tuple_state(g, eng)
    assert ("degree-bound", a, eng.params.levels, (1, 0)) in report.violations


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
            if c is None or c > 2 * max(degree(u), degree(v)) - 1:
                bad.append(("edge-palette", (u, v), c, None))
    else:
        limit = engine.palette
        for e, c in colors.items():
            if c is None or c > limit:
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
    a, b = rng.sample(list(g._adj[v].values()), 2)
    a.color = b.color


def _uncolor(g, eng, rng):
    rng.choice(list(g.edges())).color = None


def _above_the_palette(g, eng, rng):
    h = rng.choice(list(g.edges()))
    if eng.adaptive:
        h.color = 2 * max(len(g._adj[h.lo]), len(g._adj[h.hi]))
    else:
        h.color = eng.palette + 1


def _search_failure(g, eng, rng):
    eng.invariant_failures += rng.randrange(1, 4)


EDGE_CORRUPTIONS = [_share_a_color, _uncolor, _above_the_palette, _search_failure]


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
    _, below_count, upper = verify.recount_band_invariants(g, eng.hier, eng.chi)
    assert upper == verify.rebuild_upper_color_counts(g, eng.hier, eng.chi) == eng.mu
    assert below_count == verify.recount_band_invariants(g, eng.hier)[1]
    assert _assert_upper_counts_match_the_reference(g, eng) == []


@pytest.mark.parametrize("delta, beta", RAND_CONFIGS)
@pytest.mark.parametrize("corrupt", UPPER_CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_upper_counts_audit_agrees_with_the_rebuild_on_corrupted_states(corrupt, delta, beta):
    for seed in range(4):
        g, eng = _rand_state(seed, delta, beta)
        corrupt(g, eng, random.Random(seed))
        assert _assert_upper_counts_match_the_reference(g, eng)
