"""Oracle self-tests: the auditors must accept good states and flag bad ones."""

import json
import random
from typing import List, Set

import pytest

from colorbench import new_graph
from colorbench import verify
from colorbench.harness import TraceSpec, generate, make_engine


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
    assert verify.check_proper_edge(g, {(0, 1): 1, (1, 2): 2}).passed
    bad = verify.check_proper_edge(g, {(0, 1): 1, (1, 2): 1})
    assert not bad.passed
    missing = verify.check_proper_edge(g, {(0, 1): 1})
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


def test_audit_report_json_lines():
    g = new_graph(2, 1)
    g.insert(0, 1)
    report = verify.check_proper_vertex(g, [1, 1])
    row = json.loads(report.to_json("final:proper-vertex"))
    assert row["check"] == "final:proper-vertex"
    assert row["passed"] is False
    assert row["violation_count"] == 1
