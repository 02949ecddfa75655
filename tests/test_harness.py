"""Trace generation legality, replay determinism, CSV output, CLI wiring."""

import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import pytest

import colorbench
from colorbench import (
    DELTA_MIN,
    DuplicateEdge,
    DynamicGraph,
    GreedyVertexColoring,
    InternalInvariantViolation,
    InvalidSpec,
    MissingEdge,
    SelfLoop,
    TraceParseError,
    UnknownVertex,
)
from colorbench import cli, harness, verify
from colorbench.harness import TraceSpec, generate, parse_trace, format_trace


def replay_legality(events, n, delta):
    """Every event must be applicable in order; returns final graph."""
    g = DynamicGraph(n, delta)
    for ev in events:
        g.apply(ev)
    return g


# -- generation ----------------------------------------------------------------


def test_empty_trace():
    assert generate(TraceSpec(10, 4, 0, 1, "uniform-random")) == []


@pytest.mark.parametrize("mode", harness.MODES)
def test_generated_traces_are_legal(mode):
    spec = TraceSpec(40, 6, 2500, 11, mode)
    events = generate(spec)
    assert len(events) == 2500
    replay_legality(events, 40, 6)


@pytest.mark.parametrize("mode", harness.MODES)
def test_generated_adaptive_traces_are_legal(mode):
    spec = TraceSpec(30, None, 1500, 13, mode)
    events = generate(spec)
    replay_legality(events, 30, None)


def test_generation_is_pure_function_of_spec():
    spec = TraceSpec(25, 5, 800, 99, "conflict-heavy")
    assert generate(spec) == generate(spec)


def test_insert_heavy_saturates_the_degree_budget():
    events = generate(TraceSpec(50, 10, 2000, 3, "insert-heavy"))
    inserts = sum(1 for e in events if e.kind == "+")
    deletes = len(events) - inserts
    live = peak = 0
    for e in events:
        live += 1 if e.kind == "+" else -1
        peak = max(peak, live)
    assert inserts > deletes
    assert peak >= 0.8 * (50 * 10 // 2)


def test_sliding_window_caps_live_edges_and_deletes_oldest():
    from collections import deque

    spec = TraceSpec(20, 8, 2000, 5, "sliding-window")
    events = generate(spec)
    live = set()
    order = deque()
    peak = 0
    for ev in events:
        e = (ev.u, ev.v)
        if ev.kind == "+":
            live.add(e)
            order.append(e)
        else:
            while order and order[0] not in live:
                order.popleft()
            assert e == order.popleft(), "not the oldest live edge"
            live.remove(e)
        peak = max(peak, len(live))
    assert peak <= 2 * 20
    assert any(e.kind == "-" for e in events)


def test_conflict_heavy_hits_thirty_percent_under_greedy():
    spec = TraceSpec(60, 8, 4000, 17, "conflict-heavy")
    events = generate(spec)
    g = DynamicGraph(60, 8)
    sim = GreedyVertexColoring(g)
    inserts = conflicts = 0
    for ev in events:
        if ev.kind == "+":
            inserts += 1
            if sim.chi[ev.u] == sim.chi[ev.v]:
                conflicts += 1
        g.apply(ev)
    assert conflicts / inserts >= 0.30, conflicts / inserts


# sha256 of format_trace(generate(spec), spec). Every trace of the tests and
# the benchmark comes from this random stream, so a change to generate must
# draw the same numbers in the same order for every spec.
TRACE_GOLDEN = {
    (40, 6, 2500, 11, "uniform-random"): "16033d78343de8fef9aadc3b55ada50a1a5a695ada124a0fab12d3816c7b0501",
    (40, 6, 2500, 11, "insert-heavy"): "190d9f829f731b88663ce9577374b984d45bb2b5176dd8ba80dc6471aa46d4bd",
    (40, 6, 2500, 11, "sliding-window"): "28c279fe531aa87fbb1bc8165f63853be89ae8dac5e50fc45b4b2907925c0458",
    (40, 6, 2500, 11, "conflict-heavy"): "c874d44985fa07ca4c293640346099bb1163d53cb2a91a35667170b45005b1f0",
    (30, None, 1500, 13, "uniform-random"): "dce7f970bff2113347d4ce7597ea4c208d5e6cc9188c97811555808bc2e16988",
    (30, None, 1500, 13, "insert-heavy"): "b5732dfa01f8f0cf0caec03830e831f51c1b7806ef9f26d7bc4b42a23885770a",
    (30, None, 1500, 13, "sliding-window"): "ddb3585c8ddaa2b808ef53db998e6caa7fcc85acaa050f1a873d090f93ee8e41",
    (30, None, 1500, 13, "conflict-heavy"): "b98f2c40272c2dc7ffce700073db4ca92468553d60f3513aefb427631443e9af",
    (2, 1, 50, 3, "uniform-random"): "271553afc2856e8ed97c33e836c5d32aec5bde17ee3335970e3067b12e132ed5",
    (2, 1, 50, 3, "insert-heavy"): "3ae9950bbc90af2ad50e2ce4401376418c940a4d3e0bfb9020a499a08c798152",
    (2, 1, 50, 3, "sliding-window"): "72b56f2b50ea974c2d427e88ce833663804be249c56dfac933d0734e53c7b018",
    (2, 1, 50, 3, "conflict-heavy"): "5cc38aefc5389da5c982cf53f354e3ae44f6bf76ecaffd5ad787af3256c768ce",
    (3, 1, 200, 5, "uniform-random"): "ae8e3b25876795797fc04a5ff1f50caf2858a0a02c716f0e6e0504bf44332331",
    (3, 1, 200, 5, "insert-heavy"): "69e06b0d8923589aa77b6d992b93e60dc0266e1386a46d593fc18b8ebf01e70c",
    (3, 1, 200, 5, "sliding-window"): "25661a4c43da259f09441a1c877203cdd9848751d7fa41c3feec1333a74796b9",
    (3, 1, 200, 5, "conflict-heavy"): "eea9824b092ab3890e223d72a433c216de1b11838e86ec55755de0ae1cf2145f",
    (60, 8, 4000, 17, "uniform-random"): "ee8c713940a6ee07b3847e2143f4b35687cab134c2dcb93cbc906f9d2f6cf6bd",
    (60, 8, 4000, 17, "insert-heavy"): "1b5cacda6fd2efe78771950a31de89fc7b5bbb48af03afb09d0a01d2d3b52df1",
    (60, 8, 4000, 17, "sliding-window"): "a8f3507fe19e097345766d2f1c7da0fd3dd5357e175fea44294304248ad6a554",
    (60, 8, 4000, 17, "conflict-heavy"): "3683453de3ca427d9077037892c7d453826c9aad4a4fa51629f8331222d57ce4",
    # the two traces perfbench/workloads.py builds through generate, at seed 11
    (30_000, 32, 30_000, 11, "uniform-random"): "b69a76da07579a162cd7d12ae7d26fdcfdc8b8c018c0ecdbe947474497d13c47",
    (1000, 32, 50_000, 11, "conflict-heavy"): "ee25cfa6868761e13b2e4dfaf9445ec59e0027120b6aca6c23fb32b7115a5eaa",
}


@pytest.mark.parametrize("shape", sorted(TRACE_GOLDEN, key=str))
def test_generated_trace_matches_the_golden(shape):
    spec = TraceSpec(*shape)
    text = format_trace(generate(spec), spec)
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_GOLDEN[shape]


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        generate(TraceSpec(10, 4, 100, 0, "nope"))
    with pytest.raises(InvalidSpec):
        generate(TraceSpec(1, 4, 100, 0, "uniform-random"))
    with pytest.raises(InvalidSpec):
        generate(TraceSpec(10, 0, 100, 0, "uniform-random"))


# -- trace files ------------------------------------------------------------------


def test_format_parse_round_trip():
    spec = TraceSpec(12, 3, 200, 7, "uniform-random")
    events = generate(spec)
    text = format_trace(events, spec)
    parsed, meta = parse_trace(text)
    assert parsed == events
    assert meta["n"] == "12" and meta["delta"] == "3" and meta["mode"] == "uniform-random"
    assert parse_trace(format_trace(parsed))[0] == events


def test_parse_rejects_garbage():
    with pytest.raises(TraceParseError):
        parse_trace("+ 1\n")
    with pytest.raises(TraceParseError):
        parse_trace("* 1 2\n")
    with pytest.raises(TraceParseError):
        parse_trace("+ one 2\n")


def test_parse_skips_comments_and_blanks():
    events, meta = parse_trace("# hello n=4\n\n+ 0 1\n- 0 1\n")
    assert len(events) == 2
    assert meta["n"] == "4"


@given(
    st.lists(
        st.tuples(
            st.sampled_from("+-"),
            st.integers(min_value=0, max_value=10**9),
            st.integers(min_value=0, max_value=10**9),
        ),
        max_size=60,
    )
)
def test_any_event_list_round_trips(raw):
    from colorbench.graph import UpdateEvent

    events = [UpdateEvent(k, u, v) for k, u, v in raw]
    assert parse_trace(format_trace(events))[0] == events


# -- runs -----------------------------------------------------------------------------


def test_run_empty_trace_writes_header_only():
    buf = io.StringIO()
    res = harness.run([], "rand-vc", 10, 4, metrics_out=buf, audit_every=10)
    assert res.exit_code == 0
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",")[0] == "sequence_number"


@pytest.mark.parametrize("bad", [(2, 7), (-1, 3), (4, 0)])
def test_run_rejects_an_unknown_vertex_before_any_output(bad):
    line = f"+ {bad[0]} {bad[1]}\n"
    events, _ = parse_trace("+ 0 1\n+ 1 2\n" + line + "+ 0 2\n" + line)
    metrics, audits = io.StringIO(), io.StringIO()
    with pytest.raises(UnknownVertex, match=r"^update 3: vertex (7|-1|4) outside \[0, 4\)$"):
        harness.run(
            events, "rand-vc", 4, 3, audit_every=1, metrics_out=metrics, audit_out=audits
        )
    assert metrics.getvalue() == "" and audits.getvalue() == ""


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ("+ 0 1", DuplicateEdge, r"edge \(0, 1\) already present"),
        ("+ 3 3", SelfLoop, "self-loop at vertex 3"),
        ("- 0 3", MissingEdge, r"edge \(0, 3\) not present"),
    ],
)
def test_run_names_the_update_the_graph_refuses(bad, error, message):
    events, _ = parse_trace(f"+ 0 1\n+ 1 2\n{bad}\n+ 0 2\n")
    with pytest.raises(error, match=rf"^update 3: {message}$") as exc:
        harness.run(events, "det-vc", 4, 3)
    assert exc.value.update == 3


@pytest.mark.parametrize("engine", harness.ENGINES)
def test_run_all_engines_clean(engine):
    events = generate(TraceSpec(40, 16, 1500, 5, "uniform-random"))
    res = harness.run(events, engine, 40, 16, seed=9, audit_every=300)
    assert res.exit_code == 0
    assert res.updates == 1500
    assert not res.failed_checks


def test_run_metrics_deterministic_bytes():
    events = generate(TraceSpec(40, 8, 1000, 5, "conflict-heavy"))

    def one():
        buf = io.StringIO()
        harness.run(events, "rand-vc", 40, 8, seed=4, audit_every=100, metrics_out=buf)
        return buf.getvalue()

    a, b = one(), one()
    assert a == b
    assert len(a.splitlines()) == 1001


def test_run_stops_with_exit_one_on_audit_failure(monkeypatch):
    from colorbench.verify import AuditReport

    events = generate(TraceSpec(20, 4, 300, 6, "uniform-random"))
    calls = []

    def rigged(name, graph, engine, deep=False):
        calls.append(1)
        return [("rigged", AuditReport(passed=False, violations=[("x", 0, 0, 0)]))]

    monkeypatch.setattr(harness, "audit_engine", rigged)
    out = io.StringIO()
    metrics = io.StringIO()
    res = harness.run(
        events, "rand-vc", 20, 4, audit_every=100, audit_out=out, metrics_out=metrics
    )
    assert res.exit_code == 1
    assert res.updates == 100  # stopped at the failing checkpoint
    assert "rigged" in out.getvalue()
    last = list(csv.DictReader(io.StringIO(metrics.getvalue())))[-1]
    assert last["audit"] == "fail"
    assert res.totals["cum_cells_touched"] == int(last["cum_cells_touched"]) > 0


def test_deep_rand_vc_audit_recounts_the_bands_once(monkeypatch):
    g, eng = harness.make_engine("rand-vc", 30, 8, seed=1, beta=2)
    for ev in generate(TraceSpec(30, 8, 500, 2, "uniform-random")):
        g.apply(ev)
    eng.hier.level[3] = 6  # lie about a level: bands and lists both break
    recount = verify.recount_band_invariants
    calls = []

    def counted(graph, part, *colors):
        calls.append(1)
        return recount(graph, part, *colors)

    monkeypatch.setattr(verify, "recount_band_invariants", counted)
    reports = dict(harness.audit_engine("rand-vc", g, eng, deep=True))
    assert len(calls) == 1
    assert list(reports) == [
        "proper-vertex", "palette", "hierarchy-bands", "hierarchy-lists", "upper-counts",
    ]
    # The lists report still holds the band violations, and only it holds
    # the list violations.
    monkeypatch.undo()
    bands, _ = verify.recount_band_invariants(g, eng.hier)
    assert reports["hierarchy-bands"].violations == bands.violations
    lists = verify.check_hierarchy(g, eng.hier)
    assert reports["hierarchy-lists"].violations == lists.violations
    assert len(lists.violations) > len(bands.violations)


def test_deep_det_vc_audit_recounts_the_prefix_classes_once(monkeypatch):
    g, eng = harness.make_engine("det-vc", 40, 16)
    for ev in generate(TraceSpec(40, 16, 800, 3, "uniform-random")):
        g.apply(ev)
    w = eng.params.levels + 1
    v = next(v for v in range(40) if eng.nstar[v * w + 1])
    eng.nstar[v * w + 1].pop()  # a stored class loses a member
    a = next(a for a in range(40) if g._adj[a])
    b = next(iter(g._adj[a]))
    eng.coords[b] = bytearray(eng.coords[a])  # and an edge breaks the last bound
    recount = verify.check_tuple_invariant
    calls = []

    def counted(graph, engine):
        calls.append(1)
        return recount(graph, engine)

    monkeypatch.setattr(verify, "check_tuple_invariant", counted)
    reports = dict(harness.audit_engine("det-vc", g, eng, deep=True))
    assert len(calls) == 1
    assert list(reports) == ["proper-vertex", "tuple-invariant", "tuple-state"]
    # The state report still holds the bound violations, and only it holds
    # the class violations.
    monkeypatch.undo()
    bounds, _ = verify.check_tuple_invariant(g, eng)
    assert reports["tuple-invariant"].violations == bounds.violations
    state = verify.check_tuple_state(g, eng)
    assert reports["tuple-state"].violations == state.violations
    assert bounds.violations
    assert state.violations[: len(bounds.violations)] == bounds.violations
    assert any(x[0] == "prefix-set" for x in state.violations)


@pytest.mark.parametrize("corrupt", [False, True])
def test_deep_det_vc_audit_checks_the_coordinate_range_once(monkeypatch, corrupt):
    g, eng = harness.make_engine("det-vc", 40, 16)
    for ev in generate(TraceSpec(40, 16, 800, 3, "uniform-random")):
        g.apply(ev)
    if corrupt:
        eng.coords[7][0] = eng.params.radix + 1
    in_range = verify.coords_in_range
    calls = []

    def counted(engine):
        calls.append(1)
        return in_range(engine)

    monkeypatch.setattr(verify, "coords_in_range", counted)
    reports = dict(harness.audit_engine("det-vc", g, eng, deep=True))
    assert len(calls) == 1
    # Each check called alone computes the verdict itself, to the same lists.
    monkeypatch.undo()
    alone = [verify.check_tuple_proper(g, eng), verify.check_tuple_state(g, eng)]
    assert [reports["proper-vertex"].violations, reports["tuple-state"].violations] == [
        r.violations for r in alone
    ]
    assert reports["tuple-state"].passed != corrupt
    if corrupt:
        assert ("coordinate-range", 7, tuple(eng.coords[7]), eng.params.radix) in (
            reports["tuple-state"].violations
        )


@pytest.mark.parametrize("delta", [16, None], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("corrupt", [False, True])
def test_deep_edge_c_audit_reads_the_colors_once(monkeypatch, corrupt, delta):
    g, eng = harness.make_engine("edge-c", 40, delta)
    for ev in generate(TraceSpec(40, delta, 800, 3, "uniform-random")):
        g.apply(ev)
    if corrupt:
        u = next(v for v in range(g.n) if g.degree(v) >= 2)
        a, b = list(g.neighbors(u))[:2]
        g.handle(u, a).color = g.handle(u, b).color
    read = g.handle_colors
    calls = []

    def counted():
        calls.append(1)
        return read()

    monkeypatch.setattr(g, "handle_colors", counted)
    reports = dict(harness.audit_engine("edge-c", g, eng, deep=True))
    assert len(calls) == 1
    # Each check called alone reads the colors itself, to the same verdicts.
    monkeypatch.undo()
    proper, bad = verify.check_edge_coloring(g, eng.palette)
    assert reports["proper-edge"].violations == proper.violations
    assert reports["edge-palette"].violations == bad
    try:
        eng.self_check()
        alone = []
    except InternalInvariantViolation as exc:
        alone = [("tree", str(exc))]
    assert reports["tree-rebuild"].violations == alone
    assert reports["proper-edge"].passed != corrupt
    assert reports["tree-rebuild"].passed != corrupt


RECEIPT_CASES = [
    ("rand-vc", 16),
    ("rand-vc", None),
    ("det-vc", 16),
    ("det-vc", DELTA_MIN - 1),
    ("edge-c", 16),
    ("edge-c", None),
    ("greedy-baseline", 16),
]


@pytest.mark.parametrize("engine, delta", RECEIPT_CASES)
def test_receipts_carry_exactly_the_declared_fields(engine, delta):
    g, eng = harness.make_engine(engine, 40, delta, seed=1, beta=2)
    kinds = set()
    for ev in generate(TraceSpec(40, delta, 800, 3, "conflict-heavy")):
        receipt = g.apply(ev)
        assert tuple(receipt.stats) == eng.RECEIPT_FIELDS
        kinds.add(receipt.kind)
    assert kinds == {"+", "-"}


def test_det_vc_fallback_writes_the_greedy_columns():
    buf = io.StringIO()
    harness.run([], "det-vc", 10, DELTA_MIN - 1, metrics_out=buf)
    assert buf.getvalue() == (
        "sequence_number,engine,kind,u,v,recolor_calls,cells_touched,"
        "cum_cells_touched,audit\n"
    )


# sha256 of each metrics CSV column, its values joined by commas, for one
# conflict-heavy trace (n=200, delta=32, 4000 updates, trace seed 5) replayed
# with engine seed 3, beta=2 and audits every 500 updates; recorded when every
# engine's CSV still carried all engines' columns, zero-filled. The totals
# are that run's, with the keys each engine does not report left out.
# rand-vc's draw columns and totals were re-recorded when its draw became
# uniform over every blank or unique color; its level moves did not change.
# det-vc's were re-recorded when vertex v started at color (v mod palette)+1
# instead of (1, ..., 1); its phi_after column did not change. edge-c's
# tree_visits, cells_touched and cum_cells_touched columns and totals were
# re-recorded when an edge's two trees were first paired to one width, so a
# widened tree's nodes are read, again when both modes searched one span,
# next_pow2(deg(u) + deg(v) - 1), over trees widened to it first, and again
# when each tree became a Fenwick tree walked at its own width (when its
# totals gained widened_cells); its color_assigned column did not change.
CSV_TRACE_GOLDEN = {
    "sequence_number": "44a5281ba25c322fbc1854442ab7d61574e67c11b1ed57f1565d7fac8b56b06f",
    "kind": "5c0560395000fd071405e875a0edf40a2ccd1b9509498fc4435d5a2829ad970e",
    "u": "fa7fc98c1939758868d995b003f299172d9446bf70ae4fa4cbaa3b192da8da9e",
    "v": "839337a402f835b6f3a4ab5e8e76c2e7077a43f595642d91ad98db66d4b04b66",
    "audit": "b5447b4e4f251fc23a98f4073509248ad69aae4c75e535adf4ba1e3582194fe3",
}
CSV_ENGINE_GOLDEN = {
    "rand-vc": {
        "recolor_calls": "5a6d793c31e697b212d9a7dd25098c63ec59652ef0cb5ca526298708d3a4717d",
        "chain_len_max": "5a6d793c31e697b212d9a7dd25098c63ec59652ef0cb5ca526298708d3a4717d",
        "pool_size_min": "a1ff16057a8f67318aae4f78996c3ce6d4f3daa22141abb81e224fe17e55e9ea",
        "cells_touched": "8057e9e24c0ec788f26750158781a6e159c72b331422a81cdd71d7573dd7fdfa",
        "level_moves": "2413a9aef6b48d05b754285b8479933e4744a3499ba62eab2d30231534da9af0",
        "cum_cells_touched": "3e8cbe66039164b4feecb581322146e22522f27ed2cf1b03f54bf2c1469e0967",
    },
    "det-vc": {
        "fix_iterations": "de9059229f52f4ae2a2f920e34d807bcf59694170490568c512fb966de2141a6",
        "coords_rewritten": "319acb9a7ad510f5f48a07a14f22b35c935fa422b9aca13c2f01d0cf91bf4a58",
        "phi_before": "264c762141a64c6ae976c1d331624ce8a824e7c211cf0dea2369b967d241ee95",
        "phi_after": "fa67a3b264b8a5870dbe2e671af5f7369c1634a432f12e8f938cd02033546d1a",
        "cells_touched": "9d5a65d3cf2004e69d5c78d20c5557f3b77077a1dfc55e5aabd6b51a974caf03",
        "cum_cells_touched": "302de2e8eb9c98568a5360ce73bd5fafa5b46fb9e0faa792b89d52f52b822af2",
    },
    "edge-c": {
        "tree_visits": "cb223a3654b68ea222d8b06159fe03f3073f411ca0e3dda4b0035e9a267088a5",
        "recolored_edges": "b633e8bfe5e8af07bf517e7d431a845d88e9355ad859fc0202ba30375ef41e9f",
        "color_assigned": "731ab1e7097cbfeaa88f249349189d64bfbf9cbf4d5e8fb5687453b2c34fdcbc",
        "cells_touched": "cb223a3654b68ea222d8b06159fe03f3073f411ca0e3dda4b0035e9a267088a5",
        "cum_cells_touched": "0e4d7f1834e1d38711b4fe8613f077e6d7f9bc8f7e4432f8c5d78765083dfcd7",
    },
    "greedy-baseline": {
        "recolor_calls": "a0e89a37e8cdf3006abf10ff793b8254909b50d3d58d237888d3b5c08ebb2043",
        "cells_touched": "f147d33b5552111de666bd891d1cb397e9f2308948f5c6decf91baaf6b1c2c57",
        "cum_cells_touched": "140e8f041c6d211ed37aa17ad35bedfbee8810131e9805984ae6c6c806445e02",
    },
}
TOTALS_GOLDEN = {
    "rand-vc": {"recolor_calls": 93, "level_moves": 64, "chain_len_max": 2,
                "cum_cells_touched": 23994},
    "det-vc": {"fix_iterations": 648, "cum_cells_touched": 40347},
    "edge-c": {"recolored_edges": 0, "tree_visits": 60934, "cum_cells_touched": 60934,
               "widened_cells": 12840},
    "greedy-baseline": {"recolor_calls": 3006, "cum_cells_touched": 45058},
}


@pytest.mark.parametrize("engine", harness.ENGINES)
def test_csv_columns_and_totals_match_the_golden(engine):
    events = generate(TraceSpec(200, 32, 4000, 5, "conflict-heavy"))
    buf = io.StringIO()
    res = harness.run(
        events, engine, 200, 32, seed=3, beta=2, audit_every=500, metrics_out=buf
    )
    assert res.exit_code == 0
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    fields = res.engine_obj.RECEIPT_FIELDS
    assert header == [
        "sequence_number", "engine", "kind", "u", "v", *fields, "cum_cells_touched", "audit",
    ]
    columns = dict(zip(header, zip(*rows)))
    assert set(columns.pop("engine")) == {engine}
    digests = {
        name: hashlib.sha256(",".join(col).encode()).hexdigest()
        for name, col in columns.items()
    }
    assert digests == {**CSV_TRACE_GOLDEN, **CSV_ENGINE_GOLDEN[engine]}
    assert list(res.totals.items()) == list(TOTALS_GOLDEN[engine].items())


# The fold of every receipt that harness.run made before the engines kept
# their own totals: these fields, those an engine reports, summed in this
# order; then rand-vc's longest chain; then the sum of cells_touched.
SUMMED_FIELDS = (
    "recolor_calls", "fix_iterations", "recolored_edges", "level_moves", "tree_visits"
)


def fold_receipts(fields, receipts):
    sums = {key: 0 for key in SUMMED_FIELDS if key in fields}
    chain = cells = 0
    for stats in receipts:
        for key in sums:
            sums[key] += stats[key]
        if "chain_len_max" in fields:
            chain = max(chain, stats["chain_len_max"])
        cells += stats["cells_touched"]
    if "chain_len_max" in fields:
        sums["chain_len_max"] = chain
    sums["cum_cells_touched"] = cells
    return sums


@pytest.mark.parametrize(
    "engine, delta",
    [
        ("rand-vc", 32),
        ("rand-vc", None),
        ("det-vc", 16),
        ("det-vc", DELTA_MIN - 1),
        ("edge-c", 16),
        ("edge-c", None),
        ("greedy-baseline", 16),
        ("greedy-baseline", None),
    ],
)
def test_run_totals_equal_a_fold_of_the_receipts(engine, delta):
    events = generate(TraceSpec(40, delta, 3000, 9, "conflict-heavy"))
    buf = io.StringIO()
    res = harness.run(events, engine, 40, delta, seed=4, beta=2, metrics_out=buf)
    assert res.exit_code == 0
    g, eng = harness.make_engine(engine, 40, delta, seed=4, beta=2)
    expected = fold_receipts(eng.RECEIPT_FIELDS, (g.apply(ev).stats for ev in events))
    if engine == "edge-c":
        # not a receipt field: every cell a tree holds was written once, when
        # the tree was created or widened
        expected["widened_cells"] = sum(len(t) for t in eng.tree if t)
    assert list(res.totals.items()) == list(expected.items())
    # every total is counted on this trace: rand-vc moves levels at beta=2,
    # and only fixed-mode edge-c has no deletion fixups to recolor edges
    assert all(v > 0 for k, v in expected.items() if (k, delta) != ("recolored_edges", 16))
    last = list(csv.DictReader(io.StringIO(buf.getvalue())))[-1]
    assert int(last["cum_cells_touched"]) == res.totals["cum_cells_touched"]


# sha256 of the audit log of each engine's run on the CSV-golden trace above,
# and of edge-c's on an adaptive sliding-window trace (n=60, 4000 updates,
# trace seed 5, engine seed 3, audits every 500 updates). A clean log still
# pins which checks run at each checkpoint, in which order, and their lines.
AUDIT_LOG_GOLDEN = {
    ("rand-vc", 32): "e81055b7b9b204a9ea601e6b84a63c0373add3c78915ebd0aa06568122d2bec6",
    ("det-vc", 32): "4ee7a2e2ae3af0ab5b01110bf1c0be1494074be09e784af702e80d20e8fea892",
    ("edge-c", 32): "db6a285f3e8d3c48932f60425b9e0ed8d1d0f4e90a058159f51aea9977af6bec",
    ("greedy-baseline", 32): "e723be8541617029c8f1d9f94ce9fe8809f2bffee0a39809128f6139b329e8e2",
    ("edge-c", None): "9f59f6d30a9fb9b5fa90d185ad0496bce921ce111cdbd64d1d4f948087dc6503",
}


@pytest.mark.parametrize("engine, delta", sorted(AUDIT_LOG_GOLDEN, key=str))
def test_audit_log_matches_the_golden(engine, delta):
    if delta is None:
        n, spec = 60, TraceSpec(60, None, 4000, 5, "sliding-window")
    else:
        n, spec = 200, TraceSpec(200, 32, 4000, 5, "conflict-heavy")
    out = io.StringIO()
    res = harness.run(
        generate(spec), engine, n, delta, seed=3, beta=2, audit_every=500, audit_out=out
    )
    assert res.exit_code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == AUDIT_LOG_GOLDEN[(engine, delta)]


# The same run at beta=21, where every vertex stays at level 4, recorded
# while the band recount still walked every neighbor of a flat partition. A
# clean log names no level, so it equals the beta=2 log above byte for byte.
DORMANT_AUDIT_LOG_GOLDEN = "e81055b7b9b204a9ea601e6b84a63c0373add3c78915ebd0aa06568122d2bec6"


def test_dormant_audit_log_matches_the_golden():
    out = io.StringIO()
    res = harness.run(
        generate(TraceSpec(200, 32, 4000, 5, "conflict-heavy")), "rand-vc", 200, 32,
        seed=3, beta=21, audit_every=500, audit_out=out,
    )
    assert res.exit_code == 0
    assert res.engine_obj.hier.dormant
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DORMANT_AUDIT_LOG_GOLDEN


@pytest.mark.parametrize(
    "engine, delta", [("rand-vc", 32), ("rand-vc", None), ("greedy-baseline", 32)]
)
def test_the_palette_audit_names_a_color_above_its_vertex_limit(engine, delta):
    events = generate(TraceSpec(60, delta, 2000, 7, "conflict-heavy"))
    g, eng = harness.make_engine(engine, 60, delta, seed=7, beta=2)
    for ev in events:
        g.apply(ev)

    def palette_report():
        return dict(harness.audit_engine(engine, g, eng))["palette"]

    assert palette_report().passed

    def limit(v):
        if delta is None:
            assert len(g._adj[v]) + 1 < eng.palette  # the fixed palette would not catch it
            return len(g._adj[v]) + 1
        return eng.palette

    v = max(range(g.n), key=lambda v: (len(g._adj[v]), v))
    eng.chi[v] = limit(v)
    assert palette_report().violations == []
    eng.chi[v] = limit(v) + 1
    assert palette_report().violations == [("palette", v, limit(v) + 1, limit(v))]
    # a second color above its limit, at a smaller vertex: listed in vertex order
    w = min(u for u in range(g.n) if u != v and g._adj[u])
    eng.chi[w] = limit(w) + 2
    report = palette_report()
    assert not report.passed
    assert report.violations == [
        ("palette", w, limit(w) + 2, limit(w)), ("palette", v, limit(v) + 1, limit(v)),
    ]


def test_compare_table_rows():
    events = generate(TraceSpec(30, 16, 800, 8, "conflict-heavy"))
    rows, code = harness.compare(
        events, ["greedy-baseline", "rand-vc", "det-vc", "edge-c"], 30, 16, seed=2
    )
    assert code == 0
    assert [r["engine"] for r in rows] == [
        "greedy-baseline", "rand-vc", "det-vc", "edge-c",
    ]
    det = rows[2]
    from colorbench.det_coloring import DetParams

    assert det["palette"] == str(DetParams.compute(16).palette)
    table = harness.render_table(rows)
    assert "engine" in table and "rand-vc" in table


def test_compare_reports_the_largest_edge_color_left():
    # edge (0, 2) takes color 2 and is deleted; only (0, 1), colored 1, is left
    events, _ = parse_trace("+ 0 1\n+ 0 2\n- 0 2\n")
    rows, code = harness.compare(events, ["edge-c"], 3, 2)
    assert code == 0
    assert rows[0]["max_color"] == 1


# -- CLI ---------------------------------------------------------------------------------


def test_cli_gen_run_compare(tmp_path):
    trace = tmp_path / "t.trace"
    metrics = tmp_path / "m.csv"
    audits = tmp_path / "a.jsonl"
    assert cli.main(
        ["gen", "--n", "30", "--delta", "6", "--ops", "500", "--seed", "3",
         "--mode", "conflict-heavy", "--out", str(trace)]
    ) == 0
    assert cli.main(
        ["run", "--trace", str(trace), "--engine", "rand-vc",
         "--audit-every", "100", "--metrics-out", str(metrics),
         "--audit-out", str(audits)]
    ) == 0
    assert metrics.read_text().count("\n") == 501
    assert audits.read_text().startswith('{"run": "rand-vc"')
    assert cli.main(["compare", "--trace", str(trace)]) == 0


def test_cli_outputs_do_not_depend_on_string_hashing(tmp_path):
    """gen, then run for every engine, each in its own process: traces, CSVs,
    audit logs and stdout are byte-identical under two hash seeds."""
    src = str(Path(colorbench.__file__).parents[1])
    outputs = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = tmp_path / hash_seed
        out.mkdir()
        trace = out / "t.trace"
        commands = [
            ["gen", "--n", "200", "--delta", "32", "--ops", "4000", "--seed", "5",
             "--mode", "conflict-heavy", "--out", str(trace)]
        ]
        for engine in harness.ENGINES:
            commands.append(
                ["run", "--trace", str(trace), "--engine", engine,
                 "--metrics-out", str(out / f"{engine}.csv"),
                 "--audit-out", str(out / f"{engine}.jsonl")]
            )
        stdout = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "colorbench.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs[hash_seed] = (files, stdout)
    files, stdout = outputs["0"]
    assert len(files) == 1 + 2 * len(harness.ENGINES)
    assert all(files.values()) and all(stdout[1:])
    assert outputs["1"] == outputs["0"]


def test_cli_usage_errors(tmp_path):
    assert cli.main(["gen", "--n", "10", "--ops", "5"]) == 2  # no delta/adaptive
    missing = tmp_path / "missing.trace"
    assert cli.main(["run", "--trace", str(missing), "--engine", "rand-vc"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--trace", "x", "--engine", "bogus"])
    assert exc.value.code == 2
    illegal = tmp_path / "illegal.trace"
    illegal.write_text("# n=4 delta=2\n+ 0 1\n+ 0 1\n")
    assert cli.main(["run", "--trace", str(illegal), "--engine", "rand-vc"]) == 2


def test_cli_adaptive_run(tmp_path):
    trace = tmp_path / "t.trace"
    assert cli.main(
        ["gen", "--n", "20", "--adaptive", "--ops", "300", "--seed", "1",
         "--out", str(trace)]
    ) == 0
    assert cli.main(
        ["run", "--trace", str(trace), "--engine", "edge-c", "--audit-every", "50"]
    ) == 0


@pytest.mark.parametrize("bad_line", ["+ 2 7", "- 4 0", "+ -1 3"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_out_of_range_vertex_fails_before_any_output(tmp_path, capsys, command, bad_line):
    trace = tmp_path / "t.trace"
    trace.write_text(f"# n=4 delta=3\n+ 0 1\n\n# churn\n+ 1 2\n{bad_line}\n+ 0 2\n")
    metrics, audits = tmp_path / "m.csv", tmp_path / "a.jsonl"
    argv = [command, "--trace", str(trace)]
    if command == "run":
        argv += ["--engine", "rand-vc", "--metrics-out", str(metrics), "--audit-out", str(audits)]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert "line 6:" in out.err and out.out == ""
    assert not metrics.exists() and not audits.exists()


@pytest.mark.parametrize("bad", ["--metrics-out", "--audit-out"])
def test_cli_unopenable_output_leaves_no_file(tmp_path, bad):
    trace = tmp_path / "t.trace"
    trace.write_text("# n=4 delta=3\n+ 0 1\n+ 1 2\n")
    good = tmp_path / "out.txt"
    missing_dir = tmp_path / "missing"
    outputs = {"--metrics-out": good, "--audit-out": good, bad: missing_dir / "out.txt"}
    argv = ["run", "--trace", str(trace), "--engine", "rand-vc"]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert cli.main(argv) == 2
    assert list(tmp_path.iterdir()) == [trace]


@pytest.mark.parametrize(
    "delta, bad_line, message",
    [
        (3, "+ 0 1", "line 6: edge (0, 1) already present"),
        (3, "+ 3 3", "line 6: self-loop at vertex 3"),
        (3, "- 0 3", "line 6: edge (0, 3) not present"),
        (1, "+ 1 3", "line 6: insert (1, 3) exceeds degree bound 1"),
    ],
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_names_the_line_of_a_refused_update_and_leaves_no_output(
    tmp_path, capsys, command, delta, bad_line, message
):
    trace = tmp_path / "t.trace"
    trace.write_text(f"# n=4 delta={delta}\n+ 0 1\n\n# churn\n+ 2 3\n{bad_line}\n+ 0 2\n")
    argv = [command, "--trace", str(trace)]
    if command == "run":
        argv += ["--engine", "rand-vc", "--audit-every", "1",
                 "--metrics-out", str(tmp_path / "m.csv"), "--audit-out", str(tmp_path / "a.jsonl")]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""
    assert list(tmp_path.iterdir()) == [trace]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--engine", "det-vc", "--adaptive"], "det-vc needs a fixed degree bound"),
        (["--engine", "rand-vc", "--beta", "1.5"], "growth base 1.5 below minimum 2"),
        (["--engine", "rand-vc", "--beta", "nan"], "growth base nan below minimum 2"),
        (["--engine", "rand-vc", "--delta", "-3"], "delta must be nonnegative, got -3"),
        (["--engine", "rand-vc", "--n", "-2"], "n must be nonnegative, got -2"),
        (["--engine", "rand-vc", "--audit-every", "-1"], "audit-every must be nonnegative, got -1"),
        (["--engine", "det-vc", "--delta", str(2**222)],
         f"degree bound {2**222} needs radix 262; det-vc allows 255"),
    ],
)
def test_cli_usage_error_exits_two_and_leaves_no_output(tmp_path, capsys, flags, message):
    trace = tmp_path / "t.trace"
    trace.write_text("# n=4 delta=3\n")
    argv = ["run", "--trace", str(trace), *flags,
            "--metrics-out", str(tmp_path / "m.csv"), "--audit-out", str(tmp_path / "a.jsonl")]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""
    assert list(tmp_path.iterdir()) == [trace]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "header, message",
    [
        ("# n=four delta=3", "trace header n=four is not an integer"),
        ("# n=4 delta=x", "trace header delta=x is not an integer"),
        ("# n=4 delta=3.5", "trace header delta=3.5 is not an integer"),
    ],
)
def test_cli_non_integer_header_exits_two_and_leaves_no_output(
    tmp_path, capsys, command, header, message
):
    trace = tmp_path / "t.trace"
    trace.write_text(f"{header}\n+ 0 1\n")
    argv = [command, "--trace", str(trace)]
    if command == "run":
        argv += ["--engine", "rand-vc",
                 "--metrics-out", str(tmp_path / "m.csv"), "--audit-out", str(tmp_path / "a.jsonl")]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""
    assert list(tmp_path.iterdir()) == [trace]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_refuses_an_oversized_header_n_before_building_a_graph(
    tmp_path, capsys, monkeypatch, command
):
    def refused(*args, **kwargs):
        pytest.fail("an engine was built")

    monkeypatch.setattr(harness, "make_engine", refused)
    trace = tmp_path / "t.trace"
    trace.write_text("# colorbench-trace n=4000000000 delta=3\n+ 0 1\n")
    argv = [command, "--trace", str(trace)]
    if command == "run":
        argv += ["--engine", "rand-vc",
                 "--metrics-out", str(tmp_path / "m.csv"), "--audit-out", str(tmp_path / "a.jsonl")]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == (
        f"error: trace header n=4000000000 is above {cli.HEADER_N_MAX}: "
        "pass --n to replay a graph this large\n"
    )
    assert out.out == ""
    assert list(tmp_path.iterdir()) == [trace]


def test_cli_n_overrides_an_oversized_header_n(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text(f"# colorbench-trace n={cli.HEADER_N_MAX + 1} delta=3\n+ 0 1\n")
    assert cli.main(["run", "--trace", str(trace), "--engine", "greedy-baseline", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("ok: 1 updates")


@pytest.mark.parametrize(
    "delta, beta, regime",
    [(20, 21, "dormant, max level 4"), (20, 2, "active, max level 5")],
)
def test_cli_run_says_whether_the_hierarchy_was_dormant(tmp_path, capsys, delta, beta, regime):
    trace = tmp_path / "t.trace"
    assert cli.main(
        ["gen", "--n", "21", "--delta", str(delta), "--ops", "3000", "--seed", "3",
         "--mode", "insert-heavy", "--out", str(trace)]
    ) == 0
    argv = ["run", "--trace", str(trace), "--beta", str(beta)]
    assert cli.main(argv + ["--engine", "rand-vc"]) == 0
    assert capsys.readouterr().out.endswith(f"}}, hierarchy {regime}\n")
    assert cli.main(argv + ["--engine", "det-vc"]) == 0
    assert "hierarchy" not in capsys.readouterr().out
