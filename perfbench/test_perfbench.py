"""Tests of the benchmark's own code: workloads, checks and span reduction.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from colorbench import harness  # noqa: E402
from colorbench.graph import INSERT  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import BLOCK_CHURN, WORKLOADS, block_churn, trace_stats  # noqa: E402

CHURN = WORKLOADS[BLOCK_CHURN]


def test_block_churn_is_legal():
    events = block_churn(3, CHURN.ops)
    assert len(events) == CHURN.ops
    size = CHURN.delta + 1
    live = set()
    degree = [0] * CHURN.n
    for ev in events:
        u, v = ev.u, ev.v
        assert u < v and u // size == v // size, "pair must lie inside one block"
        if ev.kind == INSERT:
            assert (u, v) not in live, "duplicate insert"
            live.add((u, v))
            degree[u] += 1
            degree[v] += 1
            assert max(degree[u], degree[v]) <= CHURN.delta
        else:
            assert (u, v) in live, "phantom delete"
            live.remove((u, v))
            degree[u] -= 1
            degree[v] -= 1


def test_block_churn_is_deterministic():
    a = block_churn(5, 70_000)
    assert a == block_churn(5, 70_000)
    assert a != block_churn(6, 70_000)


def test_block_churn_reaches_delta():
    events = block_churn(11, CHURN.ops)
    stats = trace_stats(events, CHURN.n)
    assert stats.max_degree >= bench.MIN_DEGREE_RATIO * CHURN.delta


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def _small_replay():
    spec = harness.TraceSpec(60, 20, 3000, 2, "conflict-heavy")
    return harness.generate(spec), spec


def test_check_colours_catches_a_conflict():
    events, spec = _small_replay()
    for name in ("rand-vc", "det-vc", "edge-c", "greedy-baseline"):
        res = harness.run(events, name, spec.n, spec.delta, seed=1)
        final = trace_stats(events, spec.n).final_edges
        max_color, palette, problem = bench.check_colours(name, res.graph, res.engine_obj, final)
        assert problem == "" and 1 <= max_color <= palette
        u, v = next((a, b) for a, b in sorted(final) if res.graph.degree(a) >= 2)
        if name == "edge-c":
            h = res.graph.handle(u, v)
            other = next(x for x in res.graph.neighbors(u) if x != v)
            h.color = res.graph.handle(u, other).color
        elif name == "det-vc":
            res.engine_obj.coords[u] = list(res.engine_obj.coords[v])
        else:
            res.engine_obj.chi[u] = res.engine_obj.chi[v]
        assert bench.check_colours(name, res.graph, res.engine_obj, final)[2]


def test_self_times_add_up_to_the_traced_wall_time():
    events, spec = _small_replay()
    rec = tracing.SpanRecorder()
    with tracing.traced(rec):
        rec.reset()
        t0 = time.perf_counter()
        harness.run(events, "rand-vc", spec.n, spec.delta, seed=1, audit_every=500)
        wall = time.perf_counter() - t0
        count = len(rec)
    assert harness.run.__name__ == "run", "entry points must be restored"
    spans = tracing.ReplaySpans(rec.names, rec.buf[: tracing.FIELDS * count])
    buckets = spans.buckets()
    assert spans.calls[tracing.APPLY] == len(events)
    assert spans.calls["harness.audit_engine"] == len(events) // 500 + 1
    assert {"graph", "hierarchy", "rand_coloring", "harness.self", "verify"} <= set(buckets)
    assert min(buckets.values()) >= 0.0
    assert 0.0 <= wall - sum(buckets.values()) < 0.01 * wall
