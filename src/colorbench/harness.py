"""Trace generation, engine replay, periodic auditing, CSV metrics.

Traces are UTF-8 lines: ``+ u v`` inserts, ``- u v`` deletes, ``#``
comments. Generation is a pure function of the spec; runs are a pure
function of (trace, seed, flags), so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, le
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from . import verify
from .det_coloring import GreedyVertexColoring, make_det_engine
from .edge_coloring import EdgeColoring
from .errors import (
    InputError,
    InternalInvariantViolation,
    InvalidSpec,
    TraceParseError,
    UnknownVertex,
)
from .graph import DELETE, INSERT, DynamicGraph, UpdateEvent
from .rand_coloring import RandVertexColoring

MODES = ("uniform-random", "insert-heavy", "sliding-window", "conflict-heavy")
ENGINES = ("rand-vc", "det-vc", "edge-c", "greedy-baseline")


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of one generated trace; ``delta=None`` means adaptive."""

    n: int
    delta: Optional[int]
    op_count: int
    seed: int
    mode: str


Trace = List[UpdateEvent]


# -- trace generation ------------------------------------------------------------


def generate(spec: TraceSpec) -> Trace:
    """Deterministically generate a legal trace for the spec.

    Legal means: no duplicate inserts, no phantom deletes, and no insert
    that would push a degree past the bound.
    """
    if spec.mode not in MODES:
        raise InvalidSpec(f"unknown mode {spec.mode!r}")
    if spec.n < 0 or spec.op_count < 0:
        raise InvalidSpec("n and op_count must be nonnegative")
    if spec.op_count == 0:
        return []
    if spec.n < 2 or (spec.delta is not None and spec.delta < 1):
        raise InvalidSpec("no legal updates exist for this spec")

    rng = random.Random(spec.seed)
    n, delta = spec.n, spec.delta
    adj: List[set] = [set() for _ in range(n)]
    live: List[Tuple[int, int]] = []
    live_pos: Dict[Tuple[int, int], int] = {}
    fifo: deque = deque()  # insertion order, lazily skipping dead edges
    events: Trace = []

    sim = None
    if spec.mode == "conflict-heavy":
        sim_graph = DynamicGraph(n, delta)
        sim = GreedyVertexColoring(sim_graph)

    def insert_ok(u: int, v: int) -> bool:
        if u == v or v in adj[u]:
            return False
        if delta is not None and (len(adj[u]) >= delta or len(adj[v]) >= delta):
            return False
        return True

    def do_insert(u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        adj[u].add(v)
        adj[v].add(u)
        live_pos[(u, v)] = len(live)
        live.append((u, v))
        fifo.append((u, v))
        events.append(UpdateEvent(INSERT, u, v))
        if sim is not None:
            sim.graph.insert(u, v)

    def do_delete(u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        adj[u].discard(v)
        adj[v].discard(u)
        idx = live_pos.pop((u, v))
        last = live.pop()
        if idx < len(live):
            live[idx] = last
            live_pos[last] = idx
        events.append(UpdateEvent(DELETE, u, v))
        if sim is not None:
            sim.graph.delete(u, v)

    def sample_insert(tries: int = 64, prefer_conflict: bool = False):
        fallback = None
        for _ in range(tries):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if not insert_ok(u, v):
                continue
            if prefer_conflict and sim is not None:
                if sim.chi[u] == sim.chi[v]:
                    return u, v
                if fallback is None:
                    fallback = (u, v)
            else:
                return u, v
        return fallback

    def delete_random() -> bool:
        if not live:
            return False
        do_delete(*live[rng.randrange(len(live))])
        return True

    if spec.mode == "sliding-window":
        cap = n * (n - 1) // 2 if delta is None else n * delta // 2
        window = max(1, min(2 * n, cap // 2 if cap > 1 else 1))

    while len(events) < spec.op_count:
        if spec.mode == "uniform-random":
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and min(u, v) in adj[max(u, v)]:
                do_delete(u, v)
                continue
            if insert_ok(u, v):
                do_insert(u, v)
                continue
            pair = sample_insert()
            if pair is not None:
                do_insert(*pair)
            elif not delete_random():
                raise InvalidSpec("generator stuck: no legal update")
        elif spec.mode == "insert-heavy":
            if rng.random() < 0.9 or not live:
                pair = sample_insert()
                if pair is not None:
                    do_insert(*pair)
                    continue
            if not delete_random():
                raise InvalidSpec("generator stuck: no legal update")
        elif spec.mode == "sliding-window":
            pair = None if len(live) >= window else sample_insert()
            if pair is not None:
                do_insert(*pair)
            else:
                # at the target edge count (or saturated): retire the oldest
                deleted = False
                while fifo:
                    e = fifo.popleft()
                    if e in live_pos:
                        do_delete(*e)
                        deleted = True
                        break
                if not deleted:
                    raise InvalidSpec("generator stuck: no legal update")
        else:  # conflict-heavy
            if rng.random() < 0.75 or not live:
                pair = sample_insert(prefer_conflict=True)
                if pair is not None:
                    do_insert(*pair)
                    continue
            if not delete_random():
                raise InvalidSpec("generator stuck: no legal update")
    return events


def format_trace(events: Trace, spec: Optional[TraceSpec] = None) -> str:
    lines = []
    if spec is not None:
        delta = "adaptive" if spec.delta is None else str(spec.delta)
        lines.append(
            f"# colorbench-trace n={spec.n} delta={delta} "
            f"ops={spec.op_count} seed={spec.seed} mode={spec.mode}"
        )
    lines.extend(f"{e.kind} {e.u} {e.v}" for e in events)
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Tuple[Trace, Dict[str, str]]:
    """Parse trace lines; returns (events, header metadata if present)."""
    events: Trace = []
    meta: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, _, val = tok.partition("=")
                    meta.setdefault(k, val)
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in (INSERT, DELETE):
            raise TraceParseError(f"line {lineno}: bad update {raw!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise TraceParseError(f"line {lineno}: bad vertex id in {raw!r}") from None
        events.append(UpdateEvent(parts[0], u, v))
    return events, meta


# -- engines and audits -----------------------------------------------------------


def make_engine(
    name: str,
    n: int,
    delta: Optional[int],
    seed: int = 0,
    beta: float = 21.0,
):
    """Build (graph, engine) for one run. ``delta=None`` selects adaptive
    mode: unbounded degrees and degree-tracking palettes."""
    graph = DynamicGraph(n, delta)
    if name == "rand-vc":
        engine = RandVertexColoring(graph, seed=seed, beta=beta)
    elif name == "det-vc":
        if delta is None:
            raise InvalidSpec("det-vc needs a fixed degree bound")
        engine = make_det_engine(graph)
    elif name == "edge-c":
        engine = EdgeColoring(graph)
    elif name == "greedy-baseline":
        engine = GreedyVertexColoring(graph)
    else:
        raise InvalidSpec(f"unknown engine {name!r}")
    return graph, engine


def audit_engine(
    name: str, graph: DynamicGraph, engine, deep: bool = False
) -> List[Tuple[str, verify.AuditReport]]:
    """Full oracle audit appropriate to the engine; list of (check, report).

    The default audit recomputes properness, palette bounds, and the band /
    class-size invariants from adjacency and colors; edge-c's colors are read
    from the graph's adjacency slots once, into one flat list in vertex order
    (``graph.handle_colors``), which serves properness and palette and, in a
    deep audit, the tree check. ``deep=True`` adds the checks of the engine's
    stored structures (run at termination); rand-vc's color tables are checked
    against fresh ones that the band recount builds in the same pass.
    A vertex coloring's palette check first gets one C-level verdict (the
    largest color against a fixed palette, or each color against its
    vertex's degree + 1 in adaptive mode); only a failing state is walked to
    list its violations, in vertex order.
    """
    reports: List[Tuple[str, verify.AuditReport]] = []
    if name in ("rand-vc", "greedy-baseline") or (
        name == "det-vc" and isinstance(engine, GreedyVertexColoring)
    ):
        chi = engine.chi
        reports.append(("proper-vertex", verify.check_proper_vertex(graph, chi)))
        rand = isinstance(engine, RandVertexColoring)
        adaptive = rand and engine.adaptive
        if adaptive:
            fits = all(map(le, chi, map(add, map(len, graph._adj), repeat(1))))
        else:
            fits = max(chi, default=0) <= engine.palette
        bad: List[tuple] = []
        if not fits:
            limits = [len(a) + 1 for a in graph._adj] if adaptive else repeat(engine.palette)
            bad = [
                ("palette", v, c, limit)
                for v, (c, limit) in enumerate(zip(chi, limits))
                if c > limit
            ]
        reports.append(("palette", verify.AuditReport.from_violations(bad)))
        if rand and not deep:
            bands, _ = verify.recount_band_invariants(graph, engine.hier)
            reports.append(("hierarchy-bands", bands))
        elif rand:
            hier = engine.hier
            bands, below_count, mu_bad = verify.recount_band_invariants(
                graph, hier, chi, engine.mu
            )
            reports.append(("hierarchy-bands", bands))
            lists = verify.check_hierarchy(graph, hier, (bands, below_count))
            reports.append(("hierarchy-lists", lists))
            reports.append(("upper-counts", verify.AuditReport.from_violations(mu_bad)))
    elif name == "det-vc":
        recount = verify.check_tuple_invariant(graph, engine)
        in_range = verify.coords_in_range(engine)
        reports.append(
            ("proper-vertex", verify.check_tuple_proper(graph, engine, recount, in_range))
        )
        reports.append(("tuple-invariant", recount[0]))
        if deep:
            reports.append(
                ("tuple-state", verify.check_tuple_state(graph, engine, recount, in_range))
            )
    elif name == "edge-c":
        colors = graph.handle_colors()
        proper, bad = verify.check_edge_coloring(graph, engine.palette, colors)
        reports.append(("proper-edge", proper))
        if engine.invariant_failures:
            bad.append(("search-invariant", None, engine.invariant_failures, 0))
        reports.append(("edge-palette", verify.AuditReport.from_violations(bad)))
        if deep:
            try:
                engine.self_check(colors)
                reports.append(("tree-rebuild", verify.AuditReport(True)))
            except InternalInvariantViolation as exc:
                reports.append(
                    ("tree-rebuild", verify.AuditReport(False, [("tree", str(exc))]))
                )
    return reports


# -- replay -----------------------------------------------------------------------


@dataclass
class RunResult:
    engine: str
    exit_code: int
    updates: int
    totals: Dict[str, int] = field(default_factory=dict)
    failed_checks: List[str] = field(default_factory=list)
    graph: Optional[DynamicGraph] = None
    engine_obj: object = None


def run(
    events: Trace,
    engine_name: str,
    n: int,
    delta: Optional[int],
    seed: int = 0,
    beta: float = 21.0,
    audit_every: int = 0,
    metrics_out: Optional[TextIO] = None,
    audit_out: Optional[TextIO] = None,
) -> RunResult:
    """Replay a trace through one engine with periodic full audits.

    Returns exit code 0, or 1 if any audit failed (the run stops at the
    failing checkpoint). An update the graph refuses raises its InputError
    with ``update`` set to the update's 1-based index. A vertex id outside
    [0, n) anywhere in the trace raises UnknownVertex that way before any
    output is written.

    The totals are the engine's own counters, read once at the end; the
    loop reads a receipt only to write its CSV row.
    """
    for ev in events:  # no enumerate: this pass runs before every replay
        if not (0 <= ev.u < n and 0 <= ev.v < n):
            bad = ev.u if not 0 <= ev.u < n else ev.v
            exc = UnknownVertex(f"vertex {bad} outside [0, {n})")
            # an equal event earlier in the trace would have stopped the loop
            exc.update = events.index(ev) + 1
            raise exc
    graph, engine = make_engine(engine_name, n, delta, seed=seed, beta=beta)
    fields = engine.RECEIPT_FIELDS
    writer = None
    if metrics_out is not None:
        writer = csv.writer(metrics_out, lineterminator="\n")
        writer.writerow(
            ("sequence_number", "engine", "kind", "u", "v", *fields, "cum_cells_touched", "audit")
        )
    if audit_out is not None:
        audit_out.write(
            f'{{"run": "{engine_name}", "n": {n}, '
            f'"delta": {delta if delta is not None else "null"}, "seed": {seed}}}\n'
        )

    cells_at = fields.index("cells_touched")
    cum_cells = 0
    result = RunResult(engine_name, 0, len(events), graph=graph, engine_obj=engine)

    def do_audit(tag: str, deep: bool = False) -> bool:
        ok = True
        for check, report in audit_engine(engine_name, graph, engine, deep=deep):
            if audit_out is not None:
                audit_out.write(report.to_json(f"{tag}:{check}") + "\n")
            if not report.passed:
                ok = False
                result.failed_checks.append(f"{tag}:{check}")
        return ok

    for idx, ev in enumerate(events, start=1):
        try:
            receipt = graph.apply(ev)
        except InputError as exc:
            exc.update = idx
            raise
        audit_status = ""
        if audit_every and idx % audit_every == 0:
            audit_status = "pass" if do_audit(f"update-{idx}") else "fail"
        if writer is not None:
            values = receipt.values
            cum_cells += values[cells_at]
            writer.writerow(
                (receipt.sequence_number, engine_name, receipt.kind, receipt.u, receipt.v)
                + values
                + (cum_cells, audit_status)
            )
        if audit_status == "fail":
            result.exit_code = 1
            result.updates = idx
            break
    else:
        if not do_audit("final", deep=True):
            result.exit_code = 1

    result.totals = engine.totals()
    return result


def engine_palette(engine, graph: DynamicGraph) -> str:
    if isinstance(engine, RandVertexColoring):
        return "degree+1" if engine.adaptive else str(engine.palette)
    if isinstance(engine, GreedyVertexColoring):
        return str(engine.palette)
    if isinstance(engine, EdgeColoring):
        return "2*deg-1" if engine.adaptive else str(engine.palette)
    return str(engine.params.palette)


def compare(
    events: Trace,
    engine_names: Sequence[str],
    n: int,
    delta: Optional[int],
    seed: int = 0,
    beta: float = 21.0,
    audit_every: int = 0,
) -> Tuple[List[Dict[str, object]], int]:
    """Replay the trace independently through each engine; summary rows."""
    rows: List[Dict[str, object]] = []
    worst = 0
    for name in engine_names:
        res = run(events, name, n, delta, seed=seed, beta=beta, audit_every=audit_every)
        graph, engine = res.graph, res.engine_obj
        if hasattr(engine, "colors"):
            max_color = max(engine.colors(), default=0)
        else:
            max_color = max(engine.edge_colors().values(), default=0)
        rows.append(
            {
                "engine": name,
                "updates": res.updates,
                "recolorings": res.totals.get("recolor_calls", 0)
                + res.totals.get("fix_iterations", 0)
                + res.totals.get("recolored_edges", 0),
                "cells_touched": res.totals["cum_cells_touched"],
                "max_chain": res.totals.get("chain_len_max", 0),
                "palette": engine_palette(engine, graph),
                "max_color": max_color,
                "audits": "fail" if res.exit_code else "pass",
            }
        )
        worst = max(worst, res.exit_code)
    return rows, worst


def render_table(rows: List[Dict[str, object]]) -> str:
    if not rows:
        return ""
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    out = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in rows:
        out.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(out)
