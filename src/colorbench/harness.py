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
from .hierarchy import DEFAULT_BETA
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
    that would push a degree past the bound. Each step, the mode chooses a
    pair to insert; a "sampled" pair is the first legal one of up to 64
    uniform draws:

    - uniform-random draws one pair: a live pair is deleted, a legal one is
      inserted, and otherwise a sampled pair is inserted;
    - insert-heavy inserts a sampled pair with probability 0.9, and
      conflict-heavy with probability 0.75, preferring a pair that a
      simulated greedy coloring colors equally; otherwise they delete;
    - sliding-window inserts a sampled pair below its window of
      min(2n, max edges / 2) live edges (at least 1), and deletes at it.

    A delete takes the oldest live edge in sliding-window and a uniformly
    random one in every other mode. If no pair was chosen and no edge is
    live, the generator is stuck and raises InvalidSpec.
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
    n, mode = spec.n, spec.mode
    bound = n if spec.delta is None else spec.delta  # no degree reaches n
    max_edges = n * (n - 1 if spec.delta is None else spec.delta) // 2
    window = max(1, min(2 * n, max_edges // 2))  # sliding-window's live edges
    share = 0.75 if mode == "conflict-heavy" else 0.9  # the insert share
    degree = [0] * n
    # the live edges as (lo, hi), swap-removed; live_pos maps each to its index
    live: List[Tuple[int, int]] = []
    live_pos: Dict[Tuple[int, int], int] = {}
    fifo: Optional[deque] = deque() if mode == "sliding-window" else None
    sim = chi = None  # conflict-heavy's simulated greedy run and its colors
    if mode == "conflict-heavy":
        sim = DynamicGraph(n, spec.delta)
        chi = GreedyVertexColoring(sim).chi
    events: Trace = []

    def sample_insert() -> Optional[Tuple[int, int]]:
        """The first legal pair of 64 draws, or in conflict-heavy the first
        that greedy colors equally, falling back to the first legal one."""
        fallback = None
        for _ in range(64):
            u, v = rng.randrange(n), rng.randrange(n)
            pair = (u, v) if u < v else (v, u)
            if u == v or pair in live_pos or degree[u] >= bound or degree[v] >= bound:
                continue
            if chi is None or chi[u] == chi[v]:
                return pair
            fallback = fallback or pair
        return fallback

    def choose() -> Optional[Tuple[int, int]]:
        """The mode's pair to insert (or, in uniform-random, a live pair to
        delete); None asks for a delete."""
        if mode == "uniform-random":
            u, v = rng.randrange(n), rng.randrange(n)
            pair = (u, v) if u < v else (v, u)
            if u != v and (pair in live_pos or (degree[u] < bound and degree[v] < bound)):
                return pair
        elif mode == "sliding-window":
            if len(live) >= window:
                return None
        elif rng.random() >= share and live:
            return None
        return sample_insert()

    while len(events) < spec.op_count:
        pair = choose()
        if pair is None:
            if not live:
                raise InvalidSpec("generator stuck: no legal update")
            pair = fifo.popleft() if fifo is not None else live[rng.randrange(len(live))]
        lo, hi = pair
        idx = live_pos.pop(pair, None)
        if idx is None:
            live_pos[pair] = len(live)
            live.append(pair)
            if fifo is not None:
                fifo.append(pair)
            degree[lo] += 1
            degree[hi] += 1
            event = UpdateEvent(INSERT, lo, hi)
        else:
            last = live.pop()
            if idx < len(live):
                live[idx] = last
                live_pos[last] = idx
            degree[lo] -= 1
            degree[hi] -= 1
            event = UpdateEvent(DELETE, lo, hi)
        events.append(event)
        if sim is not None:
            sim.apply(event)
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
    beta: float = DEFAULT_BETA,
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
    """
    reports: List[Tuple[str, verify.AuditReport]] = []
    if name in ("rand-vc", "greedy-baseline") or (
        name == "det-vc" and isinstance(engine, GreedyVertexColoring)
    ):
        chi = engine.chi
        reports.append(("proper-vertex", verify.check_proper_vertex(graph, chi)))
        rand = isinstance(engine, RandVertexColoring)
        palette = None if rand and engine.adaptive else engine.palette
        reports.append(("palette", verify.check_vertex_palette(graph, chi, palette)))
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
    beta: float = DEFAULT_BETA,
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
    beta: float = DEFAULT_BETA,
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
