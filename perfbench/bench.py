"""Replays, checks and metrics of one benchmark run.

``measure`` gives the end-to-end metrics with tracing off: it replays the
workload's trace through the four engines in turn, round after round, for
the requested number of seconds and reports medians. ``profile`` gives the
per-layer metrics: one untraced and one traced round, then a counting pass
per engine that also measures memory with tracemalloc.

Every replay is checked: its exit code, that it raised nothing, and that
the final colouring is proper on the trace's own final edge set and stays
inside the engine's palette. A failed replay counts all its updates in
``failed`` and is never dropped or retried.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import resource
import statistics
import time
import traceback
import tracemalloc
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from colorbench import cli, harness
from colorbench.errors import MissingEdge
from colorbench.graph import INSERT
from colorbench.hierarchy import BOTTOM_LEVEL
from colorbench.rand_coloring import RandVertexColoring

import tracing
from metrics import ENGINE_LAYER, ENGINES, PER_LAYER
from workloads import AUDIT_EVERY, TraceStats, Workload, make_trace, trace_stats

REF_SLOTS = 1 << 21  # 8 MiB ring of int32 indexes: beyond the per-core caches
REF_STEPS = 150_000
SLOT_SECONDS = 1.0  # each engine replays for at least this long per round
SETUP_SECONDS = 0.15  # each engine is also set up alone this long per round
# Seconds the speedometer's walk takes on a quiet 2.1 GHz Xeon vCPU under
# CPython 3.11; scaled times read as seconds on such a machine.
REF_SECONDS = 0.020
MEM_PREFIX = 10_000  # updates replayed under tracemalloc for bytes per edge
MIN_DEGREE_RATIO = 0.9  # block-churn must bring degrees this close to delta
MAKE_ENGINE = harness.make_engine  # unwrapped, whatever ``probing`` puts in its place


@dataclass
class Probe:
    """What ``harness.make_engine`` built for the current replay."""

    setup_s: float = 0.0
    graph: object = None
    engine: object = None
    level_moves: int = 0
    max_level: int = BOTTOM_LEVEL

    def clear(self) -> None:
        self.setup_s, self.graph, self.engine = 0.0, None, None
        self.level_moves, self.max_level = 0, BOTTOM_LEVEL


def watch_levels(engine, probe: Probe) -> None:
    """Count rand-vc's level moves through the hierarchy's move listener."""
    if not isinstance(engine, RandVertexColoring):
        return
    hier = engine.hier
    inner = hier.move_listener
    probe.max_level = max(hier.level, default=BOTTOM_LEVEL)

    def listener(x: int, old: int, new: int) -> None:
        probe.level_moves += 1
        if new > probe.max_level:
            probe.max_level = new
        inner(x, old, new)

    hier.move_listener = listener


@contextlib.contextmanager
def probing(probe: Probe):
    """Time every ``harness.make_engine`` call and keep what it built."""
    orig = harness.make_engine

    def make_engine(*args, **kwargs):
        t0 = time.perf_counter()
        graph, engine = orig(*args, **kwargs)
        probe.setup_s = time.perf_counter() - t0
        probe.graph, probe.engine = graph, engine
        watch_levels(engine, probe)
        return graph, engine

    harness.make_engine = make_engine
    try:
        yield
    finally:
        harness.make_engine = orig


def check_colours(name: str, graph, engine, final_edges) -> Tuple[int, int, str]:
    """Max colour, palette, and a problem ('' when the colouring is valid).

    Checked against the trace's final edge set, computed without the
    package, so a graph that lost or kept an edge is caught as well.
    """
    palette = int(harness.engine_palette(engine, graph))
    if graph.num_edges != len(final_edges):
        return 0, palette, f"graph holds {graph.num_edges} edges, trace leaves {len(final_edges)}"
    if name == "edge-c":
        seen = set()
        max_color = 0
        for u, v in final_edges:
            try:
                c = graph.handle(u, v).color
            except MissingEdge:
                return 0, palette, f"edge ({u}, {v}) missing from the graph"
            if c is None or c < 1:
                return 0, palette, f"edge ({u}, {v}) has colour {c}"
            if (u, c) in seen or (v, c) in seen:
                return 0, palette, f"colour {c} repeats at an endpoint of ({u}, {v})"
            seen.add((u, c))
            seen.add((v, c))
            max_color = max(max_color, c)
    else:
        chi = engine.colors()
        for u, v in final_edges:
            if chi[u] == chi[v]:
                return 0, palette, f"edge ({u}, {v}) joins colour {chi[u]}"
        if min(chi, default=1) < 1:
            return 0, palette, f"colour {min(chi)} below 1"
        max_color = max(chi, default=0)
    if max_color > palette:
        return max_color, palette, f"max colour {max_color} above palette {palette}"
    return max_color, palette, ""


class Speedometer:
    """How busy the machine was during each replay.

    Other tenants of a shared host slow this process by up to half, for
    seconds at a time, mostly through the caches and memory that the
    engines' object graphs depend on. After each replay, and after each
    batch of set-ups, the speedometer walks a shuffled ring of indexes,
    which never touches the package and allocates nothing the garbage
    collector tracks. A replay's walk time is the mean of the two walks
    around it: the lower it is, the quieter the machine was.
    ``steady_seconds`` scales wall times by it.
    """

    def __init__(self) -> None:
        # A full-period linear congruential step (Hull-Dobell: odd increment,
        # multiplier 1 mod 4) visits every slot in an order no prefetcher follows.
        mask = REF_SLOTS - 1
        self.ring = array("i", ((1103515245 * i + 12345) & mask for i in range(REF_SLOTS)))
        self.last = self.walk_seconds()

    def walk_seconds(self) -> float:
        ring, i = self.ring, 0
        t0 = time.perf_counter()
        for _ in range(REF_STEPS):
            i = ring[i]
        return time.perf_counter() - t0

    def around(self) -> float:
        """Mean of the last walk and a new one: the walk time around the
        replay or set-ups since the previous call."""
        now = self.walk_seconds()
        mean = (self.last + now) / 2
        self.last = now
        return mean


@dataclass
class Replay:
    engine: str
    updates: int
    wall_s: float
    setup_s: float
    error: str  # '' when the replay passed every check
    max_color: int
    palette: int  # 0 when the replay ended before its colours could be read
    level_moves: int
    max_level: int
    spans: int = 0  # spans recorded inside the timed window (traced only)
    walk_s: float = 0.0  # the Speedometer's walk time around this replay


class Bench:
    """One workload at one seed: its trace, scratch files and replays."""

    def __init__(self, w: Workload, seed: int, scratch: Path):
        self.w = w
        self.seed = seed
        self.events = make_trace(w, seed)
        self.stats: TraceStats = trace_stats(self.events, w.n)
        self.scratch = scratch
        self.probe = Probe()
        if w.via_cli:
            spec = harness.TraceSpec(w.n, w.delta, len(self.events), seed, w.mode)
            self.trace_path = scratch / f"{w.name}.trace"
            self.trace_path.write_text(harness.format_trace(self.events, spec), encoding="utf-8")

    def beta(self, name: str) -> float:
        return self.w.rand_beta if name == "rand-vc" else 21.0

    def _cli_args(self, name: str) -> List[str]:
        return [
            "run",
            "--trace", str(self.trace_path),
            "--engine", name,
            "--seed", str(self.seed),
            "--beta", str(self.w.rand_beta),
            "--audit-every", str(AUDIT_EVERY),
            "--metrics-out", str(self.scratch / f"{name}.csv"),
            "--audit-out", str(self.scratch / f"{name}.audit.jsonl"),
        ]

    def replay(self, name: str, rec: Optional[tracing.SpanRecorder] = None) -> Replay:
        """Replay the trace once through ``name`` (inside ``probing``)."""
        w, probe = self.w, self.probe
        probe.clear()
        gc.collect()
        if rec is not None:
            rec.reset()
        error = ""
        t0 = time.perf_counter()
        try:
            if w.via_cli:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(self._cli_args(name))
            else:
                code = harness.run(
                    self.events, name, w.n, w.delta, seed=self.seed,
                    beta=self.beta(name), audit_every=0,
                ).exit_code
        except Exception:  # a failed replay is reported, never retried
            code, error = None, traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        spans = len(rec) if rec is not None else 0
        max_color = palette = 0
        if code:
            error = f"exit code {code}"
        if not error:
            max_color, palette, error = check_colours(
                name, probe.graph, probe.engine, self.stats.final_edges)
        result = Replay(name, len(self.events), wall, probe.setup_s, error, max_color,
                        palette, probe.level_moves, probe.max_level, spans)
        probe.clear()
        return result

    def guard_problems(self, replays: List[Replay]) -> List[str]:
        """Regime guards: fail the run rather than let the workload drift."""
        w = self.w
        problems = []
        ratio = self.stats.max_degree / w.delta
        if w.hierarchy_active and ratio < MIN_DEGREE_RATIO:
            problems.append(f"max degree {self.stats.max_degree} below {MIN_DEGREE_RATIO} * delta")
        for r in replays:
            if r.engine != "rand-vc" or r.error:
                continue
            if w.hierarchy_active and (r.level_moves <= 0 or r.max_level <= BOTTOM_LEVEL):
                problems.append(
                    f"rand-vc hierarchy dormant: {r.level_moves} level moves, max level {r.max_level}"
                )
            if not w.hierarchy_active and r.level_moves:
                problems.append(f"rand-vc moved {r.level_moves} levels; hierarchy should be bypassed")
        return problems


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    palette_ok: bool = True

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems and self.palette_ok

    def add(self, label: str, updates: int, error: str, max_color: int, palette: int) -> None:
        """Count one replay; a failed one counts all its updates as failed."""
        self.attempted += updates
        if error:
            self.failed += updates
            self.problems.append(f"{label}: {error.strip()}")
        if not palette or max_color > palette:
            self.palette_ok = False

    def gate(self) -> Tuple[float, int]:
        """failed_frac and max_color_ok, the correctness gate's two figures."""
        return self.failed / self.attempted, int(self.palette_ok)


def _tally(bench: Bench, replays: List[Replay], out: Outcome) -> None:
    for r in replays:
        out.add(r.engine, r.updates, r.error, r.max_color, r.palette)
    out.problems += bench.guard_problems(replays)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(bench: Bench, name: str) -> List[float]:
    """Wall times of ``make_engine`` calls for ``name``, for SETUP_SECONDS or once.

    Each call starts from a collected heap, as a replay's does.
    """
    w = bench.w
    samples = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        built = MAKE_ENGINE(name, w.n, w.delta, seed=bench.seed, beta=bench.beta(name))
        samples.append(time.perf_counter() - t0)
        del built
        if time.perf_counter() - start >= SETUP_SECONDS:
            return samples


def replay_round(bench: Bench, speed: Speedometer) -> List[Replay]:
    """Replays of every engine in turn, each engine for SLOT_SECONDS or once.

    Cheap engines thus get as many samples per round as slow ones get time.
    """
    replays = []
    for name in ENGINES:
        start = time.perf_counter()
        while True:
            r = bench.replay(name)
            r.walk_s = speed.around()
            replays.append(r)
            if time.perf_counter() - start >= SLOT_SECONDS:
                break
    return replays


def steady_seconds(wall_s: float, walk_s: float, slope: float) -> float:
    """A wall time scaled to a machine whose walk takes REF_SECONDS.

    ``slope`` is how strongly the workload's work slows as the walk slows
    (``Workload.walk_slope``); 1 would scale in proportion, 0 not at all.
    """
    return wall_s * (REF_SECONDS / walk_s) ** slope


def measure(bench: Bench, seconds: float) -> Outcome:
    """End-to-end metrics, tracing off: medians over rounds of replays.

    Each round replays the trace once per engine, so every engine's
    replays spread over the whole run. An engine's throughput comes from
    the median of its replays' wall times, each scaled by
    ``steady_seconds``; the median of the raw wall times is printed beside
    it. ``setup_s`` sums each engine's median ``make_engine`` time, scaled
    the same way, over its replays' set-ups and the set-ups timed alone
    after each round. Peak RSS is read after the first round's replays, so
    that it depends neither on how many rounds fit nor on those set-ups.
    """
    w = bench.w
    start = time.perf_counter()
    speed = Speedometer()
    rounds: List[List[Replay]] = []
    setups: Dict[str, List[Tuple[float, float]]] = {name: [] for name in ENGINES}
    rss = 0.0
    with probing(bench.probe):
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(replay_round(bench, speed))
            rss = rss or peak_rss_mb()
            for name in ENGINES:
                samples = setup_samples(bench, name)
                walk = speed.around()
                setups[name] += [(s, walk) for s in samples]

    out = Outcome({}, 0, 0)
    replays = [r for rnd in rounds for r in rnd]
    _tally(bench, replays, out)
    updates = len(bench.events)
    slope = w.walk_slope
    raw_setup = steady_setup = 0.0
    for name in ENGINES:
        mine = [r for r in replays if r.engine == name]
        rate = updates / statistics.median(steady_seconds(r.wall_s, r.walk_s, slope) for r in mine)
        raw_rate = updates / statistics.median(r.wall_s for r in mine)
        out.metrics[f"{name}.updates_per_s"] = (rate, "1/s")
        out.notes.append(f"{name}: raw {raw_rate:.6g} 1/s, scaled {rate:.6g} 1/s ({len(mine)} replays)")
        setups[name] += [(r.setup_s, r.walk_s) for r in mine]
        raw_setup += statistics.median(s for s, _ in setups[name])
        steady_setup += statistics.median(steady_seconds(s, walk, slope) for s, walk in setups[name])
    out.metrics["setup_s"] = (steady_setup, "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    failed_frac, ok = out.gate()
    walks = [r.walk_s for r in replays]
    out.notes += [
        f"setup: raw {raw_setup:.6g} s, scaled {steady_setup:.6g} s "
        f"({sum(map(len, setups.values()))} set-ups)",
        f"rounds = {len(rounds)}, walk time {min(walks) * 1e3:.2f}..{max(walks) * 1e3:.2f} ms "
        f"(reference {REF_SECONDS * 1e3:.0f} ms), walk slope {slope}",
        f"failed_frac = {failed_frac} ratio",
        f"max_color_ok = {ok} count",
    ]
    return out


# -- traced run ----------------------------------------------------------------


class Counts:
    """Per-update receipt figures, summed at the ``DynamicGraph.apply`` boundary."""

    SUMS = ("cells_touched", "recolor_calls", "level_moves", "fix_iterations",
            "coords_rewritten", "tree_visits")

    def __init__(self) -> None:
        self.inserts = self.conflicts = 0
        self.sums = dict.fromkeys(self.SUMS, 0)
        self.chain_max = self.visits_max = 0
        self.pool_min: Optional[int] = None

    def add(self, receipt) -> None:
        st = receipt.stats
        recolors = st.get("recolor_calls", 0)
        if receipt.kind == INSERT:
            self.inserts += 1
            self.conflicts += recolors > 0
        sums = self.sums
        for key in self.SUMS:
            sums[key] += st.get(key, 0)
        self.chain_max = max(self.chain_max, st.get("chain_len_max", 0))
        self.visits_max = max(self.visits_max, st.get("tree_visits", 0))
        if recolors:
            pool = st.get("pool_size_min", 0)
            self.pool_min = pool if self.pool_min is None else min(self.pool_min, pool)


@dataclass
class CountPass:
    counts: Counts
    bytes_per_vertex: float
    bytes_per_edge: float
    engine: object
    max_color: int
    palette: int
    max_level: int
    error: str


def count_pass(bench: Bench, name: str) -> CountPass:
    """Bare replay reading every receipt; tracemalloc covers set-up and a prefix."""
    w, events = bench.w, bench.events
    probe = Probe()
    counts = Counts()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph, engine = harness.make_engine(name, w.n, w.delta, seed=bench.seed, beta=bench.beta(name))
        empty = tracemalloc.get_traced_memory()[0]
        watch_levels(engine, probe)
        prefix = min(len(events), MEM_PREFIX)
        for i in range(prefix):
            counts.add(graph.apply(events[i]))
        edge_bytes = tracemalloc.get_traced_memory()[0] - empty
    finally:
        tracemalloc.stop()
    edges_at_prefix = graph.num_edges
    try:
        for i in range(prefix, len(events)):
            counts.add(graph.apply(events[i]))
        max_color, palette, error = check_colours(name, graph, engine, bench.stats.final_edges)
    except Exception:  # reported as a failed replay, never retried
        max_color, palette, error = 0, 0, traceback.format_exc(limit=4)
    return CountPass(
        counts, (empty - base) / w.n, edge_bytes / max(1, edges_at_prefix), engine,
        max_color, palette, probe.max_level, error,
    )


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(name: str, spans: tracing.ReplaySpans, wall: float, updates: int,
                  cp: CountPass) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of one engine; second item names a tracing fault."""
    us = 1e6 / updates
    kup = 1000.0 / updates
    layer = ENGINE_LAYER[name]
    buckets = spans.buckets()
    known = {"graph", "hierarchy", layer, "harness.self", "harness.setup", "harness.csv",
             "cli.self", "cli.parse", "verify", "gc"}
    fault = ""
    if set(buckets) - known:
        fault = f"{name}: spans outside the known layers: {sorted(set(buckets) - known)}"
    other = wall - sum(buckets.values())
    if other < -1e-6 or min(buckets.values(), default=0.0) < -1e-6:
        fault = f"{name}: self times do not add up to the traced wall time"
    b = lambda key: buckets.get(key, 0.0)  # noqa: E731
    by_name, calls = spans.by_name, spans.calls
    apply_us = sorted(s * 1e6 for s in spans.self_samples(tracing.APPLY))
    c = cp.counts
    m = {
        f"{name}.graph.self_us_per_update": b("graph") * us,
        f"{name}.{layer}.self_us_per_update": b(layer) * us,
        f"{name}.harness.self_us_per_update": b("harness.self") * us,
        f"{name}.harness.setup_us_per_update": b("harness.setup") * us,
        f"{name}.harness.csv_us_per_update": b("harness.csv") * us,
        f"{name}.cli.self_us_per_update": b("cli.self") * us,
        f"{name}.cli.parse_us_per_update": b("cli.parse") * us,
        f"{name}.verify.us_per_update": b("verify") * us,
        f"{name}.verify.audits": calls.get("harness.audit_engine", 0),
        f"{name}.gc.s_per_kupdate": b("gc") * kup,
        f"{name}.gc.collections": calls.get(tracing.GC, 0),
        f"{name}.other_us_per_update": other * us,
        f"{name}.traced_us_per_update": wall * us,
        f"{name}.mem_bytes_per_vertex": cp.bytes_per_vertex,
        f"{name}.mem_bytes_per_edge": cp.bytes_per_edge,
        f"{name}.cells_per_update": c.sums["cells_touched"] / updates,
        f"{name}.max_color": cp.max_color,
    }
    for label, q in (("p50", 0.5), ("p99", 0.99), ("p9999", 0.9999)):
        value = percentile(apply_us, q)
        m[f"{name}.graph.apply_us_{label}"] = value
        m[f"{name}.graph.apply_beyond_{label}"] = sum(1 for s in apply_us if s > value)
    eng = cp.engine
    if name == "rand-vc":
        m.update({
            "rand-vc.hierarchy.us_per_update": b("hierarchy") * us,
            "rand-vc.hierarchy.level_moves_per_kupdate": c.sums["level_moves"] * kup,
            "rand-vc.hierarchy.max_level": cp.max_level,
            "rand-vc.hierarchy.cells_per_update": eng.hier.cells_touched / updates,
            "rand-vc.rand_coloring.recolors_per_kupdate": c.sums["recolor_calls"] * kup,
            "rand-vc.rand_coloring.chain_len_max": c.chain_max,
            "rand-vc.rand_coloring.pool_size_min": c.pool_min or 0,
            "rand-vc.rand_coloring.conflict_insert_frac": c.conflicts / max(1, c.inserts),
        })
    elif name == "det-vc":
        fix = by_name.get(tracing.FIX, 0.0)
        m.update({
            "det-vc.det_coloring.fix_us_per_update": fix * us,
            "det-vc.det_coloring.prefix_us_per_update": (b(layer) - fix) * us,
            "det-vc.det_coloring.fix_iterations_per_kupdate": c.sums["fix_iterations"] * kup,
            "det-vc.det_coloring.coords_rewritten_per_kupdate": c.sums["coords_rewritten"] * kup,
            "det-vc.det_coloring.bound_violations": eng.flip_budget_violations
            + eng.argmin_bound_violations + eng.pair_count_violations + eng.drop_bound_violations,
        })
    elif name == "edge-c":
        m.update({
            "edge-c.edge_coloring.search_us_per_update": by_name.get(tracing.SEARCH, 0.0) * us,
            "edge-c.edge_coloring.tree_visits_per_update": c.sums["tree_visits"] / updates,
            "edge-c.edge_coloring.tree_visits_max": c.visits_max,
        })
    else:
        m["greedy-baseline.det_coloring.recolors_per_kupdate"] = c.sums["recolor_calls"] * kup
    return m, fault


def profile(bench: Bench, spans_stem: Path) -> Outcome:
    """Per-layer metrics: untraced round, traced round, counting pass."""
    w = bench.w
    rec = tracing.SpanRecorder()
    traced = []
    with probing(bench.probe):
        plain = []
        for name in ENGINES:
            plain.append(bench.replay(name))
        with tracing.traced(rec):
            for name in ENGINES:
                r = bench.replay(name, rec)
                traced.append((r, rec.buf[: tracing.FIELDS * r.spans]))
    rec.reset()

    out = Outcome({}, 0, 0)
    _tally(bench, plain + [r for r, _ in traced], out)
    metrics: Dict[str, float] = {}
    for r, buf in traced:
        cp = count_pass(bench, r.engine)
        out.add(f"{r.engine} counting pass", len(bench.events), cp.error, cp.max_color, cp.palette)
        spans = tracing.ReplaySpans(rec.names, buf)
        m, fault = layer_metrics(r.engine, spans, r.wall_s, r.updates, cp)
        if fault:
            out.problems.append(fault)
        metrics.update(m)
    tracing.write_spans(str(spans_stem), w.name, rec.names, [(r.engine, buf) for r, buf in traced])

    updates = len(bench.events)
    failed_frac, ok = out.gate()
    metrics.update({
        "cli.parse_us_per_update": statistics.mean(
            metrics[f"{name}.cli.parse_us_per_update"] for name in ENGINES),
        "trace.max_degree_over_delta": bench.stats.max_degree / w.delta,
        "trace.insert_frac": bench.stats.inserts / updates,
        "tracing_overhead_frac": sum(r.wall_s for r, _ in traced)
        / sum(r.wall_s for r in plain) - 1.0,
        "failed_frac": failed_frac,
        "max_color_ok": ok,
    })
    units = {m.name: m.unit for m in PER_LAYER}
    if set(metrics) != set(units):
        raise RuntimeError(f"traced metrics differ from the table: {set(metrics) ^ set(units)}")
    out.metrics = {k: (metrics[k], units[k]) for k in units}
    return out
