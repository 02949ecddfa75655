"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions (a test keeps the two in step). For each per-layer metric the
table also records which end-to-end metric it should move and on which
workload, so that a later change can state its prediction by name.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

ENGINES = ("rand-vc", "det-vc", "edge-c", "greedy-baseline")
# The package module holding each engine; greedy lives beside det-vc.
ENGINE_LAYER = {
    "rand-vc": "rand_coloring",
    "det-vc": "det_coloring",
    "edge-c": "edge_coloring",
    "greedy-baseline": "det_coloring",
}

ALL = "block-churn, sparse-large, audited-run"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end only
    moves: str = ""  # per-layer only: end-to-end metric it should move
    where: str = ""  # per-layer only: workloads on which it does


END_TO_END: List[Metric] = [
    *(Metric(f"{e}.updates_per_s", "1/s", "higher", 0.25) for e in ENGINES),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
]


def _engine_metrics(e: str) -> List[Metric]:
    ups = f"{e}.updates_per_s"
    layer = ENGINE_LAYER[e]
    out = [
        Metric(f"{e}.graph.self_us_per_update", "us", "lower", moves=ups,
               where="all; largest share for greedy-baseline on sparse-large"),
    ]
    for p in ("p50", "p99", "p9999"):
        out.append(Metric(f"{e}.graph.apply_us_{p}", "us", "lower", moves=ups, where=ALL))
        out.append(Metric(f"{e}.graph.apply_beyond_{p}", "count", "lower", moves=ups, where=ALL))
    out += [
        Metric(f"{e}.{layer}.self_us_per_update", "us", "lower", moves=ups,
               where="block-churn"),
        Metric(f"{e}.harness.self_us_per_update", "us", "lower", moves=ups, where=ALL),
        Metric(f"{e}.harness.setup_us_per_update", "us", "lower",
               moves=f"setup_s, {ups}", where="sparse-large"),
        Metric(f"{e}.harness.csv_us_per_update", "us", "lower", moves=ups,
               where="audited-run"),
        Metric(f"{e}.cli.self_us_per_update", "us", "lower", moves=ups,
               where="audited-run"),
        Metric(f"{e}.cli.parse_us_per_update", "us", "lower", moves=ups,
               where="audited-run"),
        Metric(f"{e}.verify.us_per_update", "us", "lower", moves=ups,
               where="audited-run; final audit on sparse-large"),
        Metric(f"{e}.verify.audits", "count", "lower", moves=ups, where="audited-run"),
        Metric(f"{e}.gc.s_per_kupdate", "s/kupdate", "lower", moves=ups,
               where="sparse-large"),
        Metric(f"{e}.gc.collections", "count", "lower", moves=ups, where="sparse-large"),
        Metric(f"{e}.other_us_per_update", "us", "lower", moves=ups, where=ALL),
        Metric(f"{e}.traced_us_per_update", "us", "lower", moves=ups, where=ALL),
        Metric(f"{e}.mem_bytes_per_vertex", "B", "lower",
               moves="setup_s, peak_rss_mb", where="sparse-large"),
        Metric(f"{e}.mem_bytes_per_edge", "B", "lower",
               moves="peak_rss_mb", where="sparse-large"),
        Metric(f"{e}.cells_per_update", "count", "lower", moves=ups, where=ALL),
        Metric(f"{e}.max_color", "count", "lower", moves="none (palette use)", where=ALL),
    ]
    return out


_RV = "rand-vc.updates_per_s"
_DV = "det-vc.updates_per_s"
_EC = "edge-c.updates_per_s"

PER_LAYER: List[Metric] = [
    *(m for e in ENGINES for m in _engine_metrics(e)),
    Metric("rand-vc.hierarchy.us_per_update", "us", "lower", moves=_RV,
           where="block-churn; no change on sparse-large and audited-run"),
    Metric("rand-vc.hierarchy.level_moves_per_kupdate", "1/kupdate", "lower", moves=_RV,
           where="block-churn; 0 on sparse-large and audited-run"),
    Metric("rand-vc.hierarchy.max_level", "count", "lower", moves=_RV, where="block-churn"),
    Metric("rand-vc.hierarchy.cells_per_update", "count", "lower", moves=_RV,
           where="block-churn"),
    Metric("rand-vc.rand_coloring.recolors_per_kupdate", "1/kupdate", "lower", moves=_RV,
           where="block-churn"),
    Metric("rand-vc.rand_coloring.chain_len_max", "count", "lower", moves=_RV,
           where="block-churn"),
    Metric("rand-vc.rand_coloring.pool_size_min", "count", "higher", moves=_RV,
           where="block-churn"),
    Metric("rand-vc.rand_coloring.conflict_insert_frac", "ratio", "lower", moves=_RV,
           where="block-churn"),
    Metric("det-vc.det_coloring.fix_us_per_update", "us", "lower", moves=_DV,
           where="block-churn, sparse-large (fresh vertices share their first colour)"),
    Metric("det-vc.det_coloring.prefix_us_per_update", "us", "lower", moves=_DV,
           where="block-churn"),
    Metric("det-vc.det_coloring.fix_iterations_per_kupdate", "1/kupdate", "lower",
           moves=_DV, where="block-churn, sparse-large"),
    Metric("det-vc.det_coloring.coords_rewritten_per_kupdate", "1/kupdate", "lower",
           moves=_DV, where="block-churn, sparse-large"),
    Metric("det-vc.det_coloring.bound_violations", "count", "lower", moves=_DV,
           where="block-churn"),
    Metric("edge-c.edge_coloring.search_us_per_update", "us", "lower", moves=_EC,
           where="block-churn, sparse-large"),
    Metric("edge-c.edge_coloring.tree_visits_per_update", "count", "lower", moves=_EC,
           where="block-churn, sparse-large"),
    Metric("edge-c.edge_coloring.tree_visits_max", "count", "lower", moves=_EC,
           where="block-churn, sparse-large"),
    Metric("greedy-baseline.det_coloring.recolors_per_kupdate", "1/kupdate", "lower",
           moves="greedy-baseline.updates_per_s", where="block-churn, audited-run"),
    Metric("cli.parse_us_per_update", "us", "lower",
           moves="every engine's updates_per_s", where="audited-run"),
    Metric("trace.max_degree_over_delta", "ratio", "higher", moves="regime guard",
           where="block-churn"),
    Metric("trace.insert_frac", "ratio", "higher", moves="regime description", where=ALL),
    Metric("tracing_overhead_frac", "ratio", "lower", moves="none (tracer cost)", where=ALL),
    Metric("failed_frac", "ratio", "lower", moves="correctness gate", where=ALL),
    Metric("max_color_ok", "count", "higher", moves="correctness gate", where=ALL),
]
