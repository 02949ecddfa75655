"""Seeded workloads of the colorbench benchmark.

A workload turns a seed into a list of ``UpdateEvent``s; the engines see
nothing else. Each one stresses different layers:

- ``block-churn`` is the paper's regime: dense blocks of Delta+1 vertices
  keep degrees near Delta, and rand-vc runs with beta=2 so that the level
  hierarchy actually moves vertices.
- ``sparse-large`` has many vertices and few edges: engine work is light
  and per-vertex allocation, GC, ``graph.apply`` and harness bookkeeping
  dominate. The hierarchy stays dormant (the bypass case).
- ``audited-run`` is the documented CLI path with periodic audits, a
  per-update CSV and an audit log, so ``verify``, the CSV sink and trace
  parsing carry weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from colorbench import harness
from colorbench.graph import DELETE, INSERT, UpdateEvent

BLOCK_CHURN = "block-churn"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    delta: int
    ops: int
    mode: str  # a harness generator mode, or BLOCK_CHURN
    rand_beta: float  # beta given to rand-vc; the other engines ignore it
    via_cli: bool  # replay through ``cli.main run`` with audits and sinks
    hierarchy_active: bool  # regime guard: rand-vc must (not) move levels
    # How strongly the workload's wall times grow with the speedometer's
    # walk time (``bench.Speedometer``): the least-squares slope of a run's
    # log median replay time on its log mean walk time, across twenty seeded
    # runs on a shared 2-vCPU Xeon host, pooled over the four engines and
    # rounded to 0.1. Fitted within single runs the slope reads lower
    # (0.6 to 0.9): one walk measures contention with noise, and noise in
    # the regressor flattens a fitted slope.
    walk_slope: float
    why: str


AUDIT_EVERY = 1000
# block-churn's shape: BLOCKS disjoint blocks of DELTA+1 vertices, each
# filled to BLOCK_FILL of its pairs before the churn starts.
BLOCKS = 8
DELTA = 128
BLOCK_FILL = 0.9

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            BLOCK_CHURN,
            n=BLOCKS * (DELTA + 1),
            delta=DELTA,
            ops=120_000,
            mode=BLOCK_CHURN,
            rand_beta=2.0,
            via_cli=False,
            hierarchy_active=True,
            walk_slope=1.3,
            why="8 blocks of 129 vertices, delta=128, 90% fill then churn, "
            "rand-vc beta=2: degrees near delta and an active level hierarchy, "
            "the paper's regime",
        ),
        Workload(
            "sparse-large",
            n=30_000,
            delta=32,
            ops=30_000,
            mode="uniform-random",
            rand_beta=21.0,
            via_cli=False,
            hierarchy_active=False,
            walk_slope=1.0,
            why="uniform-random, n=30000, 30000 updates, delta=32, beta=21: light "
            "engine work, so allocation, GC, graph.apply and harness bookkeeping "
            "dominate; hierarchy dormant",
        ),
        Workload(
            "audited-run",
            n=1000,
            delta=32,
            ops=50_000,
            mode="conflict-heavy",
            rand_beta=21.0,
            via_cli=True,
            hierarchy_active=False,
            walk_slope=0.9,
            why="cli run on conflict-heavy, n=1000, delta=32, audit every 1000 "
            "with CSV and audit log: exercises verify, CSV output and trace "
            "parsing",
        ),
    )
}


def block_churn(seed: int, ops: int) -> List[UpdateEvent]:
    """Fill BLOCKS disjoint blocks of DELTA+1 vertices, then churn inside them.

    Vertex ``b*(DELTA+1) + i`` is vertex i of block b. Inserts first take a
    random BLOCK_FILL share of each block's pairs, in random order. Each
    churn step then deletes a random live edge and inserts a random absent
    pair inside a random block. A block has DELTA+1 vertices, so no degree
    can exceed DELTA, and the trace is legal by construction.
    """
    rng = random.Random(seed)
    size = DELTA + 1
    pairs_per_block = size * (size - 1) // 2
    live: List[Tuple[int, int]] = []
    live_pos: Dict[Tuple[int, int], int] = {}
    block_edges = [0] * BLOCKS
    events: List[UpdateEvent] = []

    def insert(u: int, v: int) -> None:
        live_pos[(u, v)] = len(live)
        live.append((u, v))
        block_edges[u // size] += 1
        events.append(UpdateEvent(INSERT, u, v))

    def delete(e: Tuple[int, int]) -> None:
        idx = live_pos.pop(e)
        last = live.pop()
        if idx < len(live):
            live[idx] = last
            live_pos[last] = idx
        block_edges[e[0] // size] -= 1
        events.append(UpdateEvent(DELETE, *e))

    chosen: List[Tuple[int, int]] = []
    for b in range(BLOCKS):
        base = b * size
        pairs = [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        chosen += rng.sample(pairs, int(BLOCK_FILL * pairs_per_block))
    rng.shuffle(chosen)
    for u, v in chosen[:ops]:
        insert(u, v)

    while len(events) < ops:
        delete(live[rng.randrange(len(live))])
        if len(events) == ops:
            break
        open_blocks = [b for b in range(BLOCKS) if block_edges[b] < pairs_per_block]
        base = rng.choice(open_blocks) * size
        while True:
            i, j = rng.randrange(size), rng.randrange(size)
            if i == j:
                continue
            e = (base + min(i, j), base + max(i, j))
            if e not in live_pos:
                break
        insert(*e)
    return events


def make_trace(w: Workload, seed: int) -> List[UpdateEvent]:
    if w.mode == BLOCK_CHURN:
        return block_churn(seed, w.ops)
    return harness.generate(harness.TraceSpec(w.n, w.delta, w.ops, seed, w.mode))


@dataclass
class TraceStats:
    max_degree: int
    inserts: int
    final_edges: Set[Tuple[int, int]]


def trace_stats(events: List[UpdateEvent], n: int) -> TraceStats:
    """Replay the trace on plain sets: peak degree, inserts, final edges.

    Independent of the package, so it also serves as the reference edge set
    the engines' final colourings are checked against.
    """
    degree = [0] * n
    edges: Set[Tuple[int, int]] = set()
    peak = inserts = 0
    for ev in events:
        e = (min(ev.u, ev.v), max(ev.u, ev.v))
        if ev.kind == INSERT:
            edges.add(e)
            inserts += 1
            degree[e[0]] += 1
            degree[e[1]] += 1
            peak = max(peak, degree[e[0]], degree[e[1]])
        else:
            edges.remove(e)
            degree[e[0]] -= 1
            degree[e[1]] -= 1
    return TraceStats(peak, inserts, edges)
