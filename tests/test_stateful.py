"""Stateful property test: every engine under a mix of valid and refused updates.

A Hypothesis state machine replays random updates against one engine and a
model edge set. Valid updates must be accepted; self-loops, duplicate
inserts, phantom deletes, over-bound inserts and unknown vertices must be
refused with their own error and leave the graph and the engine exactly as
they were. After every step the deep audit must pass.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from colorbench import (
    DegreeBoundExceeded,
    DuplicateEdge,
    InputError,
    MissingEdge,
    SelfLoop,
    UnknownVertex,
    harness,
)
from colorbench.graph import DELETE, INSERT, UpdateEvent
from colorbench.rand_coloring import RandVertexColoring

# (engine, degree bound); None is adaptive mode. det-vc runs at delta = 16,
# the smallest bound at which the tuple engine is used, not the greedy one.
# Every machine runs at beta = 2, so rand-vc at delta = 3 can never move a
# level (beta**4 = 16 >= delta); at delta = 20 a vertex filled past 16
# neighbors at its level is promoted.
CONFIGS = [
    ("rand-vc", 3),
    ("rand-vc", 20),
    ("rand-vc", None),
    ("det-vc", 16),
    ("edge-c", 3),
    ("edge-c", None),
    ("greedy-baseline", 3),
]


class EngineMachine(RuleBasedStateMachine):
    def __init__(self, name, delta, tally):
        super().__init__()
        self.name = name
        self.delta = delta
        self.tally = tally  # rand-vc's level moves and refusals, over every run

    @initialize(data=st.data(), seed=st.integers(0, 3))
    def build(self, data, seed):
        # at least delta + 1 vertices, so that a vertex can reach the bound
        least = (self.delta or 1) + 1
        n = self.n = data.draw(st.integers(least, max(20, least + 3)))
        self.graph, self.engine = harness.make_engine(self.name, n, self.delta, seed=seed, beta=2)
        self.edges = set()
        self.degree = [0] * n

    # -- the model ---------------------------------------------------------

    def refusal(self, kind, u, v):
        """The error the graph must raise for this update, or None."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return UnknownVertex
        if u == v:
            return SelfLoop
        e = (min(u, v), max(u, v))
        if kind == DELETE:
            return None if e in self.edges else MissingEdge
        if e in self.edges:
            return DuplicateEdge
        if self.delta is not None and max(self.degree[u], self.degree[v]) >= self.delta:
            return DegreeBoundExceeded
        return None

    def snapshot(self):
        g, eng = self.graph, self.engine
        adjacency = [list(a.items()) for a in g._adj]
        if self.name == "edge-c":
            colors = list(eng.edge_colors().items())
        else:
            colors = eng.colors()
        # the engine's own structures: rand-vc's levels and color tables,
        # edge-c's trees and, in adaptive mode, its color -> endpoint maps
        state = None
        if isinstance(eng, RandVertexColoring):
            state = list(eng.hier.level), [list(m.items()) for m in eng.mu]
        elif self.name == "edge-c":
            trees = [None if t is None else list(t) for t in eng.tree]
            held = None if eng.held is None else [list(m.items()) for m in eng.held]
            state = trees, held
        return g.num_edges, g.seq, adjacency, colors, state

    def step(self, kind, u, v):
        expected = self.refusal(kind, u, v)
        if expected is None:
            receipt = self.graph.apply(UpdateEvent(kind, u, v))
            assert tuple(receipt.stats) == self.engine.RECEIPT_FIELDS
            self.tally["level moves"] += receipt.stats.get("level_moves", 0)
            e = (min(u, v), max(u, v))
            sign = 1 if kind == INSERT else -1
            (self.edges.add if kind == INSERT else self.edges.remove)(e)
            self.degree[u] += sign
            self.degree[v] += sign
            return
        before = self.snapshot()
        if isinstance(self.engine, RandVertexColoring) and max(before[-1][0], default=4) > 4:
            self.tally["refusals above level 4"] += 1
        try:
            self.graph.apply(UpdateEvent(kind, u, v))
        except InputError as exc:
            assert type(exc) is expected, (exc, expected)
        else:
            raise AssertionError(f"{kind} {u} {v} accepted, expected {expected.__name__}")
        assert self.snapshot() == before

    def vertex(self, data):
        return data.draw(st.integers(0, self.n - 1))

    # -- rules ---------------------------------------------------------------

    @rule(data=st.data(), kind=st.sampled_from([INSERT, DELETE]))
    def update(self, data, kind):
        self.step(kind, self.vertex(data), self.vertex(data))

    @rule(data=st.data(), kind=st.sampled_from([INSERT, DELETE]), above=st.booleans())
    def unknown_vertex(self, data, kind, above):
        # one past either end of [0, n)
        self.step(kind, self.vertex(data), self.n if above else -1)

    @rule(data=st.data(), kind=st.sampled_from([INSERT, DELETE]))
    def self_loop(self, data, kind):
        u = self.vertex(data)
        self.step(kind, u, u)

    @precondition(lambda self: self.edges)
    @rule(data=st.data(), flip=st.booleans())
    def delete_live(self, data, flip):
        u, v = data.draw(st.sampled_from(sorted(self.edges)))
        self.step(DELETE, *((v, u) if flip else (u, v)))

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def insert_duplicate(self, data):
        self.step(INSERT, *data.draw(st.sampled_from(sorted(self.edges))))

    @rule(data=st.data())
    def fill_vertex(self, data):
        # insert at one vertex until it reaches the bound, then once more
        u = self.vertex(data)
        for v in range(self.n):
            if self.delta is not None and self.degree[u] >= self.delta:
                break
            if self.refusal(INSERT, u, v) is None:
                self.step(INSERT, u, v)
        self.step(INSERT, u, (u + 1) % self.n)

    # -- after every step ------------------------------------------------------

    @invariant()
    def deep_audit_passes(self):
        reports = harness.audit_engine(self.name, self.graph, self.engine, deep=True)
        assert [check for check, report in reports if not report.passed] == []
        assert self.graph.num_edges == len(self.edges)


@pytest.mark.parametrize("name, delta", CONFIGS)
def test_refused_updates_change_nothing_and_audits_pass(name, delta):
    tally = Counter()
    run_state_machine_as_test(
        lambda: EngineMachine(name, delta, tally),
        settings=settings(max_examples=25, stateful_step_count=40, deadline=None),
    )
    if (name, delta) == ("rand-vc", 20):
        # levels moved, and some refusals met a vertex above level 4
        assert tally["level moves"] > 0 and tally["refusals above level 4"] > 0, tally
