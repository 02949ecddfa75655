"""In-memory spans around the package's public entry points.

The benchmark never edits the package: ``traced()`` swaps each entry point
for a wrapper that records a span (name, start, end, parent) and restores
the original on exit. Interpreter garbage collections are recorded as
``gc`` spans through ``gc.callbacks``. A layer's self time is the time its
spans cover minus the time their child spans cover, so the self times of
one replay, plus whatever the benchmark's own call overhead leaves as
``other``, add up to the replay's wall time.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import time
from array import array
from types import SimpleNamespace
from typing import Dict, Iterator, List

from colorbench import cli, harness, verify
from colorbench.det_coloring import GreedyVertexColoring, TupleVertexColoring
from colorbench.edge_coloring import EdgeColoring
from colorbench.graph import DynamicGraph
from colorbench.hierarchy import LevelPartition
from colorbench.rand_coloring import RandVertexColoring

APPLY = "graph.DynamicGraph.apply"
GC = "gc"
FIX = "det_coloring.TupleVertexColoring.fix_invariant"
SEARCH = "edge_coloring.EdgeColoring.color"

# Spans whose self time belongs to a named part of a layer rather than to
# the layer its module name gives.
_BUCKET = {
    "harness.make_engine": "harness.setup",
    "harness.csv.writerow": "harness.csv",
    "harness.audit_engine": "verify",
    "harness.parse_trace": "cli.parse",
    "cli.main": "cli.self",
    "harness.run": "harness.self",
}

FIELDS = 4  # name id, parent index, start, end


class SpanRecorder:
    """Spans of one replay, stored flat in a float64 array.

    Span i occupies ``buf[4*i : 4*i+4]``. Its four values are appended
    with no allocation of a GC-tracked object in between, so a collection
    (which records a span of its own) cannot split them.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.buf = array("d")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        self.buf = array("d")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.buf) // FIELDS

    def wrap(self, fn, name: str):
        nid = float(self.name_id(name))
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            buf, stack = rec.buf, rec.stack
            buf.append(nid)
            buf.append(stack[-1])
            buf.append(0.0)
            buf.append(0.0)
            base = len(buf) - FIELDS
            stack.append(base // FIELDS)
            buf[base + 2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                buf[base + 3] = clock()
                stack.pop()

        return traced

    def on_gc(self, phase: str, info) -> None:
        buf, stack = self.buf, self.stack
        if phase == "start":
            buf.append(self._ids[GC])
            buf.append(stack[-1])
            buf.append(time.perf_counter())
            buf.append(0.0)
            stack.append(len(buf) // FIELDS - 1)
        else:
            buf[FIELDS * stack.pop() + 3] = time.perf_counter()


def _entry_points():
    """(owner, attribute, span name) for every traced entry point."""
    points = [
        (DynamicGraph, "apply", APPLY),
        (LevelPartition, "on_structural_update", "hierarchy.LevelPartition.on_structural_update"),
        (TupleVertexColoring, "fix_invariant", FIX),
        (EdgeColoring, "color", SEARCH),
        (harness, "run", "harness.run"),
        (harness, "make_engine", "harness.make_engine"),
        (harness, "audit_engine", "harness.audit_engine"),
        (harness, "parse_trace", "harness.parse_trace"),
        (cli, "main", "cli.main"),
    ]
    for cls in (RandVertexColoring, TupleVertexColoring, GreedyVertexColoring, EdgeColoring):
        module = cls.__module__.rsplit(".", 1)[-1]
        for attr in ("on_insert", "on_delete"):
            points.append((cls, attr, f"{module}.{cls.__name__}.{attr}"))
    for attr, fn in vars(verify).items():
        if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", "") == verify.__name__:
            points.append((verify, attr, f"verify.{attr}"))
    return points


@contextlib.contextmanager
def traced(rec: SpanRecorder) -> Iterator[None]:
    """Record spans at every entry point while the block runs."""
    rec.name_id(GC)
    saved = []
    try:
        for owner, attr, name in _entry_points():
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, rec.wrap(orig, name))
        writerow = "harness.csv.writerow"

        def writer(*args, **kwargs):
            return SimpleNamespace(writerow=rec.wrap(csv.writer(*args, **kwargs).writerow, writerow))

        saved.append((harness, "csv", harness.csv))
        harness.csv = SimpleNamespace(writer=writer)
        gc.callbacks.append(rec.on_gc)
        yield
    finally:
        if rec.on_gc in gc.callbacks:
            gc.callbacks.remove(rec.on_gc)
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def bucket(name: str) -> str:
    """The self-time bucket of a span: a layer, or a named part of one."""
    return _BUCKET.get(name) or name.split(".", 1)[0]


class ReplaySpans:
    """Self-time reduction of the spans of one replay."""

    def __init__(self, names: List[str], buf: array):
        self.names = names
        count = len(buf) // FIELDS
        ids = [int(x) for x in buf[0::FIELDS]]
        parents = [int(x) for x in buf[1::FIELDS]]
        dur = [e - s for s, e in zip(buf[2::FIELDS], buf[3::FIELDS])]
        child = [0.0] * count
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        self.self_s = [d - c for d, c in zip(dur, child)]
        self.ids = ids
        self.by_name: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for nid, s in zip(ids, self.self_s):
            name = self.names[nid]
            self.by_name[name] = self.by_name.get(name, 0.0) + s
            self.calls[name] = self.calls.get(name, 0) + 1

    def buckets(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, s in self.by_name.items():
            b = bucket(name)
            out[b] = out.get(b, 0.0) + s
        return out

    def self_samples(self, name: str) -> List[float]:
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [s for i, s in zip(self.ids, self.self_s) if i == nid]


def write_spans(path_stem: str, workload: str, names: List[str], segments) -> None:
    """Write spans as raw float64 quadruples plus a JSON index.

    ``segments`` holds (engine, span array) per replay; parent indexes are
    relative to the replay's first span.
    """
    index = {
        "workload": workload,
        "fields": ["name", "parent", "start_s", "end_s"],
        "dtype": "float64",
        "names": names,
        "replays": [],
    }
    offset = 0
    with open(path_stem + ".bin", "wb") as f:
        for engine, buf in segments:
            buf.tofile(f)
            count = len(buf) // FIELDS
            index["replays"].append(
                {"engine": engine, "workload": workload, "first": offset, "spans": count}
            )
            offset += count
    with open(path_stem + ".json", "w", encoding="utf-8") as f:
        json.dump(index, f, indent=1)
