"""Dynamic graph coloring engines with runtime-checkable invariants.

Three engines over a common dynamic-graph core:

- :class:`RandVertexColoring` — randomized (delta+1)-vertex coloring over a
  hierarchical level partition, expected O(log delta) amortized work.
- :class:`TupleVertexColoring` — deterministic vertex coloring with L-tuple
  colors and a self-repairing per-prefix degree bound.
- :class:`EdgeColoring` — (2*delta-1)-edge coloring with O(log delta)
  worst-case work via per-vertex counting trees.

Plus brute-force oracles (:mod:`colorbench.verify`) and a trace harness /
CLI (:mod:`colorbench.harness`, ``colorbench``).
"""

from .det_coloring import (
    DELTA_MIN,
    DetParams,
    GreedyVertexColoring,
    TupleVertexColoring,
    make_det_engine,
)
from .edge_coloring import EdgeColoring
from .errors import (
    ColorbenchError,
    DegreeBoundExceeded,
    DeltaTooSmall,
    DuplicateEdge,
    InputError,
    InternalInvariantViolation,
    InvalidBase,
    InvalidSpec,
    MissingEdge,
    RangeOutOfBounds,
    SelfLoop,
    TraceParseError,
    UnknownVertex,
)
from .graph import DELETE, INSERT, DynamicGraph, UpdateEvent, UpdateReceipt, new_graph
from .hierarchy import LevelPartition
from .rand_coloring import BlankUniqueView, RandVertexColoring

__all__ = [
    "BlankUniqueView",
    "ColorbenchError",
    "DELETE",
    "DELTA_MIN",
    "DegreeBoundExceeded",
    "DeltaTooSmall",
    "DetParams",
    "DuplicateEdge",
    "DynamicGraph",
    "EdgeColoring",
    "GreedyVertexColoring",
    "INSERT",
    "InputError",
    "InternalInvariantViolation",
    "InvalidBase",
    "InvalidSpec",
    "LevelPartition",
    "MissingEdge",
    "RandVertexColoring",
    "RangeOutOfBounds",
    "SelfLoop",
    "TraceParseError",
    "TupleVertexColoring",
    "UnknownVertex",
    "UpdateEvent",
    "UpdateReceipt",
    "new_graph",
    "make_det_engine",
]
