"""Exception types shared across the colorbench engines and harness."""


class ColorbenchError(Exception):
    """Base class for all colorbench errors."""


class SelfLoop(ColorbenchError):
    """An update named the same vertex twice."""


class DuplicateEdge(ColorbenchError):
    """Insert of an edge that is already present."""


class MissingEdge(ColorbenchError):
    """Delete of an edge that is not present."""


class DegreeBoundExceeded(ColorbenchError):
    """Insert would push an endpoint past the declared degree bound."""


class UnknownVertex(ColorbenchError):
    """Vertex id outside the declared universe [0, n)."""


class InvalidBase(ColorbenchError):
    """Level-partition growth base below the supported minimum."""


class DeltaTooSmall(ColorbenchError):
    """Degree bound too small for the tuple-coloring parameter scheme."""


class RangeOutOfBounds(ColorbenchError):
    """Color-range query outside [1, palette end]."""


class InternalInvariantViolation(ColorbenchError):
    """A structural invariant the algorithms guarantee was observed broken.

    Raising this always indicates a bug in the engine (or corrupted state),
    never a bad input.
    """


class TraceParseError(ColorbenchError):
    """Malformed trace file."""


class InvalidSpec(ColorbenchError):
    """Trace generator parameters are unusable."""
