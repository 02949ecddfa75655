"""Exception types shared across the colorbench engines and harness."""


class ColorbenchError(Exception):
    """Base class for all colorbench errors."""


class InputError(ColorbenchError):
    """Bad input: a refused update, a malformed trace or an unusable parameter.
    A replay sets ``update``, the 1-based index of the update at fault."""

    update: int | None = None

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.update is None else f"update {self.update}: {message}"


class SelfLoop(InputError):
    """An update named the same vertex twice."""


class DuplicateEdge(InputError):
    """Insert of an edge that is already present."""


class MissingEdge(InputError):
    """Delete of an edge that is not present."""


class DegreeBoundExceeded(InputError):
    """Insert would push an endpoint past the declared degree bound."""


class UnknownVertex(InputError):
    """Vertex id outside the declared universe [0, n)."""


class InvalidBase(InputError):
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


class TraceParseError(InputError):
    """Malformed trace file."""


class InvalidSpec(InputError):
    """Trace generator parameters are unusable."""
