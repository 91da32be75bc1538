"""Exception hierarchy for the ``repro`` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  The more specific subclasses signal the
pre-condition that failed (e.g. the input graph is not 2-edge-connected) or an
internal invariant of the paper's algorithm that was violated (which would
indicate a bug, not a user error).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class GraphFormatError(ReproError, ValueError):
    """The input graph is malformed (missing weights, self loops, ...).

    Also a :class:`ValueError`: format problems are bad argument values,
    and callers that guard generic ``except ValueError`` (e.g. the serving
    layer's request translation) should catch these too.
    """


class InvalidFailurePlanError(ReproError, ValueError):
    """A failure plan names a node or an edge the graph does not have.

    Also a :class:`ValueError`, like :class:`GraphFormatError`: the plan is
    a bad argument value.  The serving layer answers it with
    ``invalid-failures``.
    """


class NotConnectedError(ReproError):
    """The input graph is not connected."""


class NotTwoEdgeConnectedError(ReproError):
    """The input graph has a bridge, so no 2-ECSS / TAP solution exists."""


class NotKEdgeConnectedError(ReproError):
    """The input graph has edge connectivity below ``k``, so no k-ECSS exists.

    Raised by the k-ECSS layer (``k >= 3``); the ``k = 2`` entry points keep
    raising :class:`NotTwoEdgeConnectedError` so existing callers and the
    serving layer's error mapping are unchanged.
    """


class NotATreeError(ReproError):
    """The supplied edge set does not form a spanning tree."""


class InvariantViolation(ReproError):
    """An invariant proven in the paper failed at runtime.

    This signals an implementation bug (or a genuine gap in the paper);
    it is raised only when validation is enabled.
    """


class SolverError(ReproError):
    """An exact solver (MILP / brute force) failed or hit its limits."""


class SimulationError(ReproError):
    """The CONGEST simulator detected a protocol violation.

    The most common cause is a node program sending a message that exceeds
    the per-edge bandwidth of the model.
    """
