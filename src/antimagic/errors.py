"""Exception hierarchy.

Errors split into two groups so the CLI can map them to exit codes:
``UsageError`` subclasses are bad parameters (exit 2), ``InvariantError``
subclasses are violated mathematical claims (exit 1).
"""

from __future__ import annotations


class AntimagicError(Exception):
    """Base class for all package errors."""


class UsageError(AntimagicError):
    """Caller supplied parameters outside an operation's domain."""


class InvariantError(AntimagicError):
    """A checked mathematical property failed to hold."""


# --- graph surgery -----------------------------------------------------------

class GraphSurgeryError(UsageError):
    """Merge/split preconditions violated."""


class MergeWouldCreateLoop(GraphSurgeryError):
    pass


class MergeWouldCreateParallelEdge(GraphSurgeryError):
    pass


class OverlappingBlocks(GraphSurgeryError):
    pass


class IdCollision(GraphSurgeryError):
    pass


class UnknownVertex(GraphSurgeryError):
    pass


class NotIncident(GraphSurgeryError):
    pass


class EmptyPart(GraphSurgeryError):
    pass


class LabelDomainMismatch(UsageError):
    """Labeling domain is not exactly the edge set of the graph."""


# --- tables ------------------------------------------------------------------

class InvalidK(UsageError):
    pass


class ObservationViolated(InvariantError):
    def __init__(self, index, detail):
        super().__init__(f"observation {index} violated: {detail}")
        self.index = index
        self.detail = detail


class SequenceSchemeViolated(InvariantError):
    pass


# --- families ----------------------------------------------------------------

class InvalidParity(UsageError):
    pass


class InvalidFactorization(UsageError):
    pass


class InvalidParams(UsageError):
    pass


class NoValidPartition(UsageError):
    pass


class ConditionViolated(UsageError):
    def __init__(self, which, detail):
        super().__init__(f"condition ({which}) violated: {detail}")
        self.which = which
        self.detail = detail


class InvalidIndices(UsageError):
    pass


# --- partition ---------------------------------------------------------------

class InfeasibleShape(UsageError):
    """No equal-sum partition exists for the requested block shape."""


# --- solver ------------------------------------------------------------------

class K2Component(UsageError):
    """Graph has a K2 component, which admits no local antimagic labeling."""
