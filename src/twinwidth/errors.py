"""Exception types shared across the toolkit."""


class TwinwidthError(Exception):
    """Base class for all errors raised by this package."""


# --- trigraph construction / queries ---

class RangeError(TwinwidthError):
    """A vertex id lies outside 0..n-1."""


class LoopError(TwinwidthError):
    """An edge joins a vertex to itself."""


class OverlapError(TwinwidthError):
    """The same vertex pair appears as both a black and a red edge."""


class PartitionError(TwinwidthError):
    """Parts are not disjoint, not nonempty, or do not cover the vertex set."""


# --- contraction sequences ---

class SequenceError(TwinwidthError):
    """A merge step is malformed or references a dead part."""


class PartialSequenceError(SequenceError):
    """A full sequence was required but the steps stop early."""


# --- coloring / solver oracles ---

class RedEdgeError(TwinwidthError):
    """A plain-graph operation was applied to a trigraph with red edges."""


class UncoloredError(TwinwidthError):
    """A coloring does not assign a color to every vertex."""


class BudgetExceeded(TwinwidthError):
    """An exact search ran out of its node-expansion budget.

    Carries the best bounds known at the point of interruption (either
    may be None when no bound was established).
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


# --- CNF formulas and reductions ---

class ParseError(TwinwidthError):
    """Malformed input file."""


class DialectError(TwinwidthError):
    """A clause violates the requested CNF dialect."""


class UnusedVariableError(TwinwidthError):
    """A declared variable occurs in no clause."""


class TooFewVariablesError(TwinwidthError):
    """The coloring-number reduction needs at least two variables."""


class NotSatisfyingError(TwinwidthError):
    """The given assignment does not satisfy the formula."""


class NotNaeSatisfyingError(TwinwidthError):
    """The given assignment does not not-all-equal-satisfy the formula."""


class NotProperError(TwinwidthError):
    """The given coloring is not proper."""


class TooManyColorsError(TwinwidthError):
    """The given coloring uses more colors than the extraction allows."""


class StructureError(TwinwidthError):
    """A structural fact guaranteed by the construction failed to hold.

    On correct inputs this is unreachable; it signals a bug in a checker
    or builder rather than a user error.
    """


class KRangeError(TwinwidthError):
    """Lifting to k colors requires 3 <= k <= threecol.MAX_K."""
