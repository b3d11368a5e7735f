"""Exception types shared across the toolkit.

A failed precondition raises `TwinwidthError` with a message that names
it.  A subclass exists only where a caller catches it by type, or where
the README names it.
"""


class TwinwidthError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TwinwidthError):
    """Malformed input file."""


class SequenceError(TwinwidthError):
    """A contraction sequence is malformed, partial, or for another n."""


class OverlapError(TwinwidthError):
    """The same vertex pair appears as both a black and a red edge."""


class BudgetExceeded(TwinwidthError):
    """An exact search ran out of its node-expansion budget.

    `exact_twinwidth` sets `lower` to the width it was trying, and
    `chromatic_number` sets both bounds; `is_k_colorable` sets neither.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
