"""Exception types shared across the toolkit."""


class PebbleError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(PebbleError, ValueError):
    """A constructor or operation received an out-of-domain parameter."""


class UnknownVertex(PebbleError, KeyError):
    """A vertex label does not exist in the graph at hand."""

    def __str__(self):  # KeyError quotes its payload by default
        return self.args[0] if self.args else ""


class DisconnectedGraph(PebbleError, ValueError):
    """An operation produced or received a graph that is not connected."""


class NotAdjacent(PebbleError, ValueError):
    """A pebbling move was requested between non-adjacent vertices."""


class InsufficientPebbles(PebbleError, ValueError):
    """A pebbling move was requested from a vertex holding fewer than 2 pebbles."""


class PreconditionNotMet(PebbleError):
    """A strategy's hypothesis does not hold for the given input.

    This is a report about the input, not an internal failure: the strategy
    makes no promise outside its hypothesis.
    """


class BudgetExceeded(PebbleError):
    """A search ran out of its node or time budget; the answer is inconclusive."""

    def __init__(self, message, nodes_explored=0, elapsed=0.0):
        super().__init__(message)
        self.nodes_explored = nodes_explored
        self.elapsed = elapsed


# What reading a malformed input file can raise: a parse error, a value of the
# wrong shape or type, or nesting deeper than the recursion limit.
MALFORMED_INPUT = (PebbleError, ArithmeticError, AttributeError, LookupError,
                   TypeError, ValueError, RecursionError)
