"""Exception types shared across the toolkit, and the readers of outside input."""

import json
import re


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

# An integer is an optional minus sign and 1 to 640 ASCII digits (int() takes
# that many under any sys.set_int_max_str_digits limit), and seconds are ASCII
# digits with an optional fraction; int() and float() would also take "1_0",
# " 3", "+3", other scripts' digits and "nan".
INT = r"-?[0-9]{1,640}"


def read_int(text: str, what: str) -> int:
    """The integer ``text`` spells, or an InvalidParameter naming ``what``."""
    if not re.fullmatch(INT, text):
        raise InvalidParameter(f"{what} needs an integer, got {text!r}")
    return int(text)


def read_seconds(text: str, what: str) -> float:
    """The number of seconds ``text`` spells, like ``read_int``."""
    if not re.fullmatch(r"[0-9]+(?:\.[0-9]+)?", text):
        raise InvalidParameter(f"{what} needs a number of seconds, got {text!r}")
    return float(text)


def read_json(path: str, parse, what: str):
    """``parse`` of the UTF-8 JSON file at ``path``; a MALFORMED_INPUT error,
    in reading or in ``parse``, becomes an InvalidParameter naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except MALFORMED_INPUT as exc:
            raise InvalidParameter(f"malformed {what} {path}: "
                                   f"{type(exc).__name__}: {exc}") from None
