"""Exception types shared across the package.

Every input error derives from `InputError`, a ValueError, so casual
callers can catch one thing, and `InputError` means exit 3; the distinct
classes exist because tests pin down which failure mode occurred.
"""


class InputError(ValueError):
    """Input the package refuses: bad parameters, oversized requests, bad graph6."""


class ParameterDomainError(InputError):
    """A named graph family was requested with out-of-range parameters."""


class SizeGuardError(InputError):
    """An enumeration was requested above the configured size guard."""


class Graph6ParseError(InputError):
    """Malformed graph6 input. `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph6FormatError(InputError):
    """Input is a related format (sparse6/digraph6) this package does not read."""


class Graph6RangeError(InputError):
    """Graph order outside what the graph6 encoding supports."""


class ValuationError(InputError):
    """p-adic valuation requested for 0, where it is undefined."""


class InternalInconsistencyError(AssertionError):
    """A cross-check between two supposedly-equal computation paths failed.

    Raised only when an invariant the implementation relies on is violated;
    seeing this means a bug, not bad user input.
    """
