"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: InputError -> 1, MathInvariantError -> 2,
GenericityExhausted -> 3, any other exception -> 4.
"""


class MixmultError(Exception):
    """Base class for all package-specific errors."""


class InputError(MixmultError):
    """Bad user input: malformed files, precondition violations, unknown names."""


class ParseError(InputError):
    """Syntax or semantic error in a problem file, pinned to a position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class MathInvariantError(MixmultError):
    """A state the underlying theory proves impossible; signals a bug upstream."""


class GenericityExhausted(MixmultError):
    """Random choices could not be certified within the retry budget.

    Raised by ``config.certified_search``, the one draw-then-certify loop,
    when every attempt is rejected: the field is too small, the budget too
    low, or there is a bug.
    """
