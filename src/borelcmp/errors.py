"""Exception types shared across the package."""


class BorelcmpError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BorelcmpError):
    """A value violates a documented precondition or invariant."""


class ParseError(BorelcmpError):
    """A literal could not be parsed; message names the offending token."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def checked_natural(n, message: str, least: int = 0) -> int:
    """``n``, an int and no bool, when it is at least ``least``; else a
    DomainError of ``message`` followed by the value."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise DomainError(f"{message}, got {n!r}")
    return n
