"""Exception types, exit codes and the first-use forward, shared across
the package."""

# The command line's exit codes, one per kind of outcome.
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_FALSE_VERDICT = 3
EXIT_INTERNAL = 4


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


def forwarding(namespace: dict, forwarded: dict):
    """A module ``__getattr__`` (PEP 562) that resolves each name of
    ``forwarded`` (name -> module) on first use and binds it in ``namespace``.

    The first read binds whatever the target module holds at that moment.
    So a patcher patches the forwarding module before the target, as
    ``bench/tracing.py`` does; else its undo leaves the patch bound here."""
    def __getattr__(name):
        if name not in forwarded:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # ``__import__``, unlike ``importlib.import_module``, shows in ``python -X importtime``
        value = namespace[name] = getattr(__import__(f"{__package__}.{forwarded[name]}", fromlist=[name]), name)
        return value

    return __getattr__
