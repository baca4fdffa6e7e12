"""Raw group trees, built by hand, and their flattening; no literal builds
one, so this module loads on first use.  A leaf is the value it denotes (an
``Atom``, an ``IntSeqSpec`` or a ``GroupExpr``); only powers and products
have node types of their own."""

from __future__ import annotations

from ._value import Value
from .errors import DomainError, checked_natural
from .groups import Atom, GroupExpr, _product, _raised, dimension


class RawPower(Value):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: RawNode, exponent: int):
        checked_natural(exponent, "group exponent must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class RawProduct(Value):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        object.__setattr__(self, "parts", parts)


# or the ``sequences.IntSeqSpec`` of an ``S[...]`` literal, which loads that module
RawNode = Atom | RawPower | RawProduct | GroupExpr


def flattened(node: RawNode, budget: int, unsplit: list) -> tuple:
    """The term ``(runs, count)`` of a raw tree, its runs built only within
    ``budget`` (see ``groups``); the atom of each sequence that leaves an
    unsplit key is appended to ``unsplit``."""
    if isinstance(node, RawPower):
        return _raised(*flattened(node.base, budget, unsplit), node.exponent, budget)
    if isinstance(node, RawProduct):
        parts, count = [], 0
        for part in node.parts:
            runs, n = flattened(part, budget - count, unsplit)
            parts.append(runs)
            count += n
        return _product(parts, count, budget)
    if isinstance(node, GroupExpr):
        return node.runs, dimension(node)
    if isinstance(node, Atom):
        return ((node, 1),), 1
    from .sequences import IntSeqSpec, _sequence_term

    if isinstance(node, IntSeqSpec):
        return _sequence_term(node, unsplit)
    raise DomainError(f"not a group expression node: {node!r}")
