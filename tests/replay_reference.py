"""Reference implementations for the replays: positions found by walking.

The package locates every term it needs from the layout of the sequence
(``supernatural._Layout``, ``posetlab._MemberLayout``), so a drop, a
prefix length or a window never costs a walk of the source.  These are the
walked versions it replaced: ``covering_prefix_length`` reads a sequence
term by term until each prime has occurred often enough, and the two
profile helpers and ``member_replay_prefix`` are built on it.  Their cost
grows with the positions they find, so they serve as oracles on small
inputs only.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

from borelcmp.supernatural import canonical_terms, finite_surplus_table


def covering_prefix_length(terms, need) -> int | None:
    """Length of the shortest prefix of the iterable ``terms`` holding each
    prime at least ``need[prime]`` times, or None when ``terms`` ends first."""
    missing = {gamma: count for gamma, count in need.items() if count > 0}
    if not missing:
        return 0
    for index, term in enumerate(terms):
        if term in missing:
            missing[term] -= 1
            if missing[term] == 0:
                del missing[term]
            if not missing:
                return index + 1
    return None


def oracle_drop_bound(q, p) -> int:
    """The walked ``supernatural.oracle_drop_bound``."""
    return covering_prefix_length(canonical_terms(q), dict(finite_surplus_table(q, p)))


def sufficient_prefix_length(p, window) -> int:
    """The walked ``supernatural.sufficient_prefix_length``, for windows
    that ``p`` can supply."""
    return covering_prefix_length(canonical_terms(p), Counter(window))


def occurrences(terms, gamma) -> list:
    """The positions of ``gamma`` in the finite sequence ``terms``."""
    return [i for i, term in enumerate(terms) if term == gamma]


def member_replay_prefix(source_terms, target_terms, drop: int, end: int, horizon: int):
    """The source prefix holding the target window ``[drop, end)``, found
    by walking at most ``horizon`` source terms; None when that is not
    enough."""
    need = Counter(islice(target_terms, drop, end))
    return covering_prefix_length(islice(source_terms, horizon), need)
