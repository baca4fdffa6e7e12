"""Reference implementations for the replays: positions found by walking.

The package locates every term it needs from the layout of the sequence
(``replay._Layout``, ``posetlab._MemberLayout``), so a drop, a
prefix length or a window never costs a walk of the source.  These are the
walked versions it replaced: ``covering_prefix_length`` reads a sequence
term by term until each prime has occurred often enough, and the two
profile helpers and ``member_replay_prefix`` are built on it.  Their cost
grows with the positions they find, so they serve as oracles on small
inputs only.  ``member_terms`` is the zip interleave a member's sequence
was once built by, and ``layer_window`` cuts a walked stretch of it back
into layers, as the package's ``_layer_window`` reads them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, islice

from borelcmp.replay import canonical_terms
from borelcmp.supernatural import finite_surplus_table


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
    """The walked ``replay.oracle_drop_bound``."""
    return covering_prefix_length(canonical_terms(q), dict(finite_surplus_table(q, p)))


def sufficient_prefix_length(p, window) -> int:
    """The walked ``replay.sufficient_prefix_length``, for windows
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


def member_terms(m, tagged: bool = False):
    """The member's sequence P_A' interleave (P_0' interleave base(P)) as
    one infinite iterator of nested ``zip`` interleaves; ``tagged`` pairs
    each d-layer entry with its index in the layer."""
    family = m.family
    d0, d1 = family._d_layer(0), family._d_layer(1)
    if tagged:
        d0, d1 = zip(d0, count()), zip(d1, count())
    terms = chain.from_iterable(zip(d0, canonical_terms(family.p)))
    if not m.a.is_cofinite:
        terms = chain.from_iterable(zip(compress(d1, m.a._outside_mask()), terms))
    return terms


def layer_window(m, start: int, end: int, tagged: bool = False) -> tuple:
    """The A-layer, P_0' and base(P) entries among the terms ``[start,
    end)`` of ``member_terms``, walked and then cut apart by position."""
    terms = list(islice(member_terms(m, tagged), start, end))
    stride, offset = (2, 1) if m.a.is_cofinite else (4, 3)  # base(P) entry k at stride*k+offset
    a_layer = [] if m.a.is_cofinite else terms[start % 2 :: 2]
    return a_layer, terms[(stride // 2 - 1 - start) % stride :: stride], terms[(offset - start) % stride :: stride]


def member_crosscheck(m_a, m_b, window: int, horizon: int):
    """The walked ``posetlab.member_crosscheck``: A minus B found by testing
    every natural of a few periods past both thresholds, its surplus primes
    read off the walked d-enumeration, and the replay's drop, end and
    prefix found by walking ``horizon`` terms of both member sequences.
    The horizon must reach every position the replay asks for."""
    from math import lcm

    from borelcmp.posetlab import CrosscheckReport, member_reduces, member_sequence
    from borelcmp.replay import Replay

    a, b = m_a.a, m_b.a
    periodic_from, period = max(a.threshold, b.threshold), lcm(a.period, b.period)
    finite = not any(n in a and n not in b for n in range(periodic_from, periodic_from + period))
    # an infinite difference has a member in each period past both thresholds
    naturals = range(periodic_from if finite else periodic_from + 8 * period)
    elements = [n for n in naturals if n in a and n not in b][: None if finite else 8]
    d = m_a.family.d_terms(2 + 3 * max(elements, default=0))
    surplus = tuple(d[1 + 3 * c] for c in elements)
    source, target = member_sequence(m_a, horizon), member_sequence(m_b, horizon)
    if finite:
        drop = covering_prefix_length(target, {s: 1 for s in surplus if s in target})
        if window <= drop:
            replay = Replay(drop, drop + 1, needs_window=drop + 1)
        else:
            replay = Replay(drop, window, covering_prefix_length(source, Counter(target[drop:window])))
    else:
        witness = surplus[0]
        needed = source.count(witness) + 1
        end = covering_prefix_length(target, {witness: needed})
        if window < end:
            replay = Replay(0, end, None, witness, needed, needs_window=end)
        else:
            replay = Replay(0, end, covering_prefix_length(source, Counter(target[:end])), witness, needed)
    verdict = member_reduces(m_a, m_b)
    notes = []
    if finite != verdict:
        notes.append("symbolic surplus finiteness disagrees with the verdict")
    embeds = replay.prefix is not None
    if replay.needs_window is None and embeds != verdict:
        notes.append(
            "oracle embedding "
            + ("succeeded despite a negative verdict" if embeds else "failed despite a positive verdict")
        )
    return CrosscheckReport(verdict, finite, surplus, window, not notes, tuple(notes), replay)
