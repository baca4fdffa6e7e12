"""Independent checks of the product engine, loaded on first use:
``verify_certificate`` and the closed form ``rt_closed_form``.
"""

from __future__ import annotations

from bisect import bisect_right

from . import reducibility  # read at call time, where bench/tracing.py patches its bindings
from .errors import checked_natural
from .groups import GroupExpr, dimension, run_ends
from .reducibility import Certificate, EdgeBlock, HallViolator, IndexRanges, Verdict

__all__ = ["verify_certificate", "rt_closed_form"]


def rt_closed_form(c0: int, e0: int, c1: int, e1: int) -> bool:
    """Closed form for products of reals and circles: R^c0 x T^e0 reduces to
    R^c1 x T^e1 iff e0 <= e1 and c0 + e0 <= c1 + e1.

    >>> rt_closed_form(2, 1, 0, 3)
    True
    >>> rt_closed_form(1, 1, 2, 0)
    False
    """
    for value in (c0, e0, c1, e1):
        checked_natural(value, "factor counts must be natural numbers")
    return e0 <= e1 and c0 + e0 <= c1 + e1


def _union(spans) -> list | None:
    """The union of half-open ``(start, stop)`` spans as sorted maximal
    ``[start, stop]`` spans, or None when two of the spans overlap."""
    merged: list = []
    for start, stop in sorted(spans):
        if merged and start < merged[-1][1]:
            return None
        if merged and start == merged[-1][1]:
            merged[-1][1] = stop
        else:
            merged.append([start, stop])
    return merged


def _index_spans(indices) -> list | None:
    """The spans of an ``IndexRanges``; None for any other value, or when a
    range is empty or not of step 1."""
    if not isinstance(indices, IndexRanges) or type(indices.ranges) is not tuple:
        return None
    spans = []
    for r in indices.ranges:
        if type(r) is not range or r.step != 1 or not r:
            return None
        spans.append((r.start, r.stop))
    return spans


def verify_certificate(g: GroupExpr, h: GroupExpr, v: Verdict) -> bool:
    """Independent check of a claimed verdict for ``reduces(g, h)``.

    It reads the run form that ``reduces`` emits, and nothing else.
    Positive: the ``Certificate``'s blocks must all be ``EdgeBlock``s with
    int indices and counts (a bool is none), counts of at least 1, cover
    every source factor exactly once and hit disjoint in-range target
    factors.  Each block is split where it crosses a run of ``g`` or ``h``,
    and every piece must revalidate against the rule table with its reason
    and recomputed surplus table.  Negative: the ``HallViolator``'s K and
    N(K) must be ``IndexRanges``, and N(K) exactly the rule-table
    neighborhood of K, with |N(K)| < |K|.  Both cost O(k log k) in the
    number k of blocks, ranges and runs, not in the factor counts.  Any
    other shape makes the verdict invalid rather than raising.
    """
    m, n = dimension(g), dimension(h)
    g_ends, h_ends = run_ends(g), run_ends(h)
    if v.reducible:
        if not isinstance(v.certificate, Certificate) or v.violator is not None:
            return False
        blocks = v.certificate.blocks
        if type(blocks) is not tuple or not all(type(block) is EdgeBlock for block in blocks):
            return False
        lefts, rights = [], []
        for left, right, count, _, _ in blocks:
            if type(left) is not int or type(right) is not int or type(count) is not int or count < 1:
                return False
            lefts.append((left, left + count))
            rights.append((right - count + 1, right + 1))
        if _union(lefts) != ([[1, m + 1]] if m else []):
            return False
        rights = _union(rights)
        if rights is None or rights and not (1 <= rights[0][0] and rights[-1][1] <= n + 1):
            return False
        expected: dict = {}  # per pair of atoms: (reason, surplus table), or None off the table
        for left, right, count, reason, deficit in blocks:
            j = 0
            while j < count:  # one piece per pair of runs the block crosses
                r = bisect_right(g_ends, left + j - 1)
                q = bisect_right(h_ends, right - j - 1)
                a, b = g.runs[r][0], h.runs[q][0]
                if (a, b) not in expected:
                    expected[a, b] = reducibility._edge(a, b)
                if (reason, deficit) != expected[a, b]:
                    return False
                # the piece ends where the source factor leaves run r or the target factor run q
                j += min(g_ends[r] - (left + j) + 1, right - j - (h_ends[q - 1] if q else 0))
        return True
    if not isinstance(v.violator, HallViolator) or v.certificate is not None:
        return False
    K, NK = _index_spans(v.violator.K), _index_spans(v.violator.NK)
    if K is None or NK is None:
        return False
    K = _union(K)
    if not K or K[0][0] < 1 or K[-1][1] > m + 1:
        return False
    # the distinct atoms of the runs that K meets, each tested once per run of h
    sources = list(dict.fromkeys(
        g.runs[r][0]
        for start, stop in K
        for r in range(bisect_right(g_ends, start - 1), bisect_right(g_ends, stop - 2) + 1)
    ))
    neighborhood: list = []  # as sorted maximal spans, like _union's
    start = 1
    for b, count in h.runs:
        if any(reducibility.atom_reduces(a, b) for a in sources):
            if neighborhood and neighborhood[-1][1] == start:
                neighborhood[-1][1] += count
            else:
                neighborhood.append([start, start + count])
        start += count
    if _union(NK) != neighborhood:
        return False
    return sum(stop - start for start, stop in neighborhood) < sum(stop - start for start, stop in K)
