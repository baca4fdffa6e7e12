"""Reference implementations for the matching layer.

``saturating_matching_or_violator`` is recursive Kuhn: a plain
augmenting-path search over every left vertex, followed by an
alternating-path reachability from the first unmatched left vertex.  Its
recursion depth grows with the factor count, so it serves as an oracle on
small graphs only.  ``alternating_reach`` starts that reachability from
every unmatched left vertex at once, which is the per-factor form of the
violator ``reduces`` derives from its class flow.

``rule_rows`` builds adjacency rows one factor at a time, as the engine did
before products were stored as runs; the run-based rows must equal its rows
and share row objects the same way, since the iterative search's result
depends on that sharing.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


def rule_rows(lefts: Sequence, rights: Sequence, related: Callable) -> list:
    """Adjacency rows: row i lists the j with ``related(lefts[i], rights[j])``.
    Equal left items share one row object, computed once."""
    rows: dict = {}
    adjacency = []
    for item in lefts:
        if item not in rows:
            rows[item] = [j for j, other in enumerate(rights) if related(item, other)]
        adjacency.append(rows[item])
    return adjacency


def _try_augment(u, adjacency, match_left, match_right, visited) -> bool:
    for v in adjacency[u]:
        if v in visited:
            continue
        visited.add(v)
        if match_right[v] is None or _try_augment(match_right[v], adjacency, match_left, match_right, visited):
            match_left[u] = v
            match_right[v] = u
            return True
    return False


def maximum_matching(num_left: int, num_right: int, adjacency: Sequence[Sequence[int]]):
    """Kuhn's algorithm; returns (match_left, match_right) with None for
    unmatched vertices.  Deterministic: vertices and edges in given order."""
    match_left: list[Optional[int]] = [None] * num_left
    match_right: list[Optional[int]] = [None] * num_right
    for u in range(num_left):
        _try_augment(u, adjacency, match_left, match_right, set())
    return match_left, match_right


def hall_violator(start: int, adjacency, match_right) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating-path reachability from an unmatched left vertex: returns
    (K, N(K)) with |N(K)| < |K| and N(K) the exact neighborhood of K."""
    lefts = {start}
    rights: set[int] = set()
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v in rights:
                continue
            rights.add(v)
            w = match_right[v]
            if w is not None and w not in lefts:
                lefts.add(w)
                stack.append(w)
    return tuple(sorted(lefts)), tuple(sorted(rights))


def alternating_reach(adjacency, match_left, match_right) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Breadth-first alternating-path reachability from every unmatched left
    vertex of a maximum matching: the left vertices reached, and their
    neighborhood, both sorted.  The left set is the same for every maximum
    matching (it is the set of left vertices that some maximum matching
    leaves unmatched)."""
    lefts = [u for u, v in enumerate(match_left) if v is None]
    seen, rights = set(lefts), set()
    for u in lefts:  # grows while it is read
        for v in adjacency[u]:
            if v not in rights:
                rights.add(v)
                w = match_right[v]
                if w not in seen:
                    seen.add(w)
                    lefts.append(w)
    return tuple(sorted(lefts)), tuple(sorted(rights))


def saturating_matching_or_violator(num_left: int, num_right: int, adjacency):
    """Either a left-saturating matching (as the full match_left list) or a
    Hall violator (K, N(K)); exactly one of the pair is None."""
    match_left, match_right = maximum_matching(num_left, num_right, adjacency)
    for u in range(num_left):
        if match_left[u] is None:
            return None, hall_violator(u, adjacency, match_right)
    return match_left, None
