"""Bipartite matching with certificate extraction.

Kuhn's augmenting-path search, run with an explicit stack.  The first left
vertex whose search fails refutes every matching: the left vertices that
search reached form a Hall violator K, and the right vertices it visited
are exactly N(K), each matched back into K (the start vertex is not).  No
later augmenting path can enter that set, so the search stops there.
Left vertices may share one row object (``run_rows`` gives equal atoms
one); a search scans a shared row once, since every entry before its last
stop has been visited.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


def run_rows(lefts: Sequence, rights: Sequence, related: Callable) -> list:
    """Adjacency rows for vertices given as ``(item, count)`` runs, numbered
    run after run: row i lists the j whose item ``related`` relates to the
    item of left vertex i.  Equal left items share one row object, computed
    with one ``related`` call per right run."""
    rows: dict = {}
    adjacency: list = []
    for item, count in lefts:
        row = rows.get(item)
        if row is None:
            row = rows[item] = []
            start = 0
            for other, width in rights:
                if related(item, other):
                    row.extend(range(start, start + width))
                start += width
        adjacency += [row] * count
    return adjacency


def saturating_matching_or_violator(num_left: int, num_right: int, adjacency):
    """Either a left-saturating matching (as the full match_left list) or a
    Hall violator (K, N(K)) as sorted tuples; exactly one of the pair is
    None.  Deterministic: vertices and edges in given order."""
    match_left: list[Optional[int]] = [None] * num_left
    match_right: list[Optional[int]] = [None] * num_right
    for root in range(num_left):
        visited: set[int] = set()
        resume: dict[int, int] = {}  # id(row) -> where its last scan stopped
        path = [root]  # left vertices of the search, root first
        via: list[int] = []  # via[k]: the right vertex leading from path[k] to path[k + 1]
        while path:
            row = adjacency[path[-1]]
            i = resume.get(id(row), 0)
            while i < len(row) and row[i] in visited:
                i += 1
            if i == len(row):  # dead end: back up one step
                resume[id(row)] = i
                path.pop()
                if via:
                    via.pop()
                continue
            resume[id(row)] = i + 1
            v = row[i]
            visited.add(v)
            via.append(v)
            if match_right[v] is None:  # augmenting path: flip it
                for u, w in zip(path, via):
                    match_left[u] = w
                    match_right[w] = u
                break
            path.append(match_right[v])
        else:  # the search from root failed
            lefts = {root, *(match_right[v] for v in visited)}
            return None, (tuple(sorted(lefts)), tuple(sorted(visited)))
    return match_left, None
