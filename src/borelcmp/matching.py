"""Bipartite matching and class flow, with certificate extraction.

``class_flow`` decides Hall's condition for multisets: equal atoms can be
swapped for one another, so each distinct atom is one class with its total
count, and an assignment of factors is a capacitated flow from source
classes to target classes (Hall 1935; Ford-Fulkerson 1956).  Its cost
depends on the number of classes, not on the counts.  ``reduces`` decides
with it.

``saturating_matching_or_violator`` is Kuhn's augmenting-path search with
one vertex per factor, run with an explicit stack; ``dual_reduces`` keeps
it, so that the dual route stays an independent algorithmic cross-check.
The first left vertex whose search fails refutes every matching: the left
vertices that search reached form a Hall violator K, and the right
vertices it visited are exactly N(K), each matched back into K (the start
vertex is not).  No later augmenting path can enter that set, so the
search stops there.  Left vertices may share one row object (``run_rows``
gives equal atoms one); a search scans a shared row once, since every
entry before its last stop has been visited.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence


def class_flow(caps: Sequence[int], room: Sequence[int], rows: Sequence[Sequence[int]]):
    """Route ``caps[s]`` units out of every source class ``s`` into the target
    classes of ``rows[s]``, at most ``room[t]`` units into target class ``t``.

    Returns ``(flow, None)`` when every source class is routed in full, with
    ``flow[s]`` a dict from target class to a positive amount, or ``(None,
    (C, NC))`` otherwise: C, the source classes that an unrouted class
    reaches in the residual graph of a maximum flow, and NC, the target
    classes their rows reach, both sorted.  Every class of NC is full and
    fed from C only, so the counts of NC sum to less than those of C.

    Each class first fills its row greedily, in row order; then augmenting
    paths found by breadth-first search from every unrouted class carry
    their bottleneck amount (Edmonds-Karp), so the number of rounds does not
    depend on the counts.  Deterministic: classes and rows in given order.
    """
    room = list(room)
    short = list(caps)  # what each source class has still to route
    flow: list[dict] = [{} for _ in caps]
    for s, row in enumerate(rows):
        for t in row:
            amount = min(short[s], room[t])
            if amount:
                flow[s][t] = amount
                short[s] -= amount
                room[t] -= amount
    if not any(short):
        return flow, None
    into: list[dict] = [{} for _ in room]  # into[t][s] == flow[s][t]
    for s, out in enumerate(flow):
        for t, amount in out.items():
            into[t][s] = amount
    while True:
        came = {s: None for s, rest in enumerate(short) if rest}  # source -> target it was reached from
        if not came:
            return flow, None
        reached: dict = {}  # target -> source it was reached from
        queue = deque(came)
        end = None
        while queue and end is None:
            s = queue.popleft()
            for t in rows[s]:
                if t in reached:
                    continue
                reached[t] = s
                if room[t]:
                    end = t
                    break
                for back in into[t]:
                    if back not in came:
                        came[back] = t
                        queue.append(back)
        if end is None:
            return None, (tuple(sorted(came)), tuple(sorted(reached)))
        path = []  # (source, target it routes more into, target it routes less into)
        t = end
        while t is not None:
            s = reached[t]
            path.append((s, t, came[s]))
            t = came[s]
        start = path[-1][0]
        amount = min(room[end], short[start], *(flow[s][back] for s, _, back in path[:-1]))
        room[end] -= amount
        short[start] -= amount
        for s, t, back in path:
            flow[s][t] = into[t][s] = flow[s].get(t, 0) + amount
            if back is not None:
                rest = flow[s][back] - amount
                if rest:
                    flow[s][back] = into[back][s] = rest
                else:
                    del flow[s][back], into[back][s]


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
