"""Class flow between classes of equal atoms.

``class_flow`` decides Hall's condition for multisets: equal atoms can be
swapped for one another, so each distinct atom is one class with its total
count, and an assignment of factors is a capacitated flow from source
classes to target classes (Hall 1935; Ford-Fulkerson 1956).  Its cost
depends on the number of classes, not on the counts.  ``reduces`` and
``compare`` decide with it.  The per-factor Kuhn search of the dual route
lives in ``duality``, its only caller.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence


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

