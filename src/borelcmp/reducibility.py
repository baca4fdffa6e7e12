"""Decide reducibility between group expressions, with certificates.

The atom-level rule table:

    source \\ target |  R  |  T  | Sol_Q
    ----------------+-----+-----+---------------------------
    R               | yes | yes | yes
    T               | no  | yes | no
    Sol_P           | no  | yes | iff profile(Q) preceq profile(P)

Note the direction reversal in the solenoid/solenoid cell: the *target's*
profile must embed into the *source's*.  A product reduces to a product
exactly when an injective assignment of source factors to target factors
exists with every assigned pair in the table.  Equal atoms can be swapped
for one another, so this is Hall's condition for multisets, decided on
classes of equal atoms by a capacitated flow (``class_flow``; Hall 1935,
Ford-Fulkerson 1956), at a cost that depends on the number of distinct
atoms and not on their counts.  The dual route's per-factor Kuhn search
(``duality``) shares no code with it.  The outcome ships either
the assignment (with a per-edge reason and, for solenoid pairs, the
recomputable surplus table), or a Hall violator refuting every assignment.

Both are kept in run form, so neither grows with the counts, and that run
form is the only one ``verify_certificate`` (module ``verify``, loaded on
first use) reads.  The assignment is a ``Certificate``: a tuple of
``EdgeBlock``s, each one map ``left + j -> right - j`` for ``j < count``
with one reason.  The violator's index sets are ``IndexRanges``, which
compare as ranges.  Only their rendering by the command line and the JSON
report still costs one line or entry per factor.

The trivial group (empty product) reduces to everything, and nothing
nontrivial reduces to it.  All factor indices in certificates are 1-based.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Sequence
from enum import Enum
from itertools import chain

from ._value import Value
from .errors import forwarding
from .groups import REAL, TORUS, Atom, AtomKind, GroupExpr, solenoid
from .supernatural import OMEGA, finite_surplus_table, preceq

__all__ = [
    "EdgeReason",
    "EdgeWitness",
    "EdgeBlock",
    "Certificate",
    "IndexRanges",
    "HallViolator",
    "Verdict",
    "ComparisonOutcome",
    "atom_reduces",
    "edge_reason",
    "reduces",
    "compare",
]

# bench/tracing.py patches these bindings; they resolve on first use (PEP 562)
__getattr__ = forwarding(globals(), {"verify_certificate": "verify",
                                     "saturating_matching_or_violator": "duality"})


class EdgeReason(Enum):
    RULE_R_ANY = "RULE_R_ANY"      # real line reduces into any atom
    RULE_T_T = "RULE_T_T"          # circle into circle
    RULE_SOL_T = "RULE_SOL_T"      # solenoid into circle
    RULE_SOL_SOL = "RULE_SOL_SOL"  # solenoid into solenoid, via profile embedding


class EdgeWitness(Value):
    """One certificate edge: source factor ``left_index`` maps to target
    factor ``right_index`` (both 1-based) for the stated reason.  For
    solenoid/solenoid edges, ``deficit`` is the per-prime surplus of the
    target profile over the source profile; its total is finite by validity.
    When a profile has an unsplit key, ``deficit`` is keyed by the coprime
    base of the two profiles, and ``total_deficit`` counts its elements.
    """

    __slots__ = _fields = ("left_index", "right_index", "reason", "deficit")

    def __init__(self, left_index: int, right_index: int, reason: EdgeReason, deficit: tuple = ()):
        object.__setattr__(self, "left_index", left_index)
        object.__setattr__(self, "right_index", right_index)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "deficit", deficit)

    @property
    def total_deficit(self) -> int:
        return sum(d for _, d in self.deficit)


EdgeBlock = namedtuple("EdgeBlock", ("left", "right", "count", "reason", "deficit"), defaults=((),))
EdgeBlock.__doc__ = """``count`` certificate edges with one reason and surplus table: source
factor ``left + j`` maps to target factor ``right - j`` for ``j < count``.
``deficit`` is keyed as ``EdgeWitness.deficit``: by a coprime base when a
profile has an unsplit key."""


class Certificate(Value):
    """A positive certificate as a tuple of ``EdgeBlock``s; equal when the
    blocks are equal.  Its ``len`` is the number of edges, summed over the
    blocks, and iterating it gives the ``EdgeWitness`` of every edge, block
    by block."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple):
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return sum(block.count for block in self.blocks)

    def __iter__(self):
        for left, right, count, reason, deficit in self.blocks:
            for j in range(count):
                yield EdgeWitness(left + j, right - j, reason, deficit)


class IndexRanges(Value):
    """Ascending 1-based factor indices as a tuple of ``range``s of step 1;
    equal when the ranges are equal.  Its ``len`` and iteration are those
    of the indices, at a cost of one step per range."""

    __slots__ = _fields = ("ranges",)

    def __init__(self, ranges: tuple):
        object.__setattr__(self, "ranges", ranges)

    def __len__(self):
        return sum(map(len, self.ranges))

    def __iter__(self):
        return chain.from_iterable(self.ranges)


class HallViolator(Value):
    """Refutation: left factor set K (1-based indices) whose full
    neighborhood N(K) under the rule table is strictly smaller, both as
    ``IndexRanges``."""

    __slots__ = _fields = ("K", "NK")

    def __init__(self, K: IndexRanges, NK: IndexRanges):
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "NK", NK)


class _DataclassFields:
    """``__dataclass_fields__`` of a ``Value``, made on first access from
    its constructor's signature by a frozen dataclass of the same fields, and
    then stored on the class in place of this descriptor.  With it,
    ``dataclasses.replace``, ``fields``, ``asdict`` and ``is_dataclass``
    work on the value; only a caller of ``dataclasses``, which has loaded
    it already, ever reads it."""

    def __get__(self, instance, owner):
        from dataclasses import MISSING, field, make_dataclass

        init = owner.__init__
        defaults = dict(zip(owner._fields[::-1], init.__defaults__[::-1]))
        spec = [(name, init.__annotations__[name], field(default=defaults.get(name, MISSING)))
                for name in owner._fields]
        owner.__dataclass_fields__ = make_dataclass(owner.__name__, spec, frozen=True).__dataclass_fields__
        return owner.__dataclass_fields__


class Verdict(Value):
    """A positive verdict carries a ``Certificate`` and a negative one a
    ``HallViolator``, as ``reduces`` builds them."""

    __slots__ = _fields = ("reducible", "certificate", "violator")
    # ``bench/selfcheck.py`` flips a verdict with ``dataclasses.replace``; once
    # the benchmark builds the flipped verdict with the constructor, this goes.
    __dataclass_fields__ = _DataclassFields()

    def __init__(
        self, reducible: bool, certificate: Certificate | None = None, violator: HallViolator | None = None
    ):
        object.__setattr__(self, "reducible", reducible)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "violator", violator)


class ComparisonOutcome(Enum):
    EQUIVALENT = "EQUIVALENT"
    LEFT_STRICT = "LEFT_STRICT"
    RIGHT_STRICT = "RIGHT_STRICT"
    INCOMPARABLE = "INCOMPARABLE"


def edge_reason(a: Atom, b: Atom) -> EdgeReason | None:
    """The rule table: the rule that reduces the relation induced by ``a``
    to the one induced by ``b``, or None off the table.

    >>> edge_reason(REAL, solenoid({2: OMEGA}))
    <EdgeReason.RULE_R_ANY: 'RULE_R_ANY'>
    >>> edge_reason(TORUS, REAL) is None
    True
    """
    if a.kind is AtomKind.REAL:
        return EdgeReason.RULE_R_ANY
    if a.kind is AtomKind.TORUS:
        return EdgeReason.RULE_T_T if b.kind is AtomKind.TORUS else None
    # a solenoid
    if b.kind is AtomKind.TORUS:
        return EdgeReason.RULE_SOL_T
    if b.kind is AtomKind.SOLENOID and preceq(b.profile, a.profile):
        return EdgeReason.RULE_SOL_SOL
    return None


def atom_reduces(a: Atom, b: Atom) -> bool:
    """Is there a rule table entry from ``a`` to ``b``?"""
    return edge_reason(a, b) is not None


def _edge(a: Atom, b: Atom) -> tuple | None:
    """Reason and surplus table of the edge from atom ``a`` to atom ``b``,
    or None off the rule table."""
    reason = edge_reason(a, b)
    if reason is EdgeReason.RULE_SOL_SOL:
        return reason, finite_surplus_table(b.profile, a.profile)
    return None if reason is None else (reason, ())


def _classes(runs: tuple) -> tuple:
    """The distinct atoms of ``runs`` in first-seen order, their total
    counts, and the class index of every run."""
    index: dict = {}
    counts: list = []
    of_run = []
    for atom, count in runs:
        c = index.setdefault(atom, len(counts))
        if c == len(counts):
            counts.append(count)
        else:
            counts[c] += count
        of_run.append(c)
    return list(index), counts, of_run


def _rows(sources: list, targets: list) -> list:
    """The rule table's rows between classes: per source atom, the indices
    of the target atoms it reduces to."""
    return [[t for t, b in enumerate(targets) if atom_reduces(a, b)] for a in sources]


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


def reduces(g: GroupExpr, h: GroupExpr) -> Verdict:
    """Decide reducibility of the product ``g`` into the product ``h``.

    Equal atoms are interchangeable, so the factors are grouped into
    classes, one per distinct atom with its total count.  The rule table is
    evaluated once per pair of a source class and a target class, and
    ``class_flow`` routes every source class into the target classes its
    row allows; a full routing is Hall's condition for the factors.  The
    verdict still names factors, by this canonical rule, but in run form:

    - Positive: the source factors are taken from last to first, and each
      takes the lowest unused target factor of the next target class (in
      order of first appearance in ``h``) that the flow of its class still
      routes to.  Each edge carries the reason and surplus table of its
      pair of atoms, computed once per pair.  A stretch of source factors
      that stays in one source run, one flow route and one target run is
      one ``EdgeBlock``, so the ``Certificate`` has at most (source runs +
      target runs + flow routes) blocks, whatever the counts.
    - Negative: (C, N(C)) is ``class_flow``'s violator, with N(C) read as
      the target factors of its classes.  K is the first |N(C)| + 1
      factors of the classes in C, in index order, and N(K) the exact
      rule-table neighborhood of K's classes, so |N(K)| <= |N(C)| < |K|.
      Both are ``IndexRanges`` of at most one range per run.
    """
    sources, caps, source_of = _classes(g.runs)
    targets, room, target_of = _classes(h.runs)
    rows = _rows(sources, targets)
    flow, violator = class_flow(caps, room, rows)
    if flow is not None:
        free: list = [[] for _ in targets]  # per target class: [lowest unused factor, how many] per run
        start = 1
        for (_, count), t in zip(h.runs, target_of):
            free[t].append([start, count])
            start += count
        for spans in free:
            spans.reverse()  # so pop() drops the class's lowest run once it is used up
        # per source class, its routes from the last target class back, so pop() takes the next one
        routes = [[[t, amount, _edge(a, targets[t])] for t, amount in sorted(out.items(), reverse=True)]
                  for a, out in zip(sources, flow)]
        blocks: list = []
        end = sum(caps)  # the highest source factor not yet assigned
        for (_, count), s in zip(reversed(g.runs), reversed(source_of)):
            route = routes[s]
            while count:
                t, amount, edge = route[-1]
                span = free[t][-1]
                k = min(count, amount, span[1])
                # factors end, end - 1, ... take span[0], span[0] + 1, ...; tuple.__new__
                # builds the EdgeBlock without its Python-level __new__, a third of the cost
                blocks.append(tuple.__new__(EdgeBlock, (end - k + 1, span[0] + k - 1, k, *edge)))
                end -= k
                count -= k
                span[0] += k
                span[1] -= k
                if not span[1]:
                    free[t].pop()
                if amount == k:
                    route.pop()
                else:
                    route[-1][1] = amount - k
        blocks.reverse()
        return Verdict(True, certificate=Certificate(tuple(blocks)))
    C, NC = violator
    in_C = set(C)
    need = sum(room[t] for t in NC) + 1
    K: list = []
    reach: set = set()
    start = 1
    for (_, count), s in zip(g.runs, source_of):
        if s in in_C:
            K.append(range(start, start + min(count, need)))
            need -= len(K[-1])
            reach.update(rows[s])
            if not need:
                break
        start += count
    NK: list = []
    start = 1
    for (_, count), t in zip(h.runs, target_of):
        if t in reach:
            NK.append(range(start, start + count))
        start += count
    return Verdict(False, violator=HallViolator(K=IndexRanges(tuple(K)), NK=IndexRanges(tuple(NK))))


def compare(g: GroupExpr, h: GroupExpr) -> ComparisonOutcome:
    """Both directions at once; LEFT_STRICT means ``g`` sits strictly below.

    Each side is grouped into classes once, and each direction is decided
    by ``class_flow`` on the rule table's rows, as ``reduces`` decides it.
    No certificate, violator or surplus table is built, and ``compare
    --json`` carries none.  A direction into fewer factors fails before
    its rows are read, since an assignment is injective.
    """
    left, left_counts, _ = _classes(g.runs)
    right, right_counts, _ = _classes(h.runs)
    m, n = sum(left_counts), sum(right_counts)
    forward = m <= n and class_flow(left_counts, right_counts, _rows(left, right))[0] is not None
    backward = n <= m and class_flow(right_counts, left_counts, _rows(right, left))[0] is not None
    if forward and backward:
        return ComparisonOutcome.EQUIVALENT
    if forward:
        return ComparisonOutcome.LEFT_STRICT
    if backward:
        return ComparisonOutcome.RIGHT_STRICT
    return ComparisonOutcome.INCOMPARABLE


