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
for one another, so this is decided on classes of equal atoms by a
capacitated flow (``matching.class_flow``), at a cost that depends on the
number of distinct atoms and not on their counts.  The outcome ships either
the assignment (with a per-edge reason and, for solenoid pairs, the
recomputable surplus table), or a Hall violator refuting every assignment.

Both are kept in run form, so neither grows with the counts, and that run
form is the only one ``verify_certificate`` reads.  The assignment is a
``Certificate``: a tuple of ``EdgeBlock``s, each one map
``left + j -> right - j`` for ``j < count`` with one reason.  The
violator's index sets are ``IndexRanges``.  Only their rendering by the
command line and the JSON report still costs one line or entry per factor.

The trivial group (empty product) reduces to everything, and nothing
nontrivial reduces to it.  All factor indices in certificates are 1-based.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

from ._value import Value
from .errors import DomainError, checked_natural
from .groups import REAL, TORUS, Atom, AtomKind, GroupExpr, dimension, run_ends, solenoid
from .matching import class_flow
from .matching import saturating_matching_or_violator  # noqa: F401  bench/tracing.py patches this binding
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
    "rt_closed_form",
    "compare",
    "verify_certificate",
]


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


class EdgeBlock(NamedTuple):
    """``count`` certificate edges with one reason and surplus table: source
    factor ``left + j`` maps to target factor ``right - j`` for ``j < count``."""

    left: int
    right: int
    count: int
    reason: EdgeReason
    deficit: tuple = ()


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
    """Ascending 1-based factor indices as a tuple of ``range``s of step 1.
    Its ``len`` and iteration are those of the indices, at a cost of one
    step per range; it equals a tuple of the same indices, and hashes like
    one, so ``violator.K == (1, 2)`` still holds."""

    __slots__ = _fields = ("ranges",)

    def __init__(self, ranges: tuple):
        object.__setattr__(self, "ranges", ranges)

    def __len__(self):
        return sum(map(len, self.ranges))

    def __iter__(self):
        return chain.from_iterable(self.ranges)

    def __eq__(self, other):
        if not isinstance(other, (IndexRanges, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(i == j for i, j in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))


class HallViolator(Value):
    """Refutation: left factor set K (1-based indices) whose full
    neighborhood N(K) under the rule table is strictly smaller, both as
    ``IndexRanges``."""

    __slots__ = _fields = ("K", "NK")

    def __init__(self, K: IndexRanges, NK: IndexRanges):
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "NK", NK)


# The one dataclass left on the import path: ``bench/selfcheck.py`` flips a
# verdict with ``dataclasses.replace``, which needs one.  Once the benchmark
# builds the flipped verdict with the constructor, ``Verdict`` can be a
# ``Value`` too, and ``import borelcmp`` no longer loads ``dataclasses``.
@dataclass(frozen=True)
class Verdict:
    """A positive verdict carries a ``Certificate`` and a negative one a
    ``HallViolator``, as ``reduces`` builds them."""

    reducible: bool
    certificate: Certificate | None = None
    violator: HallViolator | None = None


class ComparisonOutcome(Enum):
    EQUIVALENT = "EQUIVALENT"
    LEFT_STRICT = "LEFT_STRICT"
    RIGHT_STRICT = "RIGHT_STRICT"
    INCOMPARABLE = "INCOMPARABLE"


def atom_reduces(a: Atom, b: Atom) -> bool:
    """Rule table entry: does the relation induced by ``a`` reduce to the
    one induced by ``b``?

    >>> atom_reduces(REAL, solenoid({2: OMEGA}))
    True
    >>> atom_reduces(TORUS, solenoid({2: OMEGA}))
    False
    """
    if a.kind is AtomKind.REAL:
        return True
    if a.kind is AtomKind.TORUS:
        return b.kind is AtomKind.TORUS
    # a solenoid
    if b.kind is AtomKind.TORUS:
        return True
    if b.kind is AtomKind.REAL:
        return False
    return preceq(b.profile, a.profile)


def edge_reason(a: Atom, b: Atom) -> EdgeReason:
    if a.kind is AtomKind.REAL:
        return EdgeReason.RULE_R_ANY
    if a.kind is AtomKind.TORUS:
        return EdgeReason.RULE_T_T
    if b.kind is AtomKind.TORUS:
        return EdgeReason.RULE_SOL_T
    return EdgeReason.RULE_SOL_SOL


def _edge(a: Atom, b: Atom) -> tuple:
    """Reason and surplus table of an edge from atom ``a`` to atom ``b``."""
    reason = edge_reason(a, b)
    if reason is EdgeReason.RULE_SOL_SOL:
        return reason, finite_surplus_table(b.profile, a.profile)
    return reason, ()


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
    - Negative: C is the set of source classes that an unrouted class
      reaches in the residual graph of a maximum flow, and N(C) the target
      factors their rows reach.  K is the first |N(C)| + 1 factors of the
      classes in C, in index order, and N(K) the exact rule-table
      neighborhood of K's classes, so |N(K)| <= |N(C)| < |K|.  Both are
      ``IndexRanges`` of at most one range per run.
    """
    sources, caps, source_of = _classes(g.runs)
    targets, room, target_of = _classes(h.runs)
    rows = [[t for t, b in enumerate(targets) if atom_reduces(a, b)] for a in sources]
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


def compare(g: GroupExpr, h: GroupExpr) -> ComparisonOutcome:
    """Both directions at once; LEFT_STRICT means ``g`` sits strictly below."""
    forward = reduces(g, h).reducible
    backward = reduces(h, g).reducible
    if forward and backward:
        return ComparisonOutcome.EQUIVALENT
    if forward:
        return ComparisonOutcome.LEFT_STRICT
    if backward:
        return ComparisonOutcome.RIGHT_STRICT
    return ComparisonOutcome.INCOMPARABLE


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
                    expected[a, b] = _edge(a, b) if atom_reduces(a, b) else None
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
        if any(atom_reduces(a, b) for a in sources):
            if neighborhood and neighborhood[-1][1] == start:
                neighborhood[-1][1] += count
            else:
                neighborhood.append([start, start + count])
        start += count
    if _union(NK) != neighborhood:
        return False
    return sum(stop - start for start, stop in neighborhood) < sum(stop - start for start, stop in K)
