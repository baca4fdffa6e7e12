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
the assignment, one edge per source factor (with a per-edge reason and, for
solenoid pairs, the recomputable surplus table), or a Hall violator
refuting every assignment.

The trivial group (empty product) reduces to everything, and nothing
nontrivial reduces to it.  All factor indices in certificates are 1-based.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import DomainError, checked_natural
from .groups import REAL, TORUS, Atom, AtomKind, GroupExpr, dimension, run_ends, solenoid
from .matching import class_flow
from .matching import saturating_matching_or_violator  # noqa: F401  bench/tracing.py patches this binding
from .supernatural import OMEGA, finite_surplus_table, preceq

__all__ = [
    "EdgeReason",
    "EdgeWitness",
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


@dataclass(frozen=True)
class EdgeWitness:
    """One certificate edge: source factor ``left_index`` maps to target
    factor ``right_index`` (both 1-based) for the stated reason.  For
    solenoid/solenoid edges, ``deficit`` is the per-prime surplus of the
    target profile over the source profile; its total is finite by validity.
    """

    left_index: int
    right_index: int
    reason: EdgeReason
    deficit: tuple = ()

    @property
    def total_deficit(self) -> int:
        return sum(d for _, d in self.deficit)


@dataclass(frozen=True)
class HallViolator:
    """Refutation: left factor set K (1-based indices) whose full
    neighborhood N(K) under the rule table is strictly smaller."""

    K: tuple
    NK: tuple


@dataclass(frozen=True)
class Verdict:
    reducible: bool
    certificate: tuple | None = None
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
    verdict still lists factors, by this canonical rule:

    - Positive: the source factors are taken from last to first, and each
      takes the lowest unused target factor of the next target class (in
      order of first appearance in ``h``) that the flow of its class still
      routes to.  Each witness carries the reason and surplus table of its
      pair of atoms, computed once per pair.
    - Negative: C is the set of source classes that an unrouted class
      reaches in the residual graph of a maximum flow, and N(C) the target
      factors their rows reach.  K is the first |N(C)| + 1 factors of the
      classes in C, in index order, and N(K) the exact rule-table
      neighborhood of K's classes, so |N(K)| <= |N(C)| < |K|.
    """
    sources, caps, source_of = _classes(g.runs)
    targets, room, target_of = _classes(h.runs)
    rows = [[t for t, b in enumerate(targets) if atom_reduces(a, b)] for a in sources]
    flow, violator = class_flow(caps, room, rows)
    if flow is not None:
        spans: list = [[] for _ in targets]  # the 1-based target factors of each class, run by run
        start = 1
        for (_, count), t in zip(h.runs, target_of):
            spans[t].append(range(start, start + count))
            start += count
        free = [chain.from_iterable(ranges) for ranges in spans]  # lowest unused first
        # per source class, its routes from the last target class back, so pop() takes the next one
        routes = [[[t, amount, _edge(a, targets[t])] for t, amount in sorted(out.items(), reverse=True)]
                  for a, out in zip(sources, flow)]
        witnesses: list = []
        end = sum(caps)
        for (_, count), s in zip(reversed(g.runs), reversed(source_of)):
            route = routes[s]
            for i in range(end, end - count, -1):
                t, amount, edge = route[-1]
                witnesses.append(EdgeWitness(i, next(free[t]), *edge))
                if amount == 1:
                    route.pop()
                else:
                    route[-1][1] = amount - 1
            end -= count
        witnesses.reverse()
        return Verdict(True, certificate=tuple(witnesses))
    C, NC = violator
    in_C = set(C)
    need = sum(room[t] for t in NC) + 1
    K: list = []
    reach: set = set()
    start = 0
    for (_, count), s in zip(g.runs, source_of):
        if s in in_C:
            K += range(start + 1, start + min(count, need - len(K)) + 1)
            reach.update(rows[s])
            if len(K) == need:
                break
        start += count
    NK: list = []
    start = 1
    for (_, count), t in zip(h.runs, target_of):
        if t in reach:
            NK += range(start, start + count)
        start += count
    return Verdict(False, violator=HallViolator(K=tuple(K), NK=tuple(NK)))


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


def verify_certificate(g: GroupExpr, h: GroupExpr, v: Verdict) -> bool:
    """Independent check of a claimed verdict for ``reduces(g, h)``.

    Positive: the edge list must cover every source factor exactly once, hit
    distinct in-range target factors, and every edge must revalidate against
    the rule table with its reason and recomputed surplus table.  Negative:
    N(K) must be exactly the rule-table neighborhood of K, with |N(K)| < |K|.
    Malformed indices make the certificate invalid rather than raising.
    """
    m, n = dimension(g), dimension(h)
    g_ends, h_ends = run_ends(g), run_ends(h)
    if v.reducible:
        if v.certificate is None or v.violator is not None:
            return False
        if any(not isinstance(i, int) for w in v.certificate for i in (w.left_index, w.right_index)):
            return False
        covered = sorted(w.left_index for w in v.certificate)
        if covered != list(range(1, m + 1)):
            return False
        rights = [w.right_index for w in v.certificate]
        if len(set(rights)) != len(rights):
            return False
        expected: dict = {}  # per pair of atoms: (reason, surplus table), or None off the table
        for w in v.certificate:
            if not 1 <= w.right_index <= n:
                return False
            a = g.runs[bisect_right(g_ends, w.left_index - 1)][0]
            b = h.runs[bisect_right(h_ends, w.right_index - 1)][0]
            if (a, b) not in expected:
                expected[a, b] = _edge(a, b) if atom_reduces(a, b) else None
            if (w.reason, w.deficit) != expected[a, b]:
                return False
        return True
    if v.violator is None or v.certificate is not None:
        return False
    K = v.violator.K
    if not K or len(set(K)) != len(K):
        return False
    if any(not isinstance(i, int) or not 1 <= i <= m for i in K):
        return False
    # the distinct atoms of K, each tested once per run of h
    sources = list(dict.fromkeys(g.runs[r][0] for r in sorted({bisect_right(g_ends, i - 1) for i in K})))
    neighborhood = []
    start = 0
    for b, count in h.runs:
        if any(atom_reduces(a, b) for a in sources):
            neighborhood.extend(range(start + 1, start + count + 1))
        start += count
    if neighborhood != sorted(v.violator.NK):
        return False
    return len(v.violator.NK) < len(K)
