"""Dual groups of expressions and the dual route to reducibility.

Componentwise duals: the real line is self-dual, the circle dualizes to the
integers, and a solenoid dualizes to the rank-1 subgroup of the rationals
whose denominators are bounded by its profile.  A rank-1 type is therefore
given by a profile, the all-zero one being the integers.  A dual component
is accordingly either the atom ``REAL`` itself or a ``RationalType``, which
renders as ``Z`` or ``Q{...}``.

Between rank-1 groups every homomorphism is multiplication by a rational
u/v, and a nonzero one from type ``a`` into type ``b`` exists exactly when a
fixed numerator u can absorb all of ``a``'s surplus denominators: per prime,
the image's denominator multiplicity is a's minus the multiplicity of u, so
a single u suffices iff the surplus of ``a`` over ``b`` is finite in total.
That makes the existence test the primal profile order ``preceq`` itself,
which is the point of the cross-check: for compact
expressions, matching dual components (targets drawn from the source
expression's dual) must reproduce the primal verdict.  Any nonzero hom
between rank-1 groups has rank-0, hence torsion, cokernel, so a matching
covering every component of the target's dual realizes a homomorphism whose
full cokernel is torsion, which is the acceptance condition on the dual
side.

The matching is found by ``saturating_matching_or_violator``, Kuhn's
augmenting-path search with one vertex per factor, run with an explicit
stack.  It lives here, apart from the product engine's class flow, so that
the dual route stays an independent algorithmic cross-check.  The first
left vertex whose search fails refutes every matching: the left vertices
that search reached form a Hall violator K, and the right vertices it
visited are exactly N(K), each matched back into K (the start vertex is
not).  No later augmenting path can enter that set, so the search stops
there.  Left vertices may share one row object (``run_rows`` gives equal
components one); a search scans a shared row once, since every entry
before its last stop has been visited.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import repeat
from operator import is_, itemgetter

from ._value import Value
from .errors import DomainError
from .groups import REAL, TORUS, AtomKind, GroupExpr, _Expansion, dimension, group, is_compact
from .supernatural import OMEGA, SupernaturalProfile, preceq

__all__ = [
    "RationalType",
    "INTEGERS",
    "DualExpr",
    "dual",
    "rank",
    "hom_nonzero_exists",
    "dual_reduces",
    "MAX_DUAL_COMPONENTS",
]

# The most components (factors) each side of ``dual_reduces`` may have.  Its
# Kuhn search has one vertex per component and is quadratic in their number:
# T^3000 -> T^3000 and Sol{2:w}^1500 x T^1500 -> T^1500 x Sol{2:w}^1500
# take 3-4 s each; past the cap the call is a ``DomainError``.
MAX_DUAL_COMPONENTS = 3000

_ZERO_PROFILE = SupernaturalProfile((), 0)


class RationalType(Value):
    """Isomorphism type of a rank-1 group: a subgroup of the rationals whose
    denominators' prime factorizations are bounded by ``profile``.  The
    all-zero profile is the type of the integers.
    """

    __slots__ = _fields = ("profile",)

    def __init__(self, profile: SupernaturalProfile = _ZERO_PROFILE):
        if not isinstance(profile, SupernaturalProfile):
            raise DomainError(f"rational type wants a profile, got {profile!r}")
        object.__setattr__(self, "profile", profile)

    @property
    def is_integers(self) -> bool:
        return self.profile == _ZERO_PROFILE

    def __str__(self):
        return "Z" if self.is_integers else f"Q{self.profile}"


INTEGERS = RationalType()


class DualExpr(Value):
    """Dual of a group expression, componentwise, as ``(component, count)``
    runs: one run per run of the expression, since distinct atoms have
    distinct duals.  A component is ``REAL`` or a ``RationalType``.
    ``components``, one entry per factor, is a sized view of the runs."""

    __slots__ = _fields = ("runs",)

    def __init__(self, runs: tuple = ()):
        object.__setattr__(self, "runs", runs)

    @property
    def components(self) -> _Expansion:
        return _Expansion(self.runs)


def dual(g: GroupExpr) -> DualExpr:
    """Componentwise dual: R stays R, T becomes the integers, a solenoid
    becomes the rational type of its profile.

    >>> [str(component) for component in dual(group(TORUS, REAL)).components]
    ['Z', 'R']
    """
    # One component per distinct atom object, and one dual run per distinct
    # atom object and count, shared by every run that repeats them: a power
    # repeats its runs, and a product written out repeats runs of count 1.
    # Keyed by identity: hashing a solenoid atom costs more than building
    # its run; ``g`` keeps every key alive.
    components: dict = {}
    dual_runs: dict = {}  # id(atom) -> {count: (component, count)}
    runs = []
    for atom, count in g.runs:
        key = id(atom)
        by_count = dual_runs.get(key)
        if by_count is None:
            if atom.kind is AtomKind.REAL:
                components[key] = REAL
            elif atom.kind is AtomKind.TORUS:
                components[key] = INTEGERS
            else:
                components[key] = RationalType(atom.profile)
            by_count = dual_runs[key] = {}
        dual_run = by_count.get(count)
        if dual_run is None:
            dual_run = by_count[count] = (components[key], count)
        runs.append(dual_run)
    return DualExpr(tuple(runs))


def rank(d: DualExpr) -> int:
    """Torsion-free rank of the dual of a compact expression: each rank-1
    component contributes one.  The rank/dimension identity is stated for
    compact groups, so a real-line component is out of domain here."""
    if any(map(is_, map(itemgetter(0), d.runs), repeat(REAL))):
        raise DomainError("rank is defined here only for duals of compact expressions")
    return sum(map(itemgetter(1), d.runs))


def hom_nonzero_exists(a: RationalType, b: RationalType) -> bool:
    """Is there a nonzero homomorphism from the group of type ``a`` into the
    group of type ``b``?  Holds iff the surplus of ``a``'s denominator
    profile over ``b``'s is finite (a single numerator absorbs it), that is
    iff ``preceq(a.profile, b.profile)``.

    >>> hom_nonzero_exists(INTEGERS, RationalType(SupernaturalProfile({2: OMEGA})))
    True
    >>> hom_nonzero_exists(RationalType(SupernaturalProfile({2: OMEGA})), INTEGERS)
    False
    """
    return preceq(a.profile, b.profile)


def dual_reduces(g: GroupExpr, h: GroupExpr) -> bool:
    """Decide reducibility of ``g`` into ``h`` through the duals.

    Both sides must be compact (no real factor).  Builds the bipartite graph
    whose left vertices are ``dual(g)``'s components and whose edges join a
    component of ``dual(h)`` to a component of ``dual(g)`` when a nonzero
    homomorphism exists between them; reducibility holds iff a matching
    saturates ``dual(g)``'s side.  Must agree with the primal engine.
    Each side may have at most ``MAX_DUAL_COMPONENTS`` factors.
    """
    if not is_compact(g):
        raise DomainError("dual route requires a compact source (no R factor)")
    if not is_compact(h):
        raise DomainError("dual route is restricted to compact targets (no R factor)")
    left, right = dimension(g), dimension(h)
    if max(left, right) > MAX_DUAL_COMPONENTS:
        raise DomainError(
            f"dual route takes at most {MAX_DUAL_COMPONENTS} components a side, got {left} and {right}"
        )
    targets = dual(g).runs
    sources = dual(h).runs
    adjacency = run_rows(targets, sources, lambda t, s: hom_nonzero_exists(s, t))
    matching, _ = saturating_matching_or_violator(left, right, adjacency)
    return matching is not None


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
    match_left: list[int | None] = [None] * num_left
    match_right: list[int | None] = [None] * num_right
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
