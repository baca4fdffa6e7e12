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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import is_, itemgetter

from .errors import DomainError
from .groups import REAL, TORUS, AtomKind, GroupExpr, _Expansion, dimension, group, is_compact
from .matching import run_rows, saturating_matching_or_violator
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


@dataclass(frozen=True)
class RationalType:
    """Isomorphism type of a rank-1 group: a subgroup of the rationals whose
    denominators' prime factorizations are bounded by ``profile``.  The
    all-zero profile is the type of the integers.
    """

    profile: SupernaturalProfile = _ZERO_PROFILE

    def __post_init__(self):
        if not isinstance(self.profile, SupernaturalProfile):
            raise DomainError(f"rational type wants a profile, got {self.profile!r}")

    @property
    def is_integers(self) -> bool:
        return self.profile == _ZERO_PROFILE

    def __str__(self):
        return "Z" if self.is_integers else f"Q{self.profile}"


INTEGERS = RationalType()


@dataclass(frozen=True)
class DualExpr:
    """Dual of a group expression, componentwise, as ``(component, count)``
    runs: one run per run of the expression, since distinct atoms have
    distinct duals.  A component is ``REAL`` or a ``RationalType``.
    ``components``, one entry per factor, is a sized view of the runs."""

    runs: tuple = ()

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
