"""Dual groups of expressions and the dual route to reducibility.

Componentwise duals: the real line is self-dual, the circle dualizes to the
integers, and a solenoid dualizes to the rank-1 subgroup of the rationals
whose denominators are bounded by its profile.  A rank-1 type is therefore
given by a profile, the all-zero one being the integers.

Between rank-1 groups every homomorphism is multiplication by a rational
u/v, and a nonzero one from type ``a`` into type ``b`` exists exactly when a
fixed numerator u can absorb all of ``a``'s surplus denominators: per prime,
the image's denominator multiplicity is a's minus the multiplicity of u, so
a single u suffices iff the surplus of ``a`` over ``b`` is finite in total.
That makes the existence test the same deficit computation as the primal
profile order, which is the point of the cross-check: for compact
expressions, matching dual components (targets drawn from the source
expression's dual) must reproduce the primal verdict.  Any nonzero hom
between rank-1 groups has rank-0, hence torsion, cokernel, so a matching
covering every component of the target's dual realizes a homomorphism whose
full cokernel is torsion, which is the acceptance condition on the dual
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, repeat, starmap
from operator import itemgetter

from .errors import DomainError
from .groups import TORUS, AtomKind, GroupExpr, dimension, group, is_compact
from .matching import run_rows, saturating_matching_or_violator
from .supernatural import OMEGA, SupernaturalProfile, deficit

__all__ = [
    "RationalType",
    "INTEGERS",
    "DualComponentKind",
    "DualComponent",
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


class DualComponentKind(Enum):
    REAL_LINE = "REAL_LINE"
    RANK1 = "RANK1"


@dataclass(frozen=True)
class DualComponent:
    kind: DualComponentKind
    rational_type: RationalType | None = None

    def __post_init__(self):
        if self.kind is DualComponentKind.RANK1:
            if not isinstance(self.rational_type, RationalType):
                raise DomainError("RANK1 dual component requires a rational type")
        elif self.rational_type is not None:
            raise DomainError("REAL_LINE dual component carries no rational type")

    def __str__(self):
        return "R" if self.kind is DualComponentKind.REAL_LINE else str(self.rational_type)


_REAL_LINE = DualComponent(DualComponentKind.REAL_LINE)
_INTEGERS_COMPONENT = DualComponent(DualComponentKind.RANK1, INTEGERS)


@dataclass(frozen=True)
class DualExpr:
    """Dual of a group expression, componentwise, as ``(component, count)``
    runs: one run per run of the expression, since distinct atoms have
    distinct duals.  ``components`` (one entry per factor) is built on first
    use only."""

    runs: tuple = ()

    @cached_property
    def components(self) -> tuple:
        return tuple(chain.from_iterable(starmap(repeat, self.runs)))


def dual(g: GroupExpr) -> DualExpr:
    """Componentwise dual: R stays R, T becomes the integers, a solenoid
    becomes the rational type of its profile.

    >>> str(dual(group(TORUS)).components[0])
    'Z'
    """
    # One component per distinct atom object.  Keyed by identity: a power
    # repeats the same atom objects, and hashing a solenoid atom costs more
    # than building its run; ``g`` keeps every key alive.
    components: dict = {}
    runs = []
    for atom, count in g.runs:
        component = components.get(id(atom))
        if component is None:
            if atom.kind is AtomKind.REAL:
                component = _REAL_LINE
            elif atom.kind is AtomKind.TORUS:
                component = _INTEGERS_COMPONENT
            else:
                component = DualComponent(DualComponentKind.RANK1, RationalType(atom.profile))
            components[id(atom)] = component
        runs.append((component, count))
    return DualExpr(tuple(runs))


def rank(d: DualExpr) -> int:
    """Torsion-free rank of the dual of a compact expression: each rank-1
    component contributes one.  The rank/dimension identity is stated for
    compact groups, so a real-line component is out of domain here."""
    if any(c.kind is DualComponentKind.REAL_LINE for c, _ in d.runs):
        raise DomainError("rank is defined here only for duals of compact expressions")
    return sum(map(itemgetter(1), d.runs))


def hom_nonzero_exists(a: RationalType, b: RationalType) -> bool:
    """Is there a nonzero homomorphism from the group of type ``a`` into the
    group of type ``b``?  Holds iff the surplus of ``a``'s denominator
    profile over ``b``'s is finite (a single numerator absorbs it).

    >>> hom_nonzero_exists(INTEGERS, RationalType(SupernaturalProfile({2: OMEGA})))
    True
    >>> hom_nonzero_exists(RationalType(SupernaturalProfile({2: OMEGA})), INTEGERS)
    False
    """
    return deficit(a.profile, b.profile) is not OMEGA


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
    adjacency = run_rows(
        targets, sources, lambda t, s: hom_nonzero_exists(s.rational_type, t.rational_type)
    )
    matching, _ = saturating_matching_or_violator(left, right, adjacency)
    return matching is not None
