"""Symbolic group expressions: finite products of R, T, and solenoids.

An expression is a flat, ordered list of atoms.  Each atom is connected,
abelian, and one-dimensional, so the factor count is the covering dimension
and compactness is just the absence of R factors.  Raw parse trees (with
nested products, powers, and integer-sequence solenoids) normalize into this
form; the trivial group is the empty product and is admitted so that every
command-line operation is total.  One expression has at most ``MAX_FACTORS``
(10^7) factors; a larger one is a ``DomainError`` before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Mapping, Union

from .errors import DomainError
from .supernatural import (
    OMEGA,
    IntSeqSpec,
    SupernaturalProfile,
    factor_sequence,
    profile_from_sequence,
)

__all__ = [
    "AtomKind",
    "Atom",
    "REAL",
    "TORUS",
    "GroupExpr",
    "TRIVIAL_GROUP",
    "group",
    "solenoid",
    "RawAtom",
    "RawTrivial",
    "RawSolenoidSeq",
    "RawPower",
    "RawProduct",
    "MAX_FACTORS",
    "normalize_group",
    "dimension",
    "is_compact",
]


class AtomKind(Enum):
    REAL = "R"
    TORUS = "T"
    SOLENOID = "SOL"


@dataclass(frozen=True)
class Atom:
    """One factor: the real line, the circle group, or a solenoid whose
    isomorphism type is carried by a prime-multiplicity profile."""

    kind: AtomKind
    profile: SupernaturalProfile | None = None

    def __post_init__(self):
        if self.kind is AtomKind.SOLENOID:
            if not isinstance(self.profile, SupernaturalProfile):
                raise DomainError("solenoid atom requires a profile")
            if not self.profile.has_infinite_total:
                raise DomainError(
                    f"profile {self.profile} has finite total multiplicity; a solenoid "
                    "needs an infinite prime sequence behind it"
                )
        elif self.profile is not None:
            raise DomainError(f"{self.kind.value} atom carries no profile")

    def __str__(self):
        if self.kind is AtomKind.SOLENOID:
            return f"Sol{self.profile}"
        return self.kind.value


REAL = Atom(AtomKind.REAL)
TORUS = Atom(AtomKind.TORUS)


def solenoid(profile: Union[SupernaturalProfile, Mapping], default=0) -> Atom:
    """Solenoid atom from a profile, or from an exceptions mapping plus default.

    >>> str(solenoid({2: 6, 3: OMEGA}))
    'Sol{2:6, 3:w}'
    """
    if not isinstance(profile, SupernaturalProfile):
        profile = SupernaturalProfile(profile, default)
    return Atom(AtomKind.SOLENOID, profile)


@dataclass(frozen=True)
class GroupExpr:
    """Normalized product: a finite ordered tuple of atoms (empty = trivial)."""

    factors: tuple = ()

    def __post_init__(self):
        factors = tuple(self.factors)
        for atom in factors:
            if not isinstance(atom, Atom):
                raise DomainError(f"group factor must be an Atom, got {atom!r}")
        object.__setattr__(self, "factors", factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def __mul__(self, other: "GroupExpr") -> "GroupExpr":
        return GroupExpr(self.factors + other.factors)

    def __str__(self):
        from .literals import render_group

        return render_group(self)


TRIVIAL_GROUP = GroupExpr(())


def group(*atoms: Atom) -> GroupExpr:
    return GroupExpr(tuple(atoms))


# Raw parse trees, as produced by the literal parser.

@dataclass(frozen=True)
class RawAtom:
    atom: Atom


@dataclass(frozen=True)
class RawTrivial:
    pass


@dataclass(frozen=True)
class RawSolenoidSeq:
    seq: IntSeqSpec


@dataclass(frozen=True)
class RawPower:
    base: "RawNode"
    exponent: int


@dataclass(frozen=True)
class RawProduct:
    parts: tuple


RawNode = Union[RawAtom, RawTrivial, RawSolenoidSeq, RawPower, RawProduct, GroupExpr]


# Most factors one expression may normalize to.  The count is checked on the
# raw tree, before any factor is built.
MAX_FACTORS = 10**7


def _factor_count(node: RawNode) -> int:
    if isinstance(node, RawPower):
        return _factor_count(node.base) * max(node.exponent, 0)  # _expand refuses a negative one
    if isinstance(node, RawProduct):
        return sum(map(_factor_count, node.parts))
    if isinstance(node, GroupExpr):
        return len(node.factors)
    return 0 if isinstance(node, RawTrivial) else 1


def _expand(node: RawNode) -> tuple:
    if isinstance(node, GroupExpr):
        return node.factors
    if isinstance(node, RawAtom):
        return (node.atom,)
    if isinstance(node, RawTrivial):
        return ()
    if isinstance(node, RawSolenoidSeq):
        return (Atom(AtomKind.SOLENOID, profile_from_sequence(factor_sequence(node.seq))),)
    if isinstance(node, RawPower):
        if node.exponent < 0:
            raise DomainError(f"group exponent must be nonnegative, got {node.exponent}")
        base = _expand(node.base)
        return base * node.exponent if base else ()  # () * 10**30 would overflow
    if isinstance(node, RawProduct):
        return tuple(chain.from_iterable(map(_expand, node.parts)))
    raise DomainError(f"not a group expression node: {node!r}")


def normalize_group(node: RawNode) -> GroupExpr:
    """Flatten a raw tree to a factor list: powers expand, nested products
    splice, integer-sequence solenoids factor into prime solenoids, and the
    trivial atom contributes nothing.  Idempotent on normalized expressions.
    More than ``MAX_FACTORS`` factors is a ``DomainError``.
    """
    if isinstance(node, GroupExpr):
        return node
    if _factor_count(node) > MAX_FACTORS:
        raise DomainError(f"expression has more than {MAX_FACTORS} factors, the cap on one expression")
    return GroupExpr(_expand(node))


def dimension(g: GroupExpr) -> int:
    """Covering dimension: every atom is one-dimensional, so count factors."""
    return len(g.factors)


def is_compact(g: GroupExpr) -> bool:
    """True iff no R factor (torus and solenoid factors are compact)."""
    return all(atom.kind is not AtomKind.REAL for atom in g.factors)
