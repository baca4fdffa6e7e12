"""Symbolic group expressions: finite products of R, T, and solenoids.

An expression is a flat, ordered product of atoms, stored as runs: a tuple
of ``(atom, count)`` pairs in which adjacent atoms differ and every count is
at least 1, so ``T^10000000`` is one pair.  Each atom is connected, abelian,
and one-dimensional, so the factor count (the sum of the run counts) is the
covering dimension and compactness is just the absence of R factors.
Nested products and powers flatten into this form, merging equal atoms
where parts meet, so ``(T x R x T)^2`` is T, R, T^2, R, T.
``GroupExpr.factors`` is a sized view of the runs whose ``len`` costs one
step per run.  The trivial group is the empty product and is admitted so
that every command-line operation is total.  One expression has at most
``MAX_FACTORS`` (10^7) factors; the count of a larger one is known before
its runs are built, and it is a ``DomainError``.  The literal parser builds
each term's runs and factor count as it reads it, with ``_raised``,
``_product`` and ``_capped`` below.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from itertools import accumulate, chain, repeat, starmap
from operator import attrgetter, itemgetter

from ._value import Value
from .errors import DomainError, checked_natural
from .supernatural import OMEGA, SupernaturalProfile

__all__ = [
    "AtomKind",
    "Atom",
    "REAL",
    "TORUS",
    "GroupExpr",
    "TRIVIAL_GROUP",
    "group",
    "solenoid",
    "MAX_FACTORS",
    "run_ends",
    "dimension",
    "is_compact",
]


class AtomKind(Enum):
    REAL = "R"
    TORUS = "T"
    SOLENOID = "SOL"


class Atom(Value):
    """One factor: the real line, the circle group, or a solenoid whose
    isomorphism type is carried by a prime-multiplicity profile."""

    __slots__ = _fields = ("kind", "profile")

    def __init__(self, kind: AtomKind, profile: SupernaturalProfile | None = None):
        if kind is AtomKind.SOLENOID:
            if not isinstance(profile, SupernaturalProfile):
                raise DomainError("solenoid atom requires a profile")
            if not profile.has_infinite_total:
                raise DomainError(
                    f"profile {profile} has finite total multiplicity; a solenoid "
                    "needs an infinite prime sequence behind it"
                )
        elif profile is not None:
            raise DomainError(f"{kind.value} atom carries no profile")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "profile", profile)

    @classmethod
    def _of_profile(cls, profile: SupernaturalProfile) -> "Atom":
        """A solenoid atom whose profile is known to have infinite total
        multiplicity, built without checking it again."""
        atom = object.__new__(cls)
        object.__setattr__(atom, "kind", AtomKind.SOLENOID)
        object.__setattr__(atom, "profile", profile)
        return atom

    def __str__(self):
        if self.kind is AtomKind.SOLENOID:
            return f"Sol{self.profile}"
        return self.kind.value


REAL = Atom(AtomKind.REAL)
TORUS = Atom(AtomKind.TORUS)


def solenoid(profile: SupernaturalProfile | Mapping, default=0) -> Atom:
    """Solenoid atom from a profile, or from an exceptions mapping plus default.

    >>> str(solenoid({2: 6, 3: OMEGA}))
    'Sol{2:6, 3:w}'
    """
    if not isinstance(profile, SupernaturalProfile):
        profile = SupernaturalProfile(profile, default)
    return Atom(AtomKind.SOLENOID, profile)


def _joined(parts) -> tuple:
    """Concatenated canonical runs, merging equal atoms where parts meet."""
    runs: list = []
    for part in parts:
        if runs and part:
            (atom, count), (first, first_count) = runs[-1], part[0]
            if atom is first or atom == first:  # the identity test spares most calls of Value.__eq__
                runs[-1] = (atom, count + first_count)
                runs.extend(part[1:])
                continue
        runs.extend(part)
    return tuple(runs)


class GroupExpr(Value):
    """Normalized product as canonical runs: ``(atom, count)`` pairs with
    adjacent atoms distinct and counts positive (empty = trivial).  The
    constructor merges adjacent equal atoms and drops zero counts, so equal
    products are equal values with equal hashes."""

    __slots__ = _fields = ("runs",)

    def __init__(self, runs: tuple = ()):
        runs = tuple(runs)
        for run in runs:
            if not (isinstance(run, tuple) and len(run) == 2):
                raise DomainError(f"group run must be an (atom, count) pair, got {run!r}")
            atom, count = run
            if not isinstance(atom, Atom):
                raise DomainError(f"group factor must be an Atom, got {atom!r}")
            checked_natural(count, "run count must be a natural number")
        object.__setattr__(self, "runs", _joined((run,) for run in runs if run[1]))

    @classmethod
    def _of_runs(cls, runs: tuple) -> "GroupExpr":
        """An expression whose runs are known canonical, built without
        checking or joining them again."""
        g = object.__new__(cls)
        object.__setattr__(g, "runs", runs)
        return g

    @property
    def factors(self) -> "_Expansion":
        """One atom per factor, as a view of the runs; the engine reads ``runs``."""
        return _Expansion(self.runs)

    def __mul__(self, other: "GroupExpr") -> "GroupExpr":
        return GroupExpr._of_runs(_joined((self.runs, other.runs)))

    def __str__(self):
        from .literals import render_group

        return render_group(self)


class _Expansion:
    """The factors of runs, sized and iterable but not indexable: take
    ``tuple(...)`` once for positions.  ``tuple`` reads the size first and
    allocates the result once; from a plain iterator it grows the result
    step by step, and a step that cannot grow in place copies it, so the
    peak memory of a large expansion would depend on the heap layout."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple):
        self.runs = runs

    def __len__(self):
        return sum(map(itemgetter(1), self.runs))

    def __iter__(self):
        return chain.from_iterable(starmap(repeat, self.runs))


TRIVIAL_GROUP = GroupExpr(())


def group(*atoms: Atom) -> GroupExpr:
    return GroupExpr(tuple((atom, 1) for atom in atoms))


def run_ends(g: GroupExpr) -> list:
    """Cumulative run counts: factor ``i`` (0-based) lies in run
    ``bisect_right(run_ends(g), i)``."""
    return list(accumulate(map(itemgetter(1), g.runs)))


# Most factors one expression may have.
MAX_FACTORS = 10**7

# A term is ``(runs, count)``: canonical runs and their factor count.  Its
# runs are built only while the count is within its budget, the factors the
# cap leaves after the terms before it, and are None past it: so no run is
# built past the cap, however the expression nests.


def _raised(runs, count: int, exponent: int, budget: int) -> tuple:
    """The term ``(runs, count)`` to the power ``exponent``, its runs
    repeated without a loop over the copies."""
    count *= exponent
    if count > budget:
        return None, count
    if exponent == 0 or not runs:  # runs of None come here with exponent 0
        return (), count
    (first, first_count), (last, last_count) = runs[0], runs[-1]
    if len(runs) == 1:
        return ((first, first_count * exponent),), count
    if first != last:
        return runs * exponent, count
    seam = ((last, last_count + first_count),) + runs[1:-1]
    return runs[:-1] + seam * (exponent - 1) + runs[-1:], count


def _product(parts: list, count: int, budget: int) -> tuple:
    """The term of the product of the runs ``parts``, of ``count`` factors."""
    if count > budget:
        return None, count
    return (parts[0] if len(parts) == 1 else _joined(parts)), count


def _capped(runs, count: int, unsplit: list) -> GroupExpr:
    """The expression of a whole term, refused past ``MAX_FACTORS``;
    ``unsplit`` holds the atoms of sequences that left an unsplit key."""
    if count > MAX_FACTORS:
        raise DomainError(f"expression has more than {MAX_FACTORS} factors, the cap on one expression")
    if unsplit:
        from .coprime import runs_on_one_base

        runs = runs_on_one_base(runs)
    return GroupExpr._of_runs(runs)


def dimension(g: GroupExpr) -> int:
    """Covering dimension: every atom is one-dimensional, so count factors."""
    return sum(map(itemgetter(1), g.runs))


def is_compact(g: GroupExpr) -> bool:
    """True iff no R factor (torus and solenoid factors are compact)."""
    return AtomKind.REAL not in map(attrgetter("kind"), map(itemgetter(0), g.runs))
