"""Almost-inclusion on ultimately periodic sets, realized inside the
reducibility order.

A family is a pair of profiles (P, Q) with Q's relation below P's and with
infinitely many primes strictly more frequent in Q than in P (here: P has
default 0, Q default OMEGA).  Enumerating those primes as d_0 < d_1 < ...,
each subset A of the naturals gets a concrete prime sequence

    P_A = P_A' interleave (P_0' interleave base(P))

where P_0' picks every third d-prime (d_0, d_3, d_6, ...), P_A' picks
d_{1+3c} for c running over the complement of A ascending, and base(P) is
the canonical representative of P.  (When the complement of A is finite the
P_A' layer is dropped.)  The sequences of two members then differ, up to
finitely many terms, exactly in the primes d_{1+3c} for c in A minus B, so

    A almost-included in B  <=>  member A reduces to member B,

with the d-primes chosen on residue 0 and 1 mod 3 so distinct layers never
collide.  Members are kept symbolic (family + set + power): the profile of
P_A has infinitely many multiplicity-1 primes and is deliberately outside
the representable profile class.  Concrete sequences exist only as finite
prefixes for oracle cross-checks.

The n-dimensional member group is the n-th power of the member solenoid;
the power law for products makes the order on members insensitive to a
common power, so verdicts only compare members of equal power.

The sets A are ultimately periodic and stored sparsely (``UPSet``): a
period, the residues that lie in A from some point on, and the finitely
many naturals that break that rule.  Almost inclusion is decided on
residue classes modulo the gcd of the two periods (``subset_star``), so no
operation walks the lcm of the periods or the span of the exceptions:

>>> fine, odds = UPSet.multiples_of(2 ** 40), UPSet(2, frozenset({1}))
>>> subset_star(fine, UPSet.multiples_of(2)), subset_star(fine, odds)
(True, False)
>>> subset_star(UPSet.from_finite([10 ** 30]), odds)
True
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import filterfalse, islice
from math import gcd

from .errors import DomainError, checked_natural
from .primes import factorint
from .primes import nextprime  # noqa: F401  bench/tracing.py patches this binding
from .supernatural import (
    OMEGA,
    SupernaturalProfile,
    _alternate,
    _paired,
    _primes_outside,
    canonical_terms,
    oracle_injection,
    preceq,
)

__all__ = [
    "UPSet",
    "Family",
    "MemberRef",
    "subset_star",
    "member_sequence",
    "member_reduces",
    "member_crosscheck",
    "CrosscheckReport",
    "chain_demo",
    "ChainDemo",
]


@dataclass(frozen=True)
class UPSet:
    """Ultimately periodic subset of the naturals, stored sparsely.

    From some point on, n is a member iff ``n % period`` is in ``residues``;
    ``flips`` holds the naturals whose membership differs from that
    periodic rule, and ``threshold`` is ``max(flips) + 1`` (0 without
    flips).  Canonical form: the residues are reduced to the minimal period,
    so two UPSets are structurally equal iff they are the same set.  A
    finite set, a cofinite one or the multiples of k costs its listed
    elements, not its largest element or k.

    >>> evens = UPSet.multiples_of(2)
    >>> 4 in evens, 7 in evens
    (True, False)
    >>> UPSet(4, frozenset({0, 2})) == evens
    True
    >>> grown = UPSet.from_membership((False, True, True), 2, (True, False))
    >>> grown.period, sorted(grown.residues), sorted(grown.flips), grown.threshold
    (2, [0], [0, 1], 2)

    ``exceptional`` and ``word`` are the dense bits below the threshold and
    over one period, built on access:

    >>> grown.exceptional, grown.word
    ((False, True), (True, False))
    """

    period: int = 1
    residues: frozenset = frozenset()
    flips: frozenset = frozenset()
    threshold: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        period = checked_natural(self.period, "period must be a positive integer", 1)
        residues, flips = frozenset(self.residues), frozenset(self.flips)
        for n in itertools.chain(residues, flips):
            checked_natural(n, "a residue or flip must be a natural number")
        if residues and max(residues) >= period:
            raise DomainError(f"residue {max(residues)} is not below period {period}")
        period, residues = _minimal_rule(period, residues)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "flips", flips)
        object.__setattr__(self, "threshold", max(flips) + 1 if flips else 0)

    @classmethod
    def from_word(cls, members, threshold: int, period: int, word) -> "UPSet":
        """The listed ``members`` below ``threshold``, then membership
        ``word[n % period]`` from ``threshold`` on."""
        checked_natural(threshold, "threshold must be a natural number")
        word = tuple(word)
        if len(word) != checked_natural(period, "period must be a positive integer", 1):
            raise DomainError(f"word length {len(word)} does not match period {period}")
        members = frozenset(members)
        if members and max(members) >= threshold:
            raise DomainError(f"member {max(members)} is not below threshold {threshold}")
        residues = [r for r, bit in enumerate(word) if bit]
        ruled = (n for r in residues for n in range(r, threshold, period))  # the rule's members below
        return cls(period, frozenset(residues), members.symmetric_difference(ruled))

    @classmethod
    def from_membership(cls, bits, period: int, word) -> "UPSet":
        """Membership ``bits[n]`` below ``len(bits)`` and ``word[n % period]``
        from there on."""
        bits = tuple(bits)
        return cls.from_word((n for n, bit in enumerate(bits) if bit), len(bits), period, word)

    @classmethod
    def from_finite(cls, members) -> "UPSet":
        return cls(1, frozenset(), members)

    @classmethod
    def from_cofinite(cls, excluded) -> "UPSet":
        return cls(1, frozenset({0}), excluded)

    @classmethod
    def multiples_of(cls, k: int) -> "UPSet":
        if k < 1:
            raise DomainError(f"multiples_of wants a positive modulus, got {k}")
        return cls(k, frozenset({0}))

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (n % self.period in self.residues) != (n in self.flips)

    @property
    def exceptional(self) -> tuple:
        return tuple(map(self.__contains__, range(self.threshold)))

    @property
    def word(self) -> tuple:
        return tuple(r in self.residues for r in range(self.period))

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_cofinite(self) -> bool:
        return len(self.residues) == self.period

    def ascending(self, members: bool = True):
        """The members ascending, or with ``members=False`` the non-members,
        as an iterator; its cost is the elements it yields plus the flips."""
        period, flips = self.period, self.flips
        block = sorted(self.residues)
        ruled = iter(())  # the periodic rule's elements of the wanted kind
        if members and block:
            ruled = (start + r for start in itertools.count(0, period) for r in block)
        elif not members and len(block) < period:
            ruled = (start + r for start in itertools.count(0, period) for r in _gaps(block, period))
        flipped_in = sorted(n for n in flips if (n % period in self.residues) != members)
        return _merged(filterfalse(flips.__contains__, ruled), flipped_in)

    def members_below(self, bound: int) -> tuple:
        return tuple(itertools.takewhile(bound.__gt__, self.ascending()))

    def complement_members(self, count: int) -> tuple:
        """First ``count`` elements of the complement, ascending."""
        if self.is_cofinite:
            raise DomainError("complement is finite; cannot enumerate that many elements")
        count = checked_natural(count, "count must be a natural number")
        return tuple(islice(self.ascending(members=False), count))

    def __str__(self):
        from .literals import render_upset

        return render_upset(self)


def _minimal_rule(period: int, residues: frozenset):
    """``(period, residues)`` reduced to the minimal period.

    The shifts mod ``period`` that fix the residue set form a subgroup of
    order e, and the minimal period is period / e.  Each orbit of that
    subgroup has e residues, so e divides gcd(period, |residues|): try
    one prime factor of the gcd at a time.
    """
    if not residues or len(residues) == period:
        return 1, frozenset({0}) if residues else frozenset()
    e = 1
    for prime, power in factorint(gcd(period, len(residues))).items():
        for _ in range(power):
            shift = period // (e * prime)
            if not all((r + shift) % period in residues for r in residues):
                break
            e *= prime
    period //= e
    return period, frozenset(r for r in residues if r < period)


def _merged(ascending, extra: list):
    """The ascending iterator with the sorted, disjoint ``extra`` merged in."""
    extra = iter(extra)
    pending = next(extra, None)
    for n in ascending:
        while pending is not None and pending < n:
            yield pending
            pending = next(extra, None)
        yield n
    if pending is not None:
        yield pending
        yield from extra


def _gaps(block: list, period: int):
    """The residues mod ``period`` missing from the sorted ``block``."""
    start = 0
    for r in itertools.chain(block, (period,)):
        yield from range(start, r)
        start = r + 1


def subset_star(a: UPSet, b: UPSet) -> bool:
    """Almost inclusion: the difference a minus b is finite.

    Beyond both thresholds membership is periodic.  With g = gcd of the
    periods, the class of residue r mod a.period meets exactly the
    b.period / g residues mod b.period congruent to r mod g (Chinese
    remainder theorem), so it lies in ``b`` iff ``b`` has all of them.

    >>> subset_star(UPSet.multiples_of(4), UPSet.multiples_of(2))
    True
    >>> subset_star(UPSet.multiples_of(2), UPSet.multiples_of(4))
    False
    """
    g = gcd(a.period, b.period)
    per_class = Counter(r % g for r in b.residues)
    return all(per_class[r % g] == b.period // g for r in a.residues)


def set_difference(a: UPSet, b: UPSet):
    """(finite?, elements): all of a minus b when finite, else the first few.

    A finite difference lies among the flips of ``a`` and ``b``: elsewhere
    both sets follow their periodic rules, and a ⊆* b makes a's rule a
    subset of b's.
    """
    if subset_star(a, b):
        return True, tuple(sorted(n for n in a.flips | b.flips if n in a and n not in b))
    return False, tuple(islice(filterfalse(b.__contains__, a.ascending()), 8))


@dataclass(frozen=True)
class Family:
    """The (P, Q) pair generating one embedded copy of the poset.

    Invariants: Q's relation reduces to P's (P preceq Q) and the d-set, the
    primes strictly more frequent in Q than in P, is infinite, which in this
    representation pins default(P) = 0 and default(Q) = OMEGA.  The
    d-enumeration d_0 < d_1 < ... is walked afresh on each use: the prime
    walk, skipping the finitely many exception primes at which P's
    multiplicity reaches Q's.
    """

    p: SupernaturalProfile
    q: SupernaturalProfile

    def __post_init__(self):
        p, q = self.p, self.q
        if not isinstance(p, SupernaturalProfile) or not isinstance(q, SupernaturalProfile):
            raise DomainError("family wants two supernatural profiles")
        if p.default is OMEGA or q.default is not OMEGA:
            raise DomainError(
                "family needs infinitely many primes more frequent in q than in p: "
                "default(p) must be 0 and default(q) OMEGA"
            )
        if not preceq(p, q):
            raise DomainError("family requires p preceq q (q's relation reduces to p's)")

    def __repr__(self):
        return f"Family(p={self.p}, q={self.q})"

    @classmethod
    def default(cls) -> "Family":
        return cls(SupernaturalProfile._of_primes({2: OMEGA}, 0), SupernaturalProfile.all_omega())

    def _d_walk(self) -> Iterator[int]:
        """A fresh iterator over d_0, d_1, d_2, ..."""
        return _primes_outside({gamma for gamma, tp, tq in _paired(self.p, self.q) if not tp < tq})

    def d_terms(self, k: int) -> tuple:
        """First ``k`` primes gamma with multiplicity(p, gamma) < (q, gamma)."""
        return tuple(islice(self._d_walk(), checked_natural(k, "count must be a natural number")))

    def d_term(self, i: int) -> int:
        """d_i, counting from 0."""
        i = checked_natural(i, "index must be a natural number")
        return next(islice(self._d_walk(), i, None))


def _at_positions(items: Iterator, positions) -> Iterator:
    """The items of ``items`` at the naturals ``positions``, in turn.  The
    positions must ascend: every caller passes a set's complement walked
    ascending or a sorted set difference."""
    taken = 0  # the items drawn so far
    for i in positions:
        yield next(islice(items, i - taken, None))
        taken = i + 1


@dataclass(frozen=True)
class MemberRef:
    """One member of the embedding: a set A, handled symbolically, and the
    power giving the dimension of the member group."""

    family: Family
    a: UPSet
    power: int = 1

    def __post_init__(self):
        checked_natural(self.power, "member power must be >= 1", 1)


def member_sequence(m: MemberRef, n: int) -> tuple:
    """First ``n`` terms of the member's concrete prime sequence.

    >>> fam = Family.default()
    >>> member_sequence(MemberRef(fam, UPSet.multiples_of(2)), 4)
    (13, 3, 37, 2)
    """
    checked_natural(n, "term count must be nonnegative")
    if n == 0:  # even when p has no infinite sequence
        return ()
    return tuple(islice(_member_terms(m), n))


def _member_terms(m: MemberRef):
    """The member's concrete prime sequence as an infinite iterator, made
    from one walk of the d-enumeration."""
    family = m.family
    zero_walk, a_walk = itertools.tee(family._d_walk())
    # P_0' interleave base(P)
    terms = _alternate(islice(zero_walk, 0, None, 3), canonical_terms(family.p))
    if not m.a.is_cofinite:
        # P_A' interleave (P_0' interleave base(P))
        a_layer = _at_positions(islice(a_walk, 1, None, 3), m.a.ascending(members=False))
        terms = _alternate(a_layer, terms)
    return terms


def _check_same_family(m_a: MemberRef, m_b: MemberRef):
    if m_a.family != m_b.family:
        raise DomainError("members belong to different families; verdicts compare within one embedding")
    if m_a.power != m_b.power:
        raise DomainError("members have different powers; verdicts compare equal dimensions")


def member_reduces(m_a: MemberRef, m_b: MemberRef) -> bool:
    """Does member A's relation reduce to member B's?  Exactly almost
    inclusion of A in B."""
    _check_same_family(m_a, m_b)
    return subset_star(m_a.a, m_b.a)


@dataclass(frozen=True)
class CrosscheckReport:
    """Finite-scale validation of a symbolic member verdict.

    ``surplus_primes`` are the primes d_{1+3c}, c in A minus B: the target
    member's sequence carries each of them once more than the source's, so
    the reduction exists iff that set is finite.  The oracle half replays
    the definition: windows of the target's sequence must eventually embed
    into prefixes of the source's sequence once a finite drop is allowed.
    """

    verdict: bool
    surplus_finite: bool
    surplus_primes: tuple
    drops_tested: tuple
    successful_drop: int | None
    window: int
    consistent: bool
    notes: tuple


def member_crosscheck(m_a: MemberRef, m_b: MemberRef, window: int = 100) -> CrosscheckReport:
    """Cross-check ``member_reduces(m_a, m_b)`` two independent ways.

    Symbolic: enumerate A minus B and map it through the d-enumeration.
    Oracle: for sampled drop points, test multiset embedding of the target
    sequence's window into a bounded prefix of the source sequence.
    Inconsistencies are recorded in the report, never raised.
    """
    _check_same_family(m_a, m_b)
    checked_natural(window, "window must be positive", 1)
    verdict = member_reduces(m_a, m_b)
    finite, elements = set_difference(m_a.a, m_b.a)
    surplus = tuple(_at_positions(islice(m_a.family._d_walk(), 1, None, 3), elements))

    drops = (0, *(1 << i for i in range(window.bit_length())))  # 0 and the powers of two <= window
    successful = None
    # both sequences are made once and extended as the drop grows
    target_terms, source_terms = _member_terms(m_b), _member_terms(m_a)
    target, prefix = [], []
    for drop in drops:
        target.extend(islice(target_terms, drop + window - len(target)))
        prefix.extend(islice(source_terms, 4 * (drop + window) + 64 - len(prefix)))
        if oracle_injection(target[drop:], prefix):
            successful = drop
            break

    notes = []
    if finite != verdict:
        notes.append("symbolic surplus finiteness disagrees with the verdict")
    if (successful is not None) != verdict:
        notes.append(
            "oracle embedding "
            + ("succeeded despite a negative verdict" if successful is not None else "failed at every tested drop despite a positive verdict")
        )
    consistent = not notes
    return CrosscheckReport(
        verdict=verdict,
        surplus_finite=finite,
        surplus_primes=surplus,
        drops_tested=drops,
        successful_drop=successful,
        window=window,
        consistent=consistent,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ChainDemo:
    """Pairwise verdict matrix over the powers-of-two chain plus the
    evens/odds antichain."""

    labels: tuple
    members: tuple
    matrix: tuple  # matrix[i][j] = member_reduces(members[i], members[j])


def chain_demo(f: Family, depth: int = 3, power: int = 1) -> ChainDemo:
    """Members A_i = multiples of 2^i for i < depth, then evens and odds.

    The chain is strictly decreasing in the order and the final pair is
    incomparable, which is the desk-scale shape of the embedded poset.
    """
    checked_natural(depth, "chain depth must be >= 2", 2)
    sets = [UPSet.multiples_of(2 ** i) for i in range(depth)]
    labels = [f"mult({2 ** i})" for i in range(depth)]
    sets.append(UPSet.multiples_of(2))
    labels.append("evens")
    sets.append(UPSet(2, frozenset({1})))
    labels.append("odds")
    members = tuple(MemberRef(f, s, power) for s in sets)
    matrix = tuple(
        tuple(member_reduces(mi, mj) for mj in members) for mi in members
    )
    return ChainDemo(tuple(labels), members, matrix)
