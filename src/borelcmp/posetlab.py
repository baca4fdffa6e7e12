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

import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from functools import cached_property
from itertools import chain, compress, count, cycle, filterfalse, islice, repeat, takewhile
from math import gcd
from operator import itemgetter, ne, sub

from ._value import Value
from .errors import DomainError, checked_natural
from .farprimes import _every_third, _runs_outside, factorint
from .farprimes import nextprime  # noqa: F401  bench/tracing.py patches this binding
from .replay import Replay, _covering_prefix, _Layout, _primes_outside, _ranks, canonical_terms
from .supernatural import OMEGA, SupernaturalProfile, _paired, preceq

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


class UPSet(Value):
    """Ultimately periodic subset of the naturals, stored sparsely.

    From some point on, n is a member iff ``n % period`` is in ``residues``;
    ``flips`` holds the naturals whose membership differs from that
    periodic rule, and ``threshold`` is ``max(flips) + 1`` (0 without
    flips), kept out of equality, hashing and the repr.  Canonical form:
    the residues are reduced to the minimal period, so two UPSets are
    structurally equal iff they are the same set.  A finite set, a cofinite
    one or the multiples of k costs its listed elements, not its largest
    element or k.

    >>> evens = UPSet.multiples_of(2)
    >>> 4 in evens, 7 in evens
    (True, False)
    >>> UPSet(4, frozenset({0, 2})) == evens
    True
    >>> grown = UPSet.from_word({1, 2}, 3, 2, (True, False))
    >>> grown.period, sorted(grown.residues), sorted(grown.flips), grown.threshold
    (2, [0], [0, 1], 2)

    ``exceptional`` and ``word`` are the dense bits below the threshold and
    over one period, built on access:

    >>> grown.exceptional, grown.word
    ((False, True), (True, False))

    No ``__slots__``: the instance dict holds ``threshold`` and the cached
    ``_sorted``.
    """

    _fields = ("period", "residues", "flips")

    def __init__(self, period: int = 1, residues: frozenset = frozenset(), flips: frozenset = frozenset()):
        self.__post_init__(period, residues, flips)

    def __post_init__(self, period, residues, flips):
        # the checks and the stores, under the name bench/tracing.py patches
        period = checked_natural(period, "period must be a positive integer", 1)
        residues, flips = frozenset(residues), frozenset(flips)
        for n in chain(residues, flips):
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

    def ascending(self) -> Iterator[int]:
        """The members ascending, as an iterator that costs one step per
        member it yields: the rule's members ``k * period + r``, over the
        sorted residues r for k = 0, 1, 2, ..., less the flips out of the
        set, merged with the flips into it.  A sparse set costs its
        members, not the naturals between them: the multiples of 2^40
        take one step each.  The non-members are read off
        ``_outside_mask``.
        """
        from heapq import merge

        residues, _, into = self._sorted
        ruled = (k + r for k in count(0, self.period) for r in residues) if residues else ()
        return merge(filterfalse(self.flips.__contains__, ruled), into)

    def _outside_mask(self) -> Iterator[bool]:
        """Whether 0, 1, 2, ... lie outside the set: an infinite iterator
        of bools that runs in C, for a walk that passes every natural
        anyway to ``compress``.

        The rule cycles the bits of one period when its spans of residues
        are short and repeats one bit per span when they are long (a period
        of 2^40 has such a span); the flips toggle it below the threshold
        through one ``map(ne, ...)``.  Its memory is O(residues + flips),
        never O(period) or O(threshold).

        The switch bounds the cycled bits by 64 per span, for memory, not
        for speed: cycling is the faster regime on both sides of it.  Drawing
        10^6 bits of ``UPSet(p, range(1, p))`` and of sets of five runs,
        each regime forced (CPython 3.11, shared 2-core x86-64 Linux host,
        five runs), the cycled bits take 5.3-11 ms at every mean span from
        3 to 1,024 bits, and one repeat per span takes 4-12 times as long at
        spans of 3-4 bits, 1.6-1.9 times at 43-64 and 1.1-1.7 times at
        85-1,024 (once, at 683, 0.8 times).
        """
        bounds = _bounds(sorted(self.residues), self.period)
        lengths = list(map(_reachable, map(sub, bounds[1:], bounds)))  # gap, run, gap, ..., run, gap
        bits = list(islice(cycle((True, False)), len(lengths)))
        if self.period <= 64 * len(lengths):  # short spans: the bits of a whole period
            rule = cycle(tuple(chain.from_iterable(map(repeat, bits, lengths))))
        else:  # long spans: one repeat each
            rule = chain.from_iterable(map(repeat, cycle(bits), cycle(lengths)))
        toggles, start = [], 0  # no toggle up to each flip, then one at it
        for n in sorted(self.flips):
            toggles += repeat(False, _reachable(n - start)), (True,)
            start = n + 1
        # the toggles come first in the map: it ends on them without drawing from the rule
        return chain(map(ne, chain.from_iterable(toggles), rule), rule)

    def _holds(self, numbers: list) -> Iterator[bool]:
        """Whether each of the naturals ``numbers`` is a member, in C: the
        rule's residue test, toggled by the flips."""
        rule = map(self.residues.__contains__, map(self.period.__rmod__, numbers))
        return map(ne, rule, map(self.flips.__contains__, numbers))

    def count_below(self, n: int) -> int:
        """How many members lie below ``n``, counted from the period, the
        residues and the flips; none below ``n <= 0``."""
        residues, out, into = self._sorted
        full, rest = divmod(max(_checked_bound(n), 0), self.period)
        return full * len(residues) + bisect_left(residues, rest) - bisect_left(out, n) + bisect_left(into, n)

    @cached_property
    def _sorted(self):
        """The residues, the flips out of the set and the flips into it,
        each sorted."""
        out = sorted(n for n in self.flips if n % self.period in self.residues)
        return sorted(self.residues), out, sorted(self.flips.difference(out))

    def members_below(self, bound: int) -> tuple:
        return tuple(takewhile(_checked_bound(bound).__gt__, self.ascending()))

    def __str__(self):
        from .setliterals import render_upset

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


def _bounds(residues: list, period: int) -> list:
    """0, where each maximal run of consecutive residues in the sorted
    ``residues`` starts and ends, and ``period``: the gaps and the runs
    alternate, and only the first and last gap may be empty."""
    bounds = [0]
    for r in residues:
        if len(bounds) > 1 and bounds[-1] == r:
            bounds[-1] = r + 1
        else:
            bounds += r, r + 1
    bounds.append(period)
    return bounds


def _checked_bound(bound) -> int:
    """``bound``, an int and no bool; a negative one has no member below
    it."""
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise DomainError(f"bound must be an integer, got {bound!r}")
    return bound


def _reachable(n: int) -> int:
    """A count for ``islice`` or ``repeat``, clipped to ``sys.maxsize``:
    they take no larger one, and no walk gets that far."""
    return min(n, sys.maxsize)


def subset_star(a: UPSet, b: UPSet) -> bool:
    """Almost inclusion: the difference a minus b is finite.

    Beyond both thresholds membership is periodic.  With g = gcd of the
    periods, the class of residue r mod a.period meets exactly the
    b.period / g residues mod b.period congruent to r mod g (Chinese
    remainder theorem), so it lies in ``b`` iff ``b`` has all of them.
    Each class c mod g of ``a``'s residues is tested once, and the test
    stops at the first residue of ``b`` it misses.

    >>> subset_star(UPSet.multiples_of(4), UPSet.multiples_of(2))
    True
    >>> subset_star(UPSet.multiples_of(2), UPSet.multiples_of(4))
    False
    """
    g, period, residues = gcd(a.period, b.period), b.period, b.residues
    for c in {r % g for r in a.residues}:
        if not residues.issuperset(range(c, period, g)):
            return False
    return True


def set_difference(a: UPSet, b: UPSet):
    """(finite?, elements): all of a minus b when finite, else the first few.

    A finite difference lies among the flips of ``a`` and ``b``: elsewhere
    both sets follow their periodic rules, and a ⊆* b makes a's rule a
    subset of b's.  An infinite one is drawn from the side with fewer
    candidates per period: a's members, one step each, filtered through
    ``b``, or b's non-members, read off its mask in C, filtered through
    ``a``.
    """
    if subset_star(a, b):
        return True, tuple(sorted(n for n in a.flips | b.flips if n in a and n not in b))
    if len(a.residues) * b.period <= (b.period - len(b.residues)) * a.period:
        elements = filterfalse(b.__contains__, a.ascending())
    else:
        elements = filter(a.__contains__, compress(count(), b._outside_mask()))
    return False, tuple(islice(elements, 8))


class Family(Value):
    """The (P, Q) pair generating one embedded copy of the poset.

    Invariants: Q's relation reduces to P's (P preceq Q) and the d-set, the
    primes strictly more frequent in Q than in P, is infinite, which in this
    representation pins default(P) = 0 and default(Q) = OMEGA.  The
    d-enumeration d_0 < d_1 < ... is walked afresh on each use: the prime
    walk, skipping the finitely many exception primes at which P's
    multiplicity reaches Q's.  A d-layer reads every third prime of the
    walk's runs, as slices.
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: SupernaturalProfile, q: SupernaturalProfile):
        if not isinstance(p, SupernaturalProfile) or not isinstance(q, SupernaturalProfile):
            raise DomainError("family wants two supernatural profiles")
        if p.default is OMEGA or q.default is not OMEGA:
            raise DomainError(
                "family needs infinitely many primes more frequent in q than in p: "
                "default(p) must be 0 and default(q) OMEGA"
            )
        if not preceq(p, q):
            raise DomainError("family requires p preceq q (q's relation reduces to p's)")
        if p.unsplit or q.unsplit:  # the d-enumeration and the layouts walk primes
            raise DomainError("family profiles must have prime keys; an S[...] entry left one unsplit")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __repr__(self):
        return f"Family(p={self.p}, q={self.q})"

    @classmethod
    def default(cls) -> "Family":
        return cls(SupernaturalProfile._of_primes({2: OMEGA}, 0), SupernaturalProfile.all_omega())

    def _not_d(self) -> set:
        """The exception primes that are no d-primes: p's multiplicity
        reaches q's there."""
        return {gamma for gamma, tp, tq in _paired(self.p, self.q) if not tp < tq}

    def _d_walk(self) -> Iterator[int]:
        """A fresh iterator over d_0, d_1, d_2, ..."""
        return _primes_outside(self._not_d())

    def _d_layer(self, offset: int) -> Iterator[int]:
        """A fresh iterator over d_offset, d_{offset+3}, d_{offset+6}, ..."""
        return _every_third(_runs_outside(self._not_d()), offset)

    def d_terms(self, k: int) -> tuple:
        """First ``k`` primes gamma more frequent in q than in p."""
        return tuple(islice(self._d_walk(), checked_natural(k, "count must be a natural number")))


def _d_budget(family: Family) -> int:
    """How many d-primes lie below 2^32, the segmented sieve's reach."""
    return 203_280_221 - sum(gamma < 2**32 for gamma in family._not_d())  # pi(2^32), OEIS A007053


def _at_positions(items: Iterator, positions) -> Iterator:
    """The items of ``items`` at the ascending naturals ``positions``: the
    crosscheck's surplus primes, a sorted set difference of a few elements."""
    taken = 0  # the items drawn so far
    for i in positions:
        yield next(islice(items, i - taken, None))
        taken = i + 1


class MemberRef(Value):
    """One member of the embedding: a set A, handled symbolically, and the
    power giving the dimension of the member group."""

    __slots__ = _fields = ("family", "a", "power")

    def __init__(self, family: Family, a: UPSet, power: int = 1):
        if not isinstance(family, Family):
            raise DomainError(f"member family must be a Family, got {family!r}")
        if not isinstance(a, UPSet):
            raise DomainError(f"member set must be a UPSet, got {a!r}")
        checked_natural(power, "member power must be >= 1", 1)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "power", power)


def member_sequence(m: MemberRef, n: int) -> tuple:
    """First ``n`` terms of the member's concrete prime sequence.

    >>> fam = Family.default()
    >>> member_sequence(MemberRef(fam, UPSet.multiples_of(2)), 4)
    (13, 3, 37, 2)
    """
    checked_natural(n, "term count must be nonnegative")
    if n == 0:  # even when p has no infinite sequence
        return ()
    layout, terms = _MemberLayout(m), [None] * n
    for slot, entries in zip(layout.slots, layout.window(0, n)):
        if slot:
            terms[slot[1]::slot[0]] = entries
    return tuple(terms)


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


class _MemberLayout:
    """Where each term sits in a member's sequence, stated once: entry k of
    a layer sits at ``stride * k + offset``, one pair per layer in ``slots``.

        layer    | entry k                        | A not cofinite | A cofinite
        A layer  | d_{1+3c}, c the k-th outside A | 2k             | dropped
        P_0'     | d_{3k}                         | 4k + 1         | 2k
        base(P)  | the k-th canonical term        | 4k + 3         | 2k + 1

    ``window`` reads the layers, and ``position`` locates a prime without a
    walk: it occurs at most once in the d-layers, and base(P) may hold it
    too.  ``d_indices`` maps each d-prime asked about to its d-index.
    """

    A, P0, BASE = range(3)  # the layers, in the order of ``slots`` and ``window``
    RESIDUES = (1, 0)  # d-layer entry tagged e is d_{3e + RESIDUES[layer]}: d_{1+3c}, d_{3j}

    def __init__(self, m: MemberRef, d_indices: dict | None = None):
        self.family, self.a = m.family, m.a
        self.d_indices = {} if d_indices is None else d_indices
        self.slots = (None, (2, 0), (2, 1)) if m.a.is_cofinite else ((2, 0), (4, 1), (4, 3))

    @classmethod
    def d_index(cls, layer: int, tag: int) -> int:
        return 3 * tag + cls.RESIDUES[layer]

    @cached_property
    def _base(self) -> _Layout:
        return _Layout(self.family.p)

    def _before(self, layer: int, x: int) -> int:
        """How many entries of ``layer`` sit before position ``x``."""
        stride, offset = self.slots[layer]
        return -((offset - x) // stride)  # a ceiling

    def _at(self, layer: int, entry: int) -> int:
        stride, offset = self.slots[layer]
        return stride * entry + offset

    def window(self, start: int, end: int, tagged: bool = False) -> tuple:
        """The A-layer, P_0' and base(P) entries at positions ``[start,
        end)``: an ``islice`` of each layer's stream, none of a dropped one.
        ``tagged`` pairs each d-layer entry with its tag: j for d_{3j}, c
        for d_{1+3c}; the A layer is ``compress``ed by A's mask, in C."""
        streams = [self.family._d_layer(residue) if slot else () for residue, slot in zip(self.RESIDUES, self.slots)]
        if tagged:
            streams = [zip(stream, count()) for stream in streams]
        streams.append(canonical_terms(self.family.p))
        if self.slots[self.A]:
            streams[self.A] = compress(streams[self.A], self.a._outside_mask())
        return tuple([list(islice(stream, self._before(layer, start), self._before(layer, end))) if slot else []
                      for layer, (stream, slot) in enumerate(zip(streams, self.slots))])

    def _d_position(self, i: int):
        """Where d_i sits in the d-layers, or None when they skip it."""
        tag, residue = divmod(i, 3)
        if residue == self.RESIDUES[self.P0]:
            return self._at(self.P0, tag)
        if residue == self.RESIDUES[self.A] and self.slots[self.A] and tag not in self.a:
            return self._at(self.A, tag - self.a.count_below(tag))  # c's rank among the non-members
        return None

    def position(self, gamma: int, k: int):
        """Where the k-th occurrence (from 1) of ``gamma`` sits, or None
        when the sequence holds fewer than k."""
        x = self._d_position(self.d_indices[gamma]) if gamma in self.d_indices else None
        if x is not None:
            before = self._base.count(gamma, self._before(self.BASE, x))
            if k == before + 1:  # the base(P) entries before x hold ``before`` of them
                return x
            k -= k > before  # past x, the k-th occurrence is base(P)'s (k-1)-th
        b = self._base.position(gamma, k)
        return None if b is None else self._at(self.BASE, b)


class CrosscheckReport(Value):
    """Finite-scale validation of a symbolic member verdict.

    ``surplus_primes`` are the primes d_{1+3c}, c in A minus B: the target
    member's sequence carries each of them once more than the source's, so
    the reduction exists iff that set is finite.  The ``replay`` plays the
    definition on the target's sequence, at a drop and window computed from
    that set: just after the surplus primes when it is finite, up to the
    first of them when it is not.  ``consistent`` is False only when the
    verdict disagrees with the symbols or with a replay that ran; a
    ``window`` too short for the replay leaves it inconclusive, with
    ``replay.needs_window`` set.
    """

    __slots__ = _fields = ("verdict", "surplus_finite", "surplus_primes", "window", "consistent", "notes", "replay")

    def __init__(self, verdict, surplus_finite, surplus_primes, window, consistent, notes, replay: Replay):
        values = (verdict, surplus_finite, surplus_primes, window, consistent, notes, replay)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def member_crosscheck(m_a: MemberRef, m_b: MemberRef, window: int = 100) -> CrosscheckReport:
    """Cross-check ``member_reduces(m_a, m_b)`` two independent ways.

    Symbolic: enumerate A minus B and map it through the d-enumeration's
    A layer.  Replay: walk the first ``window`` terms of the target (B's)
    sequence at most, once, and compare the multiset after the drop with
    the source's (A's) occurrences, counted from its layout at a few
    primes.  Inconsistencies are recorded in the report, never raised.  An
    element c of A minus B whose surplus prime d_{1+3c} lies past the
    d-primes below 2^32 (``_d_budget``) is refused before any walk.

    >>> fam = Family.default()
    >>> member_crosscheck(MemberRef(fam, UPSet.from_finite(range(3))), MemberRef(fam, UPSet()), 10).replay
    Replay(drop=5, end=10, prefix=10, witness=None, needed=None, needs_window=None)
    """
    _check_same_family(m_a, m_b)
    checked_natural(window, "window must be positive", 1)
    verdict = member_reduces(m_a, m_b)
    finite, elements = set_difference(m_a.a, m_b.a)
    indices = [_MemberLayout.d_index(_MemberLayout.A, c) for c in elements]
    if indices and (index := indices[-1]) >= (budget := _d_budget(m_a.family)):
        raise DomainError(f"A minus B holds {elements[-1]}: d-index {index} is past the {budget} d-primes below 2^32")
    surplus = tuple(_at_positions(m_a.family._d_layer(_MemberLayout.RESIDUES[_MemberLayout.A]), elements))
    replay = _member_replay(m_a, m_b, finite, dict(zip(surplus, indices)), window)

    notes = []
    if finite != verdict:
        notes.append("symbolic surplus finiteness disagrees with the verdict")
    embeds = replay.prefix is not None
    if replay.needs_window is None and embeds != verdict:
        notes.append(
            "oracle embedding "
            + ("succeeded despite a negative verdict" if embeds else "failed despite a positive verdict")
        )
    return CrosscheckReport(verdict, finite, surplus, window, not notes, tuple(notes), replay)


def _member_replay(m_a: MemberRef, m_b: MemberRef, finite: bool, surplus: dict, window: int) -> Replay:
    """Replay A's reduction to B as the symbols decide it, within the
    first ``window`` terms of B's sequence; ``surplus`` maps each surplus
    prime shown to its d-index.  The drop and the end are counted from B's
    layout, the window between them is the one stretch walked, and A's
    sequence is counted (``_window_prefix``).

    When the surplus is finite, B's sequence carries each surplus prime
    once more than A's or, when B is cofinite, not at all, so the window
    after the first occurrence of every one it carries must embed into a
    prefix of A's.  When it is infinite, the shortest
    prefix of B's holding one more occurrence of the first surplus prime
    than A's whole sequence holds must not embed.
    """
    target = _MemberLayout(m_b, surplus)
    witness = needed = None
    if finite:
        firsts = (target.position(gamma, 1) for gamma in surplus)
        drop = max((x + 1 for x in firsts if x is not None), default=0)
        if window <= drop:
            return Replay(drop, drop + 1, needs_window=drop + 1)
        end = window
    else:
        witness = next(iter(surplus))
        needed = m_a.family.p.multiplicity(witness) + 1  # A's sequence holds it in base(P) only
        drop, end = 0, target.position(witness, needed) + 1
        if window < end:
            return Replay(0, end, None, witness, needed, needs_window=end)
    return Replay(drop, end, _window_prefix(m_a, m_b, drop, end), witness, needed)


def _window_prefix(m_a: MemberRef, m_b: MemberRef, drop: int, end: int):
    """Length of the shortest prefix of A's sequence holding the multiset
    of B's terms ``[drop, end)``, or None when A's holds too few of some
    prime.

    B's window is read once, layer by layer and tagged, so its d-layer
    entries come with their d-indices.  A prime outside base(P) occurs at
    most once in a member's sequence, in its d-layers, and A's holds d_{3j}
    at a position that rises with j and d_{1+3c}, for c outside A, at one
    that rises with c.  So once no A-layer tag c of the window lies in A
    (tested in bulk, by residue and flips), only the last such prime of
    each layer and the window's primes of base(P) need a ``position`` in
    A's sequence.  A d-prime of base(P) gets its d-index from a walk of the
    d-enumeration up to it.
    """
    family, a = m_a.family, m_a.a
    a_layer, p0, base = layers = _MemberLayout(m_b).window(drop, end, tagged=True)
    need = Counter(chain(map(itemgetter(0), a_layer), map(itemgetter(0), p0), base))
    special = {gamma for gamma, _ in family.p.exceptions}  # base(P)'s primes
    # the window's A-layer entries that A's A layer lacks: all of them when A is cofinite
    hits = a_layer if a.is_cofinite else compress(a_layer, a._holds(list(map(itemgetter(1), a_layer))))
    if not special.issuperset(map(itemgetter(0), hits)):  # such a prime outside base(P) is nowhere in A's
        return None
    counted = need.keys() & special
    d_indices = _ranks(family._d_walk(), counted - family._not_d())
    for layer in (_MemberLayout.P0, _MemberLayout.A):
        last = next((entry for entry in reversed(layers[layer]) if entry[0] not in special), None)
        if last is not None:
            d_indices[last[0]] = _MemberLayout.d_index(layer, last[1])
            counted.add(last[0])
    return _covering_prefix(_MemberLayout(m_a, d_indices), {gamma: need[gamma] for gamma in counted})


class ChainDemo(Value):
    """Pairwise verdict matrix over the powers-of-two chain plus the
    evens/odds antichain: ``matrix[i][j]`` is
    ``member_reduces(members[i], members[j])``."""

    __slots__ = _fields = ("labels", "members", "matrix")

    def __init__(self, labels: tuple, members: tuple, matrix: tuple):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "matrix", matrix)


def chain_demo(f: Family, depth: int = 3, power: int = 1) -> ChainDemo:
    """Members A_i = multiples of 2^i for i < depth, then evens and odds.

    The chain is strictly decreasing in the order and the final pair is
    incomparable, which is the desk-scale shape of the embedded poset.
    Every member has the family and power given here, so each verdict is
    ``subset_star`` of the two sets.
    """
    checked_natural(depth, "chain depth must be >= 2", 2)
    sets = [UPSet.multiples_of(2 ** i) for i in range(depth)]
    labels = [f"mult({2 ** i})" for i in range(depth)]
    sets.append(UPSet.multiples_of(2))
    labels.append("evens")
    sets.append(UPSet(2, frozenset({1})))
    labels.append("odds")
    members = tuple(MemberRef(f, s, power) for s in sets)
    matrix = tuple(tuple(map(subset_star, repeat(s), sets)) for s in sets)
    return ChainDemo(tuple(labels), members, matrix)
