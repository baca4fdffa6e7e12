"""Profiles as sequences, loaded on first use: the deficit, the
refutation witness, the canonical sequences and ``oracle_replay``, which
checks ``supernatural.preceq`` on finite windows, at a drop and a window
computed from the layout of the canonical sequences (``_Layout``).  They
read the stored keys: a profile with an unsplit key (see ``coprime``) is
named and counted by its coprime base, whose elements stand in its
canonical sequence as primes do, and two profiles are compared over one
base of both.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate, chain, compress, count, cycle, islice, repeat, takewhile, tee
from math import isqrt

from . import supernatural  # read at call time, where bench/tracing.py patches its bindings
from ._value import Value
from .errors import DomainError, checked_natural
from .farprimes import _runs_outside
from .supernatural import OMEGA, Mult, SupernaturalProfile, _check_prime, _on_one_base, _paired, _Unsplit

__all__ = ["deficit", "refutation_witness", "canonical_terms", "canonical_sequence", "oracle_injection",
           "oracle_drop_bound", "sufficient_prefix_length", "Replay", "oracle_replay"]


def deficit(q: SupernaturalProfile, p: SupernaturalProfile) -> Mult:
    """Total surplus of ``q`` over ``p``: the number of occurrences that must
    be dropped from Q's expansion before the rest embeds into P's.

    OMEGA when any single prime has infinite surplus, or when cofinitely
    many primes do (``q`` default OMEGA against ``p`` default 0).

    >>> deficit(SupernaturalProfile({2: 7, 3: OMEGA}), SupernaturalProfile({2: 5, 3: OMEGA}))
    2
    >>> deficit(SupernaturalProfile({2: OMEGA}), SupernaturalProfile({3: OMEGA}))
    OMEGA
    """
    try:
        table = supernatural.finite_surplus_table(q, p)
    except DomainError:
        return OMEGA
    return sum(surplus for _, surplus in table)


def _primes_outside(excluded) -> Iterator[int]:
    """The primes not in the finite set ``excluded``, ascending."""
    return chain.from_iterable(_runs_outside(excluded))


def refutation_witness(q: SupernaturalProfile, p: SupernaturalProfile):
    """The least prime or element of the coprime base of both profiles'
    keys with infinite surplus of ``q`` over ``p`` (OMEGA in q, finite in
    p), or None when ``preceq(q, p)`` holds.  A witness outside the keys
    is a prime that divides none of them.

    Every failure of ``preceq`` in this representation has such a witness.
    """
    keys, candidates = set(), []
    for gamma, tq, tp in _paired(q, p):
        keys.add(gamma)
        if tq is OMEGA and tp is not OMEGA:
            candidates.append(gamma)
    if q.default is OMEGA and p.default is not OMEGA:
        candidates.append(next(gamma for gamma in _primes_outside(keys) if all(key % gamma for key in keys)))
    return min(candidates, default=None)


def canonical_terms(p: SupernaturalProfile, start: int = 0, *, unsplit=()) -> Iterator[int]:
    """The fixed representative sequence with profile ``p``, as an infinite
    iterator from position ``start`` on: finite-multiplicity exception
    keys first (ascending, with multiplicity), then the OMEGA-multiplicity
    keys forever.  A key is a prime or an element of ``p``'s coprime base.

    With default 0 the OMEGA keys cycle round-robin ascending; with
    default OMEGA the primes outside the exceptions form an infinite set,
    visited by dovetailing rounds (first 1 of them, then the first 2, then
    the first 3, ...) so that every one recurs infinitely often.  Compared
    with a profile over a coprime base, a default-OMEGA ``p`` (whose keys
    are primes) carries that base's ``unsplit`` elements OMEGA times: they
    join the set ahead of its primes, ascending.  The terms before ``start`` are
    skipped by arithmetic on that layout (see :class:`_Layout`), not walked:

    >>> from itertools import islice
    >>> list(islice(canonical_terms(SupernaturalProfile({2: 10**9, 3: OMEGA}), 10**9 - 1), 3))
    [2, 3, 3]
    """
    if not p.has_infinite_total:
        raise DomainError(f"profile {p} has finite total multiplicity; no infinite sequence exists")
    start = checked_natural(start, "start must be a natural number")
    head = []  # what is left of the runs of the finite exceptions
    for gamma, times in p.finite_exceptions:
        head.append(repeat(gamma, max(times - start, 0)))
        start = max(start - times, 0)
    head = chain.from_iterable(head)
    if p.default is not OMEGA:
        omegas = sorted(p.omega_primes)
        turn = start % len(omegas)
        return chain(head, cycle(omegas[turn:] + omegas[:turn]))
    # round k is the running list of the first k of that set and starts
    # k(k-1)/2 terms after the head; ``start`` falls in round ``rounds``
    rounds = (1 + isqrt(8 * start + 1)) // 2
    unsplit = sorted(unsplit)
    walk = chain(unsplit, _primes_outside({g for g, _ in p.exceptions}.union(unsplit)))
    first = list(islice(walk, rounds))
    later = islice(accumulate(([gamma] for gamma in walk), initial=first), 1, None)
    return chain(head, first[start - rounds * (rounds - 1) // 2:], chain.from_iterable(later))


class _Layout:
    """Where each key sits in ``canonical_terms(p, unsplit=unsplit)``,
    computed, not walked.

    The finite exceptions are runs of the head, in ascending order.  After
    the head, the OMEGA keys of a default-0 profile cycle, and round r
    (from 1) of a default-OMEGA profile's dovetail starts r(r-1)/2 terms
    on and lists the first r of the ``unsplit`` base elements, then the
    primes outside them and the exceptions.  Locating such a prime needs
    its rank among them; the ranks of ``primes`` are found in one walk up
    to the largest, and of any other prime when it is asked for.

    >>> p = SupernaturalProfile({2: 3}, OMEGA)  # 2, 2, 2 | 3 | 3, 5 | 3, 5, 7 | 3, 5, 7, 11 | ...
    >>> layout = _Layout(p, [7])
    >>> [layout.position(7, k) for k in (1, 2, 3)], layout.count(7, 12), layout.position(2, 4)
    ([8, 11, 15], 2, None)
    """

    def __init__(self, p: SupernaturalProfile, primes=(), unsplit=()):
        if not p.has_infinite_total:
            raise DomainError(f"profile {p} has finite total multiplicity; no infinite sequence exists")
        self.default = p.default
        self.runs, self.head = {}, 0  # prime -> (start, times) in the head; the head's length
        for gamma, times in p.finite_exceptions:
            self.runs[gamma] = (self.head, times)
            self.head += times
        if p.default is OMEGA:
            self.ranks = {element: i for i, element in enumerate(sorted(unsplit))}
            self.leading = len(self.ranks)  # the unsplit elements, which lead each round
            self.skipped = self.runs.keys() | self.ranks.keys()  # what the prime walk leaves out
            self._rank_primes(primes)
        else:
            self.ranks = {gamma: i for i, gamma in enumerate(sorted(p.omega_primes))}
            self.period = len(self.ranks)

    def position(self, gamma: int, k: int):
        """Where the k-th occurrence (from 1) of ``gamma`` sits, or None
        when the sequence holds fewer than k."""
        if gamma in self.runs:
            start, times = self.runs[gamma]
            return start + k - 1 if k <= times else None
        i = self._rank(gamma)
        if i is None:
            return None
        if self.default is OMEGA:  # in rounds i + 1, i + 2, ...
            return self.head + (i + k) * (i + k - 1) // 2 + i
        return self.head + (k - 1) * self.period + i

    def count(self, gamma: int, length: int) -> int:
        """How many occurrences of ``gamma`` the first ``length`` terms hold."""
        if gamma in self.runs:
            start, times = self.runs[gamma]
            return min(max(length - start, 0), times)
        i = self._rank(gamma)
        after = length - self.head - (0 if i is None else i)  # terms from the first occurrence on
        if i is None or after <= 0:
            return 0
        if self.default is OMEGA:  # the rounds r > i that start before ``after``
            return max((1 + isqrt(8 * after - 7)) // 2 - i, 0)
        return (after + self.period - 1) // self.period

    def _rank(self, gamma: int):
        """``gamma``'s index among the keys after the head, or None when
        it has none: a key outside a default-0 profile's support."""
        if self.default is OMEGA and gamma not in self.ranks:
            self._rank_primes((gamma,))
        return self.ranks.get(gamma)

    def _rank_primes(self, primes):
        """Rank the ``primes`` in a default-OMEGA profile's dovetail, after
        its unsplit base elements, in one walk."""
        found = _ranks(_primes_outside(self.skipped), set(primes).difference(self.skipped))
        self.ranks.update((gamma, self.leading + i) for gamma, i in found.items())


def _ranks(walk: Iterable[int], wanted) -> dict:
    """The index in the ascending ``walk`` of each number of ``wanted`` it
    yields, found in one pass, in C, that stops at the largest."""
    wanted = set(wanted)
    numbers, probe = tee(takewhile(max(wanted, default=0).__ge__, walk))
    return dict(compress(zip(numbers, count()), map(wanted.__contains__, probe)))


def _covering_prefix(layout, need: Mapping):
    """Length of the shortest prefix of the sequence that ``layout`` locates
    holding each prime at least ``need[prime]`` times, or None when the
    sequence holds fewer.  This is the one comparison of a window's
    multiset with a sequence that is counted, never walked."""
    length = 0
    for gamma, times in need.items():
        if times > 0:
            position = layout.position(gamma, times)
            if position is None:
                return None
            length = max(length, position + 1)
    return length


def canonical_sequence(p: SupernaturalProfile, n: int) -> tuple:
    """First ``n`` terms of the canonical representative of ``p``.

    >>> canonical_sequence(SupernaturalProfile({2: 6, 3: OMEGA}), 8)
    (2, 2, 2, 2, 2, 2, 3, 3)
    >>> canonical_sequence(SupernaturalProfile({2: OMEGA, 3: OMEGA}), 5)
    (2, 3, 2, 3, 2)
    """
    checked_natural(n, "term count must be nonnegative")
    return tuple(islice(canonical_terms(p), n))


def oracle_injection(q_window: Iterable, p_pool: Iterable) -> bool:
    """Brute-force multiset embedding: every prime occurs in ``q_window`` at
    most as often as in ``p_pool``.

    >>> oracle_injection((2, 3), (3, 2, 2))
    True
    >>> oracle_injection((2, 2, 2), (2, 2, 3, 3))
    False
    """
    need = Counter(q_window)
    have = Counter(p_pool)
    return all(have[gamma] >= count for gamma, count in need.items())


def oracle_drop_bound(q: SupernaturalProfile, p: SupernaturalProfile) -> int:
    """Least index N such that every canonical-sequence window of ``q``
    starting at or after N embeds (as a multiset) into a long enough
    canonical prefix of ``p``.  Requires ``preceq(q, p)``.

    By then each surplus prime has shed its deficit-many early occurrences,
    so no window can demand more of a prime than ``p`` ever supplies.
    """
    if q.unsplit or p.unsplit:
        q, p = _on_one_base(q, p)
    table = dict(supernatural.finite_surplus_table(q, p))
    return _covering_prefix(_Layout(q, table), table)


def sufficient_prefix_length(p: SupernaturalProfile, window: Iterable) -> int:
    """Length of a canonical prefix of ``p`` covering the window's multiset.

    The window holds ``p``'s keys and primes.  Raises :class:`DomainError`
    when some term is demanded more often than ``p`` supplies it in total
    (no prefix can ever suffice).
    """
    need = Counter(window)
    exceptions = dict(p.exceptions)  # one lookup per window term, not a scan of the exceptions
    for gamma, count in need.items():
        if gamma not in exceptions:
            _check_prime(gamma)
        carried = exceptions.get(gamma, p.default)
        if carried < count:
            raise DomainError(f"window needs {count} occurrences of {gamma} but the profile carries {carried}")
    return _covering_prefix(_Layout(p, need), need)


class Replay(Value):
    """A verdict replayed on a finite window ``[drop, end)`` of the target
    sequence, whose multiset is compared with the source sequence's
    occurrences, counted from its layout.

    ``prefix`` is the length of the shortest source prefix holding the
    window, None when the source holds too few of some prime.  A refuting
    replay names the ``witness`` prime: its window is the shortest prefix
    holding ``needed`` occurrences of it, one more than the source holds.
    ``needs_window`` is the window the replay needs when the one it was
    given is shorter; then nothing was walked.
    """

    __slots__ = _fields = ("drop", "end", "prefix", "witness", "needed", "needs_window")

    def __init__(self, drop: int, end: int, prefix=None, witness=None, needed=None, needs_window=None):
        for name, value in zip(self._fields, (drop, end, prefix, witness, needed, needs_window)):
            object.__setattr__(self, name, value)


def oracle_replay(q: SupernaturalProfile, p: SupernaturalProfile, window: int) -> Replay:
    """Replay ``preceq(q, p)`` on the canonical sequences, as the symbols
    decide it.  When it holds, the ``window`` terms of ``q`` after the drop
    ``oracle_drop_bound(q, p)`` must embed into a prefix of ``p``.  When it
    fails, the shortest prefix of ``q`` holding one more occurrence of the
    refutation witness than ``p`` holds must not; a ``window`` shorter than
    that prefix makes the replay inconclusive.

    Only the window of ``q`` is walked: the drop is skipped and ``p`` is
    counted, both by arithmetic.

    >>> oracle_replay(SupernaturalProfile({2: 7, 3: OMEGA}), SupernaturalProfile({2: 5, 3: OMEGA}), 100)
    Replay(drop=2, end=102, prefix=100, witness=None, needed=None, needs_window=None)
    >>> oracle_replay(SupernaturalProfile({2: OMEGA}), SupernaturalProfile({2: 10**9, 3: OMEGA}), 1).needs_window
    1000000001
    """
    checked_natural(window, "window must be positive", 1)
    if q.unsplit or p.unsplit:  # once: the steps below find the pair over one base
        q, p = _on_one_base(q, p)
    unsplit = {key for profile in (q, p) for key, _ in profile.exceptions if type(key) is _Unsplit}
    witness = refutation_witness(q, p)
    if witness is None:
        drop = oracle_drop_bound(q, p)
        need = Counter(islice(canonical_terms(q, drop, unsplit=unsplit), window))
        return Replay(drop, drop + window, _covering_prefix(_Layout(p, need, unsplit), need))
    needed = dict(p.exceptions).get(witness, p.default) + 1
    end = _Layout(q, (witness,), unsplit).position(witness, needed) + 1
    if window < end:
        return Replay(0, end, None, witness, needed, needs_window=end)
    need = Counter(islice(canonical_terms(q, unsplit=unsplit), end))
    return Replay(0, end, _covering_prefix(_Layout(p, need, unsplit), need), witness, needed)
