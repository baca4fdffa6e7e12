"""Exact arithmetic on prime-multiplicity profiles (supernatural numbers).

A profile assigns to every prime a multiplicity in ``{0, 1, 2, ...} ∪ {OMEGA}``.
Only profiles with finitely many exceptions over a default of ``0`` or
``OMEGA`` are representable; this keeps the eventual-embedding preorder
``preceq`` decidable while covering every ultimately periodic prime sequence
and every cofinitely-divisible profile.

The preorder ``Q preceq P`` (an injection eventually matching Q's terms into
P's) is inclusion of OMEGA-supports: every prime of multiplicity OMEGA in Q
has multiplicity OMEGA in P.  The reason is the deficit sum, per prime the
surplus of Q's multiplicity over P's, which is finite exactly then.
Dropping the finitely many surplus occurrences of Q leaves a sub-multiset
of P at every prime, which maps injectively into P's occurrences;
conversely an infinite deficit defeats every injection because cofinitely
many Q-positions would need distinct P-positions carrying a prime P runs
out of.  ``oracle_replay`` gives an independent finite-scale check of
exactly this argument, at a drop and a window computed from the layout of
the canonical sequences (``_Layout``).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, count, cycle, filterfalse, islice, repeat, takewhile, tee
from math import isqrt
from typing import Iterable, Iterator, Mapping, Union

from ._value import Value
from .errors import DomainError, checked_natural
from .primes import _runs_outside, factorint, isprime

__all__ = [
    "OMEGA",
    "Mult",
    "SupernaturalProfile",
    "IntSeqSpec",
    "minimal_period",
    "profile_from_sequence",
    "deficit",
    "preceq",
    "canonical_sequence",
    "canonical_terms",
    "oracle_injection",
    "oracle_drop_bound",
    "sufficient_prefix_length",
    "Replay",
    "oracle_replay",
    "refutation_witness",
    "finite_surplus_table",
]


class _Omega:
    """The infinite multiplicity: strictly greater than every natural.

    A singleton; compares and adds like a top element (``OMEGA + x == OMEGA``).

    >>> 5 < OMEGA, OMEGA <= OMEGA, OMEGA + 3 is OMEGA, 2 + OMEGA is OMEGA
    (True, True, True, True)
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __gt__(self, other):
        return not isinstance(other, _Omega)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "OMEGA"

    def __str__(self):
        return "w"


OMEGA = _Omega()

Mult = Union[int, _Omega]


def _check_mult(value) -> Mult:
    if value is OMEGA:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"multiplicity must be a natural number or OMEGA, got {value!r}")
    if value < 0:
        raise DomainError(f"multiplicity must be nonnegative, got {value}")
    return value


def _check_prime(gamma) -> int:
    if isinstance(gamma, bool) or not isinstance(gamma, int) or not isprime(gamma):
        raise DomainError(f"{gamma!r} is not a prime number")
    return gamma


class SupernaturalProfile(Value):
    """Multiplicity function on primes: finite exceptions over a 0/OMEGA default.

    ``exceptions`` may be given as a mapping or as (prime, multiplicity)
    pairs; it is stored canonically (sorted, no entry equal to the default).

    >>> p = SupernaturalProfile({3: OMEGA, 2: 6})
    >>> p.multiplicity(3) is OMEGA, p.multiplicity(2), p.multiplicity(97)
    (True, 6, 0)
    >>> SupernaturalProfile({2: 0}, default=0) == SupernaturalProfile({})
    True

    The infinite-total invariant (some prime must have multiplicity OMEGA,
    or the default must be OMEGA) is *not* enforced here: the all-zero
    profile is the type of the integers on the dual side.  Boundaries that
    require an infinite sequence behind the profile (solenoid payloads,
    literal parsing, canonical sequences) check ``has_infinite_total``.
    """

    __slots__ = _fields = ("exceptions", "default")

    def __init__(self, exceptions=(), default: Mult = 0):
        default = _check_mult(default)
        if default is not OMEGA and default != 0:
            raise DomainError(f"profile default must be 0 or OMEGA, got {default!r}")
        items = exceptions.items() if isinstance(exceptions, Mapping) else exceptions
        try:
            pairs = [(gamma, value) for gamma, value in items]
        except (TypeError, ValueError):
            raise DomainError(f"profile exceptions must be (prime, multiplicity) pairs, got {exceptions!r}") from None
        seen = {}
        for gamma, value in pairs:
            gamma = _check_prime(gamma)
            if gamma in seen:
                raise DomainError(f"duplicate exception for prime {gamma}")
            seen[gamma] = _check_mult(value)
        self._store(seen, default)

    def _store(self, multiplicities: dict, default: Mult):
        items = sorted(multiplicities.items())
        canonical = tuple((gamma, value) for gamma, value in items if value != default)
        object.__setattr__(self, "exceptions", canonical)
        object.__setattr__(self, "default", default)

    @classmethod
    def _of_primes(cls, multiplicities: dict, default: Mult) -> "SupernaturalProfile":
        """A profile whose keys are known primes and values valid
        multiplicities, built without testing them again."""
        profile = object.__new__(cls)
        profile._store(multiplicities, default)
        return profile

    @classmethod
    def all_omega(cls) -> "SupernaturalProfile":
        return cls((), OMEGA)

    def multiplicity(self, gamma: int) -> Mult:
        """The multiplicity assigned to the prime ``gamma``."""
        _check_prime(gamma)
        for key, value in self.exceptions:
            if key == gamma:
                return value
        return self.default

    @property
    def omega_primes(self) -> frozenset:
        """Exception primes carrying multiplicity OMEGA (default not included)."""
        return frozenset(g for g, v in self.exceptions if v is OMEGA)

    @property
    def finite_exceptions(self) -> tuple:
        return tuple((g, v) for g, v in self.exceptions if v is not OMEGA)

    @property
    def has_infinite_total(self) -> bool:
        return self.default is OMEGA or any(v is OMEGA for _, v in self.exceptions)

    def __str__(self):
        parts = ", ".join(f"{g}:{v}" for g, v in self.exceptions)
        if self.default is OMEGA:
            return "{" + (parts + "; " if parts else "") + "default=w}"
        return "{" + parts + "}"


def minimal_period(word: tuple) -> tuple:
    """The shortest prefix of ``word`` whose repetition is ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


class IntSeqSpec(Value):
    """Ultimately periodic infinite sequence of integers > 1, the value of
    an ``S[...]`` literal.

    Represents ``prefix`` followed by ``tail`` repeated forever.  The tail
    is reduced to its minimal period, so ``[4,6,8 | 9,9]`` and ``[4,6,8 | 9]``
    denote the same object.
    """

    __slots__ = _fields = ("prefix", "tail")

    def __init__(self, prefix: tuple = (), tail: tuple = ()):
        prefix, tail = tuple(prefix), tuple(tail)
        for entry in prefix + tail:
            if isinstance(entry, bool) or not isinstance(entry, int) or entry <= 1:
                raise DomainError(f"IntSeqSpec entries must be integers > 1, got {entry!r}")
        if not tail:
            raise DomainError("sequence tail must be nonempty (the sequence is infinite)")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", minimal_period(tail))


def profile_from_sequence(s: IntSeqSpec) -> SupernaturalProfile:
    """The multiplicity profile of the prime sequence that refines ``s``,
    each entry standing for its prime factors with multiplicity: a prime
    counts its exponents once per prefix occurrence, and recurs forever
    when it divides a tail entry.  Each distinct entry is factored once.

    >>> str(profile_from_sequence(IntSeqSpec((4, 6, 8), (9,))))
    '{2:6, 3:w}'
    """
    factors = {entry: factorint(entry) for entry in dict.fromkeys(s.prefix + s.tail)}
    counts = {}
    for entry, times in Counter(s.prefix).items():
        for gamma, exponent in factors[entry].items():
            counts[gamma] = counts.get(gamma, 0) + exponent * times
    omega = dict.fromkeys((gamma for entry in s.tail for gamma in factors[entry]), OMEGA)
    return SupernaturalProfile._of_primes({**counts, **omega}, 0)


def _paired(q: SupernaturalProfile, p: SupernaturalProfile) -> Iterator[tuple]:
    """(prime, multiplicity in q, multiplicity in p) for every exception prime
    of either profile, ascending.  Reads the stored multiplicities: the
    primes were validated when the profiles were built."""
    in_q, in_p = dict(q.exceptions), dict(p.exceptions)
    for gamma in sorted(in_q.keys() | in_p.keys()):
        yield gamma, in_q.get(gamma, q.default), in_p.get(gamma, p.default)


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
        table = finite_surplus_table(q, p)
    except DomainError:
        return OMEGA
    return sum(surplus for _, surplus in table)


def preceq(q: SupernaturalProfile, p: SupernaturalProfile) -> bool:
    """Eventual multiset embedding: Q's terms injectively match into P's
    from some point on.  Decided as inclusion of OMEGA-supports; a
    default-OMEGA profile's support is cofinite, the complement of its
    exception primes (each finite), so there it is inclusion of keys.

    >>> p = SupernaturalProfile({2: 5, 3: OMEGA})
    >>> preceq(SupernaturalProfile({2: 7, 3: OMEGA}), p)
    True
    >>> preceq(SupernaturalProfile.all_omega(), SupernaturalProfile({2: OMEGA}))
    False
    """
    if q.default is OMEGA:
        return p.default is OMEGA and {g for g, _ in p.exceptions} <= {g for g, _ in q.exceptions}
    if p.default is OMEGA:
        return q.omega_primes.isdisjoint(g for g, _ in p.exceptions)
    return q.omega_primes <= p.omega_primes


def finite_surplus_table(q: SupernaturalProfile, p: SupernaturalProfile) -> tuple:
    """Per-prime positive surpluses of ``q`` over ``p`` as (prime, surplus)
    pairs, ascending, from one pass over the exception primes.  Requires a
    finite deficit: no surplus of OMEGA, at a listed prime or at the
    cofinitely many primes where q's default OMEGA meets p's default 0."""
    surpluses = [(gamma, tq, tp) for gamma, tq, tp in _paired(q, p) if tq > tp]
    if (q.default is OMEGA and p.default is not OMEGA) or any(tq is OMEGA for _, tq, _ in surpluses):
        raise DomainError("surplus table requested for an infinite deficit")
    return tuple((gamma, tq - tp) for gamma, tq, tp in surpluses)


def _primes_outside(excluded) -> Iterator[int]:
    """The primes not in the finite set ``excluded``, ascending."""
    return chain.from_iterable(_runs_outside(excluded))


def refutation_witness(q: SupernaturalProfile, p: SupernaturalProfile):
    """The least prime with infinite surplus of ``q`` over ``p`` (OMEGA in q,
    finite in p), or None when ``preceq(q, p)`` holds.

    Every failure of ``preceq`` in this representation has such a witness.
    """
    keys, candidates = set(), []
    for gamma, tq, tp in _paired(q, p):
        keys.add(gamma)
        if tq is OMEGA and tp is not OMEGA:
            candidates.append(gamma)
    if q.default is OMEGA and p.default is not OMEGA:
        candidates.append(next(_primes_outside(keys)))
    return min(candidates, default=None)


def canonical_terms(p: SupernaturalProfile, start: int = 0) -> Iterator[int]:
    """The fixed representative sequence with profile ``p``, as an infinite
    iterator from position ``start`` on: finite-multiplicity exception
    primes first (ascending, with multiplicity), then the OMEGA-multiplicity
    primes forever.

    With default 0 the OMEGA primes cycle round-robin ascending; with
    default OMEGA they form an infinite set, visited by dovetailing rounds
    (first 1 of them, then the first 2, then the first 3, ...) so that every
    one recurs infinitely often.  The terms before ``start`` are skipped by
    arithmetic on that layout (see :class:`_Layout`), not walked:

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
    # round k is the running list of the first k primes outside the
    # exceptions and starts k(k-1)/2 terms after the head; ``start`` falls
    # in round ``rounds``
    rounds = (1 + isqrt(8 * start + 1)) // 2
    walk = _primes_outside({g for g, _ in p.exceptions})
    first = list(islice(walk, rounds))
    later = islice(accumulate(([gamma] for gamma in walk), initial=first), 1, None)
    return chain(head, first[start - rounds * (rounds - 1) // 2:], chain.from_iterable(later))


class _Layout:
    """Where each prime sits in ``canonical_terms(p)``, computed, not walked.

    The finite exceptions are runs of the head, in ascending order.  After
    the head, the OMEGA primes of a default-0 profile cycle, and round r
    (from 1) of a default-OMEGA profile's dovetail starts r(r-1)/2 terms
    on and lists the first r primes outside the exceptions.  Locating such
    a prime needs its rank among them; the ranks of ``primes`` are found in
    one walk up to the largest, and of any other prime when it is asked for.

    >>> p = SupernaturalProfile({2: 3}, OMEGA)  # 2, 2, 2 | 3 | 3, 5 | 3, 5, 7 | 3, 5, 7, 11 | ...
    >>> layout = _Layout(p, [7])
    >>> [layout.position(7, k) for k in (1, 2, 3)], layout.count(7, 12), layout.position(2, 4)
    ([8, 11, 15], 2, None)
    """

    def __init__(self, p: SupernaturalProfile, primes=()):
        if not p.has_infinite_total:
            raise DomainError(f"profile {p} has finite total multiplicity; no infinite sequence exists")
        self.default = p.default
        self.runs, self.head = {}, 0  # prime -> (start, times) in the head; the head's length
        for gamma, times in p.finite_exceptions:
            self.runs[gamma] = (self.head, times)
            self.head += times
        if p.default is OMEGA:
            outside = set(primes).difference(self.runs)
            self.ranks = _ranks(_primes_outside(self.runs), outside)
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
        """``gamma``'s index among the primes after the head, or None when
        it has none: a prime outside a default-0 profile's support."""
        if self.default is OMEGA and gamma not in self.ranks:
            self.ranks.update(_ranks(_primes_outside(self.runs), (gamma,)))
        return self.ranks.get(gamma)


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
    table = dict(finite_surplus_table(q, p))
    return _covering_prefix(_Layout(q, table), table)


def sufficient_prefix_length(p: SupernaturalProfile, window: Iterable) -> int:
    """Length of a canonical prefix of ``p`` covering the window's multiset.

    Raises :class:`DomainError` when some prime is demanded more often than
    ``p`` supplies it in total (no prefix can ever suffice).
    """
    need = Counter(window)
    exceptions = dict(p.exceptions)  # one lookup per window prime, not a scan of the exceptions
    for gamma, count in need.items():
        carried = exceptions.get(_check_prime(gamma), p.default)
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
    witness = refutation_witness(q, p)
    if witness is None:
        drop = oracle_drop_bound(q, p)
        need = Counter(islice(canonical_terms(q, drop), window))
        return Replay(drop, drop + window, _covering_prefix(_Layout(p, need), need))
    needed = p.multiplicity(witness) + 1
    end = _Layout(q, (witness,)).position(witness, needed) + 1
    if window < end:
        return Replay(0, end, None, witness, needed, needs_window=end)
    need = Counter(islice(canonical_terms(q), end))
    return Replay(0, end, _covering_prefix(_Layout(p, need), need), witness, needed)
