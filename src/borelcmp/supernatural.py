"""Exact arithmetic on prime-multiplicity profiles (supernatural numbers).

A profile assigns to every prime a multiplicity in ``{0, 1, 2, ...} ∪ {OMEGA}``.
Only profiles with finitely many exceptions over a default of ``0`` or
``OMEGA`` are representable; this keeps the eventual-embedding preorder
``preceq`` decidable while covering every ultimately periodic prime sequence
and every cofinitely-divisible profile.

The preorder ``Q preceq P`` (an injection eventually matching Q's terms into
P's) is decided through a deficit sum: per prime, the surplus of Q's
multiplicity over P's.  Dropping the finitely many surplus occurrences of Q
leaves a sub-multiset of P at every prime, which maps injectively into P's
occurrences; conversely an infinite deficit defeats every injection because
cofinitely many Q-positions would need distinct P-positions carrying a prime
P runs out of.  ``oracle_injection`` plus the drop/window helpers give an
independent finite-scale check of exactly this argument.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, filterfalse, islice, repeat
from math import lcm
from typing import Iterable, Iterator, Mapping, Union

from .errors import DomainError
from .primes import factorint, isprime, primes_after

__all__ = [
    "OMEGA",
    "Mult",
    "SupernaturalProfile",
    "SeqSpec",
    "IntSeqSpec",
    "minimal_period",
    "multiplicity",
    "profile_from_sequence",
    "factor_sequence",
    "deficit",
    "preceq",
    "profiles_bireducible",
    "profile_add",
    "interleave",
    "canonical_sequence",
    "canonical_terms",
    "oracle_injection",
    "oracle_drop_bound",
    "sufficient_prefix_length",
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


@dataclass(frozen=True)
class SupernaturalProfile:
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

    exceptions: tuple = ()
    default: Mult = 0

    def __post_init__(self):
        default = _check_mult(self.default)
        if default is not OMEGA and default != 0:
            raise DomainError(f"profile default must be 0 or OMEGA, got {default!r}")
        raw = self.exceptions
        items = raw.items() if isinstance(raw, Mapping) else raw
        seen = {}
        for gamma, value in items:
            gamma = _check_prime(gamma)
            if gamma in seen:
                raise DomainError(f"duplicate exception for prime {gamma}")
            seen[gamma] = _check_mult(value)
        self._store(seen, default)

    def _store(self, multiplicities: dict, default: Mult):
        canonical = tuple(
            (gamma, value)
            for gamma, value in sorted(multiplicities.items())
            if not _mult_eq(value, default)
        )
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


def _mult_eq(a: Mult, b: Mult) -> bool:
    if a is OMEGA or b is OMEGA:
        return a is b
    return a == b


def _validated_word(entries: Iterable, minimum: int, what: str) -> tuple:
    word = tuple(entries)
    for entry in word:
        if isinstance(entry, bool) or not isinstance(entry, int) or entry <= minimum:
            raise DomainError(f"{what} entries must be integers > {minimum}, got {entry!r}")
    return word


def minimal_period(word: tuple) -> tuple:
    """The shortest prefix of ``word`` whose repetition is ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class IntSeqSpec:
    """Ultimately periodic infinite sequence of integers > 1.

    Represents ``prefix`` followed by ``tail`` repeated forever.  The tail
    is reduced to its minimal period, so ``[4,6,8 | 9,9]`` and ``[4,6,8 | 9]``
    denote the same object.
    """

    prefix: tuple = ()
    tail: tuple = ()

    def __post_init__(self):
        prefix = _validated_word(self.prefix, 1, type(self).__name__)
        tail = _validated_word(self.tail, 1, type(self).__name__)
        if not tail:
            raise DomainError("sequence tail must be nonempty (the sequence is infinite)")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", minimal_period(tail))

    def term(self, i: int) -> int:
        if i < 0:
            raise DomainError(f"sequence index must be nonnegative, got {i}")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail[(i - len(self.prefix)) % len(self.tail)]

    def terms(self, n: int) -> tuple:
        if n < 0:
            raise DomainError(f"term count must be nonnegative, got {n}")
        return tuple(self.term(i) for i in range(n))


@dataclass(frozen=True)
class SeqSpec(IntSeqSpec):
    """An :class:`IntSeqSpec` whose entries are all prime."""

    def __post_init__(self):
        super().__post_init__()
        # each distinct entry once, in order, so the error names the first bad one
        for entry in dict.fromkeys(self.prefix + self.tail):
            if not isprime(entry):
                raise DomainError(f"sequence entry {entry} is not prime")

    @classmethod
    def _of_primes(cls, prefix: tuple, tail: tuple) -> "SeqSpec":
        """A sequence whose entries are known prime, checked as an
        :class:`IntSeqSpec` only."""
        s = object.__new__(cls)
        object.__setattr__(s, "prefix", prefix)
        object.__setattr__(s, "tail", tail)
        IntSeqSpec.__post_init__(s)
        return s


ProfileLike = Union[SupernaturalProfile, SeqSpec]


def multiplicity(p: ProfileLike, gamma: int) -> Mult:
    """Occurrence count of the prime ``gamma``: OMEGA when it recurs forever.

    >>> multiplicity(SeqSpec((2, 2, 5), (3,)), 2)
    2
    >>> multiplicity(SupernaturalProfile({2: 6, 3: OMEGA}), 3) is OMEGA
    True
    """
    if isinstance(p, SupernaturalProfile):
        return p.multiplicity(gamma)
    _check_prime(gamma)
    if gamma in p.tail:
        return OMEGA
    return p.prefix.count(gamma)


def profile_from_sequence(s: SeqSpec) -> SupernaturalProfile:
    """Collapse a prime sequence to its multiplicity profile.

    >>> str(profile_from_sequence(SeqSpec((2, 2, 2, 3, 2, 2, 2), (3,))))
    '{2:6, 3:w}'
    """
    return SupernaturalProfile._of_primes({**Counter(s.prefix), **dict.fromkeys(s.tail, OMEGA)}, 0)


def factor_sequence(s: IntSeqSpec) -> SeqSpec:
    """Refine a sequence of integers > 1 into the prime sequence with the
    same multiset of prime factors: each entry is replaced by its sorted
    factorization (with multiplicity).

    >>> factor_sequence(IntSeqSpec((4, 6, 8), (9,)))
    SeqSpec(prefix=(2, 2, 2, 3, 2, 2, 2), tail=(3,))
    """

    def expand(entries):
        out = []
        for entry in entries:
            for gamma, exponent in factorint(entry).items():
                out.extend([gamma] * exponent)
        return tuple(out)

    return SeqSpec._of_primes(expand(s.prefix), expand(s.tail))


def _surplus(tq: Mult, tp: Mult) -> Mult:
    """How far Q's multiplicity exceeds P's (0 when it does not)."""
    if tq <= tp:
        return 0
    if tq is OMEGA:
        return OMEGA
    return tq - tp


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
    if q.default is OMEGA and p.default is not OMEGA:
        return OMEGA
    total = 0
    for _, tq, tp in _paired(q, p):
        d = _surplus(tq, tp)
        if d is OMEGA:
            return OMEGA
        total += d
    return total


def preceq(q: SupernaturalProfile, p: SupernaturalProfile) -> bool:
    """Eventual multiset embedding: Q's terms injectively match into P's
    from some point on.  Decided by finiteness of the deficit.

    >>> p = SupernaturalProfile({2: 5, 3: OMEGA})
    >>> preceq(SupernaturalProfile({2: 7, 3: OMEGA}), p)
    True
    >>> preceq(SupernaturalProfile.all_omega(), SupernaturalProfile({2: OMEGA}))
    False
    """
    return deficit(q, p) is not OMEGA


def profiles_bireducible(p: SupernaturalProfile, q: SupernaturalProfile) -> bool:
    """Both embeddings hold; equivalently the defaults agree and the OMEGA
    supports coincide (finite multiplicities are free to differ)."""
    return preceq(p, q) and preceq(q, p)


def finite_surplus_table(q: SupernaturalProfile, p: SupernaturalProfile) -> tuple:
    """Per-prime positive surpluses of ``q`` over ``p`` as (prime, surplus)
    pairs, ascending.  Requires a finite deficit."""
    if deficit(q, p) is OMEGA:
        raise DomainError("surplus table requested for an infinite deficit")
    table = []
    for gamma, tq, tp in _paired(q, p):
        d = _surplus(tq, tp)
        if d != 0:
            table.append((gamma, d))
    return tuple(table)


def _primes_outside(excluded) -> Iterator[int]:
    """The primes not in the finite set ``excluded``, ascending."""
    return filterfalse(excluded.__contains__, primes_after(1))


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


def profile_add(l: SupernaturalProfile, m: SupernaturalProfile) -> SupernaturalProfile:
    """Pointwise multiplicity sum (OMEGA absorbs).

    >>> str(profile_add(SupernaturalProfile({2: OMEGA}), SupernaturalProfile({3: OMEGA})))
    '{2:w, 3:w}'
    """
    default = OMEGA if (l.default is OMEGA or m.default is OMEGA) else 0
    return SupernaturalProfile._of_primes({g: a + b for g, a, b in _paired(l, m)}, default)


def interleave(l: SeqSpec, m: SeqSpec) -> SeqSpec:
    """Alternate the two sequences: position 2k draws L(k), 2k+1 draws M(k).

    >>> interleave(SeqSpec((5,), (2,)), SeqSpec((), (3,)))
    SeqSpec(prefix=(5, 3), tail=(2, 3))
    """
    start = max(len(l.prefix), len(m.prefix))
    length = start + lcm(len(l.tail), len(m.tail))
    woven = tuple(_alternate(l.terms(length), m.terms(length)))
    return SeqSpec(woven[: 2 * start], woven[2 * start :])


def _alternate(first: Iterable, second: Iterable) -> Iterator:
    """first(0), second(0), first(1), second(1), ... until either runs out."""
    return chain.from_iterable(zip(first, second))


def canonical_terms(p: SupernaturalProfile) -> Iterator[int]:
    """The fixed representative sequence with profile ``p``, as an infinite
    iterator: finite-multiplicity exception primes first (ascending, with
    multiplicity), then the OMEGA-multiplicity primes forever.

    With default 0 the OMEGA primes cycle round-robin ascending; with
    default OMEGA they form an infinite set, visited by dovetailing rounds
    (first 1 of them, then the first 2, then the first 3, ...) so that every
    one recurs infinitely often.
    """
    if not p.has_infinite_total:
        raise DomainError(f"profile {p} has finite total multiplicity; no infinite sequence exists")
    head = chain.from_iterable(repeat(gamma, count) for gamma, count in p.finite_exceptions)
    if p.default is OMEGA:
        # round k is the running list of the first k primes outside the exceptions
        rounds = accumulate([gamma] for gamma in _primes_outside({g for g, _ in p.exceptions}))
        return chain(head, chain.from_iterable(rounds))
    return chain(head, cycle(sorted(p.omega_primes)))


def canonical_sequence(p: SupernaturalProfile, n: int) -> tuple:
    """First ``n`` terms of the canonical representative of ``p``.

    >>> canonical_sequence(SupernaturalProfile({2: 6, 3: OMEGA}), 8)
    (2, 2, 2, 2, 2, 2, 3, 3)
    >>> canonical_sequence(SupernaturalProfile({2: OMEGA, 3: OMEGA}), 5)
    (2, 3, 2, 3, 2)
    """
    if n < 0:
        raise DomainError(f"term count must be nonnegative, got {n}")
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
    return _covering_prefix_length(q, dict(finite_surplus_table(q, p)))


def sufficient_prefix_length(p: SupernaturalProfile, window: Iterable) -> int:
    """Length of a canonical prefix of ``p`` covering the window's multiset.

    Raises :class:`DomainError` when some prime is demanded more often than
    ``p`` supplies it in total (no prefix can ever suffice).
    """
    need = Counter(window)
    for gamma, count in need.items():
        if multiplicity(p, gamma) < count:
            raise DomainError(
                f"window needs {count} occurrences of {gamma} but the profile carries "
                f"{multiplicity(p, gamma)}"
            )
    return _covering_prefix_length(p, need)


def _covering_prefix_length(p: SupernaturalProfile, need: Mapping) -> int:
    """Length of the shortest canonical prefix of ``p`` holding each prime
    at least ``need[prime]`` times; ``p`` must supply that many."""
    missing = {gamma: count for gamma, count in need.items() if count > 0}
    if not missing:
        return 0
    for index, term in enumerate(canonical_terms(p)):
        if term in missing:
            missing[term] -= 1
            if missing[term] == 0:
                del missing[term]
            if not missing:
                return index + 1
    raise AssertionError("unreachable: canonical_terms is infinite")
