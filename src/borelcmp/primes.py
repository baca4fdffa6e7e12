"""Primality, next primes and factoring, with the standard library only.

* ``isprime`` looks the numbers below 2^16 up in the flags of a sieve.
  From 2^16 on, it trial-divides by the primes below 1000, then runs
  Miller-Rabin on the first 12 prime bases, which is exact below
  3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86, 2017), and above that
  bound Baillie-PSW: a strong base-2 test plus a strong Lucas test with
  Selfridge's parameters.
* ``primes_after`` is the one prime search: a lazy walk over a table of
  the primes below ``SIEVE_CAP``, split into chunks of 2^16 numbers.  A
  chunk is stored the first time a walk reaches it, as an ``array`` of its
  primes, and is never changed afterwards: chunk 0 is read off the flags,
  every other chunk is segment-sieved by the primes that the flags hold,
  and only the numbers 6k +- 1 are read.
  A walk bisects into its first chunk and then chains whole chunks, so it
  runs in C with one step per prime and no Python frame per prime.  Past
  ``SIEVE_CAP`` and below 2^32 it segment-sieves each span of 2^16
  numbers from the same flags when it gets there, and stores none of
  them; from 2^32 on it tests the candidates 6k +- 1 in turn.
* ``nextprime(n)`` is the first prime of ``primes_after(n)``; from
  ``SIEVE_CAP`` on, where a span would be sieved for one prime, it tests
  the candidates 6k +- 1 as the walk does past 2^32.
* The runs of that walk are read as they are stored: ``_runs_outside``
  leaves a finite set of primes out of them, and ``_every_third`` takes
  every third prime of them as slices.
* ``_trial_division`` divides by the primes of chunk 0, the primes below
  2^16, stopping at the first prime whose square exceeds the cofactor,
  which is then 1 or prime.  It returns what is left after every prime
  below 2^16, which may be prime or composite.  ``profile_from_sequence``
  tests that cofactor with ``isprime`` and keeps a composite one whole.
* ``factorint`` trial-divides the same way, sends the cofactor left to
  ``isprime``, and splits a composite one with Pollard-Brent (Brent 1980)
  within ``FACTOR_BUDGET`` steps; past the budget it raises
  :class:`DomainError` instead of running on.  No verdict calls it: it
  serves the printers, which name primes.

The sieve is the cache of this module: process-wide primality flags of the
numbers below 2^16, built once, and the prime chunks, each stored once.
Both are stored complete under a lock and never change, so concurrent
callers only ever see complete flags and complete chunks.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain, compress, count, dropwhile, filterfalse, islice
from math import gcd, isqrt, prod
from operator import index

from .errors import DomainError, checked_natural

__all__ = ["isprime", "nextprime", "primes_after", "factorint", "SIEVE_CAP", "FACTOR_BUDGET"]

SIEVE_CAP = 1 << 24
# The span of numbers in one chunk of the prime table, and of the flags,
# which hold every sieving prime of the numbers below _CHUNK * _CHUNK = 2^32.
_CHUNK = 1 << 16

# Pollard-Brent steps (one modular squaring each) that one ``factorint``
# call may spend, shared by all its splits; enough to split a product of
# two primes below 2^32 (about 0.1 s), while primes of 34 bits and more
# can exceed it.
FACTOR_BUDGET = 1 << 18

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all of _MR_BASES.
_MR_EXACT_BELOW = 318665857834031151167461


class _Sieve:
    """Primality flags of the numbers below 2^16, built once on first use,
    and the primes of each chunk of 2^16 numbers below ``SIEVE_CAP``,
    stored the first time a walk reaches the chunk."""

    def __init__(self):
        self.flags = b""  # flags[n] == 1 iff n < 2^16 is prime; set once, never mutated
        self.chunks = {}  # a chunk's least number -> its primes; stored once, complete, never mutated
        self._lock = threading.Lock()

    def base(self) -> bytearray:
        """The flags, built on first use."""
        with self._lock:
            if not self.flags:
                self.flags = _sieved(0, _CHUNK)
            return self.flags

    def chunk(self, lo: int):
        """The primes of the chunk that starts at ``lo``, ascending, as an
        array of unsigned ints: read off the flags for chunk 0, segment-sieved
        from them for every other chunk, on first use."""
        primes = self.chunks.get(lo)
        if primes is None:
            from array import array  # loaded by the first walk, not at import

            hi = min(lo + _CHUNK, SIEVE_CAP)
            flags = self.flags or self.base()
            found = _segment_primes(lo, hi, _sieved(lo, hi, flags) if lo else flags)
            table = array("I", found if lo else [2, 3, *found])
            with self._lock:
                primes = self.chunks.setdefault(lo, table)
        return primes


def _sieved(lo: int, hi: int, base: bytes = b"") -> bytearray:
    """Primality flags of the numbers from ``lo`` to ``hi - 1``, crossed off
    by the primes that ``base`` flags up to the square root of ``hi``;
    without ``base``, ``lo`` is 0 and the flags find those primes as they go."""
    segment = bytearray([1]) * (hi - lo)
    if lo == 0:
        segment[:2] = b"\0\0"
    for p in compress(range(isqrt(hi - 1) + 1), base or segment):
        start = max(p * p - lo, -lo % p)  # the first multiple of p from both p*p and lo on
        segment[start::p] = bytes(len(range(start, hi - lo, p)))
    return segment


def _segment_primes(lo: int, hi: int, segment: bytes) -> list:
    """The numbers from ``lo`` to ``hi - 1`` past 3 that ``segment`` flags
    prime, ascending.  Only the numbers 6k +- 1 can be prime; they are read
    as two runs."""
    starts = (lo + (1 - lo) % 6, lo + (5 - lo) % 6)
    return sorted(chain.from_iterable(compress(range(a, hi, 6), segment[a - lo :: 6]) for a in starts))


_SIEVE = _Sieve()
# The product of the primes below 1000, for trial division by one gcd.
_PRIMORIAL = prod(compress(range(1000), _sieved(0, 1000)))


def isprime(n: int) -> bool:
    """Whether the integer ``n`` is prime; a bool or any other argument is
    a :class:`DomainError`.

    >>> [n for n in range(20) if isprime(n)], isprime(2**89 - 1), isprime(561)
    ([2, 3, 5, 7, 11, 13, 17, 19], True, False)
    """
    try:  # a non-integer fails the comparison, the flag index, index() or gcd
        if isinstance(n, bool):
            raise TypeError  # refused as in checked_natural
        if n < 0:
            return index(n) > 0  # False, once index() has turned a non-integer away
        if n < _CHUNK:
            return (_SIEVE.flags or _SIEVE.base())[n] == 1
        if gcd(n, _PRIMORIAL) != 1:
            return False
    except TypeError:
        raise DomainError(f"only integers are tested for primality, got {n!r}") from None
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def nextprime(n: int) -> int:
    """The least prime greater than ``n``.

    >>> nextprime(1), nextprime(13), nextprime(2**22), nextprime(2**24)
    (2, 17, 4194319, 16777259)
    """
    lo = _after(n)
    return next(_tested_primes(lo) if lo >= SIEVE_CAP else chain.from_iterable(_prime_chunks(lo)))


def primes_after(n: int) -> Iterator[int]:
    """The primes greater than ``n``, ascending, as an infinite iterator.

    >>> from itertools import islice
    >>> list(islice(primes_after(1), 5)), next(primes_after(2**22))
    ([2, 3, 5, 7, 11], 4194319)
    """
    return chain.from_iterable(_prime_chunks(_after(n)))


def _after(n: int) -> int:
    """The least natural number greater than the integer ``n``."""
    try:
        if isinstance(n, bool):
            raise TypeError  # refused as in checked_natural
        return max(index(n) + 1, 0)
    except TypeError:
        raise DomainError(f"only integers have primes after them, got {n!r}") from None


def _tested_primes(lo: int) -> Iterator[int]:
    """The primes from ``lo > 3`` on: the candidates 6k +- 1 that
    ``isprime`` accepts."""
    candidates = chain.from_iterable((k + 1, k + 5) for k in count(lo // 6 * 6, 6))
    return filter(isprime, dropwhile(lo.__gt__, candidates))


def _prime_chunks(lo: int) -> Iterator[Iterable[int]]:
    """The primes from ``lo`` on in consecutive ascending runs: the tail of
    the chunk that holds ``lo``, then whole chunks, each fetched when the
    run before it is used up.  Past the cap and below 2^32, where the flags
    still hold every sieving prime, each span of 2^16 numbers is
    segment-sieved when the walk reaches it, yielded and not stored; from
    2^32 on, the candidates 6k +- 1 that ``isprime`` accepts."""
    if lo < SIEVE_CAP:
        start = lo - lo % _CHUNK
        primes = _SIEVE.chunk(start)
        skip = bisect_left(primes, lo)
        yield primes[skip:] if skip else primes  # a walk from 1 copies none of chunk 0
        for start in range(start + _CHUNK, SIEVE_CAP, _CHUNK):
            yield _SIEVE.chunk(start)
        lo = SIEVE_CAP
    flags = _SIEVE.flags or _SIEVE.base()
    for start in range(lo - lo % _CHUNK, _CHUNK * _CHUNK, _CHUNK):
        primes = _segment_primes(start, start + _CHUNK, _sieved(start, start + _CHUNK, flags))
        yield primes[bisect_left(primes, lo):]
    yield _tested_primes(max(lo, _CHUNK * _CHUNK))


def _runs_outside(excluded) -> Iterator:
    """The primes not in the finite set ``excluded``, ascending, in the
    runs of the prime walk: ascending sequences, then from 2^32 on one
    endless iterator.  Only the primes up to the largest excluded number
    pass a lookup in ``excluded``; every other run is passed on as the walk
    stores it."""
    last = max(excluded, default=1)
    for run in _prime_chunks(2):
        if isinstance(run, Iterator):  # its primes start at 2^32
            yield run if last < _CHUNK * _CHUNK else filterfalse(excluded.__contains__, run)
            return
        if run and run[0] <= last:
            cut = bisect_right(run, last)
            yield list(filterfalse(excluded.__contains__, run[:cut]))
            run = run[cut:]
        yield run


def _every_third(runs, offset: int) -> Iterator[int]:
    """Items ``offset``, ``offset + 3``, ... of the concatenated ``runs``:
    a slice of each ascending sequence, with the offset carried into the
    next, and an ``islice`` of an endless iterator, which ends the runs.
    Only the items taken are made, in C; a stored array is sliced as a
    ``memoryview``, without a copy."""

    def slices(first):
        for run in runs:
            if isinstance(run, Iterator):
                yield islice(run, first, None, 3)
                return
            yield (run if isinstance(run, list) else memoryview(run))[first::3]
            first = (first - len(run)) % 3

    return chain.from_iterable(slices(offset))


def factorint(n: int) -> dict:
    """The prime factorization of ``n >= 1`` as ``{prime: exponent}``,
    ascending.  Raises :class:`DomainError` when splitting a composite
    cofactor takes more than ``FACTOR_BUDGET`` Pollard-Brent steps.

    >>> factorint(360), factorint(1)
    ({2: 3, 3: 2, 5: 1}, {})
    """
    checked_natural(n, "only positive integers are factored", 1)
    factors, rest = _trial_division(n)
    if rest == 1:
        return factors
    pending = [rest]
    budget = FACTOR_BUDGET
    while pending:
        m = pending.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, budget = _pollard_brent(m, budget)
        if d is None:
            raise DomainError(
                f"factoring {n} needs more than {FACTOR_BUDGET} Pollard-Brent steps, "
                "the factoring budget"
            )
        pending += [d, m // d]
    return dict(sorted(factors.items()))


def _trial_division(n: int) -> tuple:
    """The prime factors of the natural ``n >= 1`` that trial division by
    the primes below 2^16 finds, as ``{prime: exponent}``, ascending, and
    the cofactor they leave: 1, or a number above 1 with no prime factor
    below 2^16 that may be prime or composite.  Division stops at the
    first prime whose square exceeds the cofactor, which is then 1 or a
    prime, listed among the factors.

    >>> _trial_division(360), _trial_division(65537), _trial_division(65537 * 65539)
    (({2: 3, 3: 2, 5: 1}, 1), ({65537: 1}, 1), ({}, 4295229443))
    """
    factors = {}
    for p in _SIEVE.chunk(0):
        if p * p > n:  # no prime below p divides the cofactor, so it is 1 or prime
            if n > 1:
                factors[n] = 1
            return factors, 1
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    return factors, n


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin: whether odd ``n`` passes the strong test to base ``a``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd ``n > 0``."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters for odd ``n > 1``:
    D is the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D) / 4."""
    if isqrt(n) ** 2 == n:  # no such D exists
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q^1 with P = 1
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":  # index k -> k + 1
            u, v, qk = _halve(u + v, n), _halve(d * u + v, n), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _halve(x: int, n: int) -> int:
    """x / 2 modulo odd ``n``."""
    x %= n
    return (x + n if x % 2 else x) // 2


def _pollard_brent(n: int, budget: int) -> tuple:
    """A proper divisor of the odd composite ``n`` and the budget left, or
    ``(None, 0)`` when the next round would spend more than ``budget``
    steps.  Brent's cycle search on x -> x^2 + c from x = 2, for c = 1, 2,
    ... in turn, with the gcd taken once per batch of differences."""
    batch = 128
    for c in count(1):
        y = 2
        g = r = q = 1
        while g == 1:
            if 2 * r > budget:
                return None, 0
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, budget
