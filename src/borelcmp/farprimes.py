"""Walks of the prime table, the strong Lucas test and factoring below
2^32, loaded on first use: no verdict walks primes or factors.

* The chunk walk under every prime search bisects into the first chunk of
  ``primes``' table and chains whole chunks, in C.  Past ``SIEVE_CAP`` and
  below 2^32 it segment-sieves each span of 2^16 numbers from the flags
  and stores none; from 2^32 on it tests the candidates 6k +- 1, as
  ``nextprime`` does from ``SIEVE_CAP`` on.
* ``factorint`` factors the numbers below 2^32 by trial division by the
  primes below 2^16, which is exact there, and refuses larger ones.
  Nothing else factors: unsplit keys print as they are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain, count, dropwhile, filterfalse, islice
from math import isqrt
from operator import index

from .errors import DomainError, checked_natural
from .primes import _CHUNK, _SIEVE, SIEVE_CAP, _segment_primes, _sieved, _trial_division, isprime

__all__ = ["nextprime", "primes_after", "factorint"]


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
    """The prime factorization of ``1 <= n < 2^32`` as ``{prime: exponent}``,
    ascending: trial division by the primes below 2^16 leaves no composite
    cofactor there.  A larger ``n`` is a :class:`DomainError`.

    >>> factorint(360), factorint(1), factorint(65521 * 65537)
    ({2: 3, 3: 2, 5: 1}, {}, {65521: 1, 65537: 1})
    """
    checked_natural(n, "only positive integers are factored", 1)
    if n >= _CHUNK * _CHUNK:
        raise DomainError(f"only numbers below 2^32 are factored, got {n}")
    factors, rest = _trial_division(n)
    if rest > 1:  # it has no prime factor below 2^16, so it is prime
        factors[rest] = 1
    return factors


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
