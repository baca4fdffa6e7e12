"""Primality and trial division, with the standard library only.

* ``isprime`` looks the numbers below 2^16 up in the flags of a sieve.
  From 2^16 on, it trial-divides by the primes below 1000, then runs
  Miller-Rabin on the first 12 prime bases, which is exact below
  3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86, 2017), and above that
  bound Baillie-PSW: a strong base-2 test plus the strong Lucas test of
  ``farprimes``.
* The prime table, which ``farprimes`` walks, holds the primes below
  ``SIEVE_CAP`` in chunks of 2^16 numbers, each an ``array`` stored once,
  when first read: chunk 0 from the flags, every other chunk
  segment-sieved by the primes that the flags hold, at 6k +- 1 only.
* ``_trial_division`` divides by the primes below 2^16, stopping at the
  first prime whose square exceeds the cofactor, and returns what is
  left, which may be prime or composite.

The sieve is the cache of this module: process-wide primality flags of the
numbers below 2^16, built once, and the prime chunks, each stored once.
Both are stored complete under a lock and never change, so concurrent
callers only ever see complete flags and complete chunks.
"""

from __future__ import annotations

import threading
from itertools import chain, compress
from math import gcd, isqrt, prod
from operator import index

from .errors import DomainError

__all__ = ["isprime", "SIEVE_CAP"]

SIEVE_CAP = 1 << 24
# The span of numbers in one chunk of the prime table, and of the flags,
# which hold every sieving prime of the numbers below _CHUNK * _CHUNK = 2^32.
_CHUNK = 1 << 16

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
    from .farprimes import _strong_lucas_probable_prime

    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


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


