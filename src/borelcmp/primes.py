"""Primality, next primes and factoring, with the standard library only.

* ``isprime`` looks small numbers up in a cached sieve.  Above it, it
  trial-divides by the primes below 1000, then runs Miller-Rabin on the
  first 12 prime bases, which is exact below 3.18 * 10^23 (Sorenson and
  Webster, Math. Comp. 86, 2017), and above that bound Baillie-PSW: a
  strong base-2 test plus a strong Lucas test with Selfridge's parameters.
* ``primes_after`` is the one prime search: a lazy walk that chains
  ``compress(range(lo, hi, 2), flags[lo:hi:2])`` over the odd numbers of
  the same sieve, which doubles on demand up to ``SIEVE_CAP``, in chunks
  that span 64 numbers first and double up to 2^16, so a caller that takes
  one prime copies 32 bytes, and a long walk runs in C with no Python
  frame per prime; past ``SIEVE_CAP`` it tests the candidates 6k +- 1 in
  turn.
* ``nextprime(n)`` is the first prime of ``primes_after(n)``.
* ``factorint`` trial-divides by the primes below 2^16, stopping at the
  first prime whose square exceeds the cofactor, which is then 1 or prime.
  Only a cofactor left after every prime below 2^16 goes to ``isprime``,
  and a composite one is split with Pollard-Brent
  (Brent 1980) within ``FACTOR_BUDGET`` steps; past the budget it raises
  :class:`DomainError` instead of running on.

The sieve is the one cache of the package: process-wide primality flags,
a fact that never changes, replaced whole under a lock when it grows, so
concurrent callers only ever see a complete sieve.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from itertools import chain, compress, count, dropwhile
from math import gcd, isqrt, prod

from .errors import DomainError

__all__ = ["isprime", "nextprime", "primes_after", "factorint", "SIEVE_CAP", "FACTOR_BUDGET"]

# The sieve starts at _INITIAL_LIMIT and doubles up to SIEVE_CAP (one
# byte per number: 16 MB).
_INITIAL_LIMIT = 1 << 16
SIEVE_CAP = 1 << 24

# The span of numbers one chunk of ``primes_after`` reads from the sieve:
# the first, doubled per chunk up to the last.
_FIRST_CHUNK, _LAST_CHUNK = 1 << 6, 1 << 16

# Pollard-Brent steps (one modular squaring each) that one ``factorint``
# call may spend, shared by all its splits; enough to split a product of
# two primes below 2^32 (about 0.1 s), while primes of 34 bits and more
# can exceed it.
FACTOR_BUDGET = 1 << 18

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all of _MR_BASES.
_MR_EXACT_BELOW = 318665857834031151167461


class _Sieve:
    """Primality flags of 0, 1, 2, ..., grown by doubling on demand."""

    def __init__(self):
        self.flags = bytearray()  # flags[n] == 1 iff n is prime; replaced whole, never mutated
        self._lock = threading.Lock()

    def covering(self, n: int) -> bytearray:
        """Flags longer than ``n``, at least the initial sieve; a bound at
        or past the cap grows nothing."""
        target = max(n if n < SIEVE_CAP else 0, _INITIAL_LIMIT - 1)
        flags = self.flags
        if len(flags) > target:
            return flags
        with self._lock:
            flags = self.flags
            while len(flags) <= target:
                flags = _extended(flags, min(max(2 * len(flags), _INITIAL_LIMIT), SIEVE_CAP))
            self.flags = flags
            return flags


def _extended(flags: bytearray, hi: int) -> bytearray:
    """``flags`` extended to length ``hi``; ``len(flags)`` is 0 or at least
    the square root of ``hi``."""
    lo = len(flags)
    segment = bytearray([1]) * (hi - lo)
    if lo == 0:
        segment[:2] = b"\0\0"
    base = flags or segment  # where the primes up to the square root are read
    for p in range(2, isqrt(hi - 1) + 1):
        if base[p]:
            start = max(p * p, -(-lo // p) * p) - lo
            segment[start::p] = bytes(len(range(start, hi - lo, p)))
    return flags + segment


_SIEVE = _Sieve()
# The product of the primes below 1000, for trial division by one gcd.
_PRIMORIAL = prod(compress(range(1000), _extended(bytearray(), 1000)))


def isprime(n: int) -> bool:
    """Whether the integer ``n`` is prime.

    >>> [n for n in range(20) if isprime(n)], isprime(2**89 - 1), isprime(561)
    ([2, 3, 5, 7, 11, 13, 17, 19], True, False)
    """
    flags = _SIEVE.flags or _SIEVE.covering(0)
    if n < len(flags):
        return n >= 0 and flags[n] == 1
    if gcd(n, _PRIMORIAL) != 1:
        return False
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def nextprime(n: int) -> int:
    """The least prime greater than ``n``.

    >>> nextprime(1), nextprime(13), nextprime(2**22)
    (2, 17, 4194319)
    """
    return next(primes_after(n))


def primes_after(n: int) -> Iterator[int]:
    """The primes greater than ``n``, ascending, as an infinite iterator.

    >>> from itertools import islice
    >>> list(islice(primes_after(1), 5)), next(primes_after(2**22))
    ([2, 3, 5, 7, 11], 4194319)
    """
    return chain.from_iterable(_prime_chunks(max(n + 1, 0)))


def _prime_chunks(lo: int) -> Iterator[Iterable[int]]:
    """The primes from ``lo`` on in consecutive ascending runs: 2, then
    compressed slices of the sieve's odd numbers, each read when the run
    before it is used up, then past the cap the candidates 6k +- 1 that
    ``isprime`` accepts."""
    if lo <= 2:
        yield (2,)
    lo, size = max(lo, 3) | 1, _FIRST_CHUNK  # odd from here on, as size is even
    while lo < SIEVE_CAP:
        hi = min(lo + size, SIEVE_CAP)
        yield compress(range(lo, hi, 2), _SIEVE.covering(hi - 1)[lo:hi:2])
        lo, size = hi, min(2 * size, _LAST_CHUNK)
    candidates = chain.from_iterable((k + 1, k + 5) for k in count(lo // 6 * 6, 6))
    yield filter(isprime, dropwhile(lo.__gt__, candidates))


def factorint(n: int) -> dict:
    """The prime factorization of ``n >= 1`` as ``{prime: exponent}``,
    ascending.  Raises :class:`DomainError` when splitting a composite
    cofactor takes more than ``FACTOR_BUDGET`` Pollard-Brent steps.

    >>> factorint(360), factorint(1)
    ({2: 3, 3: 2, 5: 1}, {})
    """
    if n < 1:
        raise DomainError(f"only positive integers are factored, got {n}")
    original, factors = n, {}
    for p in compress(range(_INITIAL_LIMIT), _SIEVE.covering(0)):
        if p * p > n:  # no prime below p divides the cofactor, so it is 1 or prime
            if n > 1:
                factors[n] = 1
            return factors
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    budget = FACTOR_BUDGET
    while pending:
        m = pending.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, budget = _pollard_brent(m, budget)
        if d is None:
            raise DomainError(
                f"factoring {original} needs more than {FACTOR_BUDGET} Pollard-Brent steps, "
                "the factoring budget"
            )
        pending += [d, m // d]
    return dict(sorted(factors.items()))


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
