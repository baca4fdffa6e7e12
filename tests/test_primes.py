"""The standard-library number theory of ``borelcmp.primes``, with sympy as
the oracle."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from itertools import islice

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

import borelcmp
from borelcmp import primes
from borelcmp.errors import DomainError
from borelcmp.primes import factorint, isprime, nextprime, primes_after
from borelcmp.supernatural import IntSeqSpec, factor_sequence

# The two 90-bit primes whose product the benchmark's cli_mix reduces.
P90 = 618970019668049015295030157
Q90 = 928455029464802529184826323


def test_small_numbers_agree_with_sympy():
    known = list(sympy.primerange(0, 200_100))
    below = set(known)
    for n in range(-3, 200_000):
        assert isprime(n) == (n in below), n
        assert nextprime(n) == known[bisect_right(known, n)], n


def test_random_large_numbers_agree_with_sympy():
    rng = random.Random(20170101)
    for _ in range(2000):
        n = rng.getrandbits(rng.randrange(64, 257))
        assert isprime(n) == sympy.isprime(n), n
        assert nextprime(n) == sympy.nextprime(n), n


def test_strong_lucas_test_agrees_with_sympy():
    # covers the strong Lucas pseudoprimes 5459, 5777, 10877, ...
    for n in range(3, 100_000, 2):
        assert primes._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the first 9, 12 and 13 prime bases
        3825123056546413051,
        318665857834031151167461,
        3317044064679887385961981,
        # Carmichael numbers
        561,
        41041,
        825265,
    ],
)
def test_pseudoprimes_are_composite(n):
    assert not isprime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, P90, Q90])
def test_known_primes(n):
    assert isprime(n)


def test_nextprime_past_the_sieve_cap():
    for n in (primes.SIEVE_CAP - 1, primes.SIEVE_CAP, 10**12, 10**30):
        assert nextprime(n) == sympy.nextprime(n)


def _nextprime_walk(n: int, count: int) -> list:
    """The ``count`` primes after ``n``, one ``nextprime`` call each."""
    walked = []
    for _ in range(count):
        n = nextprime(n)
        walked.append(n)
    return walked


def test_primes_after_matches_nextprime():
    assert list(islice(primes_after(1), 100_000)) == _nextprime_walk(1, 100_000)
    # the initial sieve and the largest chunk both span 2^16 numbers
    for n in [-3, 0, 1, 2, 3, *range(2**16 - 40, 2**16 + 40), 2**17 + 5, 10**6]:
        assert list(islice(primes_after(n), 50)) == _nextprime_walk(n, 50), n


def test_primes_after_goes_on_past_the_sieve_cap(monkeypatch):
    cap = 2**16 + 1001  # odd, so the last chunk ends at an odd bound
    monkeypatch.setattr(primes, "SIEVE_CAP", cap)
    monkeypatch.setattr(primes, "_SIEVE", primes._Sieve())
    known = list(sympy.primerange(0, cap + 5000))
    assert list(islice(primes_after(1), len(known))) == known
    for n in range(cap - 30, cap + 30):
        assert list(islice(primes_after(n), 20)) == known[bisect_right(known, n):][:20], n
    assert len(primes._SIEVE.flags) == cap


def test_factorint_agrees_with_sympy():
    rng = random.Random(1980)
    small = list(sympy.primerange(2, 1000))
    large = list(sympy.primerange(2**30 - 2000, 2**30))
    for _ in range(60):
        n = 1
        for _ in range(rng.randrange(0, 5)):
            n *= rng.choice(small)
        for _ in range(rng.randrange(0, 3)):
            n *= rng.choice(large)
        assert factorint(n) == sympy.factorint(n), n


def test_factorint_around_the_end_of_trial_division_agrees_with_sympy():
    # 65521 is the last prime below 2^16 and 65537 the first above: a cofactor
    # past every trial divisor is prime or splits through Pollard-Brent
    for n in (65521, 65537, 2 * 65537, 65521**2, 65537**2, 65521 * 65537, 3 * 65537**2,
              65537 * 65539 * 65543, 2**31 - 1, (2**31 - 1) * 65537):
        assert factorint(n) == sympy.factorint(n), n


def test_factoring_a_prime_sequence_runs_no_miller_rabin(monkeypatch):
    """Trial division stops at the first prime whose square exceeds the
    cofactor, which is then 1 or prime, and ``factor_sequence`` keeps the
    primes it finds without testing them again: from a fresh sieve of 2^16,
    the first 15,000 primes (up to 163,841) need no Miller-Rabin round."""
    first = tuple(islice(primes_after(1), 15_000))
    monkeypatch.setattr(primes, "_SIEVE", primes._Sieve())
    calls = []
    strong = primes._strong_probable_prime
    monkeypatch.setattr(primes, "_strong_probable_prime", lambda n, a: calls.append(n) or strong(n, a))
    assert factor_sequence(IntSeqSpec((), first)).tail == first
    assert calls == []
    assert isprime(first[-1]) and calls  # the counter sees the rounds it should


def test_factorint_of_a_semiprime_of_90_bit_primes_stops_at_the_budget():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="factoring budget"):
        factorint(P90 * Q90)
    assert time.perf_counter() - start < 1.0


def test_concurrent_nextprime_agrees_with_a_serial_run(monkeypatch):
    queries = list(range(0, 600_000, 997))
    expected = [nextprime(n) for n in queries]
    monkeypatch.setattr(primes, "_SIEVE", primes._Sieve())  # every thread grows it
    results: dict = {}

    def worker(k):
        results[k] = [nextprime(n) for n in (queries if k % 2 else queries[::-1])]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(8):
        assert results[k] == (expected if k % 2 else expected[::-1])


def test_importing_the_package_imports_no_sympy():
    code = "import sys, borelcmp; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(borelcmp.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
