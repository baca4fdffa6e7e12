"""Shared generators for randomized tests.

Kept independent of the package's own samplers: these draw from a small
prime pool so that randomly generated pairs are related often enough for
order-law tests to bite.
"""

from __future__ import annotations

import random

import pytest

from borelcmp import literals, supernatural
from borelcmp.groups import REAL, TORUS, GroupExpr, group, solenoid
from borelcmp.supernatural import OMEGA, SupernaturalProfile

PRIME_POOL = (2, 3, 5, 7, 11, 13)


def make_profile(rng: random.Random) -> SupernaturalProfile:
    """A random valid (infinite-total) profile over the small prime pool."""
    if rng.random() < 0.25:
        count = rng.randrange(0, 3)
        exceptions = {g: rng.randrange(0, 7) for g in rng.sample(PRIME_POOL, count)}
        return SupernaturalProfile(exceptions, OMEGA)
    omega_count = rng.randrange(1, 4)
    primes = rng.sample(PRIME_POOL, omega_count + rng.randrange(0, 3))
    exceptions = {}
    for index, g in enumerate(primes):
        exceptions[g] = OMEGA if index < omega_count else rng.randrange(1, 9)
    return SupernaturalProfile(exceptions, 0)


def make_atom(rng: random.Random, compact: bool = False):
    roll = rng.random()
    if roll < (0.0 if compact else 0.3):
        return REAL
    if roll < 0.6:
        return TORUS
    return solenoid(make_profile(rng))


def make_expr(rng: random.Random, max_factors: int = 4, compact: bool = False) -> GroupExpr:
    return group(*(make_atom(rng, compact) for _ in range(rng.randrange(0, max_factors + 1))))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(987654321)


@pytest.fixture
def isprime_calls(monkeypatch) -> list:
    """Records, in order, every number tested through the package's
    bindings of ``isprime``."""
    calls: list = []
    for module in (supernatural, literals):
        def counted(n, _isprime=module.isprime):
            calls.append(n)
            return _isprime(n)

        monkeypatch.setattr(module, "isprime", counted)
    return calls
