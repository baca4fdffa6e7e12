"""Shared fixtures and oracles for the tests.

Random groups and profiles come from the package's own samplers
(``borelcmp.selftest.random_profile``, ``random_atom`` and
``random_expr``), which draw from a small prime pool so that random pairs
are related often enough for order-law tests to bite.  ``PRIME_POOL`` is
that pool, for the hypothesis strategies.
"""

from __future__ import annotations

import random

import pytest

from borelcmp import literals, supernatural

PRIME_POOL = (2, 3, 5, 7, 11, 13)


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
