"""Run the usage examples embedded in module docstrings."""

from __future__ import annotations

import doctest

import pytest

import borelcmp.coprime
import borelcmp.duality
import borelcmp.farprimes
import borelcmp.groups
import borelcmp.literals
import borelcmp.posetlab
import borelcmp.primes
import borelcmp.reducibility
import borelcmp.replay
import borelcmp.sequences
import borelcmp.supernatural
import borelcmp.verify

MODULES = [
    borelcmp.supernatural,
    borelcmp.groups,
    borelcmp.reducibility,
    borelcmp.duality,
    borelcmp.posetlab,
    borelcmp.literals,
    borelcmp.primes,
    borelcmp.coprime,
    borelcmp.farprimes,
    borelcmp.replay,
    borelcmp.sequences,
    borelcmp.verify,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
