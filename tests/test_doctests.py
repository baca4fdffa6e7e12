"""Run the usage examples embedded in module docstrings."""

from __future__ import annotations

import doctest

import pytest

import borelcmp.duality
import borelcmp.groups
import borelcmp.literals
import borelcmp.posetlab
import borelcmp.primes
import borelcmp.reducibility
import borelcmp.supernatural

MODULES = [
    borelcmp.supernatural,
    borelcmp.groups,
    borelcmp.reducibility,
    borelcmp.duality,
    borelcmp.posetlab,
    borelcmp.literals,
    borelcmp.primes,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
