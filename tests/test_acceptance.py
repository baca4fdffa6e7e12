"""Acceptance criteria, one test per criterion of ``borelcmp.selftest``.

Every test prints one ``ACCEPTANCE nn <name>: PASS`` line on success
(visible with ``pytest -s`` or in captured output); a failure fails the
test with the criterion's detail.  The checks themselves, their scales and
their seeding live in ``borelcmp.selftest``, which the ``selftest`` verb
runs too.
"""

from __future__ import annotations

import time

import pytest

from borelcmp.selftest import CRITERIA, run_criterion

# the seed of ``borelcmp selftest``, so each test draws the verb's sample
SEED = 20250810


@pytest.mark.parametrize(
    "number, name",
    [(number, name) for number, name, _ in CRITERIA],
    ids=[f"{number:02d}_{name}".replace(" ", "_").replace("-", "_") for number, name, _ in CRITERIA],
)
def test_criterion(number, name):
    ok, detail = run_criterion(number, SEED)
    assert ok, detail
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_02_closed_form_agreement_within_a_second():
    start = time.perf_counter()
    assert run_criterion(2, SEED)[0]
    assert time.perf_counter() - start < 1.0
