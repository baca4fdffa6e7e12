"""Integer arguments of the public functions: a value that is not a natural
number (a float, a bool, a string) is a ``DomainError``, and a value below
the least one allowed keeps the message it always had."""

from __future__ import annotations

import pytest

from borelcmp.errors import DomainError
from borelcmp.farprimes import factorint
from borelcmp.groups import TORUS, GroupExpr
from borelcmp.posetlab import Family, UPSet
from borelcmp.replay import canonical_sequence, canonical_terms, oracle_replay
from borelcmp.supernatural import OMEGA, SupernaturalProfile
from borelcmp.verify import rt_closed_form

TWO_ADIC = SupernaturalProfile({2: OMEGA})

CASES = [
    (factorint, (2.5,), "only positive integers are factored, got 2.5"),
    (factorint, (True,), "only positive integers are factored, got True"),
    (factorint, (0,), "only positive integers are factored, got 0"),
    (rt_closed_form, (1.5, 0, 0, 0), "factor counts must be natural numbers, got 1.5"),
    (rt_closed_form, ("1", 0, 0, 0), "factor counts must be natural numbers, got '1'"),
    (rt_closed_form, (0, 0, -1, 0), "factor counts must be natural numbers, got -1"),
    (GroupExpr, (((TORUS, True),),), "run count must be a natural number, got True"),
    (GroupExpr, (((TORUS, -1),),), "run count must be a natural number, got -1"),
    (canonical_sequence, (TWO_ADIC, 2.5), "term count must be nonnegative, got 2.5"),
    (canonical_sequence, (TWO_ADIC, -1), "term count must be nonnegative, got -1"),
    (canonical_terms, (TWO_ADIC, 1.5), "start must be a natural number, got 1.5"),
    (canonical_terms, (TWO_ADIC, -1), "start must be a natural number, got -1"),
    (oracle_replay, (TWO_ADIC, TWO_ADIC, 2.5), "window must be positive, got 2.5"),
    (oracle_replay, (TWO_ADIC, TWO_ADIC, 0), "window must be positive, got 0"),
    (Family.default().d_terms, (2.5,), "count must be a natural number, got 2.5"),
    (Family.default().d_terms, (-1,), "count must be a natural number, got -1"),
    (UPSet, (1.5,), "period must be a positive integer, got 1.5"),
    (UPSet, (2, frozenset({-1})), "a residue or flip must be a natural number, got -1"),
    (UPSet, (2, frozenset(), frozenset({True})), "a residue or flip must be a natural number, got True"),
    (UPSet.from_word, ((), 2.5, 1, (True,)), "threshold must be a natural number, got 2.5"),
    (UPSet.from_word, ((), -1, 1, (True,)), "threshold must be a natural number, got -1"),
    (UPSet.multiples_of(2).members_below, ("7",), "bound must be an integer, got '7'"),
    (UPSet.multiples_of(2).members_below, (None,), "bound must be an integer, got None"),
    (UPSet.multiples_of(2).members_below, (True,), "bound must be an integer, got True"),
    (UPSet.multiples_of(2).count_below, ("7",), "bound must be an integer, got '7'"),
    (UPSet.multiples_of(2).count_below, (2.5,), "bound must be an integer, got 2.5"),
]


@pytest.mark.parametrize(
    "function, args, message", CASES, ids=[f"{f.__name__}-{m.rpartition('got ')[2]}" for f, _, m in CASES]
)
def test_integer_arguments_must_be_natural(function, args, message):
    with pytest.raises(DomainError) as refused:
        function(*args)
    assert str(refused.value) == message
