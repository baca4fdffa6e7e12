"""Integer arguments of the public functions: a value that is not a natural
number (a float, a bool, a string) is a ``DomainError``, and a value below
the least one allowed keeps the message it always had."""

from __future__ import annotations

import pytest

from borelcmp.errors import DomainError
from borelcmp.groups import TORUS, GroupExpr, RawPower
from borelcmp.posetlab import Family, UPSet
from borelcmp.primes import factorint
from borelcmp.reducibility import rt_closed_form
from borelcmp.supernatural import OMEGA, IntSeqSpec, SupernaturalProfile, canonical_sequence

TWO_ADIC = SupernaturalProfile({2: OMEGA})
SEQUENCE = IntSeqSpec((4,), (6,))

CASES = [
    (factorint, (2.5,), "only positive integers are factored, got 2.5"),
    (factorint, (True,), "only positive integers are factored, got True"),
    (factorint, (0,), "only positive integers are factored, got 0"),
    (rt_closed_form, (1.5, 0, 0, 0), "factor counts must be natural numbers, got 1.5"),
    (rt_closed_form, ("1", 0, 0, 0), "factor counts must be natural numbers, got '1'"),
    (rt_closed_form, (0, 0, -1, 0), "factor counts must be natural numbers, got -1"),
    (GroupExpr, (((TORUS, True),),), "run count must be a natural number, got True"),
    (GroupExpr, (((TORUS, -1),),), "run count must be a natural number, got -1"),
    (RawPower, (TORUS, 1.5), "group exponent must be nonnegative, got 1.5"),
    (RawPower, (TORUS, -1), "group exponent must be nonnegative, got -1"),
    (canonical_sequence, (TWO_ADIC, 2.5), "term count must be nonnegative, got 2.5"),
    (canonical_sequence, (TWO_ADIC, -1), "term count must be nonnegative, got -1"),
    (SEQUENCE.term, (1.5,), "sequence index must be nonnegative, got 1.5"),
    (SEQUENCE.term, (-1,), "sequence index must be nonnegative, got -1"),
    (SEQUENCE.terms, (2.5,), "term count must be nonnegative, got 2.5"),
    (SEQUENCE.terms, (-1,), "term count must be nonnegative, got -1"),
    (Family.default().d_term, (True,), "index must be a natural number, got True"),
    (UPSet, (1.5,), "period must be a positive integer, got 1.5"),
    (UPSet.from_word, ((), 2.5, 1, (True,)), "threshold must be a natural number, got 2.5"),
    (UPSet.from_word, ((), -1, 1, (True,)), "threshold must be a natural number, got -1"),
]


@pytest.mark.parametrize(
    "function, args, message", CASES, ids=[f"{f.__name__}-{m.rpartition('got ')[2]}" for f, _, m in CASES]
)
def test_integer_arguments_must_be_natural(function, args, message):
    with pytest.raises(DomainError) as refused:
        function(*args)
    assert str(refused.value) == message
