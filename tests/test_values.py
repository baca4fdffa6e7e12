"""The value types: plain classes with the semantics of frozen dataclasses.

Each is built from its positional fields or by keyword with its defaults,
equals and hashes like a value of the same class with equal fields, refuses
assignment and deletion, survives ``copy`` and ``pickle``, and prints the
repr a frozen dataclass would print.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from borelcmp.groups import REAL, TORUS, Atom, AtomKind, GroupExpr, RawPower, RawProduct
from borelcmp.reducibility import Certificate, EdgeBlock, EdgeReason, EdgeWitness, HallViolator, IndexRanges
from borelcmp.report import Report
from borelcmp.supernatural import OMEGA, IntSeqSpec, Replay, SupernaturalProfile

T_T = EdgeReason.RULE_T_T

# (class, positional fields, the same value by keyword with defaults left out, repr)
CASES = [
    (SupernaturalProfile, ({3: OMEGA, 2: 6}, 0), {"exceptions": {2: 6, 3: OMEGA}},
     "SupernaturalProfile(exceptions=((2, 6), (3, OMEGA)), default=0)"),
    (IntSeqSpec, ((), (9, 9)), {"tail": (9,)},
     "IntSeqSpec(prefix=(), tail=(9,))"),
    (Replay, (0, 1, None, 5, 1), {"drop": 0, "end": 1, "witness": 5, "needed": 1},
     "Replay(drop=0, end=1, prefix=None, witness=5, needed=1, needs_window=None)"),
    (Atom, (AtomKind.TORUS, None), {"kind": AtomKind.TORUS},
     "Atom(kind=<AtomKind.TORUS: 'T'>, profile=None)"),
    (GroupExpr, (((TORUS, 2), (TORUS, 1)),), {"runs": ((TORUS, 3),)},
     "GroupExpr(runs=((Atom(kind=<AtomKind.TORUS: 'T'>, profile=None), 3),))"),
    (RawPower, (TORUS, 3), {"base": TORUS, "exponent": 3},
     "RawPower(base=Atom(kind=<AtomKind.TORUS: 'T'>, profile=None), exponent=3)"),
    (RawProduct, ((REAL, IntSeqSpec((), (4,))),), {"parts": (REAL, IntSeqSpec(tail=(4,)))},
     "RawProduct(parts=(Atom(kind=<AtomKind.REAL: 'R'>, profile=None), IntSeqSpec(prefix=(), tail=(4,))))"),
    (EdgeWitness, (1, 1, T_T, ()), {"left_index": 1, "right_index": 1, "reason": T_T},
     "EdgeWitness(left_index=1, right_index=1, reason=<EdgeReason.RULE_T_T: 'RULE_T_T'>, deficit=())"),
    (Certificate, ((EdgeBlock(1, 2, 2, T_T),),), {"blocks": ((1, 2, 2, T_T, ()),)},
     "Certificate(blocks=(EdgeBlock(left=1, right=2, count=2, "
     "reason=<EdgeReason.RULE_T_T: 'RULE_T_T'>, deficit=()),))"),
    (IndexRanges, ((range(1, 3), range(5, 6)),), {"ranges": (range(1, 3), range(5, 6))},
     "IndexRanges(ranges=(range(1, 3), range(5, 6)))"),
    (HallViolator, ((1, 2), (1,)), {"K": (1, 2), "NK": (1,)},
     "HallViolator(K=(1, 2), NK=(1,))"),
    (Report, ("dim", ("T",), "1", None, (), "json"),
     {"verb": "dim", "inputs": ("T",), "verdict": "1", "format": "json"},
     "Report(verb='dim', inputs=('T',), verdict='1', certificate=None, diagnostics=(), format='json')"),
]


@pytest.mark.parametrize("cls, args, keywords, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, args, keywords, text):
    value = cls(*args)
    assert repr(value) == text and not dataclasses.is_dataclass(value)
    for same in (cls(*args), cls(**keywords), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert same is not value and same == value and hash(same) == hash(value)
        assert not same != value
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_values_equal_only_values_of_the_same_class():
    class Subclass(IntSeqSpec):
        __slots__ = ()

    assert IntSeqSpec((2,), (3,)) != Subclass((2,), (3,))
    assert Subclass((2,), (3,)) != IntSeqSpec((2,), (3,))
    assert HallViolator((1,), ()) != ((1,), ()) and GroupExpr() != ()
    assert EdgeWitness(1, 2, T_T) != EdgeWitness(1, 3, T_T)
    # the classes that keep their own equality: an IndexRanges equals its indices
    assert IndexRanges((range(1, 3),)) == (1, 2) and hash(IndexRanges((range(1, 3),))) == hash((1, 2))


def test_values_hash_as_the_tuple_of_their_fields():
    assert hash(HallViolator((1, 2), (1,))) == hash(((1, 2), (1,)))
    assert hash(GroupExpr(((TORUS, 2),))) == hash((((TORUS, 2),),))
    assert hash(IntSeqSpec((5,), (2, 3))) == hash(((5,), (2, 3)))


def test_cached_properties_need_the_instance_dict():
    # an expression caches nothing: its factors are a view of its runs, so it
    # keeps no instance dict, and copy and pickle rebuild it from the runs
    g = GroupExpr(((TORUS, 2),))
    assert not hasattr(g, "__dict__") and tuple(g.factors) == (TORUS, TORUS)
    for same in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert same == g and same.runs == ((TORUS, 2),) and tuple(same.factors) == (TORUS, TORUS)
    # nor does a certificate
    certificate = Certificate((EdgeBlock(1, 2, 2, T_T),))
    assert not hasattr(certificate, "__dict__") and len(certificate) == 2
    assert list(certificate) == [EdgeWitness(1, 2, T_T), EdgeWitness(2, 1, T_T)]


def test_values_match_their_fields_positionally():
    match HallViolator((1, 2), (1,)):
        case HallViolator(K, NK):
            assert (K, NK) == ((1, 2), (1,))
        case _:
            raise AssertionError("no match")
    match GroupExpr(((TORUS, 2),)):
        case GroupExpr(((Atom(AtomKind.TORUS, None), count),)):
            assert count == 2
        case _:
            raise AssertionError("no match")
