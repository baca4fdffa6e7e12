"""The value types: plain classes with the semantics of frozen dataclasses.

Each is built from its positional fields or by keyword with its defaults,
equals and hashes like a value of the same class with equal fields, refuses
assignment and deletion, survives ``copy`` and ``pickle``, and prints the
repr a frozen dataclass would print.  A ``Verdict`` also answers the
functions of ``dataclasses`` as the frozen dataclass it once was.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from borelcmp.duality import INTEGERS, DualExpr, RationalType
from borelcmp.groups import TORUS, Atom, AtomKind, GroupExpr
from borelcmp.posetlab import ChainDemo, CrosscheckReport, Family, MemberRef, UPSet
from borelcmp.reducibility import Certificate, EdgeBlock, EdgeReason, EdgeWitness, HallViolator, IndexRanges, Verdict
from borelcmp.replay import Replay
from borelcmp.supernatural import OMEGA, SupernaturalProfile

T_T = EdgeReason.RULE_T_T
TWO_ADIC, ALL_OMEGA = SupernaturalProfile({2: OMEGA}), SupernaturalProfile.all_omega()
FAMILY, EVENS = Family(TWO_ADIC, ALL_OMEGA), UPSet(2, frozenset({0}))
FAMILY_REPR = "Family(p={2:w}, q={default=w})"
EVENS_REPR = "UPSet(period=2, residues=frozenset({0}), flips=frozenset())"
MEMBER_REPR = f"MemberRef(family={FAMILY_REPR}, a={EVENS_REPR}, power=1)"
REPLAY = Replay(0, 10, 10)
CERTIFICATE = Certificate((EdgeBlock(1, 2, 2, T_T),))
VIOLATOR = HallViolator(IndexRanges((range(1, 3),)), IndexRanges((range(1, 2),)))
VERDICT_FIELDS = [(True, CERTIFICATE, None), (False, None, VIOLATOR)]

# (class, positional fields, the same value by keyword with defaults left out, repr)
CASES = [
    (SupernaturalProfile, ({3: OMEGA, 2: 6}, 0), {"exceptions": {2: 6, 3: OMEGA}},
     "SupernaturalProfile(exceptions=((2, 6), (3, OMEGA)), default=0)"),
    (Replay, (0, 1, None, 5, 1), {"drop": 0, "end": 1, "witness": 5, "needed": 1},
     "Replay(drop=0, end=1, prefix=None, witness=5, needed=1, needs_window=None)"),
    (Atom, (AtomKind.TORUS, None), {"kind": AtomKind.TORUS},
     "Atom(kind=<AtomKind.TORUS: 'T'>, profile=None)"),
    (GroupExpr, (((TORUS, 2), (TORUS, 1)),), {"runs": ((TORUS, 3),)},
     "GroupExpr(runs=((Atom(kind=<AtomKind.TORUS: 'T'>, profile=None), 3),))"),
    (EdgeWitness, (1, 1, T_T, ()), {"left_index": 1, "right_index": 1, "reason": T_T},
     "EdgeWitness(left_index=1, right_index=1, reason=<EdgeReason.RULE_T_T: 'RULE_T_T'>, deficit=())"),
    (Certificate, ((EdgeBlock(1, 2, 2, T_T),),), {"blocks": ((1, 2, 2, T_T, ()),)},
     "Certificate(blocks=(EdgeBlock(left=1, right=2, count=2, "
     "reason=<EdgeReason.RULE_T_T: 'RULE_T_T'>, deficit=()),))"),
    (IndexRanges, ((range(1, 3), range(5, 6)),), {"ranges": (range(1, 3), range(5, 6))},
     "IndexRanges(ranges=(range(1, 3), range(5, 6)))"),
    (HallViolator, ((1, 2), (1,)), {"K": (1, 2), "NK": (1,)},
     "HallViolator(K=(1, 2), NK=(1,))"),
    # UPSet's threshold is no field, and its residues reduce to the minimal period
    (UPSet, (4, {0, 2}), {"period": 2, "residues": frozenset({0})}, EVENS_REPR),
    (Family, (TWO_ADIC, ALL_OMEGA), {"p": TWO_ADIC, "q": ALL_OMEGA}, FAMILY_REPR),
    (MemberRef, (FAMILY, EVENS, 1), {"family": FAMILY, "a": EVENS}, MEMBER_REPR),
    (CrosscheckReport, (True, True, (5,), 10, True, (), REPLAY),
     {"verdict": True, "surplus_finite": True, "surplus_primes": (5,), "window": 10, "consistent": True,
      "notes": (), "replay": REPLAY},
     "CrosscheckReport(verdict=True, surplus_finite=True, surplus_primes=(5,), window=10, consistent=True, "
     "notes=(), replay=Replay(drop=0, end=10, prefix=10, witness=None, needed=None, needs_window=None))"),
    (ChainDemo, (("evens",), (MemberRef(FAMILY, EVENS),), ((True,),)),
     {"labels": ("evens",), "members": (MemberRef(FAMILY, EVENS),), "matrix": ((True,),)},
     f"ChainDemo(labels=('evens',), members=({MEMBER_REPR},), matrix=((True,),))"),
    # the reprs a frozen dataclass ``Verdict`` printed
    (Verdict, VERDICT_FIELDS[0], {"reducible": True, "certificate": CERTIFICATE},
     "Verdict(reducible=True, certificate=Certificate(blocks=(EdgeBlock(left=1, right=2, count=2, "
     "reason=<EdgeReason.RULE_T_T: 'RULE_T_T'>, deficit=()),)), violator=None)"),
    (Verdict, VERDICT_FIELDS[1], {"reducible": False, "violator": VIOLATOR},
     "Verdict(reducible=False, certificate=None, "
     "violator=HallViolator(K=IndexRanges(ranges=(range(1, 3),)), NK=IndexRanges(ranges=(range(1, 2),))))"),
    (RationalType, (SupernaturalProfile((), 0),), {},
     "RationalType(profile=SupernaturalProfile(exceptions=(), default=0))"),
    (DualExpr, (((INTEGERS, 2),),), {"runs": ((INTEGERS, 2),)},
     "DualExpr(runs=((RationalType(profile=SupernaturalProfile(exceptions=(), default=0)), 2),))"),
]


@pytest.mark.parametrize("cls, args, keywords, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, args, keywords, text):
    value = cls(*args)
    # only a verdict answers ``dataclasses`` (see below)
    assert repr(value) == text and dataclasses.is_dataclass(value) == (cls is Verdict)
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
    class Subclass(Replay):
        __slots__ = ()

    assert Replay(0, 10, 10) != Subclass(0, 10, 10)
    assert Subclass(0, 10, 10) != Replay(0, 10, 10)
    assert HallViolator((1,), ()) != ((1,), ()) and GroupExpr() != ()
    assert EdgeWitness(1, 2, T_T) != EdgeWitness(1, 3, T_T)
    # an IndexRanges equals an IndexRanges of the same ranges, and not its indices
    assert IndexRanges((range(1, 3),)) == IndexRanges((range(1, 3),)) != (1, 2)
    assert IndexRanges((range(1, 3),)) != IndexRanges((range(1, 2), range(2, 3)))


def test_values_hash_as_the_tuple_of_their_fields():
    assert hash(HallViolator((1, 2), (1,))) == hash(((1, 2), (1,)))
    assert hash(GroupExpr(((TORUS, 2),))) == hash((((TORUS, 2),),))
    assert hash(Replay(0, 1, None, 5, 1)) == hash((0, 1, None, 5, 1, None))


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
    # a set caches its sorted residues and flips in its instance dict, beside
    # its threshold, and copy and pickle rebuild it through the constructor
    upset = UPSet(4, frozenset({0, 2}), frozenset({1, 2}))
    assert "_sorted" not in vars(upset) and upset.count_below(5) == 3
    assert vars(upset) == {"period": 2, "residues": frozenset({0}), "flips": frozenset({1, 2}), "threshold": 3,
                           "_sorted": ([0], [2], [1])}
    for same in (copy.copy(upset), copy.deepcopy(upset), pickle.loads(pickle.dumps(upset))):
        assert same == upset and vars(same) == {"period": 2, "residues": frozenset({0}),
                                                "flips": frozenset({1, 2}), "threshold": 3}
        assert same.count_below(5) == 3 and vars(same)["_sorted"] == ([0], [2], [1])


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


# A verdict as the frozen dataclass that ``Verdict`` once was, field for field
@dataclasses.dataclass(frozen=True)
class DataclassVerdict:
    reducible: bool
    certificate: Certificate | None = None
    violator: HallViolator | None = None


@pytest.mark.parametrize("fields", VERDICT_FIELDS, ids=["positive", "negative"])
def test_verdict_answers_dataclasses_as_a_frozen_dataclass(fields):
    verdict, reference = Verdict(*fields), DataclassVerdict(*fields)
    assert repr(verdict) == repr(reference).replace("DataclassVerdict", "Verdict")
    assert verdict != reference and hash(verdict) == hash(reference) == hash(fields)
    assert dataclasses.is_dataclass(verdict) and dataclasses.is_dataclass(Verdict)
    # the Field reprs name every attribute, the private field type among them
    assert repr(dataclasses.fields(verdict)) == repr(dataclasses.fields(reference))
    assert repr(dataclasses.fields(Verdict)) == repr(dataclasses.fields(DataclassVerdict))
    assert dataclasses.asdict(verdict) == dataclasses.asdict(reference)
    assert dataclasses.astuple(verdict) == dataclasses.astuple(reference)
    flipped = dataclasses.replace(verdict, reducible=not verdict.reducible)
    assert type(flipped) is Verdict
    assert repr(flipped) == repr(dataclasses.replace(reference, reducible=not verdict.reducible)).replace(
        "DataclassVerdict", "Verdict")
    assert dataclasses.replace(verdict) == verdict
