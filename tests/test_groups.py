"""Group grammar: normalization, dimension, compactness."""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from borelcmp.duality import INTEGERS, dual
from borelcmp.errors import DomainError, ParseError
from borelcmp.groups import (
    MAX_FACTORS,
    REAL,
    TORUS,
    TRIVIAL_GROUP,
    Atom,
    AtomKind,
    GroupExpr,
    dimension,
    group,
    is_compact,
    solenoid,
)
from borelcmp.literals import parse_group
from borelcmp.supernatural import OMEGA, SupernaturalProfile

from borelcmp.selftest import random_atom, random_expr


def test_atom_invariants():
    with pytest.raises(DomainError):
        Atom(AtomKind.SOLENOID)  # missing profile
    with pytest.raises(DomainError):
        Atom(AtomKind.REAL, SupernaturalProfile({2: OMEGA}))
    with pytest.raises(DomainError):
        solenoid({2: 3})  # finite total cannot back a solenoid


def test_normalize_examples():
    assert parse_group("R^2 x T") == group(REAL, REAL, TORUS)
    assert parse_group("S[4,6,8|9]") == group(solenoid({2: 6, 3: OMEGA}))
    assert parse_group("(R x T)^2 x Sol{2:w}") == group(
        REAL, TORUS, REAL, TORUS, solenoid({2: OMEGA})
    )


def test_normalize_power_and_trivial():
    assert parse_group("R^0") == TRIVIAL_GROUP
    assert parse_group("1") == TRIVIAL_GROUP
    assert parse_group("1^5 x T") == group(TORUS)
    assert parse_group("(T^2)^3") == group(*[TORUS] * 6)


def test_products_are_canonical_runs():
    t2 = group(TORUS, TORUS)
    assert t2 == parse_group("T^2") == parse_group("T x T") == GroupExpr(((TORUS, 1), (REAL, 0), (TORUS, 1)))
    assert hash(t2) == hash(parse_group("T^2")) == hash(parse_group("T x T"))
    assert t2.runs == ((TORUS, 2),)
    boundary = parse_group("(T x R x T)^2")
    assert boundary.runs == ((TORUS, 1), (REAL, 1), (TORUS, 2), (REAL, 1), (TORUS, 1))
    assert tuple(boundary.factors) == (TORUS, REAL, TORUS, TORUS, REAL, TORUS)
    assert str(boundary) == "T x R x T^2 x R x T"
    assert (group(REAL, TORUS) * group(TORUS, REAL)).runs == ((REAL, 1), (TORUS, 2), (REAL, 1))
    sol = solenoid({2: OMEGA})
    assert parse_group("Sol{2:w} x (Sol{2:w})^3 x 1 x Sol{2:w}").runs == ((sol, 5),)
    assert parse_group("(T^2 x R x T)^3").runs == ((TORUS, 2), (REAL, 1), (TORUS, 3), (REAL, 1), (TORUS, 3),
                                                   (REAL, 1), (TORUS, 1))
    for bad in ((("T", 1),), ((TORUS, -1),), ((TORUS, 1.5),), (TORUS, REAL), ((TORUS, 1, 1),)):
        with pytest.raises(DomainError):
            GroupExpr(bad)


def test_normalize_caps_the_factor_count_before_building():
    assert MAX_FACTORS >= 10**6  # the largest product the benchmark builds
    assert len(parse_group("R^1000000").factors) == 10**6
    for text in ("T^10000001", "R^1" + "0" * 4000, "T^10000000 x R", "(T^1000000)^1000000"):
        with pytest.raises(DomainError, match="more than 10000000 factors"):
            parse_group(text)
    # a power of the trivial group stays trivial, however large
    assert parse_group("1^1" + "0" * 30 + " x (T^0)^1" + "0" * 30) == TRIVIAL_GROUP


def test_no_run_is_built_past_the_cap():
    """A term's factors are counted before its runs are built, and a term
    past what the cap leaves after the terms before it, at any depth, builds
    none: each of these would build 10^7 runs, 80 MB of pointers."""
    for text, error in (
        ("(T x R)^5000001", DomainError),
        ("T x ((T x R)^5000000)", DomainError),
        ("T x ((T x R)^5000000)^1 x (T", ParseError),  # which comes first
        ("T x (R x (T x R)^5000000)", DomainError),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(error):
                parse_group(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    # a term at the cap is built, and one past it with exponent 0 is empty
    assert len(parse_group("(T x 1)^10000000").runs) == 1
    assert parse_group("((T x R)^5000001)^0 x T") == group(TORUS)


def test_factors_allocate_the_tuple_once():
    """The factors, like a dual's components, are a sized view of the runs:
    its ``len`` allocates nothing per factor, and a tuple of it is allocated
    at its final size.  Grown from an iterator it passes through larger
    buffers, and through a copy whenever a step cannot grow in place, so the
    peak memory of a large expansion varied from one process to the next."""
    huge = parse_group("T^10000000")
    tracemalloc.start()
    try:
        assert len(huge.factors) == len(dual(huge).components) == 10**7
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    g = parse_group("R^700000 x T^300000")
    dual_power = dual(parse_group("(R^7 x T^3)^100000"))
    for expanded, expected in (
        (lambda: tuple(g.factors), (REAL,) * 700_000 + (TORUS,) * 300_000),
        (lambda: tuple(dual_power.components), ((REAL,) * 7 + (INTEGERS,) * 3) * 100_000),
    ):
        tracemalloc.start()
        try:
            items = expanded()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert items == expected
        assert peak < sys.getsizeof(items) + 4096
    assert tuple(TRIVIAL_GROUP.factors) == () and tuple(group(TORUS, REAL).factors) == (TORUS, REAL)
    # a view, not a tuple: it neither indexes nor equals one
    assert g.factors != tuple(g.factors) and not isinstance(g.factors, tuple)
    with pytest.raises(TypeError):
        g.factors[0]


def test_normalize_accepts_every_leaf_kind():
    """Every kind of leaf a literal names (an atom, an integer sequence, the
    trivial group) normalizes to its runs, alone or inside powers and
    products."""
    sol = solenoid({2: OMEGA})
    seq_sol = solenoid({2: OMEGA, 3: OMEGA})  # 4, then 6 = 2 * 3 forever
    assert parse_group("R").runs[0][0] is REAL and parse_group("Sol{2:w}").runs[0][0] == sol
    for text, runs in (("R", ((REAL, 1),)), ("Sol{2:w}", ((sol, 1),)), ("S[4|6]", ((seq_sol, 1),)), ("1", ())):
        assert parse_group(text).runs == runs
        assert parse_group(f"{text}^3").runs == tuple((atom, 3 * count) for atom, count in runs)
        assert parse_group(f"T x {text} x T") == GroupExpr(((TORUS, 1), *runs, (TORUS, 1)))
    assert parse_group("(R x Sol{2:w})^2 x S[4|6]^2 x 1^5 x T").runs == (
        (REAL, 1), (sol, 1), (REAL, 1), (sol, 1), (seq_sol, 2), (TORUS, 1))


def test_dimension_examples():
    assert dimension(TRIVIAL_GROUP) == 0
    assert dimension(group(solenoid({2: OMEGA}))) == 1
    assert dimension(parse_group("R^2 x T x Sol{2:w}")) == 4


def test_dimension_additive(rng):
    for _ in range(30):
        g, h = random_expr(rng), random_expr(rng)
        assert dimension(g * h) == dimension(g) + dimension(h)


def test_is_compact_examples():
    assert is_compact(parse_group("T x Sol{2:w}"))
    assert not is_compact(parse_group("R"))
    assert is_compact(TRIVIAL_GROUP)


def _random_literal(rng, depth=3) -> str:
    """Group literal text: atoms, the trivial group and rendered random
    products, parenthesized, with random powers and nested products."""
    pick = rng.randrange(6 if depth else 3)
    if pick == 0:
        return f"({random_atom(rng)})"
    if pick == 1:
        return "1"
    if pick == 2:
        return f"({random_expr(rng)})"
    if pick == 3:
        return f"({_random_literal(rng, depth - 1)})^{rng.randrange(4)}"
    return "(" + " x ".join(_random_literal(rng, depth - 1) for _ in range(1 + rng.randrange(3))) + ")"


def test_trusted_runs_are_canonical(rng):
    """``parse_group`` and ``*`` skip the constructor's checks; their runs
    must be what the checking constructor would make of them."""
    for _ in range(300):
        g = parse_group(_random_literal(rng))
        h = g * parse_group(_random_literal(rng))
        for expr in (g, h):
            checked = GroupExpr(expr.runs)
            assert checked == expr and hash(checked) == hash(expr)


def test_parsed_solenoid_profiles_are_checked_once(monkeypatch):
    """The profile parser checks a solenoid's infinite total; the atom does
    not check it again, and neither does an ``S[...]`` literal's atom."""
    checks = []
    has_infinite_total = SupernaturalProfile.has_infinite_total

    def counted(profile):
        checks.append(profile)
        return has_infinite_total.fget(profile)

    monkeypatch.setattr(SupernaturalProfile, "has_infinite_total", property(counted))
    g = parse_group("Sol{2:w, 3:5} x Sol{7:w}^2 x T")
    assert len(checks) == 2 and str(g) == "Sol{2:w, 3:5} x Sol{7:w}^2 x T"
    checks.clear()
    assert str(parse_group("S[4,6,8|9] x S[|7]")) == "Sol{2:6, 3:w} x Sol{7:w}"
    assert checks == []
    with pytest.raises(DomainError, match="finite total"):  # the checking constructor still checks
        Atom(AtomKind.SOLENOID, SupernaturalProfile({2: 3}))
    assert len(checks) == 1


def test_parsed_powers_are_not_checked_again(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("runs checked again")

    monkeypatch.setattr(GroupExpr, "__init__", refuse)  # the checking constructor
    g = parse_group("(T x Sol{2:w})^500000")
    assert len(g.runs) == 10**6 and dimension(g) == 10**6
