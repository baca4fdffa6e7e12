"""Literal parsing and rendering: round trips and diagnostics."""

from __future__ import annotations

import pytest

from borelcmp.errors import ParseError
from borelcmp.groups import REAL, TORUS, group, solenoid
from borelcmp.literals import (
    MAX_GROUP_NESTING,
    parse_group,
    parse_profile,
    parse_sequence,
    parse_upset,
    render_group,
    render_profile,
    render_upset,
)
from borelcmp.posetlab import UPSet
from borelcmp.supernatural import OMEGA, IntSeqSpec, SupernaturalProfile

from borelcmp.selftest import random_expr, random_profile


def test_parse_profile_forms():
    assert parse_profile("{2:6, 3:w}") == SupernaturalProfile({2: 6, 3: OMEGA})
    assert parse_profile("{2:6,3:w; default=0}") == SupernaturalProfile({2: 6, 3: OMEGA})
    assert parse_profile("{default=w}") == SupernaturalProfile.all_omega()
    assert parse_profile("{ 2 : 5 ; default = w }") == SupernaturalProfile({2: 5}, OMEGA)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{4:w}", "not prime"),
        ("{2:w, 2:w}", "duplicate"),
        ("{2:3}", "finite total"),
        ("{}", "finite total"),
        ("{default=3}", "default must be 0 or w"),
        ("{2:w", "expected '}'"),
        ("{2 w}", "expected ':'"),
    ],
)
def test_parse_profile_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_profile(text)
    assert fragment in str(err.value)


def test_parse_paths_test_each_prime_once(isprime_calls):
    parse_profile("{2:w, 3:5, 5:7, 7:w}")
    assert isprime_calls == [2, 3, 5, 7]
    isprime_calls.clear()
    parse_group("S[4,6,8|9]")
    assert isprime_calls == [2, 3]


def test_parse_sequence():
    assert parse_sequence("[4,6,8|9]") == IntSeqSpec((4, 6, 8), (9,))
    assert parse_sequence("[|2,3]") == IntSeqSpec((), (2, 3))
    with pytest.raises(ParseError):
        parse_sequence("[2|]")
    with pytest.raises(ParseError):
        parse_sequence("[2|1]")  # entries must exceed 1


def test_parse_group_whitespace_and_star():
    dense = parse_group("R^2xT*Sol{2:w}")
    spaced = parse_group("R^2 x T x Sol{2:w}")
    assert dense == spaced == group(REAL, REAL, TORUS, solenoid({2: OMEGA}))


def test_parse_group_diagnostics_carry_position():
    with pytest.raises(ParseError) as err:
        parse_group("R x Q")
    assert "position 4" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_group("R x T T")
    assert "trailing" in str(err.value)


@pytest.mark.parametrize(
    "text, char, position",
    [("T^\u0663", "\u0663", 2), ("T^\u00b2", "\u00b2", 2), ("R x T^\uff13", "\uff13", 6)],
    ids=["arabic-indic", "superscript", "fullwidth"],
)
def test_parse_group_refuses_non_ascii_digits(text, char, position):
    with pytest.raises(ParseError) as err:
        parse_group(text)
    assert str(err.value) == f"unexpected character {char!r} (at position {position})"


def _nested(depth: int) -> str:
    return "(" * depth + "T" + " x T)" * depth


def test_parse_group_nesting_cap():
    assert len(parse_group(_nested(MAX_GROUP_NESTING)).factors) == MAX_GROUP_NESTING + 1
    for depth in (MAX_GROUP_NESTING + 1, 10**5):
        with pytest.raises(ParseError) as err:
            parse_group(_nested(depth))
        assert str(err.value) == (
            f"parentheses nest deeper than {MAX_GROUP_NESTING} levels (at position {MAX_GROUP_NESTING})"
        )


def test_group_render_round_trip(rng):
    for _ in range(120):
        g = random_expr(rng, max_factors=5)
        assert parse_group(render_group(g)) == g


def test_profile_render_round_trip(rng):
    for _ in range(120):
        p = random_profile(rng)
        assert parse_profile(render_profile(p)) == p


def test_render_group_groups_adjacent_runs_only():
    g = group(REAL, TORUS, REAL)
    assert render_group(g) == "R x T x R"
    assert render_group(group(REAL, REAL, TORUS)) == "R^2 x T"
    assert render_group(group()) == "1"


def test_parse_upset_forms():
    assert parse_upset("fin{1,3}") == UPSet.from_finite([1, 3])
    assert parse_upset("fin{}") == UPSet.from_finite([])
    assert parse_upset("cofin{0,2}") == UPSet.from_cofinite([0, 2])
    assert parse_upset("cofin{}") == UPSet.from_cofinite([])
    evens = parse_upset("ups{from=0; period=2; word=10}")
    assert evens == UPSet.multiples_of(2)
    fancy = parse_upset("ups{except=0,3; from=8; period=4; word=0110}")
    assert [n for n in range(14) if n in fancy] == [0, 3, 9, 10, 13]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("ups{from=2; period=2; word=101}", "word length"),
        ("ups{from=0; period=2; word=12}", "0/1 bits"),
        ("ups{except=9; from=4; period=1; word=1}", "not below"),
        ("fin{1,}", "expected a number"),
    ],
)
def test_parse_upset_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_upset(text)
    assert fragment in str(err.value)


def test_upset_render_round_trip(rng):
    samples = [
        UPSet.from_finite([]),
        UPSet.from_finite([0, 5, 6]),
        UPSet.from_cofinite([1, 2]),
        UPSet.multiples_of(3),
        parse_upset("ups{except=0,3; from=8; period=4; word=0110}"),
    ]
    for _ in range(60):
        threshold = rng.randrange(0, 6)
        period = rng.randrange(1, 5)
        samples.append(
            UPSet.from_membership(
                tuple(rng.random() < 0.5 for _ in range(threshold)),
                period,
                tuple(rng.random() < 0.5 for _ in range(period)),
            )
        )
    for s in samples:
        assert parse_upset(render_upset(s)) == s
