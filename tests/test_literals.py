"""Literal parsing and rendering: round trips and diagnostics."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import literal_reference
from borelcmp import literals
from borelcmp.errors import BorelcmpError, ParseError
from borelcmp.groups import REAL, TORUS, group, solenoid
from borelcmp.literals import (
    MAX_GROUP_NESTING,
    _Parser,
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


# Every ParseError raise site of the literal parsers, with its exact message
# and position.  The ``except`` entry is the one site that gave no position
# before; it now names the entry.
@pytest.mark.parametrize(
    "kind, text, message, position",
    [
        ("group", "R x Q", "unexpected character 'Q'", 4),
        ("group", "T x\n(R x o)", "unexpected character 'o'", 9),
        ("group", "R x T T", "unexpected trailing 'T'", 6),
        ("group", "R x", "expected a group atom but found end of input", 3),
        ("group", "R x ^2", "expected a group atom but found '^'", 4),
        ("group", "T^x", "expected a number but found 'x'", 2),
        ("group", "T^1" + "0" * 4400, "number of 4401 digits is too long", 2),
        ("group", "(" * 101 + "T" + ")" * 101, "parentheses nest deeper than 100 levels", 100),
        ("group", "(T x R", "expected ')' but found end of input", 6),
        ("group", "S[2|1]", "IntSeqSpec entries must be integers > 1, got 1", 1),
        ("group", "S{2:w}", "expected '[' but found '{'", 1),
        ("group", "Sol{4:w}", "profile key 4 is not prime", 4),
        ("group", "Sol{2:w, 2:w}", "duplicate profile key 2", 9),
        ("group", "Sol{default=3}", "profile default must be 0 or w", 3),
        ("group", "Sol{2:3}", "profile {2:3} has finite total multiplicity; no infinite prime sequence "
                              "realizes it (some multiplicity must be w, or the default)", 3),
        ("profile", "{2 w}", "expected ':' but found 'w'", 3),
        ("profile", "{2:w", "expected '}' but found end of input", 4),
        ("profile", "{2:w; w}", "expected 'default' but found 'w'", 6),
        ("profile", "{default=w} x", "unexpected trailing 'x'", 12),
        ("profile", "{2:w; default=x}", "expected a number but found 'x'", 14),
        ("sequence", "[2|]", "expected a number but found ']'", 3),
        ("sequence", "[2,3", "expected '|' but found end of input", 4),
        ("sequence", "[|2,3] 4", "unexpected trailing '4'", 7),
        ("sequence", "[2|1]", "IntSeqSpec entries must be integers > 1, got 1", 0),
        ("upset", "set{}", "unexpected character 's'", 0),
        ("upset", "fin{1,}", "expected a number but found '}'", 6),
        ("upset", "fin{1 2}", "expected a number but found '2'", 6),
        ("upset", "cofin{0", "expected a number but found end of input", 7),
        ("upset", "fin{1} x", "unexpected trailing 'x'", 7),
        ("upset", "ups{from=1; period=2}", "expected ';' but found '}'", 20),
        ("upset", "ups{from=0; period=2; word=12}", "word must be a string of 0/1 bits, found '12'", 27),
        ("upset", "ups{from=0; period=2; word=x}", "word must be a string of 0/1 bits, found 'x'", 27),
        ("upset", "ups{from=2; period=2; word=101}", "word length 3 does not match period 2", 27),
        ("upset", "ups{except=0,9; from=4; period=1; word=1}", "except entry 9 is not below from=4", 13),
        ("upset", "ups{from=0; period=2; word=10} x", "unexpected trailing 'x'", 31),
    ],
)
def test_parse_error_messages(kind, text, message, position):
    with pytest.raises(ParseError) as err:
        getattr(literals, f"parse_{kind}")(text)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


# Pieces of literals: every token, a few longer runs of them, and characters
# outside the alphabet (a letter, two non-ASCII digits) or whitespace.
_PIECES = (
    tuple("0123456789{}[]():,;=|^*")
    + ("default", "except", "period", "cofin", "word", "from", "Sol", "ups", "fin", "R", "T", "S", "w", "x")
    + ("Sol{2:w}", "S[4,6|9]", " x ", "^2", "ups{", "from=0; ", "period=2; ", "word=10}", "fin{1,3}")
    + ("o", "\u0663", "\u00b2", " ", "\n")
)

# Valid literals of every kind, for edits that fail deep inside them.
_LITERALS = (
    "R^2 x T x Sol{2:6, 3:w}",
    "(T x S[4,6|9])^3 * 1 x (R)",
    "Sol{ 2 : 5 ; default = w }",
    "{2:6,3:w; default=0}",
    "{default=w}",
    "[4,6,8 | 9]",
    "[|2,3]",
    "fin{1,3}",
    "cofin{}",
    "ups{except=0,3; from=8; period=4; word=0110}",
)


@st.composite
def _edited_literals(draw):
    """A valid literal, cut into words, spaces and single characters, with
    up to three spans of those parts replaced by pieces."""
    parts = re.findall(r"\w+|\s+|\W", draw(st.sampled_from(_LITERALS)))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(parts)))
        end = draw(st.integers(start, min(len(parts), start + 2)))
        parts[start:end] = [draw(st.sampled_from(_PIECES + ("",)))]
    return "".join(parts)


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except BorelcmpError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=20).map("".join), _edited_literals()))
@settings(max_examples=600, deadline=None)
def test_front_end_matches_reference(text):
    try:
        reference = literal_reference.tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            _Parser(text)
        assert (str(err.value), err.value.position) == (str(exc), exc.position)
    else:
        p = _Parser(text)
        assert p.tokens == [token.text for token in reference]
        assert [p.pos(i) for i in range(len(p.tokens))] == [token.pos for token in reference]
    for kind in ("group", "profile", "sequence", "upset"):
        name = f"parse_{kind}"
        assert _outcome(getattr(literals, name), text) == _outcome(getattr(literal_reference, name), text)
