"""Text forms: parsing and rendering of group, profile, sequence, and
ultimately-periodic-set literals.

Grammar (whitespace insignificant, case sensitive, ``nat`` is ``[0-9]+``):

    group    := term (('x' | '*') term)*
    term     := atom ('^' nat)?
    atom     := 'R' | 'T' | '1' | 'Sol' profile | 'S' seq | '(' group ')'
    profile  := '{' entries? (';' 'default' '=' mult)? '}'
              | '{' 'default' '=' mult '}'
    entries  := nat ':' mult (',' nat ':' mult)*
    mult     := nat | 'w'
    seq      := '[' (nat (',' nat)*)? '|' nat (',' nat)* ']'
    upset    := 'fin' '{' nats? '}'
              | 'cofin' '{' nats? '}'
              | 'ups' '{' ('except' '=' nats? ';')? 'from' '=' nat ';'
                          'period' '=' nat ';' 'word' '=' bits '}'

In ``ups{...}`` the ``except`` list enumerates the members below ``from``;
``word`` gives one membership bit per residue class mod ``period``, applied
from ``from`` on.  ``fin{...}`` lists the members of a finite set and
``cofin{...}`` the non-members of a cofinite one.

Profile literals must describe an infinite prime multiset (a multiplicity
``w`` somewhere or default ``w``); sequence literals may contain composite
entries, which are factored during group normalization.

The parser reads the token texts of one ``findall`` pass and keeps no
positions.  A ``ParseError`` names the offending token's position, which
is recomputed by scanning the text again only when the error is raised.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import TYPE_CHECKING

from .errors import DomainError, ParseError
from .groups import (
    REAL,
    TORUS,
    TRIVIAL_GROUP,
    Atom,
    GroupExpr,
    RawNode,
    RawPower,
    RawProduct,
    normalize_group,
)
from .primes import isprime
from .supernatural import OMEGA, IntSeqSpec, Mult, SupernaturalProfile

if TYPE_CHECKING:  # annotations only: the dual route and the poset lab load on first use
    from .duality import DualExpr
    from .posetlab import UPSet

__all__ = [
    "parse_group",
    "parse_group_raw",
    "parse_profile",
    "parse_sequence",
    "parse_upset",
    "render_profile",
    "render_group",
    "render_dual",
    "render_upset",
    "MAX_GROUP_NESTING",
    "MAX_SET_FROM",
    "MAX_SET_PERIOD",
    "MAX_SET_LISTED",
]

# Token texts, one alternative per kind: numbers, punctuation, keywords.  The
# alternatives are tried in order, so a keyword must come after every keyword
# it is a prefix of (``S`` after ``Sol``).  ``findall`` skips every character
# no token starts at: whitespace, and characters outside the alphabet.
# ``_ALPHABET`` matches the longest prefix made of tokens and whitespace, so
# the first character it stops at is the first one outside; it runs only on
# a bad literal, since its backtracking state grows with the prefix.
_TOKEN = re.compile(
    r"[0-9]+|[{}\[\]():,;=|^*]|default|except|period|cofin|word|from|Sol|ups|fin|R|T|S|w|x"
)
_ALPHABET = re.compile(rf"(?:\s+|{_TOKEN.pattern})*")


def _describe(token: str) -> str:
    return repr(token) if token else "end of input"


class _Parser:
    """Recursive descent over token texts, which end in a ``""`` sentinel.
    A token's position in the text is found only when an error needs it."""

    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        if sum(map(len, self.tokens)) != sum(map(len, text.split())):  # findall skipped a non-space
            end = _ALPHABET.match(text).end()
            raise ParseError(f"unexpected character {text[end]!r}", end)
        self.tokens.append("")
        self.text = text
        self.index = 0
        self.depth = 0  # open parentheses around the current group

    def pos(self, index: int) -> int:
        """Position in the text of token ``index``, by scanning the text again."""
        if index >= len(self.tokens) - 1:
            return len(self.text)
        return next(islice(_TOKEN.finditer(self.text), index, None)).start()

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, self.pos(index))

    def peek(self) -> str:
        return self.tokens[self.index]

    def take(self, text: str) -> bool:
        """Consume the next token if it is the keyword or punctuation ``text``."""
        if self.tokens[self.index] == text:
            self.index += 1
            return True
        return False

    def expect(self, text: str):
        token = self.tokens[self.index]
        if token != text:
            raise self.error(f"expected {text!r} but found {_describe(token)}", self.index)
        self.index += 1

    def expect_nat(self) -> int:
        token = self.tokens[self.index]
        if not token.isdigit():  # only number tokens hold digits, and only ASCII ones
            raise self.error(f"expected a number but found {_describe(token)}", self.index)
        self.index += 1
        try:
            return int(token)
        except ValueError:  # longer than the interpreter's integer-string conversion limit
            raise self.error(f"number of {len(token)} digits is too long", self.index - 1) from None

    def expect_end(self):
        token = self.tokens[self.index]
        if token:
            raise self.error(f"unexpected trailing {_describe(token)}", self.index)


def _parse_nats(p: _Parser) -> list:
    """``nat (',' nat)*``"""
    values = [p.expect_nat()]
    while p.take(","):
        values.append(p.expect_nat())
    return values


# -- multiplicities and profiles ---------------------------------------------

def _parse_mult(p: _Parser) -> Mult:
    if p.take("w"):
        return OMEGA
    return p.expect_nat()


def _parse_profile(p: _Parser) -> SupernaturalProfile:
    open_index = p.index
    p.expect("{")
    entries = {}
    default: Mult = 0
    if p.take("default"):
        p.expect("=")
        default = _parse_mult(p)
    elif p.peek() != "}":
        while True:
            index = p.index
            gamma = p.expect_nat()
            if not isprime(gamma):
                raise p.error(f"profile key {gamma} is not prime", index)
            if gamma in entries:
                raise p.error(f"duplicate profile key {gamma}", index)
            p.expect(":")
            entries[gamma] = _parse_mult(p)
            if not p.take(","):
                break
        if p.take(";"):
            p.expect("default")
            p.expect("=")
            default = _parse_mult(p)
    if default is not OMEGA and default != 0:
        raise p.error("profile default must be 0 or w", open_index)
    profile = SupernaturalProfile._of_primes(entries, default)
    if not profile.has_infinite_total:
        raise p.error(
            f"profile {profile} has finite total multiplicity; no infinite prime "
            "sequence realizes it (some multiplicity must be w, or the default)",
            open_index,
        )
    p.expect("}")
    return profile


def parse_profile(text: str) -> SupernaturalProfile:
    """Parse ``{2:6, 3:w}`` / ``{2:6, 3:w; default=0}`` / ``{default=w}``."""
    p = _Parser(text)
    profile = _parse_profile(p)
    p.expect_end()
    return profile


# -- integer sequences --------------------------------------------------------

def _parse_sequence(p: _Parser) -> IntSeqSpec:
    open_index = p.index
    p.expect("[")
    prefix = [] if p.peek() == "|" else _parse_nats(p)
    p.expect("|")
    tail = _parse_nats(p)
    p.expect("]")
    try:
        return IntSeqSpec(tuple(prefix), tuple(tail))
    except DomainError as exc:
        raise p.error(str(exc), open_index) from exc


def parse_sequence(text: str) -> IntSeqSpec:
    """Parse ``[4,6,8 | 9]``: prefix before the bar, periodic tail after."""
    p = _Parser(text)
    seq = _parse_sequence(p)
    p.expect_end()
    return seq


# -- groups -------------------------------------------------------------------

# Cap on nested parentheses in a group literal: the parser and group
# normalization recurse once per level, and Python's stack gives out
# between 200 and 400 levels.
MAX_GROUP_NESTING = 100


# Atoms of one token, as the values they denote.
_SIMPLE_ATOMS = {"R": REAL, "T": TORUS, "1": TRIVIAL_GROUP}


def _parse_atom(p: _Parser) -> RawNode:
    index = p.index
    token = p.tokens[index]
    p.index += 1
    simple = _SIMPLE_ATOMS.get(token)
    if simple is not None:
        return simple
    if token == "Sol":
        return Atom._of_profile(_parse_profile(p))  # the profile parser checked its total
    if token == "S":
        return _parse_sequence(p)
    if token == "(":
        if p.depth == MAX_GROUP_NESTING:
            raise p.error(f"parentheses nest deeper than {MAX_GROUP_NESTING} levels", index)
        p.depth += 1
        inner = _parse_group(p)
        p.expect(")")
        p.depth -= 1
        return inner
    raise p.error(f"expected a group atom but found {_describe(token)}", index)


def _parse_term(p: _Parser) -> RawNode:
    atom = _parse_atom(p)
    if p.take("^"):
        return RawPower(atom, p.expect_nat())
    return atom


def _parse_group(p: _Parser) -> RawNode:
    parts = [_parse_term(p)]
    tokens = p.tokens
    while tokens[p.index] in ("x", "*"):
        p.index += 1
        parts.append(_parse_term(p))
    return RawProduct(tuple(parts)) if len(parts) > 1 else parts[0]


def parse_group_raw(text: str) -> RawNode:
    p = _Parser(text)
    node = _parse_group(p)
    p.expect_end()
    return node


def parse_group(text: str) -> GroupExpr:
    """Parse and normalize a group expression.

    >>> str(parse_group("R^2 x T"))
    'R^2 x T'
    >>> str(parse_group("S[4,6,8|9]"))
    'Sol{2:6, 3:w}'
    """
    return normalize_group(parse_group_raw(text))


# -- ultimately periodic sets -------------------------------------------------

# Caps on a set literal: its work and memory grow with ``from`` (a
# ``ups{from=N; period=1; word=1}`` literal has N flips), with ``period``
# and with the number of listed values.
MAX_SET_FROM = 10**6
MAX_SET_PERIOD = 10**6
MAX_SET_LISTED = 10**5


def _parse_nat_list(p: _Parser, closer: str) -> list:
    """An optional ``nats`` list, then ``closer``, which is consumed."""
    values = _parse_nats(p) if p.peek().isdigit() else []
    if not p.take(closer):
        raise p.error(f"expected a number but found {_describe(p.peek())}", p.index)
    return values


def _check_cap(what: str, value: int, cap: int):
    if value > cap:
        raise DomainError(f"{what} {value} is over its cap of {cap}")


def parse_upset(text: str) -> UPSet:
    """Parse ``fin{1,3}``, ``cofin{0,2}``, or the general
    ``ups{except=0,3; from=8; period=4; word=0110}`` form.

    ``from`` and ``period`` are capped at ``MAX_SET_FROM`` and
    ``MAX_SET_PERIOD``, and each list at ``MAX_SET_LISTED`` entries; over a
    cap the literal is a ``DomainError``.  Listed values are not capped.
    """
    from .posetlab import UPSet

    p = _Parser(text)
    for keyword, build in (("fin", UPSet.from_finite), ("cofin", UPSet.from_cofinite)):
        if p.take(keyword):
            p.expect("{")
            listed = _parse_nat_list(p, "}")
            p.expect_end()
            _check_cap(f"{keyword} list length", len(listed), MAX_SET_LISTED)
            return build(listed)
    p.expect("ups")
    p.expect("{")
    members, members_index = [], 0
    if p.take("except"):
        p.expect("=")
        members_index = p.index  # entry k is token members_index + 2k
        members = _parse_nat_list(p, ";")
    p.expect("from")
    p.expect("=")
    threshold = p.expect_nat()
    p.expect(";")
    p.expect("period")
    p.expect("=")
    period = p.expect_nat()
    p.expect(";")
    p.expect("word")
    p.expect("=")
    bits_index = p.index
    bits_text = p.peek()
    if not bits_text.isdigit() or set(bits_text) - {"0", "1"}:
        raise p.error(f"word must be a string of 0/1 bits, found {_describe(bits_text)}", bits_index)
    p.index += 1
    p.expect("}")
    p.expect_end()
    _check_cap("except list length", len(members), MAX_SET_LISTED)
    _check_cap("from", threshold, MAX_SET_FROM)
    _check_cap("period", period, MAX_SET_PERIOD)
    for k, member in enumerate(members):
        if member >= threshold:
            raise p.error(f"except entry {member} is not below from={threshold}", members_index + 2 * k)
    try:
        return UPSet.from_word(members, threshold, period, (bit == "1" for bit in bits_text))
    except DomainError as exc:
        raise p.error(str(exc), bits_index) from exc


# -- renderers ----------------------------------------------------------------

def render_profile(p: SupernaturalProfile) -> str:
    return str(p)


def _render_runs(runs: tuple) -> str:
    """``(item, count)`` runs as powers joined by `` x ``; ``1`` when empty.
    Each distinct item object is formatted once, looked up by identity as in
    ``duality.dual``."""
    names: dict = {}
    parts = []
    for item, count in runs:
        name = names.get(id(item))
        if name is None:
            name = names[id(item)] = str(item)
        parts.append(name + f"^{count}" if count > 1 else name)
    return " x ".join(parts) or "1"


def render_group(g: GroupExpr) -> str:
    """Canonical text: one power per run; reparses to the identical
    expression."""
    return _render_runs(g.runs)


def render_dual(d: DualExpr) -> str:
    return _render_runs(d.runs)


def render_upset(s: UPSet) -> str:
    """The set as a literal that ``parse_upset`` reads back.  An ``ups{...}``
    form writes a bit per residue and the members below ``from``, so a set
    whose period or threshold is over its literal cap is a ``DomainError``:
    no literal within the caps writes it."""
    if s.is_finite or s.is_cofinite:  # the flips are the listed elements
        keyword = "fin" if s.is_finite else "cofin"
        return keyword + "{" + ",".join(map(str, sorted(s.flips))) + "}"
    _check_cap("period", s.period, MAX_SET_PERIOD)
    _check_cap("from", s.threshold, MAX_SET_FROM)
    members = s.members_below(s.threshold)
    bits = "".join("1" if b else "0" for b in s.word)
    inner = f"from={s.threshold}; period={s.period}; word={bits}"
    if members:
        inner = "except=" + ",".join(str(n) for n in members) + "; " + inner
    return "ups{" + inner + "}"
