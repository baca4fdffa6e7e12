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
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DomainError, ParseError
from .groups import (
    REAL,
    TORUS,
    Atom,
    AtomKind,
    GroupExpr,
    RawAtom,
    RawNode,
    RawPower,
    RawProduct,
    RawSolenoidSeq,
    RawTrivial,
    normalize_group,
)
from .posetlab import UPSet
from .primes import isprime
from .supernatural import OMEGA, IntSeqSpec, Mult, SupernaturalProfile
from .duality import DualComponentKind, DualExpr

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

# One alternative per token kind, tried in order, so a keyword must come after
# every keyword it is a prefix of (``S`` after ``Sol``).  ``bad`` catches every
# other character.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<num>[0-9]+)|(?P<punct>[{}\[\]():,;=|^*])"
    r"|(?P<kw>default|except|period|cofin|word|from|Sol|ups|fin|R|T|S|w|x)|(?P<bad>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # 'num', 'kw', 'punct', 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "space":
            tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # open parentheses around the current group

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def at(self, text: str) -> bool:
        """True if the next token is the keyword or punctuation ``text``."""
        return self.peek().text == text

    def take(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.text != text:
            raise ParseError(f"expected {text!r} but found {self._describe(token)}", token.pos)
        return self.advance()

    def expect_nat(self) -> int:
        token = self.peek()
        if token.kind != "num":
            raise ParseError(f"expected a number but found {self._describe(token)}", token.pos)
        self.advance()
        try:
            return int(token.text)
        except ValueError:  # longer than the interpreter's integer-string conversion limit
            raise ParseError(f"number of {len(token.text)} digits is too long", token.pos) from None

    def expect_end(self):
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing {self._describe(token)}", token.pos)

    @staticmethod
    def _describe(token: _Token) -> str:
        return "end of input" if token.kind == "end" else repr(token.text)


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
    open_token = p.expect("{")
    entries = {}
    default: Mult = 0
    if p.take("default"):
        p.expect("=")
        default = _parse_mult(p)
    elif not p.at("}"):
        while True:
            token = p.peek()
            gamma = p.expect_nat()
            if not isprime(gamma):
                raise ParseError(f"profile key {gamma} is not prime", token.pos)
            if gamma in entries:
                raise ParseError(f"duplicate profile key {gamma}", token.pos)
            p.expect(":")
            entries[gamma] = _parse_mult(p)
            if not p.take(","):
                break
        if p.take(";"):
            p.expect("default")
            p.expect("=")
            default = _parse_mult(p)
    if default is not OMEGA and default != 0:
        raise ParseError("profile default must be 0 or w", open_token.pos)
    profile = SupernaturalProfile._of_primes(entries, default)
    if not profile.has_infinite_total:
        raise ParseError(
            f"profile {profile} has finite total multiplicity; no infinite prime "
            "sequence realizes it (some multiplicity must be w, or the default)",
            open_token.pos,
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
    open_token = p.expect("[")
    prefix = [] if p.at("|") else _parse_nats(p)
    p.expect("|")
    tail = _parse_nats(p)
    p.expect("]")
    try:
        return IntSeqSpec(tuple(prefix), tuple(tail))
    except DomainError as exc:
        raise ParseError(str(exc), open_token.pos) from exc


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


def _parse_atom(p: _Parser) -> RawNode:
    token = p.peek()
    if p.take("R"):
        return RawAtom(REAL)
    if p.take("T"):
        return RawAtom(TORUS)
    if p.take("Sol"):
        profile = _parse_profile(p)
        return RawAtom(Atom(AtomKind.SOLENOID, profile))
    if p.take("S"):
        return RawSolenoidSeq(_parse_sequence(p))
    if p.take("("):
        if p.depth == MAX_GROUP_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_GROUP_NESTING} levels", token.pos)
        p.depth += 1
        inner = _parse_group(p)
        p.expect(")")
        p.depth -= 1
        return inner
    if token.kind == "num" and token.text == "1":
        p.advance()
        return RawTrivial()
    raise ParseError(f"expected a group atom but found {p._describe(token)}", token.pos)


def _parse_term(p: _Parser) -> RawNode:
    atom = _parse_atom(p)
    if p.take("^"):
        return RawPower(atom, p.expect_nat())
    return atom


def _parse_group(p: _Parser) -> RawNode:
    parts = [_parse_term(p)]
    while p.take("x") or p.take("*"):
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
    values = _parse_nats(p) if p.peek().kind == "num" else []
    token = p.peek()
    if token.text != closer:
        raise ParseError(f"expected a number but found {p._describe(token)}", token.pos)
    p.advance()
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
    members = []
    if p.take("except"):
        p.expect("=")
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
    bits_token = p.peek()
    bits_text = bits_token.text
    if bits_token.kind != "num" or set(bits_text) - {"0", "1"}:
        raise ParseError(f"word must be a string of 0/1 bits, found {p._describe(bits_token)}", bits_token.pos)
    p.advance()
    p.expect("}")
    p.expect_end()
    _check_cap("except list length", len(members), MAX_SET_LISTED)
    _check_cap("from", threshold, MAX_SET_FROM)
    _check_cap("period", period, MAX_SET_PERIOD)
    for member in members:
        if member >= threshold:
            raise ParseError(f"except entry {member} is not below from={threshold}")
    try:
        return UPSet.from_word(members, threshold, period, (bit == "1" for bit in bits_text))
    except DomainError as exc:
        raise ParseError(str(exc), bits_token.pos) from exc


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
    if s.is_finite or s.is_cofinite:  # the flips are the listed elements
        keyword = "fin" if s.is_finite else "cofin"
        return keyword + "{" + ",".join(map(str, sorted(s.flips))) + "}"
    members = s.members_below(s.threshold)
    bits = "".join("1" if b else "0" for b in s.word)
    inner = f"from={s.threshold}; period={s.period}; word={bits}"
    if members:
        inner = "except=" + ",".join(str(n) for n in members) + "; " + inner
    return "ups{" + inner + "}"
