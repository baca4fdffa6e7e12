"""Reference front end for literals: a named-group tokenizer and a parser
over token objects.

Every token carries its kind, text and position, and the parser tries the
grammar's alternatives one ``take`` at a time.  This is the design that
``borelcmp.literals`` replaced with plain token texts and positions
recomputed on error; it is kept as an oracle for token texts, token
positions, results and ``ParseError`` messages.  It uses the package only
for the values it builds (profiles, sequences, sets and normalized groups).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from borelcmp.errors import DomainError, ParseError
from borelcmp.groups import REAL, TORUS, TRIVIAL_GROUP, Atom, AtomKind, RawPower, RawProduct, normalize_group
from borelcmp.literals import MAX_GROUP_NESTING, MAX_SET_FROM, MAX_SET_LISTED, MAX_SET_PERIOD
from borelcmp.posetlab import UPSet
from borelcmp.primes import isprime
from borelcmp.supernatural import OMEGA, IntSeqSpec, SupernaturalProfile

_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<num>[0-9]+)|(?P<punct>[{}\[\]():,;=|^*])"
    r"|(?P<kw>default|except|period|cofin|word|from|Sol|ups|fin|R|T|S|w|x)|(?P<bad>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # 'num', 'kw', 'punct', 'end'
    text: str
    pos: int


def tokenize(text: str) -> list:
    """Tokens of ``text``, ending in an ``end`` token at ``len(text)``."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "space":
            tokens.append(Token(kind, match.group(), match.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def take(self, text: str) -> bool:
        if self.peek().text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.text != text:
            raise ParseError(f"expected {text!r} but found {describe(token)}", token.pos)
        return self.advance()

    def expect_nat(self) -> int:
        token = self.peek()
        if token.kind != "num":
            raise ParseError(f"expected a number but found {describe(token)}", token.pos)
        self.advance()
        try:
            return int(token.text)
        except ValueError:
            raise ParseError(f"number of {len(token.text)} digits is too long", token.pos) from None

    def expect_end(self):
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing {describe(token)}", token.pos)


def describe(token: Token) -> str:
    return "end of input" if token.kind == "end" else repr(token.text)


def _nats(p: Parser) -> list:
    values = [p.expect_nat()]
    while p.take(","):
        values.append(p.expect_nat())
    return values


def _mult(p: Parser):
    return OMEGA if p.take("w") else p.expect_nat()


def _profile(p: Parser) -> SupernaturalProfile:
    open_token = p.expect("{")
    entries, default = {}, 0
    if p.take("default"):
        p.expect("=")
        default = _mult(p)
    elif p.peek().text != "}":
        while True:
            token = p.peek()
            gamma = p.expect_nat()
            if not isprime(gamma):
                raise ParseError(f"profile key {gamma} is not prime", token.pos)
            if gamma in entries:
                raise ParseError(f"duplicate profile key {gamma}", token.pos)
            p.expect(":")
            entries[gamma] = _mult(p)
            if not p.take(","):
                break
        if p.take(";"):
            p.expect("default")
            p.expect("=")
            default = _mult(p)
    if default is not OMEGA and default != 0:
        raise ParseError("profile default must be 0 or w", open_token.pos)
    profile = SupernaturalProfile(entries, default)
    if not profile.has_infinite_total:
        raise ParseError(
            f"profile {profile} has finite total multiplicity; no infinite prime "
            "sequence realizes it (some multiplicity must be w, or the default)",
            open_token.pos,
        )
    p.expect("}")
    return profile


def _sequence(p: Parser) -> IntSeqSpec:
    open_token = p.expect("[")
    prefix = [] if p.peek().text == "|" else _nats(p)
    p.expect("|")
    tail = _nats(p)
    p.expect("]")
    try:
        return IntSeqSpec(tuple(prefix), tuple(tail))
    except DomainError as exc:
        raise ParseError(str(exc), open_token.pos) from exc


def _atom(p: Parser):
    token = p.peek()
    if p.take("R"):
        return REAL
    if p.take("T"):
        return TORUS
    if p.take("Sol"):
        return Atom(AtomKind.SOLENOID, _profile(p))
    if p.take("S"):
        return _sequence(p)
    if p.take("("):
        if p.depth == MAX_GROUP_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_GROUP_NESTING} levels", token.pos)
        p.depth += 1
        inner = _group(p)
        p.expect(")")
        p.depth -= 1
        return inner
    if token.kind == "num" and token.text == "1":
        p.advance()
        return TRIVIAL_GROUP
    raise ParseError(f"expected a group atom but found {describe(token)}", token.pos)


def _term(p: Parser):
    atom = _atom(p)
    return RawPower(atom, p.expect_nat()) if p.take("^") else atom


def _group(p: Parser):
    parts = [_term(p)]
    while p.take("x") or p.take("*"):
        parts.append(_term(p))
    return RawProduct(tuple(parts)) if len(parts) > 1 else parts[0]


def _whole(text: str, parse):
    p = Parser(text)
    value = parse(p)
    p.expect_end()
    return value


def parse_profile(text: str) -> SupernaturalProfile:
    return _whole(text, _profile)


def parse_sequence(text: str) -> IntSeqSpec:
    return _whole(text, _sequence)


def parse_group(text: str):
    return normalize_group(_whole(text, _group))


def _nat_list(p: Parser, closer: str) -> list:
    values = _nats(p) if p.peek().kind == "num" else []
    token = p.peek()
    if token.text != closer:
        raise ParseError(f"expected a number but found {describe(token)}", token.pos)
    p.advance()
    return values


def _check_cap(what: str, value: int, cap: int):
    if value > cap:
        raise DomainError(f"{what} {value} is over its cap of {cap}")


def parse_upset(text: str) -> UPSet:
    """A set literal; an ``except`` entry not below ``from`` is reported at
    the entry's position."""
    p = Parser(text)
    for keyword, build in (("fin", UPSet.from_finite), ("cofin", UPSet.from_cofinite)):
        if p.take(keyword):
            p.expect("{")
            listed = _nat_list(p, "}")
            p.expect_end()
            _check_cap(f"{keyword} list length", len(listed), MAX_SET_LISTED)
            return build(listed)
    p.expect("ups")
    p.expect("{")
    members, member_tokens = [], []
    if p.take("except"):
        p.expect("=")
        start = p.index
        members = _nat_list(p, ";")
        member_tokens = p.tokens[start:p.index:2]
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
    if bits_token.kind != "num" or set(bits_token.text) - {"0", "1"}:
        raise ParseError(f"word must be a string of 0/1 bits, found {describe(bits_token)}", bits_token.pos)
    p.advance()
    p.expect("}")
    p.expect_end()
    _check_cap("except list length", len(members), MAX_SET_LISTED)
    _check_cap("from", threshold, MAX_SET_FROM)
    _check_cap("period", period, MAX_SET_PERIOD)
    for member, token in zip(members, member_tokens):
        if member >= threshold:
            raise ParseError(f"except entry {member} is not below from={threshold}", token.pos)
    try:
        return UPSet.from_word(members, threshold, period, (bit == "1" for bit in bits_token.text))
    except DomainError as exc:
        raise ParseError(str(exc), bits_token.pos) from exc
