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
entries.  Their prime factors below 2^16 are split off; a composite
cofactor stays whole, refined against the other keys by gcds, and prints
as ``[k]`` when ``isprime`` rejects it, so nothing factors it.

``seq`` and ``upset`` are parsed by ``sequences`` and ``setliterals``,
which load on first use.

The parser reads the token texts of one ``findall`` pass and keeps no
positions.  A ``ParseError`` names the offending token's position, which
is recomputed by scanning the text again only when the error is raised.
One descent builds a group's runs and factor count term by term, with no
parse tree between (see ``groups``), and refuses the factor cap only once
the whole text has parsed, after any ``ParseError``.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError, forwarding
from .groups import MAX_FACTORS, REAL, TORUS, Atom, GroupExpr, _capped, _product, _raised
from .primes import isprime
from .supernatural import OMEGA, Mult, SupernaturalProfile

__all__ = [
    "parse_group",
    "parse_profile",
    "render_profile",
    "render_group",
    "render_dual",
    "MAX_GROUP_NESTING",
]

# bench/tracing.py patches this binding; it resolves on first use (PEP 562)
__getattr__ = forwarding(globals(), {"parse_upset": "setliterals"})

# Token texts, one alternative per kind: numbers, punctuation, keywords.  The
# alternatives are tried in order, so a keyword must come after every keyword
# it is a prefix of (``S`` after ``Sol``).  ``findall`` skips every character
# no token starts at: whitespace, and characters outside the alphabet.
# A bad literal alone is matched against the longest prefix made of tokens
# and whitespace, so the first character the match stops at is the first
# one outside; its backtracking state grows with the prefix.  ``re.match``
# compiles (and caches) that pattern on the first bad literal, so a process
# that parses only valid ones compiles this one pattern.
_TOKEN = re.compile(
    r"[0-9]+|[{}\[\]():,;=|^*]|default|except|period|cofin|word|from|Sol|ups|fin|R|T|S|w|x"
)


def _describe(token: str) -> str:
    return repr(token) if token else "end of input"


class _Parser:
    """Recursive descent over token texts, which end in a ``""`` sentinel.
    A token's position in the text is found only when an error needs it."""

    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        if "".join(self.tokens) != "".join(text.split()):  # findall skipped a non-space
            end = re.match(rf"(?:\s+|{_TOKEN.pattern})*", text).end()
            raise ParseError(f"unexpected character {text[end]!r}", end)
        self.tokens.append("")
        self.text = text
        self.index = 0
        self.depth = 0  # open parentheses around the current group
        self.unsplit = []  # the atoms of a group's sequences that left an unsplit key

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

def _parse_profile(p: _Parser) -> SupernaturalProfile:
    """``profile``: its ``gamma:mult`` entries are read in one loop over the
    tokens, which hands a token out of place to ``expect_nat`` or ``expect``
    for its error.  Each key is tested with ``isprime`` once."""
    tokens = p.tokens
    open_index = p.index
    p.expect("{")
    entries = {}
    i = p.index
    clause = tokens[i] == "default"  # the default clause comes first, or after the entries and ';'
    if not clause and tokens[i] != "}":
        try:
            while True:
                at = i  # the token int() reads: the key, then the multiplicity
                gamma = int(tokens[i])
                if not isprime(gamma):
                    raise p.error(f"profile key {gamma} is not prime", i)
                if gamma in entries:
                    raise p.error(f"duplicate profile key {gamma}", i)
                if tokens[i + 1] != ":":
                    p.index = i + 1
                    p.expect(":")
                at = i + 2
                mult = tokens[at]
                entries[gamma] = OMEGA if mult == "w" else int(mult)
                i += 3
                if tokens[i] != ",":
                    break
                i += 1
        except ValueError:  # int() refused the token at ``at``
            p.index = at
            p.expect_nat()  # raises the error of a number expected there
        p.index = i
        clause = p.take(";")
    default: Mult = 0
    if clause:
        p.expect("default")
        p.expect("=")
        default = OMEGA if p.take("w") else p.expect_nat()
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


# -- groups -------------------------------------------------------------------

# Cap on nested parentheses in a group literal: the parser recurses once
# per level, and Python's stack gives out between 200 and 400 levels.
MAX_GROUP_NESTING = 100


# Terms of one token, as ``(runs, count)``.
_SIMPLE_TERMS = {"R": (((REAL, 1),), 1), "T": (((TORUS, 1),), 1), "1": ((), 0)}


def _parse_term(p: _Parser, budget: int) -> tuple:
    """``term`` as ``(runs, count)`` (see ``groups``): its runs are built
    only within ``budget``."""
    token = p.tokens[p.index]
    p.index += 1
    term = _SIMPLE_TERMS.get(token)
    if term is None:
        if token == "Sol":
            term = ((Atom._of_profile(_parse_profile(p)), 1),), 1  # the profile parser checked its total
        elif token == "S":
            from .sequences import _parse_sequence, _sequence_term

            term = _sequence_term(_parse_sequence(p), p.unsplit)
        elif token == "(" and p.depth < MAX_GROUP_NESTING:
            p.depth += 1
            term = _parse_group(p, budget)
            p.expect(")")
            p.depth -= 1
        elif token == "(":
            raise p.error(f"parentheses nest deeper than {MAX_GROUP_NESTING} levels", p.index - 1)
        else:
            raise p.error(f"expected a group atom but found {_describe(token)}", p.index - 1)
    if p.tokens[p.index] != "^":
        return term
    p.index += 1
    return _raised(*term, p.expect_nat(), budget)


def _parse_group(p: _Parser, budget: int) -> tuple:
    """``group`` as ``(runs, count)``; each term gets the budget the terms
    before it left."""
    tokens = p.tokens
    parts, count = [], 0
    while True:
        runs, n = _parse_term(p, budget - count)
        parts.append(runs)
        count += n
        if tokens[p.index] not in ("x", "*"):
            return _product(parts, count, budget)
        p.index += 1


# A pass-through that bench/tracing.py patches for its ``groups.normalize``
# span and ``groups.factors_out`` counter; ROADMAP item 19 deletes it.
def normalize_group(g: GroupExpr) -> GroupExpr:
    return g


def parse_group(text: str) -> GroupExpr:
    """Parse and normalize a group expression.

    >>> str(parse_group("R^2 x T"))
    'R^2 x T'
    >>> str(parse_group("S[4,6,8|9]"))
    'Sol{2:6, 3:w}'

    The solenoids of one expression share a coprime base, so equal groups are equal atoms:

    >>> str(parse_group("S[4295229443|3] x Sol{65537:1, 65539:1, 3:w}"))
    'Sol{3:w, 65537:1, 65539:1}^2'
    """
    p = _Parser(text)
    term = _parse_group(p, MAX_FACTORS)
    p.expect_end()
    return normalize_group(_capped(*term, p.unsplit))


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
    """Canonical text: one power per run, with every profile over its
    stored keys.  It reparses to the identical expression when every key is
    prime; a key that ``isprime`` rejects prints marked, as ``[k]``, which
    no literal reads."""
    return _render_runs(g.runs)


def render_dual(d: DualExpr) -> str:
    return _render_runs(d.runs)


