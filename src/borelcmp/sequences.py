"""``S[...]`` sequences, loaded on first use: their value ``IntSeqSpec``,
their parser, their multiplicity profile and their term in a group.
"""

from __future__ import annotations

from collections import Counter

from . import supernatural  # read at call time, where bench/tracing.py patches its bindings
from ._value import Value
from .errors import DomainError
from .groups import Atom
from .literals import _parse_nats, _Parser
from .primes import _trial_division
from .supernatural import OMEGA, SupernaturalProfile, _Unsplit

__all__ = ["IntSeqSpec", "minimal_period", "profile_from_sequence", "parse_sequence"]


def minimal_period(word: tuple) -> tuple:
    """The shortest prefix of ``word`` whose repetition is ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


class IntSeqSpec(Value):
    """Ultimately periodic infinite sequence of integers > 1, the value of
    an ``S[...]`` literal.

    Represents ``prefix`` followed by ``tail`` repeated forever.  The tail
    is reduced to its minimal period, so ``[4,6,8 | 9,9]`` and ``[4,6,8 | 9]``
    denote the same object.
    """

    __slots__ = _fields = ("prefix", "tail")

    def __init__(self, prefix: tuple = (), tail: tuple = ()):
        prefix, tail = tuple(prefix), tuple(tail)
        for entry in prefix + tail:
            if isinstance(entry, bool) or not isinstance(entry, int) or entry <= 1:
                raise DomainError(f"IntSeqSpec entries must be integers > 1, got {entry!r}")
        if not tail:
            raise DomainError("sequence tail must be nonempty (the sequence is infinite)")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", minimal_period(tail))


def profile_from_sequence(s: IntSeqSpec) -> SupernaturalProfile:
    """The multiplicity profile of the prime sequence that refines ``s``,
    each entry standing for its prime factors with multiplicity: a prime
    counts its exponents once per prefix occurrence, and recurs forever
    when it divides a tail entry.

    Each distinct entry is trial-divided once by the primes below 2^16
    (``primes._trial_division``), and a cofactor above 1 is tested with
    ``isprime``.  A composite cofactor stays whole, as an unsplit key.  When
    two keys share a factor, they are refined by pairwise gcds into a
    coprime base (``coprime.on_one_base``).  Nothing here factors further,
    so no entry is refused, and the profile prints an unsplit key as it is.

    >>> str(profile_from_sequence(IntSeqSpec((4, 6, 8), (9,))))
    '{2:6, 3:w}'
    >>> profile_from_sequence(IntSeqSpec((65537 * 65539,), (3,))).exceptions
    ((3, OMEGA), (4295229443, 1))
    """
    factors, unsplit = {}, False
    for entry in dict.fromkeys(s.prefix + s.tail):
        found, rest = _trial_division(entry)
        if rest > 1:
            if not supernatural.isprime(rest):
                rest = _Unsplit(rest)
                unsplit = True
            found[rest] = 1
        factors[entry] = found
    counts = {}
    for entry, times in Counter(s.prefix).items():
        for gamma, exponent in factors[entry].items():
            counts[gamma] = counts.get(gamma, 0) + exponent * times
    omega = dict.fromkeys((gamma for entry in s.tail for gamma in factors[entry]), OMEGA)
    profile = SupernaturalProfile._of_primes({**counts, **omega}, 0, unsplit=unsplit)
    if unsplit:
        from .coprime import on_one_base

        (profile,) = on_one_base([profile], classify=True)
    return profile


def _sequence_term(s: IntSeqSpec, unsplit: list) -> tuple:
    """The term ``(runs, count)`` (see ``groups``) of the solenoid of ``s``;
    its atom is appended to ``unsplit`` when its profile has an unsplit key."""
    atom = Atom._of_profile(profile_from_sequence(s))
    if atom.profile.unsplit:
        unsplit.append(atom)
    return ((atom, 1),), 1


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
