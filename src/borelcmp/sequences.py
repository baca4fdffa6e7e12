"""``S[...]`` sequences, loaded on first use: their parser, their
multiplicity profile and their term in a group.
"""

from __future__ import annotations

from collections import Counter

from . import supernatural  # read at call time, where bench/tracing.py patches its bindings
from .errors import DomainError
from .groups import Atom
from .literals import _parse_nats, _Parser
from .primes import _trial_division
from .supernatural import OMEGA, SupernaturalProfile, _Unsplit

__all__ = ["profile_from_sequence", "parse_sequence"]


def profile_from_sequence(prefix: tuple, tail: tuple) -> SupernaturalProfile:
    """The multiplicity profile of the prime sequence that refines
    ``prefix`` followed by ``tail`` repeated forever, each entry, an integer
    > 1, standing for its prime factors with multiplicity: a prime counts its
    exponents once per prefix occurrence, and recurs forever when it divides
    a tail entry.  The tail is nonempty.

    Each distinct entry is trial-divided once by the primes below 2^16
    (``primes._trial_division``), and a cofactor above 1 is tested with
    ``isprime``.  A composite cofactor stays whole, as an unsplit key.  When
    two keys share a factor, they are refined by pairwise gcds into a
    coprime base (``coprime.on_one_base``).  Nothing here factors further,
    so no entry is refused, and the profile prints an unsplit key as it is.

    >>> str(profile_from_sequence((4, 6, 8), (9,)))
    '{2:6, 3:w}'
    >>> profile_from_sequence((65537 * 65539,), (3,)).exceptions
    ((3, OMEGA), (4295229443, 1))
    """
    entries = (*prefix, *tail)
    for entry in entries:
        if isinstance(entry, bool) or not isinstance(entry, int) or entry <= 1:
            raise DomainError(f"sequence entries must be integers > 1, got {entry!r}")
    if not tail:
        raise DomainError("sequence tail must be nonempty (the sequence is infinite)")
    factors, unsplit = {}, False
    for entry in dict.fromkeys(entries):
        found, rest = _trial_division(entry)
        if rest > 1:
            if not supernatural.isprime(rest):
                rest = _Unsplit(rest)
                unsplit = True
            found[rest] = 1
        factors[entry] = found
    counts = {}
    for entry, times in Counter(prefix).items():
        for gamma, exponent in factors[entry].items():
            counts[gamma] = counts.get(gamma, 0) + exponent * times
    omega = dict.fromkeys((gamma for entry in tail for gamma in factors[entry]), OMEGA)
    profile = SupernaturalProfile._of_primes({**counts, **omega}, 0, unsplit=unsplit)
    if unsplit:
        from .coprime import on_one_base

        (profile,) = on_one_base([profile], classify=True)
    return profile


def _sequence_term(profile: SupernaturalProfile, unsplit: list) -> tuple:
    """The term ``(runs, count)`` (see ``groups``) of the solenoid of
    ``profile``; its atom is appended to ``unsplit`` when it has an unsplit key."""
    atom = Atom._of_profile(profile)
    if atom.profile.unsplit:
        unsplit.append(atom)
    return ((atom, 1),), 1


def _parse_sequence(p: _Parser) -> SupernaturalProfile:
    open_index = p.index
    p.expect("[")
    prefix = [] if p.peek() == "|" else _parse_nats(p)
    p.expect("|")
    tail = _parse_nats(p)
    p.expect("]")
    try:
        return profile_from_sequence(prefix, tail)
    except DomainError as exc:
        raise p.error(str(exc), open_index) from exc


def parse_sequence(text: str) -> SupernaturalProfile:
    """The profile of ``[4,6,8 | 9]``: prefix before the bar, periodic tail after."""
    p = _Parser(text)
    profile = _parse_sequence(p)
    p.expect_end()
    return profile
