"""Ultimately periodic set literals (grammar in ``literals``), parsed into
and rendered from ``posetlab.UPSet``; loaded on first use.
"""

from __future__ import annotations

from .errors import DomainError
from .literals import _describe, _parse_nats, _Parser

__all__ = ["parse_upset", "render_upset", "MAX_SET_FROM", "MAX_SET_PERIOD", "MAX_SET_LISTED"]


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
