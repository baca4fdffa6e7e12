"""Reference implementation for ultimately periodic sets: dense bit words.

Membership of n is ``exceptional[n]`` below ``threshold`` and
``word[n % period]`` from there on.  The word is reduced to its minimal
period and the threshold trimmed bit by bit, and almost inclusion walks
every residue modulo the lcm of both periods, so its cost grows with the
periods and thresholds.  It serves as an oracle for the sparse
``borelcmp.posetlab.UPSet`` on small sets only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from math import lcm

from borelcmp.posetlab import UPSet


def sparse_from_bits(bits, period: int, word) -> UPSet:
    """The sparse ``UPSet`` with membership ``bits[n]`` below ``len(bits)``
    and ``word[n % period]`` from there on."""
    bits = tuple(bits)
    return UPSet.from_word(compress(range(len(bits)), bits), len(bits), period, word)


def _minimal_period(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class DenseUPSet:
    exceptional: tuple = ()
    period: int = 1
    word: tuple = (False,)
    threshold: int = 0

    def __post_init__(self):
        exceptional = tuple(bool(b) for b in self.exceptional)
        word = tuple(bool(b) for b in self.word)
        assert self.period >= 1 and len(word) == self.period
        assert len(exceptional) == self.threshold
        word = _minimal_period(word)
        period = len(word)
        threshold = self.threshold
        while threshold > 0 and exceptional[threshold - 1] == word[(threshold - 1) % period]:
            threshold -= 1
            exceptional = exceptional[:threshold]
        object.__setattr__(self, "exceptional", exceptional)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "threshold", threshold)

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return self.exceptional[n]
        return self.word[n % self.period]

    @property
    def is_finite(self) -> bool:
        return not any(self.word)

    @property
    def is_cofinite(self) -> bool:
        return all(self.word)

    def members_below(self, bound: int) -> tuple:
        return tuple(n for n in range(bound) if n in self)

    def complement_members(self, count: int) -> tuple:
        assert not self.is_cofinite
        return tuple(islice(filterfalse(self.__contains__, itertools.count()), count))


def subset_star(a: DenseUPSet, b: DenseUPSet) -> bool:
    common = lcm(a.period, b.period)
    return all(b.word[r % b.period] for r in range(common) if a.word[r % a.period])


def set_difference(a: DenseUPSet, b: DenseUPSet):
    def in_difference(n):
        return n in a and n not in b

    if subset_star(a, b):
        return True, tuple(filter(in_difference, range(max(a.threshold, b.threshold))))
    return False, tuple(islice(filter(in_difference, itertools.count()), 8))


def render_upset(s: DenseUPSet) -> str:
    if s.is_finite:
        return "fin{" + ",".join(str(n) for n in s.members_below(s.threshold)) + "}"
    if s.is_cofinite:
        missing = [str(n) for n in range(s.threshold) if n not in s]
        return "cofin{" + ",".join(missing) + "}"
    members = s.members_below(s.threshold)
    bits = "".join("1" if b else "0" for b in s.word)
    inner = f"from={s.threshold}; period={s.period}; word={bits}"
    if members:
        inner = "except=" + ",".join(str(n) for n in members) + "; " + inner
    return "ups{" + inner + "}"
