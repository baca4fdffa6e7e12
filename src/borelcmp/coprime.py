"""Unsplit keys: one coprime base for verdicts, printing and counting.

A profile built from a sequence keeps, as an unsplit key
(``supernatural._Unsplit``), a cofactor that trial division by the primes
below 2^16 leaves composite.  A key k of multiplicity m gives each prime
gamma of k the multiplicity m * v_gamma(k), with OMEGA absorbing.

* ``refinement`` refines keys by pairwise gcds into a coprime base, and
  ``on_one_base`` writes profiles over one such base (``runs_on_one_base``
  the solenoids of a group's runs), refining only when two keys share a
  factor.  That is exact for every verdict: a prime dividing a base
  element e is OMEGA exactly when e is, and two profiles over one base are
  equal exactly when they give every prime the same multiplicity.  No
  factoring is needed.
* What prints or counts reads the base elements as they are: an unsplit
  key that ``isprime`` rejects prints marked (``supernatural._Unsplit``).

This module loads the first time a sequence leaves an unsplit key, so
other inputs never compile it; ``supernatural`` reaches it only then.
"""

from __future__ import annotations

from math import gcd

from .groups import Atom, AtomKind, _joined
from .primes import isprime
from .supernatural import OMEGA, SupernaturalProfile, _Unsplit


def valuation(n: int, d: int) -> int:
    """How often ``d > 1`` divides ``n > 0``."""
    v = 0
    while n % d == 0:
        n //= d
        v += 1
    return v


def coprime_base(numbers) -> list:
    """Pairwise coprime numbers above 1 such that each of ``numbers`` (all
    above 1) is a product of powers of them.  Two numbers with a common
    factor g > 1 give way to g and their cofactors until no two have one;
    each step shrinks the product of all the numbers, so it ends.  This is
    the pairwise refinement of Bernstein, "Factoring into coprimes in
    essentially linear time", J. Algorithms 54 (2005), which is enough for
    the few unsplit keys of one query.

    >>> sorted(coprime_base([12, 18]))
    [2, 3]
    """
    base, pending = [], list(numbers)
    while pending:
        n = pending.pop()
        for i, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                del base[i]
                pending += [m for m in (g, n // g, b // g) if m > 1]
                break
        else:
            base.append(n)
    return base


def refinement(unsplit, primes, classify: bool = False) -> dict:
    """Each of the ``unsplit`` keys as ((base element, exponent), ...), over
    one coprime base of them and the known ``primes``: a prime stays a base
    element, and is divided out of every element of the keys' own coprime
    base that it divides.  The rest of such an element is an ``_Unsplit``,
    unless ``classify`` asks ``isprime`` and it is a prime; an unsplit key
    that stays whole was tested when it was made."""
    originals = set(unsplit)
    base = set()
    for element in coprime_base(originals):
        for gamma in primes:
            if element % gamma == 0:
                base.add(gamma)
                element //= gamma ** valuation(element, gamma)
        if element > 1:
            known = element in originals or not classify or not isprime(element)
            base.add(_Unsplit(element) if known else element)
    base = sorted(base)
    return {key: tuple((e, v) for e in base if (v := valuation(key, e))) for key in originals}


def regrouped(pairs, split) -> dict:
    """``{key: multiplicity}`` from (key, multiplicity) pairs, with each
    unsplit key k replaced by the parts (e, a) of ``split(k)``, k = prod
    e^a: each e gets a times k's multiplicity, added up over the keys."""
    multiplicities = {}
    for key, value in pairs:
        for part, a in split(key) if type(key) is _Unsplit else ((key, 1),):
            multiplicities[part] = multiplicities.get(part, 0) + (value if value is OMEGA else value * a)
    return multiplicities


def on_one_base(profiles, classify: bool = False) -> list:
    """The ``profiles`` over one coprime base of all their keys.  They come
    back as they are when their keys are pairwise coprime already, and so
    does each profile with prime keys only: its primes are base elements.
    ``classify`` tests each derived base element with ``isprime``."""
    unsplit, primes = {}, {}
    for profile in profiles:
        for key, _ in profile.exceptions:
            (unsplit if type(key) is _Unsplit else primes)[key] = None
    keys = [*unsplit, *primes]
    if all(gcd(u, k) == 1 for u in unsplit for k in keys if k != u):
        return list(profiles)
    split = refinement(unsplit, primes, classify).__getitem__
    return [
        SupernaturalProfile._of_primes(regrouped(p.exceptions, split), p.default, unsplit=True) if p.unsplit else p
        for p in profiles
    ]


def runs_on_one_base(runs: tuple) -> tuple:
    """A group's ``runs`` with their solenoid profiles over one coprime base
    of all their keys, joined again: atoms that are the same group are now
    equal, so their runs merge."""
    atoms = {id(atom): atom for atom, _ in runs if atom.kind is AtomKind.SOLENOID}
    profiles = on_one_base([atom.profile for atom in atoms.values()], classify=True)
    swapped = {key: Atom._of_profile(new) for (key, atom), new in zip(atoms.items(), profiles)
               if new is not atom.profile}
    return _joined(((swapped.get(id(atom), atom), count),) for atom, count in runs)

