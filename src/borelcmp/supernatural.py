"""Exact arithmetic on prime-multiplicity profiles (supernatural numbers).

A profile assigns to every prime a multiplicity in ``{0, 1, 2, ...} ∪ {OMEGA}``.
Only profiles with finitely many exceptions over a default of ``0`` or
``OMEGA`` are representable; this keeps the eventual-embedding preorder
``preceq`` decidable while covering every ultimately periodic prime sequence
and every cofinitely-divisible profile.

The preorder ``Q preceq P`` (an injection eventually matching Q's terms into
P's) is inclusion of OMEGA-supports: every prime of multiplicity OMEGA in Q
has multiplicity OMEGA in P.  The reason is the deficit sum, per prime the
surplus of Q's multiplicity over P's, which is finite exactly then.
Dropping the finitely many surplus occurrences of Q leaves a sub-multiset
of P at every prime, which maps injectively into P's occurrences;
conversely an infinite deficit defeats every injection because cofinitely
many Q-positions would need distinct P-positions carrying a prime P runs
out of.  ``replay.oracle_replay`` checks exactly this argument on finite
windows; it and ``sequences``, the profiles of ``S[...]``, load on first use.

The profile of a sequence keeps, as an *unsplit key*, any cofactor that
trial division by the primes below 2^16 leaves composite: a key k of
multiplicity m gives each prime gamma of k the multiplicity m * v_gamma(k).
Whatever compares two profiles (``preceq``, ``finite_surplus_table``, the
replays) refines their keys into one coprime base by pairwise gcds, which
is exact: a prime dividing a base element e is OMEGA exactly when e is.
What prints or counts (``__str__``, ``deficit``, the canonical sequences)
reads the base elements as they are, so nothing here factors: a key that
``isprime`` rejects prints marked, as ``[k]``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from operator import itemgetter

from ._value import Value
from .errors import DomainError, forwarding
from .primes import isprime

__all__ = ["OMEGA", "Mult", "SupernaturalProfile", "preceq", "finite_surplus_table"]

# bench/tracing.py patches this binding; it resolves on first use (PEP 562)
__getattr__ = forwarding(globals(), {"factorint": "farprimes"})


class _Omega:
    """The infinite multiplicity: strictly greater than every natural.

    A singleton; compares and adds like a top element (``OMEGA + x == OMEGA``).

    >>> 5 < OMEGA, OMEGA <= OMEGA, OMEGA + 3 is OMEGA, 2 + OMEGA is OMEGA
    (True, True, True, True)
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __gt__(self, other):
        return not isinstance(other, _Omega)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "OMEGA"

    def __str__(self):
        return "w"


OMEGA = _Omega()

Mult = int | _Omega


def _check_mult(value) -> Mult:
    if value is OMEGA:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"multiplicity must be a natural number or OMEGA, got {value!r}")
    if value < 0:
        raise DomainError(f"multiplicity must be nonnegative, got {value}")
    return value


def _check_prime(gamma) -> int:
    if isinstance(gamma, bool) or not isinstance(gamma, int) or not isprime(gamma):
        raise DomainError(f"{gamma!r} is not a prime number")
    return gamma


class _Unsplit(int):
    """An unsplit key: a number above 1 with no prime factor below 2^16,
    left whole by trial division or by a gcd with another key, composite
    or not known to be prime.  It equals and hashes as its int.  The
    module ``coprime`` handles these keys, and loads when the first is
    made.

    It prints as its int when ``isprime`` accepts it, else marked in
    brackets, which no literal reads as a prime:

    >>> str(_Unsplit(65537 * 65539)), str(_Unsplit(65539))
    ('[4295229443]', '65539')
    """

    __slots__ = ()

    def __str__(self):
        return int.__repr__(self) if isprime(self) else f"[{int.__repr__(self)}]"


class SupernaturalProfile(Value):
    """Multiplicity function on primes: finite exceptions over a 0/OMEGA default.

    ``exceptions`` may be given as a mapping or as (prime, multiplicity)
    pairs; it is stored canonically (sorted, no entry equal to the default).

    >>> p = SupernaturalProfile({3: OMEGA, 2: 6})
    >>> p.multiplicity(3) is OMEGA, p.multiplicity(2), p.multiplicity(97)
    (True, 6, 0)
    >>> SupernaturalProfile({2: 0}, default=0) == SupernaturalProfile({})
    True

    The infinite-total invariant (some prime must have multiplicity OMEGA,
    or the default must be OMEGA) is *not* enforced here: the all-zero
    profile is the type of the integers on the dual side.  Boundaries that
    require an infinite sequence behind the profile (solenoid payloads,
    literal parsing, canonical sequences) check ``has_infinite_total``.

    A profile built from a sequence (``profile_from_sequence``) may also
    have *unsplit* keys, pairwise coprime with its other keys; ``unsplit``
    tells whether it has one.  Equality is equality of the stored keys.
    """

    _fields = ("exceptions", "default")
    __slots__ = (*_fields, "unsplit")

    def __init__(self, exceptions=(), default: Mult = 0):
        default = _check_mult(default)
        if default is not OMEGA and default != 0:
            raise DomainError(f"profile default must be 0 or OMEGA, got {default!r}")
        items = exceptions.items() if isinstance(exceptions, Mapping) else exceptions
        try:
            pairs = [(gamma, value) for gamma, value in items]
        except (TypeError, ValueError):
            raise DomainError(f"profile exceptions must be (prime, multiplicity) pairs, got {exceptions!r}") from None
        seen = {}
        unsplit = False
        for gamma, value in pairs:
            if type(gamma) is _Unsplit:  # made, and vetted, where trial division left it whole
                unsplit = True
            else:
                gamma = _check_prime(gamma)
            if gamma in seen:
                raise DomainError(f"duplicate exception for prime {gamma}")
            seen[gamma] = _check_mult(value)
        self._store(seen, default, unsplit)

    def _store(self, multiplicities: dict, default: Mult, unsplit: bool = False):
        items = sorted(multiplicities.items())
        if default is OMEGA:
            canonical = tuple([item for item in items if item[1] is not OMEGA])
        else:  # the default is 0, and a multiplicity other than 0 is truthy, OMEGA too
            canonical = tuple(filter(itemgetter(1), items))
        object.__setattr__(self, "exceptions", canonical)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "unsplit", unsplit and any(type(key) is _Unsplit for key, _ in canonical))

    @classmethod
    def _of_primes(cls, multiplicities: dict, default: Mult, unsplit: bool = False) -> "SupernaturalProfile":
        """A profile whose keys are known primes, or with ``unsplit`` also
        ``_Unsplit`` keys, and values valid multiplicities, built without
        testing them again."""
        profile = object.__new__(cls)
        profile._store(multiplicities, default, unsplit)
        return profile

    @classmethod
    def all_omega(cls) -> "SupernaturalProfile":
        return cls((), OMEGA)

    def multiplicity(self, gamma: int) -> Mult:
        """The multiplicity assigned to the prime ``gamma``: read off the
        one key that ``gamma`` divides, so an unsplit key is not split."""
        _check_prime(gamma)
        for key, value in self.exceptions:
            if key == gamma:
                return value
            if type(key) is _Unsplit and key % gamma == 0:
                from .coprime import valuation

                return value if value is OMEGA else value * valuation(key, gamma)
        return self.default

    @property
    def omega_primes(self) -> frozenset:
        """Exception keys carrying multiplicity OMEGA (default not included)."""
        return frozenset(g for g, v in self.exceptions if v is OMEGA)

    @property
    def finite_exceptions(self) -> tuple:
        return tuple((g, v) for g, v in self.exceptions if v is not OMEGA)

    @property
    def has_infinite_total(self) -> bool:
        return self.default is OMEGA or any(v is OMEGA for _, v in self.exceptions)

    def __str__(self):
        parts = ", ".join(f"{g}:{v}" for g, v in self.exceptions)
        if self.default is OMEGA:
            return "{" + (parts + "; " if parts else "") + "default=w}"
        return "{" + parts + "}"


def _on_one_base(q: SupernaturalProfile, p: SupernaturalProfile) -> list:
    """``q`` and ``p`` over one coprime base of their keys."""
    from .coprime import on_one_base

    return on_one_base((q, p))


def _paired(q: SupernaturalProfile, p: SupernaturalProfile) -> Iterator[tuple]:
    """(key, multiplicity in q, multiplicity in p) for every exception key
    of either profile, ascending, over one coprime base when either has
    an unsplit key.  Reads the stored multiplicities: the keys were
    validated when the profiles were built."""
    if q.unsplit or p.unsplit:
        q, p = _on_one_base(q, p)
    in_q, in_p = dict(q.exceptions), dict(p.exceptions)
    for gamma in sorted(in_q.keys() | in_p.keys()):
        yield gamma, in_q.get(gamma, q.default), in_p.get(gamma, p.default)


def preceq(q: SupernaturalProfile, p: SupernaturalProfile) -> bool:
    """Eventual multiset embedding: Q's terms injectively match into P's
    from some point on.  Decided as inclusion of OMEGA-supports; a
    default-OMEGA profile's support is cofinite, the complement of its
    exception primes (each finite), so there it is inclusion of keys.

    >>> p = SupernaturalProfile({2: 5, 3: OMEGA})
    >>> preceq(SupernaturalProfile({2: 7, 3: OMEGA}), p)
    True
    >>> preceq(SupernaturalProfile.all_omega(), SupernaturalProfile({2: OMEGA}))
    False

    Profiles with an unsplit key are decided over one coprime base of both
    profiles' keys, which is exact and splits no key.
    """
    if q.unsplit or p.unsplit:
        q, p = _on_one_base(q, p)
    if q.default is OMEGA:
        return p.default is OMEGA and {g for g, _ in p.exceptions} <= {g for g, _ in q.exceptions}
    if p.default is OMEGA:
        return q.omega_primes.isdisjoint(g for g, _ in p.exceptions)
    return q.omega_primes <= p.omega_primes


def finite_surplus_table(q: SupernaturalProfile, p: SupernaturalProfile) -> tuple:
    """Per-prime positive surpluses of ``q`` over ``p`` as (prime, surplus)
    pairs, ascending, from one pass over the exception primes.  Requires a
    finite deficit: no surplus of OMEGA, at a listed prime or at the
    cofinitely many primes where q's default OMEGA meets p's default 0.
    When either profile has an unsplit key, the table is keyed by their
    coprime base."""
    surpluses = [(gamma, tq, tp) for gamma, tq, tp in _paired(q, p) if tq > tp]
    if (q.default is OMEGA and p.default is not OMEGA) or any(tq is OMEGA for _, tq, _ in surpluses):
        raise DomainError("surplus table requested for an infinite deficit")
    return tuple((gamma, tq - tp) for gamma, tq, tp in surpluses)


