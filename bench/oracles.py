"""Expected answers, derived inside the benchmark.

Nothing here imports borelcmp.  Every verdict the benchmark checks is
recomputed from the mathematics the README states, in the plainest exact
form: the omega-support atom rule, a brute-force assignment search, Hall's
condition over classes of interchangeable factors, a prime sieve and
residue-class arithmetic.

A profile is a pair ``(exceptions, default)`` where ``exceptions`` maps a
prime to a natural number or ``W`` and ``default`` is ``0`` or ``W``.  An
atom is ``("R",)``, ``("T",)`` or ``("Sol", profile)``.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import isqrt

W = "w"
REAL = ("R",)
TORUS = ("T",)


def sol(exceptions, default=0):
    return ("Sol", (dict(exceptions), default))


def mult(profile, prime):
    exceptions, default = profile
    return exceptions.get(prime, default)


def omega_support(profile):
    """The set of primes of multiplicity ``W`` as ``(cofinite, primes)``:
    with ``cofinite`` false, ``primes`` is the support itself; with it true,
    ``primes`` is the finite set of primes left out of the support."""
    exceptions, default = profile
    if default == W:
        return True, frozenset(g for g, m in exceptions.items() if m != W)
    return False, frozenset(g for g, m in exceptions.items() if m == W)


def support_included(small, big) -> bool:
    """Is ``small`` a subset of ``big``, both as given by ``omega_support``?"""
    s_cof, s_set = small
    b_cof, b_set = big
    if not s_cof:
        return s_set <= b_set if not b_cof else not (s_set & b_set)
    return b_cof and b_set <= s_set


def preceq(q, p) -> bool:
    """Q eventually embeds into P iff the omega-support of Q lies inside P's."""
    return support_included(omega_support(q), omega_support(p))


def surplus_table(q, p) -> list:
    """Per prime, how far Q's finite multiplicity exceeds P's (positive
    entries only, ascending).  Requires ``preceq(q, p)``."""
    table = []
    for prime in sorted(set(q[0]) | set(p[0])):
        mq, mp = mult(q, prime), mult(p, prime)
        if mq != W and mp != W and mq > mp:
            table.append((prime, mq - mp))
    return table


def atom_class(atom):
    """Atoms with equal classes are interchangeable on both sides."""
    if atom[0] == "Sol":
        return ("Sol", omega_support(atom[1]))
    return atom


def class_reduces(a, b) -> bool:
    """The atom rule table on classes."""
    if a[0] == "R":
        return True
    if a[0] == "T":
        return b[0] == "T"
    if b[0] == "T":
        return True
    if b[0] == "R":
        return False
    return support_included(b[1], a[1])


def atom_reduces(a, b) -> bool:
    return class_reduces(atom_class(a), atom_class(b))


def brute_force_reduces(source, target) -> bool:
    """Search every injective assignment of source factors to target factors."""
    if len(source) > len(target):
        return False
    allowed = [[atom_reduces(a, b) for b in target] for a in source]
    return any(
        all(allowed[i][j] for i, j in enumerate(assignment))
        for assignment in permutations(range(len(target)), len(source))
    )


def hall_reduces(source_counts: dict, target_counts: dict) -> bool:
    """Reducibility of products given as ``{class: count}``.

    Factors of one class have one neighbourhood, so Hall's condition needs
    checking only on unions of whole source classes.
    """
    classes = list(source_counts)
    for size in range(1, len(classes) + 1):
        for chosen in combinations(classes, size):
            need = sum(source_counts[c] for c in chosen)
            reachable = sum(
                count for t, count in target_counts.items()
                if any(class_reduces(c, t) for c in chosen)
            )
            if need > reachable:
                return False
    return True


def compare_outcome(source, target) -> str:
    forward = brute_force_reduces(source, target)
    backward = brute_force_reduces(target, source)
    if forward and backward:
        return "EQUIVALENT"
    if forward:
        return "LEFT_STRICT"
    if backward:
        return "RIGHT_STRICT"
    return "INCOMPARABLE"


def certificate_ok(source, target, reducible, edges, violator) -> bool:
    """Check a verdict's witness against the rule table, independently of
    the engine's own ``verify_certificate``.  ``edges`` are 1-based
    ``(left, right)`` pairs; ``violator`` is ``(K, NK)``, 1-based."""
    m, n = len(source), len(target)
    if reducible:
        if edges is None or sorted(i for i, _ in edges) != list(range(1, m + 1)):
            return False
        rights = [j for _, j in edges]
        if len(set(rights)) != len(rights) or not all(1 <= j <= n for j in rights):
            return False
        return all(atom_reduces(source[i - 1], target[j - 1]) for i, j in edges)
    if violator is None:
        return False
    K, NK = violator
    if not K or len(set(K)) != len(K) or not all(1 <= i <= m for i in K):
        return False
    neighbourhood = {
        j for i in K for j in range(1, n + 1) if atom_reduces(source[i - 1], target[j - 1])
    }
    return sorted(neighbourhood) == sorted(NK) and len(NK) < len(K)


# -- primes ---------------------------------------------------------------------

def primes_up_to(bound: int) -> list:
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def odd_primes(count: int) -> list:
    """The first ``count`` odd primes."""
    bound = 64
    while True:
        found = primes_up_to(bound)[1:]
        if len(found) >= count:
            return found[:count]
        bound *= 2


# -- the default member family ------------------------------------------------
#
# In the default family (p = {2:w}, q = {default=w}) the primes strictly more
# frequent in q than in p are the odd primes, so d_k is the k-th odd prime and
# the canonical sequence of p is 2, 2, 2, ...


def member_sequence(is_member, cofinite: bool, n: int) -> list:
    """First ``n`` terms of the member sequence of a set, from its definition:
    position 2i carries d_{1+3c} for the i-th non-member c, and position
    2i+1 (or every position, when the complement is finite) carries the
    inner layer, which alternates d_{3j} and the base prime 2."""
    complement = []
    c = 0
    while not cofinite and len(complement) < (n + 1) // 2:
        if not is_member(c):
            complement.append(c)
        c += 1
    top = 3 * max(complement, default=0) + 2 + 3 * n
    d = odd_primes(top)

    def inner(k):
        j, r = divmod(k, 2)
        return 2 if r else d[3 * j]

    if cofinite:
        return [inner(k) for k in range(n)]
    return [d[1 + 3 * complement[k // 2]] if k % 2 == 0 else inner(k // 2) for k in range(n)]


def chain_matrix(depth: int) -> list:
    """Almost inclusion among multiples of 2^i (i < depth), evens and odds.

    mult(2^i) lies almost inside mult(2^j) iff 2^j divides 2^i; the odds
    lie almost inside only the set of all naturals and themselves; no
    set of multiples lies almost inside the odds.
    """
    sets = [("mult", i) for i in range(depth)] + [("mult", 1), ("odds", None)]

    def included(a, b):
        if a[0] == "odds":
            return b[0] == "odds" or b[1] == 0
        return b[0] == "mult" and a[1] >= b[1]

    return [[included(a, b) for b in sets] for a in sets]

