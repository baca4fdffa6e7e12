"""Fast self-contained sanity suite behind the ``selftest`` verb.

A trimmed, seeded version of the acceptance checks: exact instances run in
full, randomized ones at reduced sample counts.  Everything must finish in a
few seconds; the test suite runs the same checks at full scale.
"""

from __future__ import annotations

import itertools
import random

from .duality import RationalType, dual, dual_reduces, hom_nonzero_exists, rank
from .groups import REAL, TORUS, GroupExpr, dimension, group, solenoid
from .literals import parse_group, render_group
from .posetlab import Family, MemberRef, UPSet, chain_demo, member_crosscheck
from .reducibility import atom_reduces, reduces, rt_closed_form, verify_certificate
from .supernatural import (
    OMEGA,
    SupernaturalProfile,
    canonical_sequence,
    oracle_drop_bound,
    oracle_injection,
    preceq,
    sufficient_prefix_length,
)

_PRIMES = (2, 3, 5, 7, 11, 13)


def random_profile(rng: random.Random) -> SupernaturalProfile:
    """A valid (infinite-total) profile over a small prime pool."""
    if rng.random() < 0.25:
        exceptions = {
            gamma: rng.randrange(0, 7)
            for gamma in rng.sample(_PRIMES, rng.randrange(0, 3))
        }
        return SupernaturalProfile(exceptions, OMEGA)
    omega_count = rng.randrange(1, 4)
    chosen = rng.sample(_PRIMES, omega_count + rng.randrange(0, 3))
    exceptions = {}
    for index, gamma in enumerate(chosen):
        exceptions[gamma] = OMEGA if index < omega_count else rng.randrange(1, 9)
    return SupernaturalProfile(exceptions, 0)


def random_atom(rng: random.Random):
    roll = rng.random()
    if roll < 0.3:
        return REAL
    if roll < 0.6:
        return TORUS
    return solenoid(random_profile(rng))


def random_expr(rng: random.Random, max_factors: int = 4, compact: bool = False) -> GroupExpr:
    count = rng.randrange(0, max_factors + 1)
    atoms = []
    for _ in range(count):
        atom = random_atom(rng)
        while compact and atom is REAL:
            atom = random_atom(rng)
        atoms.append(atom)
    return group(*atoms)


def brute_force_reducible(g: GroupExpr, h: GroupExpr) -> bool:
    """Exhaustive search over injective factor assignments."""
    m, n = len(g.factors), len(h.factors)
    if m == 0:
        return True
    if m > n:
        return False
    for assignment in itertools.permutations(range(n), m):
        if all(atom_reduces(g.factors[i], h.factors[j]) for i, j in enumerate(assignment)):
            return True
    return False


def _check_normalization():
    expr = parse_group("S[4,6,8|9]")
    expected = group(solenoid({2: 6, 3: OMEGA}))
    return expr == expected, render_group(expr)


def _check_closed_form():
    for c0, e0, c1, e1 in itertools.product(range(5), repeat=4):
        g = parse_group(f"R^{c0} x T^{e0}")
        h = parse_group(f"R^{c1} x T^{e1}")
        if reduces(g, h).reducible != rt_closed_form(c0, e0, c1, e1):
            return False, f"mismatch at ({c0},{e0},{c1},{e1})"
    return True, "625 cases"


def _check_atom_table(rng):
    for _ in range(10):
        s = solenoid(random_profile(rng))
        table = (
            atom_reduces(REAL, s),
            not atom_reduces(s, REAL),
            atom_reduces(s, TORUS),
            not atom_reduces(TORUS, s),
            atom_reduces(REAL, TORUS),
            not atom_reduces(TORUS, REAL),
            atom_reduces(REAL, REAL),
            atom_reduces(TORUS, TORUS),
            atom_reduces(s, s),
        )
        if not all(table):
            return False, f"table broke for {s}"
    return True, "10 random profiles"


def _check_two_paths(rng):
    for _ in range(200):
        p, q = random_profile(rng), random_profile(rng)
        primal = atom_reduces(solenoid(p), solenoid(q))
        dual_path = hom_nonzero_exists(RationalType(q), RationalType(p))
        if primal != dual_path:
            return False, f"{p} vs {q}"
    return True, "200 random pairs"


def _check_power_law():
    atoms = [REAL, TORUS, solenoid({2: OMEGA}), solenoid({2: OMEGA, 3: OMEGA}), solenoid({2: 5, 3: OMEGA})]
    for a, b in itertools.product(atoms, repeat=2):
        for m, n in itertools.product(range(1, 6), repeat=2):
            expected = m <= n and atom_reduces(a, b)
            got = reduces(group(*[a] * m), group(*[b] * n)).reducible
            if got != expected:
                return False, f"{a}^{m} vs {b}^{n}"
    return True, "exhaustive over 5 atoms, powers to 5"


def _check_matching(rng):
    for _ in range(60):
        g = random_expr(rng, 5)
        h = random_expr(rng, 5)
        verdict = reduces(g, h)
        if verdict.reducible != brute_force_reducible(g, h):
            return False, f"{render_group(g)} vs {render_group(h)}"
        if not verify_certificate(g, h, verdict):
            return False, f"certificate rejected for {render_group(g)} vs {render_group(h)}"
        if not verdict.reducible and not len(verdict.violator.NK) < len(verdict.violator.K):
            return False, "violator not deficient"
    return True, "60 random products"


def _check_oracle(rng):
    checked = 0
    for _ in range(50):
        q, p = random_profile(rng), random_profile(rng)
        if preceq(q, p):
            drop = oracle_drop_bound(q, p)
            window = canonical_sequence(q, drop + 60)[drop:]
            prefix = canonical_sequence(p, sufficient_prefix_length(p, window))
            if not oracle_injection(window, prefix):
                return False, f"sound window failed for {q} into {p}"
            checked += 1
    return True, f"{checked} embeddings verified"


def _check_duality(rng):
    if str(dual(group(TORUS)).components[0]) != "Z":
        return False, "dual of the circle is not the integers"
    p = SupernaturalProfile({2: OMEGA})
    if dual(group(solenoid(p))).components[0] != RationalType(p):
        return False, "solenoid dual type mismatch"
    if dual_reduces(group(TORUS), group(solenoid(p))):
        return False, "circle into solenoid must fail on the dual route"
    if not dual_reduces(group(solenoid(p)), group(TORUS)):
        return False, "solenoid into circle must hold on the dual route"
    for _ in range(30):
        g = random_expr(rng, 4, compact=True)
        if rank(dual(g)) != dimension(g):
            return False, f"rank mismatch for {render_group(g)}"
        h = random_expr(rng, 4, compact=True)
        if dual_reduces(g, h) != reduces(g, h).reducible:
            return False, f"dual disagrees for {render_group(g)} vs {render_group(h)}"
    return True, "instances plus 30 random compact pairs"


def _check_posetlab():
    family = Family.default()
    demo = chain_demo(family, 3, 1)
    k = 3
    for i in range(k):
        for j in range(k):
            if demo.matrix[i][j] != (i >= j):
                return False, f"chain verdict wrong at ({i},{j})"
    evens, odds = k, k + 1
    if demo.matrix[evens][odds] or demo.matrix[odds][evens]:
        return False, "evens/odds not an antichain"
    members = [MemberRef(family, UPSet.multiples_of(2 ** i)) for i in range(3)]
    for m_a, m_b in itertools.product(members, repeat=2):
        if not member_crosscheck(m_a, m_b, 60).consistent:
            return False, "crosscheck inconsistency"
    return True, "depth-3 chain, window 60"


def _check_preorder(rng):
    pool = [random_expr(rng, 3) for _ in range(40)]
    for g in pool:
        if not reduces(g, g).reducible:
            return False, f"reflexivity broke for {render_group(g)}"
    for _ in range(100):
        g, h, k = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if reduces(g, h).reducible and reduces(h, k).reducible:
            if not reduces(g, k).reducible:
                return False, "transitivity broke"
    return True, "40 expressions, 100 triples"


def run_selftest(seed: int = 20250810):
    """Run all checks; returns (name, passed, detail) triples."""
    rng = random.Random(seed)
    checks = (
        ("normalization instance", _check_normalization),
        ("closed form for R/T products", _check_closed_form),
        ("atom rule table", lambda: _check_atom_table(rng)),
        ("primal/dual two-path agreement", lambda: _check_two_paths(rng)),
        ("power law", _check_power_law),
        ("matching vs brute force", lambda: _check_matching(rng)),
        ("embedding oracle", lambda: _check_oracle(rng)),
        ("duality", lambda: _check_duality(rng)),
        ("poset embedding demo", _check_posetlab),
        ("preorder laws", lambda: _check_preorder(rng)),
    )
    results = []
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not a stop
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
