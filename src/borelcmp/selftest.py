"""The acceptance criteria behind the ``selftest`` verb.

``CRITERIA`` holds the eleven criteria that back the paper's results, each
once and at full scale: ``borelcmp selftest`` runs them all, and the test
suite runs each one as a test.  A check draws from its own generator,
seeded from the run seed and its number, so it draws the same sample
alone as in a full run, and it returns ``(ok, detail)`` instead of
asserting, so ``python -O`` runs it unchanged.  All checks are exact: the
results they check are theorems, not experiments.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from .duality import INTEGERS, RationalType, dual, dual_reduces, hom_nonzero_exists, rank
from .groups import REAL, TORUS, GroupExpr, dimension, group, solenoid
from .literals import parse_group, render_group
from .posetlab import Family, MemberRef, UPSet, chain_demo, member_crosscheck, member_sequence
from .reducibility import ComparisonOutcome, atom_reduces, compare, reduces, rt_closed_form, verify_certificate
from .supernatural import (
    OMEGA,
    SupernaturalProfile,
    canonical_sequence,
    canonical_terms,
    oracle_drop_bound,
    oracle_injection,
    preceq,
    refutation_witness,
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
    sources, targets = tuple(g.factors), tuple(h.factors)
    m, n = len(sources), len(targets)
    if m == 0:
        return True
    if m > n:
        return False
    for assignment in itertools.permutations(range(n), m):
        if all(atom_reduces(sources[i], targets[j]) for i, j in enumerate(assignment)):
            return True
    return False


def trial_division_primes(count: int) -> list:
    """The first ``count`` primes, by trial division: an oracle for the
    package's prime walk that uses none of its machinery."""
    primes: list = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def _criterion_01_normalization_instance(rng):
    expr = parse_group("S[4,6,8|9]")
    return expr == group(solenoid({2: 6, 3: OMEGA})), render_group(expr)


def _criterion_02_closed_form_agreement(rng):
    sides = {(c, e): group(*[REAL] * c, *[TORUS] * e) for c, e in itertools.product(range(5), repeat=2)}
    for (c, e), g in sides.items():
        if parse_group(f"R^{c} x T^{e}") != g:
            return False, f"R^{c} x T^{e} parses wrong"
    for (c0, e0), (c1, e1) in itertools.product(sides, repeat=2):
        if reduces(sides[c0, e0], sides[c1, e1]).reducible != rt_closed_form(c0, e0, c1, e1):
            return False, f"mismatch at ({c0},{e0},{c1},{e1})"
    return True, "625 cases"


def _criterion_03_atom_rule_table(rng):
    for _ in range(12):
        s = solenoid(random_profile(rng))
        table = (
            compare(group(REAL), group(s)) is ComparisonOutcome.LEFT_STRICT,
            compare(group(s), group(TORUS)) is ComparisonOutcome.LEFT_STRICT,
            atom_reduces(REAL, REAL), atom_reduces(REAL, TORUS), atom_reduces(REAL, s),
            not atom_reduces(TORUS, REAL), atom_reduces(TORUS, TORUS), not atom_reduces(TORUS, s),
            not atom_reduces(s, REAL), atom_reduces(s, TORUS), atom_reduces(s, s),
        )
        if not all(table):
            return False, f"table broke for {s}"
    return True, "nine entries and strictness, 12 random profiles"


def _criterion_04_two_path_agreement(rng):
    for _ in range(1000):
        p, q = random_profile(rng), random_profile(rng)
        primal = atom_reduces(solenoid(p), solenoid(q))
        if not primal == hom_nonzero_exists(RationalType(q), RationalType(p)) == preceq(q, p):
            return False, f"{p} vs {q}"
    return True, "preceq = dual hom-existence on 1000 pairs"


def _criterion_05_power_law(rng):
    atoms = [REAL, TORUS, solenoid({2: OMEGA}), solenoid({2: OMEGA, 3: OMEGA}), solenoid({2: 5, 3: OMEGA})]
    atoms += [solenoid(random_profile(rng)) for _ in range(2)]
    for a, b in itertools.product(atoms, repeat=2):
        for m, n in itertools.product(range(1, 6), repeat=2):
            expected = m <= n and atom_reduces(a, b)
            if reduces(group(*[a] * m), group(*[b] * n)).reducible != expected:
                return False, f"{a}^{m} vs {b}^{n}"
    return True, "7 atoms, 2 of them random, powers 1..5"


def _criterion_06_matching_vs_brute_force(rng):
    outcomes = Counter()
    for _ in range(500):
        g, h = random_expr(rng, 6), random_expr(rng, 6)
        verdict = reduces(g, h)
        if verdict.reducible != brute_force_reducible(g, h):
            fault = "wrong verdict"
        elif not verify_certificate(g, h, verdict):
            fault = "certificate rejected"
        elif not verdict.reducible and not len(verdict.violator.NK) < len(verdict.violator.K):
            fault = "violator not deficient"
        else:
            outcomes[verdict.reducible] += 1
            continue
        return False, f"{fault} for {render_group(g)} vs {render_group(h)}"
    detail = f"500 products ({outcomes[True]} pos, {outcomes[False]} neg)"
    return len(outcomes) == 2, detail


def _criterion_07_oracle_consistency(rng):
    sound = refuted = 0
    for _ in range(1000):
        q, p = random_profile(rng), random_profile(rng)
        if preceq(q, p):
            sound += 1
            drop = oracle_drop_bound(q, p)
            window = canonical_sequence(q, drop + 200)[drop:]
            prefix = canonical_sequence(p, sufficient_prefix_length(p, window))
            have, running = Counter(prefix), Counter()
            for term in window:  # every window length up to 200 in one sweep
                running[term] += 1
                if running[term] > have[term]:
                    return False, f"window of {sum(running.values())} fails for {q} into {p}"
            if not oracle_injection(window, prefix):
                return False, f"sound window failed for {q} into {p}"
            continue
        refuted += 1
        gamma = refutation_witness(q, p)
        cap = p.multiplicity(gamma)
        if cap is OMEGA:
            return False, f"witness {gamma} of {q} not into {p} has multiplicity w"
        for drop in (0, 7):  # failing windows exist beyond any drop point
            window = []
            for term in itertools.islice(canonical_terms(q), drop, None):
                window.append(term)
                if term == gamma and window.count(gamma) == cap + 1:
                    break
            # no prefix of p, however long, supplies cap + 1 occurrences of gamma
            long_prefix = canonical_sequence(p, 40 * (drop + len(window)) + 500)
            if oracle_injection(window, long_prefix) or long_prefix.count(gamma) > cap:
                return False, f"refutation of {q} into {p} failed at drop {drop}"
    return sound > 0 and refuted > 0, f"1000 pairs ({sound} sound, {refuted} refuted)"


def _criterion_08_poset_embedding_demo(rng):
    for power in (1, 2):
        demo = chain_demo(Family.default(), depth=5, power=power)
        for i, j in itertools.product(range(5), repeat=2):
            if demo.matrix[i][j] != (i >= j):
                return False, f"chain verdict wrong at ({i},{j}), power {power}"
        evens, odds = 5, 6
        if demo.matrix[evens][odds] or demo.matrix[odds][evens]:
            return False, f"evens/odds not an antichain, power {power}"
        if not (demo.matrix[evens][evens] and demo.matrix[odds][odds]):
            return False, f"evens/odds not reflexive, power {power}"
        for m_a, m_b in itertools.product(demo.members, repeat=2):
            report = member_crosscheck(m_a, m_b, 200)
            if not report.consistent:
                return False, f"crosscheck {m_a.a} vs {m_b.a}, power {power}: {report.notes}"
    return True, "depth 5, powers 1 and 2, 98 crosschecks at window 200"


def _criterion_09_worked_member_prefix(rng):
    # independent recomputation: trial-division primes, explicit layering
    d = [p for p in trial_division_primes(60) if p != 2]

    def inner(k):
        i, r = divmod(k, 2)
        return d[3 * i] if r == 0 else 2

    complement_of_evens = [1, 3, 5, 7]

    def member(k):
        i, r = divmod(k, 2)
        return d[1 + 3 * complement_of_evens[i]] if r == 0 else inner(i)

    got = member_sequence(MemberRef(Family.default(), UPSet.multiples_of(2)), 4)
    return got == tuple(member(k) for k in range(4)) == (13, 3, 37, 2), f"evens member starts {got}"


def _criterion_10_duality_instances(rng):
    (circle_dual,) = dual(group(TORUS)).components
    if circle_dual != INTEGERS or str(circle_dual) != "Z":
        return False, "dual of the circle is not the integers"
    for p in [SupernaturalProfile({2: OMEGA})] + [random_profile(rng) for _ in range(25)]:
        s = group(solenoid(p))
        if tuple(dual(s).components) != (RationalType(p),):
            return False, f"dual type mismatch for {p}"
        if dual_reduces(group(TORUS), s) or not dual_reduces(s, group(TORUS)):
            return False, f"circle and solenoid {p} misordered on the dual route"
    for _ in range(120):
        g = random_expr(rng, compact=True)
        if rank(dual(g)) != dimension(g):
            return False, f"rank mismatch for {render_group(g)}"
    for _ in range(550):
        g, h = random_expr(rng, 5, compact=True), random_expr(rng, 5, compact=True)
        if dual_reduces(g, h) != reduces(g, h).reducible:
            return False, f"dual disagrees for {render_group(g)} vs {render_group(h)}"
    return True, "26 solenoids, rank = dimension on 120, 550 compact pairs"


def _criterion_11_preorder_laws(rng):
    pool = [random_expr(rng, 4) for _ in range(80)]
    for g in pool:
        if not reduces(g, g).reducible:
            return False, f"reflexivity broke for {render_group(g)}"
    hits = 0
    for _ in range(1000):
        g, h, k = (rng.choice(pool) for _ in range(3))
        if reduces(g, h).reducible and reduces(h, k).reducible:
            hits += 1
            if not reduces(g, k).reducible:
                return False, f"transitivity broke for {render_group(g)}, {render_group(k)}"
    # constructed chains keep transitivity non-vacuous
    for _ in range(200):
        g = random_expr(rng, 3)
        h = g * random_expr(rng, 2)
        k = h * random_expr(rng, 2)
        if not (reduces(g, h).reducible and reduces(h, k).reducible and reduces(g, k).reducible):
            return False, f"chain broke at {render_group(g)}"
    return hits > 0, f"80 expressions, 1000 random triples ({hits} non-vacuous), 200 chains"


CRITERIA = (
    (1, "normalization instance", _criterion_01_normalization_instance),
    (2, "closed form agreement", _criterion_02_closed_form_agreement),
    (3, "atom rule table", _criterion_03_atom_rule_table),
    (4, "two-path agreement", _criterion_04_two_path_agreement),
    (5, "power law", _criterion_05_power_law),
    (6, "matching vs brute force", _criterion_06_matching_vs_brute_force),
    (7, "oracle consistency", _criterion_07_oracle_consistency),
    (8, "poset embedding demo", _criterion_08_poset_embedding_demo),
    (9, "worked member prefix", _criterion_09_worked_member_prefix),
    (10, "duality instances", _criterion_10_duality_instances),
    (11, "preorder laws", _criterion_11_preorder_laws),
)


def run_criterion(number: int, seed: int) -> tuple:
    """``(ok, detail)`` of criterion ``number``, drawn from its own
    generator; an exception is a failure, not a stop."""
    _, _, check = CRITERIA[number - 1]
    try:
        return check(random.Random(f"{seed}/{number}"))
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"


def run_selftest(seed: int = 20250810):
    """Run every criterion; returns ``(name, passed, detail)`` triples in
    criterion order, each name led by its number."""
    return [(f"{number:02d} {name}", *run_criterion(number, seed)) for number, name, _ in CRITERIA]
