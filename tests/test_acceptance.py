"""Acceptance criteria, one test per criterion, each at its stated scale.

Every test prints one ``ACCEPTANCE n ... PASS`` line on success (visible
with ``pytest -s`` or in captured output); a failure fails the test itself.
All checks are exact: the underlying results are theorems, not experiments.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from borelcmp.duality import INTEGERS, RationalType, dual, dual_reduces, hom_nonzero_exists, rank
from borelcmp.groups import REAL, TORUS, dimension, group, solenoid
from borelcmp.literals import parse_group
from borelcmp.posetlab import Family, MemberRef, UPSet, chain_demo, member_crosscheck, member_sequence
from borelcmp.reducibility import (
    ComparisonOutcome,
    atom_reduces,
    compare,
    reduces,
    rt_closed_form,
    verify_certificate,
)
from borelcmp.supernatural import (
    OMEGA,
    SupernaturalProfile,
    canonical_sequence,
    canonical_terms,
    multiplicity,
    oracle_drop_bound,
    oracle_injection,
    preceq,
    refutation_witness,
    sufficient_prefix_length,
)

from borelcmp.selftest import brute_force_reducible, random_expr, random_profile

from conftest import trial_division_primes


def _report(number: int, name: str):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# -- 1 ---------------------------------------------------------------------------

def test_criterion_01_normalization_instance():
    assert parse_group("S[4,6,8|9]") == group(solenoid({2: 6, 3: OMEGA}))
    _report(1, "normalization of S[4,6,8|9]")


# -- 2 ---------------------------------------------------------------------------

def test_criterion_02_closed_form_agreement():
    import time

    start = time.perf_counter()
    for c0, e0, c1, e1 in itertools.product(range(5), repeat=4):
        g = group(*[REAL] * c0, *[TORUS] * e0)
        h = group(*[REAL] * c1, *[TORUS] * e1)
        assert reduces(g, h).reducible == rt_closed_form(c0, e0, c1, e1), (c0, e0, c1, e1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"closed form on 625 cases in {elapsed:.3f}s")


# -- 3 ---------------------------------------------------------------------------

def test_criterion_03_atom_rule_table():
    rng = random.Random(3003)
    for _ in range(12):
        s = group(solenoid(random_profile(rng)))
        assert compare(group(REAL), s) is ComparisonOutcome.LEFT_STRICT
        assert compare(s, group(TORUS)) is ComparisonOutcome.LEFT_STRICT
        a = s.factors[0]
        assert atom_reduces(REAL, REAL) and atom_reduces(REAL, TORUS) and atom_reduces(REAL, a)
        assert not atom_reduces(TORUS, REAL) and atom_reduces(TORUS, TORUS) and not atom_reduces(TORUS, a)
        assert not atom_reduces(a, REAL) and atom_reduces(a, TORUS) and atom_reduces(a, a)
    _report(3, "nine-entry atom table with strictness, 12 random profiles")


# -- 4 ---------------------------------------------------------------------------

def test_criterion_04_two_path_agreement():
    rng = random.Random(4004)
    for _ in range(1000):
        p, q = random_profile(rng), random_profile(rng)
        primal = atom_reduces(solenoid(p), solenoid(q))
        dual_path = hom_nonzero_exists(RationalType(q), RationalType(p))
        assert primal == dual_path, (p, q)
    _report(4, "preceq verdicts equal dual hom-existence on 1000 pairs")


# -- 5 ---------------------------------------------------------------------------

def test_criterion_05_power_law():
    atoms = [
        REAL,
        TORUS,
        solenoid({2: OMEGA}),
        solenoid({2: OMEGA, 3: OMEGA}),
        solenoid({2: 5, 3: OMEGA}),
    ]
    for a, b in itertools.product(atoms, repeat=2):
        for m, n in itertools.product(range(1, 6), repeat=2):
            expected = m <= n and atom_reduces(a, b)
            assert reduces(group(*[a] * m), group(*[b] * n)).reducible == expected
    _report(5, "power law exhaustive over 5 atoms and powers 1..5")


# -- 6 ---------------------------------------------------------------------------

def test_criterion_06_matching_vs_brute_force():
    rng = random.Random(6006)
    positives = negatives = 0
    for _ in range(500):
        g = random_expr(rng, max_factors=6)
        h = random_expr(rng, max_factors=6)
        verdict = reduces(g, h)
        assert verdict.reducible == brute_force_reducible(g, h)
        assert verify_certificate(g, h, verdict)
        if verdict.reducible:
            positives += 1
        else:
            negatives += 1
            assert len(verdict.violator.NK) < len(verdict.violator.K)
    assert positives and negatives
    _report(6, f"matching = brute force on 500 products ({positives} pos, {negatives} neg)")


# -- 7 ---------------------------------------------------------------------------

def test_criterion_07_oracle_consistency():
    rng = random.Random(7007)
    sound = refuted = 0
    for _ in range(1000):
        q, p = random_profile(rng), random_profile(rng)
        if preceq(q, p):
            sound += 1
            drop = oracle_drop_bound(q, p)
            window = canonical_sequence(q, drop + 200)[drop:]
            prefix = canonical_sequence(p, sufficient_prefix_length(p, window))
            have = Counter(prefix)
            running = Counter()
            for term in window:  # every window length up to 200 in one sweep
                running[term] += 1
                assert running[term] <= have[term], (q, p, term)
        else:
            refuted += 1
            gamma = refutation_witness(q, p)
            cap = multiplicity(p, gamma)
            assert cap is not OMEGA
            window = []
            seen = 0
            for term in canonical_terms(q):
                window.append(term)
                if term == gamma:
                    seen += 1
                    if seen == cap + 1:
                        break
            assert not oracle_injection(window, canonical_sequence(p, 40 * len(window) + 400))
    assert sound and refuted
    _report(7, f"oracle agreement on 1000 pairs ({sound} sound, {refuted} refuted)")


# -- 8 ---------------------------------------------------------------------------

def test_criterion_08_poset_embedding_demo():
    family = Family.default()
    for power in (1, 2):
        demo = chain_demo(family, depth=5, power=power)
        for i in range(5):
            for j in range(5):
                assert demo.matrix[i][j] == (i >= j), (power, i, j)
        evens, odds = 5, 6
        assert not demo.matrix[evens][odds] and not demo.matrix[odds][evens]
        assert demo.matrix[evens][evens] and demo.matrix[odds][odds]
        for m_a, m_b in itertools.product(demo.members, repeat=2):
            report = member_crosscheck(m_a, m_b, 200)
            assert report.consistent, (power, m_a.a, m_b.a, report.notes)
    _report(8, "chains strictly decrease, antichain incomparable, 98 crosschecks consistent")


# -- 9 ---------------------------------------------------------------------------

def test_criterion_09_worked_member_prefix():
    # independent recomputation: trial-division sieve, explicit layering
    d = [p for p in trial_division_primes(60) if p != 2]

    def inner(k):
        i, r = divmod(k, 2)
        return d[3 * i] if r == 0 else 2

    complement_of_evens = [1, 3, 5, 7]

    def member(k):
        i, r = divmod(k, 2)
        return d[1 + 3 * complement_of_evens[i]] if r == 0 else inner(i)

    expected = [member(k) for k in range(4)]
    got = member_sequence(MemberRef(Family.default(), UPSet.multiples_of(2)), 4)
    assert list(got) == expected == [13, 3, 37, 2]
    _report(9, "member prefix (13, 3, 37, 2) confirmed by sieve oracle")


# -- 10 --------------------------------------------------------------------------

def test_criterion_10_duality_instances():
    assert dual(group(TORUS)).components[0] == INTEGERS
    rng = random.Random(1010)
    for _ in range(25):
        p = random_profile(rng)
        assert dual(group(solenoid(p))).components[0] == RationalType(p)
        assert not dual_reduces(group(TORUS), group(solenoid(p)))
    for _ in range(100):
        g = random_expr(rng, compact=True)
        assert rank(dual(g)) == dimension(g)
    _report(10, "dual instances and rank = dimension on 100 compact expressions")


# -- 11 --------------------------------------------------------------------------

def test_criterion_11_preorder_laws():
    rng = random.Random(1111)
    pool = [random_expr(rng, 4) for _ in range(80)]
    for g in pool:
        assert reduces(g, g).reducible
    hits = 0
    for _ in range(1000):
        g, h, k = (rng.choice(pool) for _ in range(3))
        if reduces(g, h).reducible and reduces(h, k).reducible:
            hits += 1
            assert reduces(g, k).reducible
    # constructed chains keep transitivity non-vacuous
    for _ in range(200):
        g = random_expr(rng, 3)
        h = g * random_expr(rng, 2)
        k = h * random_expr(rng, 2)
        assert reduces(g, h).reducible and reduces(h, k).reducible
        assert reduces(g, k).reducible
        hits += 1
    assert hits >= 200
    _report(11, f"reflexivity on 80 expressions, transitivity on 1200 triples ({hits} non-vacuous)")
