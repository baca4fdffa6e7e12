"""Verdicts on ``S[...]`` literals over a coprime base, against profiles
built from known prime factors, with Pollard-Brent made to raise.

A sequence entry is drawn as a list of primes from ``POOL``, so its
factors are known without factoring it.  The pool holds the Fermat
prime 65537, its neighbour 65539, the two prime factors of 2^64 + 1 and
two primes of 90 bits, whose products trial division leaves whole; the
small primes are split off by trial division.  The reference profile of a
sequence is built by the public constructor from those factors, and its
group writes each ``S[...]`` atom as the ``Sol{...}`` of that profile.
"""

from __future__ import annotations

import copy
import json
import math
import pickle
import random

import pytest

from borelcmp import coprime, farprimes
from borelcmp.cli import EXIT_OK, main
from borelcmp.duality import dual_reduces
from borelcmp.errors import DomainError
from borelcmp.groups import dimension, is_compact
from borelcmp.literals import parse_group, render_group
from borelcmp.posetlab import Family
from borelcmp.reducibility import ComparisonOutcome, compare, reduces
from borelcmp.replay import canonical_sequence, deficit, oracle_replay, refutation_witness
from borelcmp.sequences import IntSeqSpec, profile_from_sequence
from borelcmp.supernatural import OMEGA, SupernaturalProfile, _factored, finite_surplus_table, preceq
from borelcmp.verify import verify_certificate

P90, Q90 = 618970019668049015295030157, 928455029464802529184826323
POOL = (2, 3, 5, 65537, 65539, 274177, 67280421310721, P90, Q90)
BIG = POOL[3:]


@pytest.fixture
def no_pollard(monkeypatch):
    """Pollard-Brent raises, and no factorization is left over from an
    earlier print."""
    def refuse(n, budget):
        raise AssertionError(f"Pollard-Brent ran on {n}")

    monkeypatch.setattr(farprimes, "_pollard_brent", refuse)
    coprime.primes_of.cache_clear()


def _entry(rng) -> list:
    """The primes of one entry, with multiplicity, mostly the large ones."""
    return [rng.choice(BIG if rng.random() < 0.8 else POOL) for _ in range(rng.randint(1, 3))]


def _sequence(rng, tail=None) -> tuple:
    """(the ``S[...]`` literal, its reference profile), with the ``tail``
    given as lists of primes, or drawn."""
    prefix = [_entry(rng) for _ in range(rng.randint(0, 3))]
    tail = tail or [_entry(rng) for _ in range(rng.randint(1, 2))]
    counts = {gamma: OMEGA for entry in tail for gamma in entry}
    for gamma in (gamma for entry in prefix for gamma in entry):
        if counts.get(gamma) is not OMEGA:
            counts[gamma] = counts.get(gamma, 0) + 1
    text = "S[" + ",".join(str(math.prod(entry)) for entry in prefix) + "|"
    text += ",".join(str(math.prod(entry)) for entry in tail) + "]"
    return text, SupernaturalProfile(counts)


def _sol(profile: SupernaturalProfile) -> str:
    return "Sol{" + ", ".join(f"{gamma}:{m}" for gamma, m in profile.exceptions) + "}"


def _groups(rng, tails, factors: int) -> tuple:
    """(a literal of ``factors`` factors with sequences, the literal with
    each one as its reference solenoid); sequences on the given ``tails``
    may repeat, beside R, T and solenoids on the large primes."""
    drawn = [_sequence(rng, rng.choice(tails)) for _ in range(rng.randint(1, 2))]
    text, reference = [], []
    for _ in range(factors):
        kind = rng.random()
        if kind < 0.6:
            s, profile = rng.choice(drawn)
            text.append(s)
            reference.append(_sol(profile))
        else:
            atom = rng.choice(["R", "T", _sol(SupernaturalProfile({rng.choice(BIG): OMEGA, 3: rng.randint(0, 2)}))])
            text.append(atom)
            reference.append(atom)
    return parse_group(" x ".join(text)), parse_group(" x ".join(reference))


def _over_primes(pairs) -> dict:
    """A table or profile keyed by products of pool primes, over primes:
    each key divided by the pool primes, no factoring."""
    expanded = {}
    for key, m in pairs:
        for gamma in POOL:
            v = 0
            while key % gamma == 0:
                key //= gamma
                v += 1
            if v:
                expanded[gamma] = m if m is OMEGA else m * v
        assert key == 1
    return expanded


def _profile_over_primes(profile: SupernaturalProfile) -> SupernaturalProfile:
    return SupernaturalProfile(_over_primes(profile.exceptions), profile.default)


def test_profiles_agree_with_the_known_factors(no_pollard):
    rng = random.Random(29)
    for _ in range(150):
        text, reference = _sequence(rng)
        profile = parse_group(text).runs[0][0].profile
        assert _profile_over_primes(profile) == reference, text
        q_text, q_reference = _sequence(rng)
        q = parse_group(q_text).runs[0][0].profile
        assert preceq(q, profile) == preceq(q_reference, reference), (q_text, text)
        assert preceq(profile, q) == preceq(reference, q_reference), (text, q_text)
        try:
            expected = finite_surplus_table(q_reference, reference)
        except DomainError:
            with pytest.raises(DomainError):
                finite_surplus_table(q, profile)
        else:
            assert _over_primes(finite_surplus_table(q, profile)) == dict(expected), (q_text, text)


def test_products_agree_with_the_known_factors(no_pollard):
    rng = random.Random(2029)
    for _ in range(120):
        # shared tails make solenoid edges with surplus tables
        tails = [[_entry(rng) for _ in range(rng.randint(1, 2))] for _ in range(2)]
        m = rng.randint(1, 3)
        (g, g_reference), (h, h_reference) = _groups(rng, tails, m), _groups(rng, tails, rng.randint(m, 4))
        # atoms of one literal are equal exactly when their groups are, so
        # the runs and the classes are those of the reference
        for expr, reference in ((g, g_reference), (h, h_reference)):
            assert [count for _, count in expr.runs] == [count for _, count in reference.runs]
            assert dimension(expr) == dimension(reference)
            for (atom, _), (expected, _) in zip(expr.runs, reference.runs):
                profile = atom.profile and _profile_over_primes(atom.profile)
                assert atom.kind is expected.kind and profile == expected.profile
        verdict, expected = reduces(g, h), reduces(g_reference, h_reference)
        assert verdict.reducible == expected.reducible
        assert verify_certificate(g, h, verdict)
        if verdict.reducible:
            for block, reference in zip(verdict.certificate.blocks, expected.certificate.blocks, strict=True):
                assert block[:4] == reference[:4]
                assert _over_primes(block.deficit) == dict(reference.deficit)
        else:
            assert verdict.violator == expected.violator
        assert compare(g, h) == compare(g_reference, h_reference)
        if is_compact(g) and is_compact(h):
            assert dual_reduces(g, h) == dual_reduces(g_reference, h_reference) == verdict.reducible


def test_a_gcd_with_a_prime_key_splits_a_semiprime(monkeypatch, no_pollard):
    def refuse(n):
        raise AssertionError(f"factorint ran on {n}")

    monkeypatch.setattr(coprime, "factorint", refuse)
    # the literal's base splits P90 * Q90 by P90 and shows Q90 prime
    g = parse_group(f"S[|{P90 * Q90}] x Sol{{{P90}:w}}")
    assert render_group(g) == f"Sol{{{P90}:w, {Q90}:w}} x Sol{{{P90}:w}}"
    assert not any(atom.profile.unsplit for atom, _ in g.runs)
    one = parse_group(f"S[|{P90 * Q90}]")
    assert compare(one, parse_group(f"Sol{{{P90}:w, {Q90}:w}}")) is ComparisonOutcome.EQUIVALENT


def test_compare_of_a_semiprime_with_its_primes_is_equivalent(capsys, no_pollard):
    assert main(["compare", f"S[|{P90 * Q90}]", f"Sol{{{P90}:w, {Q90}:w}}"]) == EXIT_OK
    assert capsys.readouterr().out == "EQUIVALENT\n"


def test_equal_groups_of_one_literal_are_one_run():
    big = 65537 * 65539
    g = parse_group(f"S[{big}|3] x Sol{{65537:1, 65539:1, 3:w}}")
    assert len(g.runs) == 1 and dimension(g) == 2
    assert render_group(g) == "Sol{3:w, 65537:1, 65539:1}^2"
    # a literal without the prime keys keeps the key whole, and prints alike
    alone = parse_group(f"S[{big}|3]")
    assert alone.runs[0][0].profile.exceptions == ((3, OMEGA), (big, 1))
    assert render_group(alone) == "Sol{3:w, 65537:1, 65539:1}"


def test_the_render_round_trip_holds_up_to_the_prime_form():
    big = 65537 * 65539
    for text in (f"S[{big}|3]", f"S[{big},{big * 274177}|{274177 * 3}] x T", f"(S[|{big**2}] x R)^2"):
        g = parse_group(text)
        again = parse_group(render_group(g))
        assert [(atom.kind, atom.profile and _factored(atom.profile), count) for atom, count in g.runs] == [
            (atom.kind, atom.profile, count) for atom, count in again.runs
        ]


def test_multiplicity_reads_an_unsplit_key_without_splitting_it(no_pollard):
    profile = profile_from_sequence(IntSeqSpec((P90 * Q90, P90 * Q90), (3,)))
    assert profile.unsplit
    assert profile.multiplicity(P90) == profile.multiplicity(Q90) == 2
    assert profile.multiplicity(3) is OMEGA and profile.multiplicity(5) == 0
    squared = profile_from_sequence(IntSeqSpec(((65537 * 65539) ** 2,), (3,)))
    assert squared.exceptions == ((3, OMEGA), ((65537 * 65539) ** 2, 1))
    assert squared.multiplicity(65537) == 2


def test_an_unsplit_key_survives_copy_and_pickle():
    # the checking constructor takes an unsplit key as it is
    g = parse_group(f"S[{65537 * 65539}|3] x T")
    for again in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert again == g and again.runs[0][0].profile.unsplit


def test_what_names_or_counts_primes_reads_the_prime_form(capsys):
    big = 65537 * 65539
    q, p = profile_from_sequence(IntSeqSpec((big, big), (3,))), profile_from_sequence(IntSeqSpec((), (3,)))
    assert finite_surplus_table(q, p) == ((big, 2),)  # keyed by the base
    assert deficit(q, p) == 4
    assert refutation_witness(profile_from_sequence(IntSeqSpec((), (big,))), p) == 65537
    assert canonical_sequence(q, 6) == (65537, 65537, 65539, 65539, 3, 3)
    assert oracle_replay(q, p, 10).drop == 4
    family = Family(profile_from_sequence(IntSeqSpec((), (big,))), SupernaturalProfile.all_omega())
    assert family.p == SupernaturalProfile({65537: OMEGA, 65539: OMEGA})
    argv = ["reduce", "S[|3]", f"S[{big},{big}|3]"]
    verdict = reduces(parse_group(argv[1]), parse_group(argv[2]))
    assert [witness.total_deficit for witness in verdict.certificate] == [4]
    assert main([*argv, "--certificate"]) == EXIT_OK
    assert capsys.readouterr().out == "REDUCIBLE\n1 -> 1 (SOL_SOL) [surplus: 65537^2, 65539^2; total 4]\n"
    assert main([*argv, "--json"]) == EXIT_OK
    edge = json.loads(capsys.readouterr().out)["certificate"]["edges"][0]
    assert edge["deficit"] == [[65537, 2], [65539, 2]]
