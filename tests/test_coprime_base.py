"""Verdicts on ``S[...]`` literals over a coprime base, against profiles
built from known prime factors, with factoring made to raise.

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
import time
from collections import Counter
from itertools import combinations, islice, product

import pytest

from borelcmp import coprime, farprimes
from borelcmp.cli import EXIT_OK, main
from borelcmp.duality import dual, dual_reduces
from borelcmp.errors import DomainError, ParseError
from borelcmp.groups import dimension, is_compact
from borelcmp.literals import parse_group, render_dual, render_group
from borelcmp.posetlab import Family
from borelcmp.reducibility import ComparisonOutcome, compare, reduces
from borelcmp.replay import (
    Replay,
    canonical_sequence,
    canonical_terms,
    deficit,
    oracle_drop_bound,
    oracle_replay,
    refutation_witness,
    sufficient_prefix_length,
)
from borelcmp.sequences import profile_from_sequence
from borelcmp.supernatural import OMEGA, SupernaturalProfile, _on_one_base, _Unsplit, finite_surplus_table, preceq
from borelcmp.verify import verify_certificate

import replay_reference

P90, Q90 = 618970019668049015295030157, 928455029464802529184826323
POOL = (2, 3, 5, 65537, 65539, 274177, 67280421310721, P90, Q90)
BIG = POOL[3:]


@pytest.fixture
def no_factoring(monkeypatch):
    """``factorint`` raises: no verdict, print or count factors."""
    def refuse(n):
        raise AssertionError(f"factorint ran on {n}")

    monkeypatch.setattr(farprimes, "factorint", refuse)


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


def test_profiles_agree_with_the_known_factors(no_factoring):
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


def test_products_agree_with_the_known_factors(no_factoring):
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


def test_a_gcd_with_a_prime_key_splits_a_semiprime(no_factoring):
    # the literal's base splits P90 * Q90 by P90 and shows Q90 prime
    g = parse_group(f"S[|{P90 * Q90}] x Sol{{{P90}:w}}")
    assert render_group(g) == f"Sol{{{P90}:w, {Q90}:w}} x Sol{{{P90}:w}}"
    assert not any(atom.profile.unsplit for atom, _ in g.runs)
    one = parse_group(f"S[|{P90 * Q90}]")
    assert compare(one, parse_group(f"Sol{{{P90}:w, {Q90}:w}}")) is ComparisonOutcome.EQUIVALENT


def test_compare_of_a_semiprime_with_its_primes_is_equivalent(capsys, no_factoring):
    assert main(["compare", f"S[|{P90 * Q90}]", f"Sol{{{P90}:w, {Q90}:w}}"]) == EXIT_OK
    assert capsys.readouterr().out == "EQUIVALENT\n"


def test_equal_groups_of_one_literal_are_one_run():
    big = 65537 * 65539
    g = parse_group(f"S[{big}|3] x Sol{{65537:1, 65539:1, 3:w}}")
    assert len(g.runs) == 1 and dimension(g) == 2
    assert render_group(g) == "Sol{3:w, 65537:1, 65539:1}^2"
    # a literal without the prime keys keeps the key whole, and prints it marked
    alone = parse_group(f"S[{big}|3]")
    assert alone.runs[0][0].profile.exceptions == ((3, OMEGA), (big, 1))
    assert render_group(alone) == "Sol{3:w, [4295229443]:1}"


def test_atoms_of_one_literal_are_equal_exactly_when_their_groups_are(no_factoring):
    rng = random.Random(33)
    for _ in range(60):
        tails = [[_entry(rng) for _ in range(rng.randint(1, 2))] for _ in range(2)]
        g, g_reference = _groups(rng, tails, 6)
        atoms, expected = list(g.factors), list(g_reference.factors)
        for i, j in combinations(range(len(atoms)), 2):
            assert (atoms[i] == atoms[j]) == (expected[i] == expected[j])


def test_a_key_that_isprime_rejects_prints_marked(no_factoring):
    big = 65537 * 65539
    cases = [
        (f"S[{big}|3]", "Sol{3:w, [4295229443]:1}"),
        # the gcds split one key into a prime and a marked cofactor
        (f"S[{big},{big * 274177}|{274177 * 3}] x T", "Sol{3:w, 274177:w, [4295229443]:2} x T"),
        (f"(S[|{big**2}] x R)^2", f"Sol{{[{big**2}]:w}} x R x Sol{{[{big**2}]:w}} x R"),
        (f"S[|{P90 * Q90}] x S[|{P90 * 3}]", f"Sol{{{P90}:w, {Q90}:w}} x Sol{{3:w, {P90}:w}}"),
    ]
    for text, expected in cases:
        g = parse_group(text)
        assert render_group(g) == expected
        if "[" in expected:  # no literal reads a marked key
            with pytest.raises(ParseError):
                parse_group(expected)
        else:
            assert parse_group(expected) == g
    assert render_dual(dual(parse_group(f"S[{P90 * Q90}|3]"))) == f"Q{{3:w, [{P90 * Q90}]:1}}"


def test_multiplicity_reads_an_unsplit_key_without_splitting_it(no_factoring):
    profile = profile_from_sequence((P90 * Q90, P90 * Q90), (3,))
    assert profile.unsplit
    assert profile.multiplicity(P90) == profile.multiplicity(Q90) == 2
    assert profile.multiplicity(3) is OMEGA and profile.multiplicity(5) == 0
    squared = profile_from_sequence(((65537 * 65539) ** 2,), (3,))
    assert squared.exceptions == ((3, OMEGA), ((65537 * 65539) ** 2, 1))
    assert squared.multiplicity(65537) == 2


def test_an_unsplit_key_survives_copy_and_pickle():
    # the checking constructor takes an unsplit key as it is
    g = parse_group(f"S[{65537 * 65539}|3] x T")
    for again in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert again == g and again.runs[0][0].profile.unsplit


def test_what_names_or_counts_reads_the_coprime_base(capsys, no_factoring):
    big = 65537 * 65539
    q, p = profile_from_sequence((big, big), (3,)), profile_from_sequence((), (3,))
    assert finite_surplus_table(q, p) == ((big, 2),)  # keyed by the base
    assert deficit(q, p) == 2
    assert refutation_witness(profile_from_sequence((), (big,)), p) == big
    assert canonical_sequence(q, 6) == (big, big, 3, 3, 3, 3)
    assert sufficient_prefix_length(q, (3, big, big)) == 3
    assert oracle_replay(q, p, 10).drop == 2
    with pytest.raises(DomainError, match="prime keys"):
        Family(profile_from_sequence((), (big,)), SupernaturalProfile.all_omega())
    for n in (big, P90 * Q90, (2**89 - 1) ** 2):
        argv = ["reduce", "S[|3]", f"S[{n},{n}|3]"]
        verdict = reduces(parse_group(argv[1]), parse_group(argv[2]))
        assert [witness.total_deficit for witness in verdict.certificate] == [2]
        start = time.perf_counter()
        assert main([*argv, "--certificate"]) == EXIT_OK
        assert capsys.readouterr().out == f"REDUCIBLE\n1 -> 1 (SOL_SOL) [surplus: [{n}]^2; total 2]\n"
        assert main([*argv, "--json"]) == EXIT_OK
        edge = json.loads(capsys.readouterr().out)["certificate"]["edges"][0]
        assert edge["deficit"] == [[n, 2]]
        assert time.perf_counter() - start < 1.0


@pytest.fixture
def refinements(monkeypatch) -> list:
    """The calls of ``coprime.refinement``, recorded as they happen."""
    calls, refinement = [], coprime.refinement
    monkeypatch.setattr(coprime, "refinement", lambda *args, **kw: calls.append(args) or refinement(*args, **kw))
    return calls


# three Mersenne primes, above the trial-division bound, so S[p*q|3] and
# S[p*r|3] each leave one unsplit key and the two keys share the factor p
MERSENNE = 2**61 - 1, 2**89 - 1, 2**107 - 1


def test_a_replay_refines_its_pair_once(refinements, no_factoring):
    """The replay puts the pair on one base at its entry, and only when two
    of its keys share a factor; the steps after it (the witness, the drop,
    the surplus table) find it there."""
    big = 65537 * 65539
    p, q, r = MERSENNE
    pairs = [(f"S[{big},{big}|3]", "S[|3]", 0,
              (Replay(drop=2, end=12, prefix=10), Replay(drop=0, end=10, prefix=12), 2)),
             (f"S[{p * q}|3]", f"S[{p * r}|3]", 1,
              (Replay(drop=2, end=12, prefix=12), Replay(drop=2, end=12, prefix=12), 2))]
    for q_text, p_text, refined, expected in pairs:
        q_profile, p_profile = (parse_group(text).runs[0][0].profile for text in (q_text, p_text))
        for replay, outcome in zip((lambda: oracle_replay(q_profile, p_profile, 10),
                                    lambda: oracle_replay(p_profile, q_profile, 10),
                                    lambda: oracle_drop_bound(q_profile, p_profile)), expected):
            refinements.clear()
            assert replay() == outcome
            assert len(refinements) == refined, (q_text, p_text)


def test_a_parse_refines_only_keys_that_share_a_factor(refinements, no_factoring):
    """Keys that are pairwise coprime are already over one base."""
    big = 65537 * 65539
    p, q, r = MERSENNE
    for text, refined in ((f"S[{big}|3]", 0), (f"S[{big}|3] x S[{big}|3]", 0),
                          (f"S[{big}|3] x Sol{{65537:1, 65539:1, 3:w}}", 1),
                          (f"S[{p * q}|3] x S[{p * r}|3]", 1)):
        refinements.clear()
        parse_group(text)
        assert len(refinements) == refined, text


def test_replays_over_the_base_agree_with_the_verdict_and_the_walk(no_factoring):
    """A default-OMEGA profile's dovetail visits the unsplit base elements
    of the profile it is compared with first, so its layout ranks them
    without a walk up to them."""
    big, huge = 65537 * 65539, P90 * Q90
    texts = [f"S[{big},{big}|3]", f"S[|{big}]", f"S[{huge}|3]", f"S[{huge}|{huge},{big * 3}]", f"S[{big * 2}|{huge}]"]
    sequences = [parse_group(text).runs[0][0].profile for text in texts]
    others = [SupernaturalProfile.all_omega(), SupernaturalProfile({2: 3, 65537: 1}, OMEGA),
              SupernaturalProfile({3: OMEGA, 65537: 2}), SupernaturalProfile({5: OMEGA})]
    for q, p in [pair for a, b in product(sequences + others, sequences) for pair in ((a, b), (b, a))]:
        replay = oracle_replay(q, p, 30)
        if replay.needs_window is None:
            assert (replay.prefix is not None) == preceq(q, p), (q, p)
        q, p = _on_one_base(q, p)  # as the replay compares them
        unsplit = {key for profile in (q, p) for key, _ in profile.exceptions if type(key) is _Unsplit}
        if replay.witness is None:
            need = Counter(islice(canonical_terms(q, replay.drop, unsplit=unsplit), 30))
            walked = replay_reference.covering_prefix_length(canonical_terms(p, unsplit=unsplit), need)
            assert replay.prefix == walked, (q, p)
        else:
            walked = canonical_terms(q, unsplit=unsplit)
            assert replay.end == replay_reference.covering_prefix_length(walked, {replay.witness: replay.needed})
