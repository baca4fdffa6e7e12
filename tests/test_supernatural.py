"""Profile arithmetic: worked instances, order laws, and oracle agreement."""

from __future__ import annotations

import math
import time
from collections import Counter
from itertools import filterfalse, islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcmp import replay, sequences, supernatural
from borelcmp.errors import DomainError
from borelcmp.farprimes import primes_after
from borelcmp.literals import parse_group
from borelcmp.replay import (
    Replay,
    canonical_sequence,
    canonical_terms,
    deficit,
    oracle_drop_bound,
    oracle_injection,
    oracle_replay,
    refutation_witness,
    sufficient_prefix_length,
)
from borelcmp.sequences import profile_from_sequence
from borelcmp.supernatural import OMEGA, SupernaturalProfile, finite_surplus_table, preceq

from borelcmp.selftest import random_profile

import replay_reference as reference
from conftest import PRIME_POOL


def P(exceptions, default=0):
    return SupernaturalProfile(exceptions, default)


ALL_OMEGA = SupernaturalProfile.all_omega()


# -- hypothesis strategies ----------------------------------------------------

@st.composite
def profiles(draw):
    if draw(st.booleans()):
        primes = draw(st.lists(st.sampled_from(PRIME_POOL), unique=True, max_size=3))
        return P({g: draw(st.integers(0, 8)) for g in primes}, OMEGA)
    omega = draw(st.lists(st.sampled_from(PRIME_POOL), unique=True, min_size=1, max_size=3))
    finite = draw(st.lists(st.sampled_from(PRIME_POOL), unique=True, max_size=3))
    exceptions = {g: OMEGA for g in omega}
    for g in finite:
        exceptions.setdefault(g, draw(st.integers(1, 8)))
    return P(exceptions)


@st.composite
def prefix_tails(draw):
    """Sequences ``(prefix, tail)`` whose entries are primes of the pool and
    products of two or three of them, so that composite entries share prime
    factors."""
    entries = st.lists(st.sampled_from(PRIME_POOL), min_size=1, max_size=3).map(math.prod)
    prefix = draw(st.lists(entries, max_size=6))
    tail = draw(st.lists(entries, min_size=1, max_size=4))
    return tuple(prefix), tuple(tail)


# -- Mult ---------------------------------------------------------------------

def test_omega_total_order():
    assert 5 < OMEGA and not OMEGA < 5
    assert OMEGA <= OMEGA and OMEGA >= 7
    assert OMEGA + 4 is OMEGA and 4 + OMEGA is OMEGA
    assert sorted([OMEGA, 3, 0], key=lambda m: (m is OMEGA, m if m is not OMEGA else 0)) == [0, 3, OMEGA]


def test_profile_canonical_form():
    assert P({2: 0, 3: OMEGA}) == P({3: OMEGA})
    assert P({2: OMEGA}, OMEGA) == ALL_OMEGA
    assert P({2: 0}, OMEGA).exceptions == ((2, 0),)  # a 0 is kept against a default of OMEGA
    with pytest.raises(DomainError):
        P({4: OMEGA})
    with pytest.raises(DomainError):
        P({2: OMEGA}, 1)
    with pytest.raises(DomainError):
        P({2: -1, 3: OMEGA})
    for malformed in ([(2, OMEGA), 3], 5):  # an entry, or the whole, that is no list of pairs
        with pytest.raises(DomainError, match=r"must be \(prime, multiplicity\) pairs"):
            P(malformed)


# -- multiplicity -------------------------------------------------------------

def test_multiplicity_examples():
    assert P({2: 6, 3: OMEGA}).multiplicity(3) is OMEGA
    assert ALL_OMEGA.multiplicity(97) is OMEGA
    assert P({2: 6, 3: OMEGA}).multiplicity(2) == 6
    with pytest.raises(DomainError):
        P({2: OMEGA}).multiplicity(6)


# -- profile_from_sequence ----------------------------------------------------

def test_profile_from_sequence_examples():
    assert profile_from_sequence((2, 2, 2, 3, 2, 2, 2), (3,)) == P({2: 6, 3: OMEGA})
    assert profile_from_sequence((4, 6, 8), (9,)) == P({2: 6, 3: OMEGA})
    assert profile_from_sequence((), (2,)) == P({2: OMEGA})
    assert profile_from_sequence((5, 5, 7), (2, 3)) == P(
        {2: OMEGA, 3: OMEGA, 5: 2, 7: 1}
    )
    assert profile_from_sequence((), (2, 3, 4, 5, 6)) == P({2: OMEGA, 3: OMEGA, 5: OMEGA})
    # a repeated composite entry counts its exponents once per occurrence
    assert profile_from_sequence((12, 12, 10), (15,)) == P({2: 5, 3: OMEGA, 5: OMEGA})


def _profile_by_counting_each_prime(s: tuple) -> SupernaturalProfile:
    """The definition: each entry refined into its prime factors with
    multiplicity (by sympy), then OMEGA for a prime of the refined tail,
    else its count in the refined prefix."""
    def refined(entries):
        return [gamma for entry in entries for gamma, e in sympy.factorint(entry).items() for _ in range(e)]

    prefix, tail = map(refined, s)
    exceptions = {gamma: OMEGA for gamma in tail}
    for gamma in prefix:
        if gamma not in exceptions:
            exceptions[gamma] = prefix.count(gamma)
    return SupernaturalProfile(exceptions)


@given(prefix_tails())
@settings(max_examples=200)
def test_profile_from_sequence_matches_the_definition(s):
    assert profile_from_sequence(*s) == _profile_by_counting_each_prime(s)


@given(prefix_tails(), st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=60)
def test_profile_from_sequence_reads_prefix_counts_and_tail_primes_only(s, rng, times):
    # reordering the prefix, rotating and repeating the tail, or copying a
    # tail entry into the prefix leaves the profile as it is
    prefix, tail = map(list, s)
    rng.shuffle(prefix)
    k = rng.randrange(len(tail))
    rotated = tuple(tail[k:] + tail[:k]) * times
    assert profile_from_sequence(tuple(prefix), rotated) == profile_from_sequence(*s)
    assert profile_from_sequence(s[0] + (tail[k],), s[1]) == profile_from_sequence(*s)


def test_profile_from_sequence_is_linear_in_the_prefix():
    # the first 30,000 primes, each once: counting each prime's occurrences
    # in turn would read the prefix 30,000 times
    prefix = tuple(islice(primes_after(1), 30_000))
    start = time.perf_counter()
    profile = profile_from_sequence(prefix, (3,))
    assert time.perf_counter() - start < 1.0
    assert len(profile.exceptions) == 30_000 and profile.multiplicity(3) is OMEGA


def test_profile_from_sequence_factors_each_distinct_entry_once(monkeypatch):
    # a composite past trial division, and entries shared by the prefix and the tail
    big = 65537 * 65539
    s = (big, 6, big, 77), (10, 6)
    calls = []
    trial_division = sequences._trial_division
    monkeypatch.setattr(sequences, "_trial_division", lambda n: calls.append(n) or trial_division(n))
    profile = profile_from_sequence(*s)
    assert calls == [big, 6, 77, 10]
    # trial division leaves big whole: one unsplit key, with big's two occurrences
    assert profile.unsplit and profile.exceptions == ((2, OMEGA), (3, OMEGA), (5, OMEGA), (7, 1), (11, 1), (big, 2))
    reference = _profile_by_counting_each_prime(s)
    assert reference == P({2: OMEGA, 3: OMEGA, 5: OMEGA, 7: 1, 11: 1, 65537: 2, 65539: 2})
    assert all(profile.multiplicity(gamma) == m for gamma, m in reference.exceptions)


def test_a_profile_prints_a_key_past_trial_division_marked():
    # neither building nor printing the profile splits the key that trial
    # division left of 2 * semiprime and of semiprime
    semiprime = 618970019668049015295030157 * 928455029464802529184826323  # two 90-bit primes
    profile = profile_from_sequence((6, 2 * semiprime), (semiprime, 3))
    assert profile.exceptions == ((2, 2), (3, OMEGA), (semiprime, OMEGA))
    assert repr(profile) == f"SupernaturalProfile(exceptions=((2, 2), (3, OMEGA), ({semiprime}, OMEGA)), default=0)"
    assert str(profile) == f"{{2:2, 3:w, [{semiprime}]:w}}"


def test_int_seq_spec_rejects_small_entries():
    """``profile_from_sequence`` refuses an entry that is no integer > 1 and an empty tail."""
    for prefix, tail, entry in (((1,), (2,), "1"), ((), (0,), "0"), ((2,), (True,), "True")):
        with pytest.raises(DomainError, match=f"^sequence entries must be integers > 1, got {entry}$"):
            profile_from_sequence(prefix, tail)
    with pytest.raises(DomainError, match="^sequence tail must be nonempty"):
        profile_from_sequence((2,), ())


def test_parsing_solenoids_builds_no_omega_prime_set(monkeypatch):
    def refuse(self):
        raise AssertionError("omega_primes built")

    monkeypatch.setattr(SupernaturalProfile, "omega_primes", property(refuse))
    g = parse_group("Sol{2:w, 3:5} x Sol{7:w}^2 x T")
    assert str(g) == "Sol{2:w, 3:5} x Sol{7:w}^2 x T"


# -- deficit / preceq ---------------------------------------------------------

def test_deficit_examples():
    assert deficit(P({3: OMEGA}), P({2: OMEGA, 3: OMEGA})) == 0
    assert deficit(P({2: 7, 3: OMEGA}), P({2: 5, 3: OMEGA})) == 2
    assert deficit(P({2: OMEGA}), P({3: OMEGA})) is OMEGA


def test_preceq_examples():
    p = P({2: 5, 3: OMEGA})
    assert preceq(p, p)
    assert preceq(P({2: 7, 3: OMEGA}), P({2: 5, 3: OMEGA}))
    assert not preceq(ALL_OMEGA, P({2: OMEGA}))


def test_preceq_against_direct_drop_argument():
    # drop the two surplus 2s from Q's expansion, then the rest embeds
    q, p = P({2: 7, 3: OMEGA}), P({2: 5, 3: OMEGA})
    assert deficit(q, p) == 2
    drop = oracle_drop_bound(q, p)
    assert drop == 2  # canonical sequence of q starts 2,2,2,2,2,2,2,3,3,...
    window = canonical_sequence(q, drop + 40)[drop:]
    assert Counter(window)[2] <= 5


@given(profiles())
@settings(max_examples=100)
def test_preceq_reflexive(p):
    assert preceq(p, p)
    assert deficit(p, p) == 0


def _bump(rng, profile):
    # same OMEGA-support, larger finite parts: the original embeds into it
    bumped = {g: (v if v is OMEGA else v + rng.randrange(0, 5)) for g, v in profile.exceptions}
    return SupernaturalProfile(bumped, profile.default)


def test_preceq_transitive_on_random_triples(rng):
    pool = [random_profile(rng) for _ in range(60)]
    hits = 0
    for _ in range(1000):
        r, q, p = (rng.choice(pool) for _ in range(3))
        if preceq(r, q) and preceq(q, p):
            hits += 1
            assert preceq(r, p)
    assert hits > 0
    # constructed chains keep the law from being tested vacuously
    for _ in range(300):
        r = random_profile(rng)
        q = _bump(rng, r)
        p = _bump(rng, q)
        assert preceq(r, q) and preceq(q, p) and preceq(r, p)
        assert preceq(p, r)  # bumping never changes the OMEGA-support


@given(profiles(), profiles())
@settings(max_examples=150)
def test_preceq_iff_finite_deficit(q, p):
    d = deficit(q, p)
    assert preceq(q, p) == (d is not OMEGA)
    if d == 0:
        assert preceq(q, p)
    if d is not OMEGA:
        assert sum(s for _, s in finite_surplus_table(q, p)) == d
    else:
        witness = refutation_witness(q, p)
        assert witness is not None
        assert q.multiplicity(witness) is OMEGA
        assert p.multiplicity(witness) is not OMEGA


def _summed_deficit(q, p):
    """The deficit as a sum over primes, each term the surplus of q's
    multiplicity over p's, with the pairs of defaults standing in for the
    primes that neither profile lists; with it, the surplus table."""
    if q.default is OMEGA and p.default is not OMEGA:
        return OMEGA, None
    in_q, in_p = dict(q.exceptions), dict(p.exceptions)
    table = []
    for gamma in sorted(in_q.keys() | in_p.keys()):
        tq, tp = in_q.get(gamma, q.default), in_p.get(gamma, p.default)
        if tp is OMEGA or tq is not OMEGA and tq <= tp:
            continue
        if tq is OMEGA:
            return OMEGA, None
        table.append((gamma, tq - tp))
    return sum(s for _, s in table), tuple(table)


def test_preceq_is_inclusion_of_omega_supports(rng):
    """``preceq`` decides inclusion of OMEGA-supports directly; it must agree
    with the finiteness of the summed deficit on every ordered pair of a
    pool of random, default-OMEGA and all-zero profiles, and ``deficit``
    and the surplus table must be the summed ones."""
    pool = [random_profile(rng) for _ in range(300)]
    pool += [ALL_OMEGA, P({2: 3, 7: 0}, OMEGA), P({13: 1}, OMEGA), P({}), P({2: 4, 3: 1})]
    assert sum(p.default is OMEGA for p in pool) > 50
    holds = 0
    for q in pool:
        for p in pool:
            total, table = _summed_deficit(q, p)
            assert preceq(q, p) == (total is not OMEGA), (q, p)
            assert deficit(q, p) == total  # OMEGA is a singleton
            if table is not None:
                holds += 1
                assert finite_surplus_table(q, p) == table
    assert 0.1 < holds / len(pool) ** 2 < 0.9


@pytest.mark.parametrize(
    "excluded",
    [set(), {2}, {2, 3, 5}, {65521, 65537}, {3, 65521, 65537}, dict.fromkeys((2, 65537), (0, 1))],
)
def test_primes_outside_is_a_filter_of_every_prime(excluded):
    # 8,000 primes pass 65536, the first chunk boundary of the prime table;
    # 65521 and 65537 are the primes on either side of it
    expected = list(islice(filterfalse(excluded.__contains__, primes_after(1)), 8000))
    assert expected[-1] > 65537
    assert list(islice(replay._primes_outside(excluded), 8000)) == expected


def test_refutation_witness_is_the_least_prime():
    # 3 has infinite surplus as an exception prime, 2 through q's default
    assert refutation_witness(ALL_OMEGA, P({3: 4, 5: OMEGA})) == 2


def test_profile_walks_read_stored_multiplicities(monkeypatch):
    q, p, two_adic = P({2: 7, 3: OMEGA, 5: 2}), P({2: 5, 3: OMEGA, 7: OMEGA}), P({2: OMEGA})

    def no_prime_tests(n):
        raise AssertionError(f"isprime({n}) called on a stored exception prime")

    monkeypatch.setattr(supernatural, "isprime", no_prime_tests)
    assert deficit(q, p) == 4
    assert preceq(q, p)
    assert finite_surplus_table(q, p) == ((2, 2), (5, 2))
    assert refutation_witness(two_adic, p) == 2
    assert refutation_witness(q, p) is None


def _omega_support_signature(p):
    # default OMEGA: the OMEGA support is cofinite, missing the exception keys
    if p.default is OMEGA:
        return "cofinite", frozenset(g for g, _ in p.exceptions)
    return "finite", p.omega_primes


@given(profiles(), profiles())
@settings(max_examples=150)
def test_bireducible_is_same_default_and_omega_support(p, q):
    expected = _omega_support_signature(p) == _omega_support_signature(q)
    assert (preceq(p, q) and preceq(q, p)) == expected


def test_profiles_bireducible_examples():
    def bireducible(q, p):
        return preceq(q, p) and preceq(p, q)

    assert bireducible(P({2: 5, 3: OMEGA}), P({2: 9, 3: OMEGA}))
    assert not bireducible(P({2: OMEGA}), P({3: OMEGA}))
    # one way only: 3 has multiplicity OMEGA on the right alone
    assert preceq(P({2: OMEGA}), P({2: OMEGA, 3: OMEGA}))
    assert not bireducible(P({2: OMEGA}), P({2: OMEGA, 3: OMEGA}))
    p = P({2: 4, 5: OMEGA})
    assert bireducible(p, p)


# -- canonical_sequence -------------------------------------------------------

def test_canonical_sequence_examples():
    assert canonical_sequence(P({2: OMEGA}), 3) == (2, 2, 2)
    assert canonical_sequence(P({2: 6, 3: OMEGA}), 8) == (2, 2, 2, 2, 2, 2, 3, 3)
    assert canonical_sequence(P({2: OMEGA, 3: OMEGA}), 5) == (2, 3, 2, 3, 2)
    with pytest.raises(DomainError):
        canonical_sequence(P({2: OMEGA}), -1)
    with pytest.raises(DomainError):  # no infinite sequence, even for an empty prefix
        canonical_sequence(P({2: 3}), 0)


def test_canonical_sequence_dovetail_visits_every_prime_infinitely():
    terms = canonical_sequence(ALL_OMEGA, 300)
    counts = Counter(terms)
    for gamma in (2, 3, 5, 7, 11):
        assert counts[gamma] >= 5


@given(profiles())
@settings(max_examples=60)
def test_canonical_sequence_has_the_right_profile(p):
    terms = canonical_sequence(p, 250)
    counts = Counter(terms)
    probes = set(terms) | {g for g, _ in p.exceptions}
    for gamma in probes:
        assert counts[gamma] <= p.multiplicity(gamma)
    # every probe prime reaches min(multiplicity, 3) once enough terms pass
    pending = {g: min(p.multiplicity(g), 3) for g in probes}
    pending = {g: need for g, need in pending.items() if need > 0}
    for index, term in enumerate(canonical_terms(p)):
        if index > 20000:
            break
        if term in pending:
            pending[term] -= 1
            if pending[term] == 0:
                del pending[term]
        if not pending:
            break
    assert not pending


# -- the finite oracle --------------------------------------------------------

def test_oracle_injection_examples():
    assert oracle_injection((2, 3), (3, 2, 2))
    assert not oracle_injection((2, 2, 2), (2, 2, 3, 3))
    assert oracle_injection((), ())


def test_sufficient_prefix_length_rejects_impossible_windows():
    with pytest.raises(DomainError):
        sufficient_prefix_length(P({2: 1, 3: OMEGA}), (2, 2))


def test_sufficient_prefix_length_reads_each_window_prime_once(monkeypatch):
    """The multiplicities come from one dict of the exceptions, not from a
    scan of them per window prime, which made 8,000 window primes take a
    second; the refusals keep their messages."""
    first = tuple(islice(primes_after(1), 8000))
    p = P({**{gamma: 1 for gamma in first}, 3: OMEGA})

    def scan(self, gamma):
        raise AssertionError(f"multiplicity({gamma}) scanned the exceptions")

    monkeypatch.setattr(SupernaturalProfile, "multiplicity", scan)
    start = time.perf_counter()
    assert sufficient_prefix_length(p, first) == 8000
    assert time.perf_counter() - start < 0.5
    for window, message in (
        ((2, 2), "window needs 2 occurrences of 2 but the profile carries 1"),
        ((4,), "4 is not a prime number"),
        ((True,), "True is not a prime number"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            sufficient_prefix_length(p, window)


# -- the layout of canonical sequences and the replay ------------------------------

@given(profiles(), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_layout_locates_and_counts_every_walked_term(p, start):
    terms = canonical_sequence(p, 400)
    assert tuple(islice(canonical_terms(p, start), 100)) == terms[start:start + 100]
    primes = sorted(set(terms) | {g for g, _ in p.exceptions} | {17})
    batch, lazy = replay._Layout(p, primes), replay._Layout(p)
    for gamma in primes:
        walked = reference.occurrences(terms, gamma)
        for layout in (batch, lazy):
            assert [layout.position(gamma, k) for k in range(1, len(walked) + 1)] == walked
            beyond = layout.position(gamma, len(walked) + 1)
            assert beyond is None or beyond >= len(terms)
            assert (beyond is None) == (p.multiplicity(gamma) == len(walked))
            for length in (0, 1, start, 399, 400):
                assert layout.count(gamma, length) == sum(i < length for i in walked)


def test_drop_and_prefix_arithmetic_agree_with_the_walk(rng):
    sound = 0
    for _ in range(400):
        q, p = random_profile(rng), random_profile(rng)
        if not preceq(q, p):
            continue
        sound += 1
        drop = oracle_drop_bound(q, p)
        assert drop == reference.oracle_drop_bound(q, p)
        window = canonical_sequence(q, drop + 60)[drop:]
        prefix = sufficient_prefix_length(p, window)
        assert prefix == reference.sufficient_prefix_length(p, window)
        assert oracle_replay(q, p, 60) == Replay(drop, drop + 60, prefix)
    assert sound > 50


def test_refuting_replays_agree_with_the_walk(rng):
    refuted = 0
    for _ in range(400):
        q, p = random_profile(rng), random_profile(rng)
        witness = refutation_witness(q, p)
        if witness is None:
            continue
        refuted += 1
        needed = p.multiplicity(witness) + 1
        end = reference.covering_prefix_length(canonical_terms(q), {witness: needed})
        assert oracle_replay(q, p, end) == Replay(0, end, None, witness, needed)
        if end > 1:  # one term short of the window it needs
            assert oracle_replay(q, p, end - 1) == Replay(0, end, None, witness, needed, end)
    assert refuted > 50


def test_replays_skip_the_drop_and_count_the_source():
    start = time.perf_counter()
    # the window of 2s after no drop: the k-th 2 of the dovetail opens round k
    assert oracle_replay(P({2: OMEGA}), ALL_OMEGA, 10_000) == Replay(0, 10_000, 49_995_001)
    assert oracle_replay(P({2: OMEGA}), ALL_OMEGA, 10**6).prefix == 10**6 * (10**6 - 1) // 2 + 1
    # a drop of 999999999 skipped, and a source prefix of 10^9 terms counted
    assert oracle_replay(P({2: 999999999, 3: OMEGA}), P({3: OMEGA}), 1) == Replay(999999999, 10**9, 1)
    assert oracle_replay(P({3: OMEGA}), P({2: 999999999, 3: OMEGA}), 1) == Replay(0, 1, 10**9)
    # refuting needs 10^9 occurrences of 2 from q: more than the window walks
    assert oracle_replay(P({2: OMEGA}), P({2: 999999999, 3: OMEGA}), 1) == Replay(0, 10**9, None, 2, 10**9, 10**9)
    assert time.perf_counter() - start < 2.0


def test_a_refuting_replay_counts_every_occurrence_the_source_holds():
    q, p = P({5: OMEGA}), P({2: 999999999, 5: 3, 7: OMEGA})
    assert oracle_replay(q, p, 10) == Replay(0, 4, None, 5, 4)
    # p's three 5s follow its 999999999 2s, far past any walked probe
    layout = replay._Layout(p)
    assert [layout.position(5, k) for k in (1, 2, 3, 4)] == [999999999, 10**9, 10**9 + 1, None]
    assert layout.count(5, 10**9 + 2) == 3
    assert replay._covering_prefix(layout, {5: 3}) == 10**9 + 2
