"""Poset laboratory: ultimately periodic sets, the member family, oracles."""

from __future__ import annotations

import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcmp import farprimes, posetlab, primes, replay
from borelcmp.errors import DomainError
from borelcmp.posetlab import (
    Family,
    MemberRef,
    UPSet,
    chain_demo,
    member_crosscheck,
    member_reduces,
    member_sequence,
    set_difference,
    subset_star,
)
from borelcmp.primes import SIEVE_CAP
from borelcmp.replay import Replay, oracle_injection
from borelcmp.supernatural import OMEGA, SupernaturalProfile

from borelcmp.selftest import trial_division_primes
from borelcmp.setliterals import parse_upset

import replay_reference as reference
from upset_reference import sparse_from_bits
from conftest import PRIME_POOL


# -- independent oracle: trial-division sieve, no package machinery ------------

def _oracle_member_prefix(membership, n: int, base: list, skipped: set) -> list:
    """Recompute a member sequence from scratch.

    ``base`` is a prefix of at least n terms of the family's base sequence
    and the d-enumeration is every prime outside ``skipped``, ascending.
    Layering: even positions take d[1+3c] over the complement of A
    ascending; odd positions take the inner sequence, itself alternating
    d[3i] with the base.
    """
    d = [p for p in trial_division_primes(4 * n + 40) if p not in skipped]

    def inner(k):
        i, r = divmod(k, 2)
        return d[3 * i] if r == 0 else base[i]

    complement = [c for c in range(8 * n + 80) if not membership(c)]
    cofinite = len(complement) <= 2  # for the sets used here
    out = []
    for k in range(n):
        if cofinite:
            out.append(inner(k))
            continue
        i, r = divmod(k, 2)
        out.append(d[1 + 3 * complement[i]] if r == 0 else inner(i))
    return out


# -- UPSet ---------------------------------------------------------------------

def test_upset_canonicalization():
    assert sparse_from_bits((), 4, (True, False, True, False)) == UPSet.multiples_of(2)
    grown = sparse_from_bits((True, False, True, False), 2, (True, False))
    assert grown == UPSet.multiples_of(2)
    assert grown.threshold == 0
    with pytest.raises(DomainError):
        sparse_from_bits((), 0, ())
    with pytest.raises(DomainError):
        sparse_from_bits((), 2, (True,))


def test_upset_membership_and_classes():
    fancy = sparse_from_bits((True, False, False, True), 3, (False, True, False))
    members = [n for n in range(12) if n in fancy]
    assert members == [0, 3, 4, 7, 10]
    assert UPSet.from_finite([1, 3]).is_finite
    assert UPSet.from_cofinite([2]).is_cofinite
    assert not UPSet.multiples_of(2).is_finite
    assert not UPSet.multiples_of(2).is_cofinite


def test_subset_star_examples():
    anything = UPSet.multiples_of(3)
    assert subset_star(UPSet.from_finite([1, 3]), anything)
    evens, odds = UPSet.multiples_of(2), sparse_from_bits((), 2, (False, True))
    assert not subset_star(evens, odds)
    assert subset_star(evens, evens)


def test_subset_star_is_a_preorder():
    sets = [
        UPSet.from_finite([]),
        UPSet.from_finite([0, 4]),
        UPSet.from_cofinite([1]),
        UPSet.multiples_of(2),
        UPSet.multiples_of(4),
        UPSet.multiples_of(6),
        sparse_from_bits((), 2, (False, True)),
        sparse_from_bits((True, True), 3, (True, False, False)),
    ]
    for a in sets:
        assert subset_star(a, a)
    for a, b, c in itertools.product(sets, repeat=3):
        if subset_star(a, b) and subset_star(b, c):
            assert subset_star(a, c)


def test_subset_star_ignores_finite_perturbation():
    evens = UPSet.multiples_of(2)
    perturbed = sparse_from_bits((False, False, True, True, True), 2, (True, False))
    # drop 0 and 2, add 3: still the evens modulo a finite set
    for other in (UPSet.multiples_of(4), UPSet.multiples_of(2), sparse_from_bits((), 2, (False, True))):
        assert subset_star(evens, other) == subset_star(perturbed, other)
        assert subset_star(other, evens) == subset_star(other, perturbed)


def test_set_difference_classification():
    finite, elements = set_difference(UPSet.multiples_of(4), UPSet.multiples_of(2))
    assert finite and elements == ()
    finite, elements = set_difference(UPSet.multiples_of(2), UPSet.multiples_of(4))
    assert not finite
    assert list(elements)[:3] == [2, 6, 10]
    grown = sparse_from_bits((False, True, True, True), 2, (True, False))
    finite, elements = set_difference(grown, UPSet.multiples_of(2))
    assert finite and elements == (1, 3)


# -- Family ---------------------------------------------------------------------

def test_family_invariants():
    Family.default()
    with pytest.raises(DomainError):
        Family(SupernaturalProfile.all_omega(), SupernaturalProfile.all_omega())
    with pytest.raises(DomainError):
        Family(SupernaturalProfile({2: OMEGA}), SupernaturalProfile({3: OMEGA}))
    with pytest.raises(DomainError):
        # q caps prime 2 at 1 while p needs infinitely many of them
        Family(SupernaturalProfile({2: OMEGA}), SupernaturalProfile({2: 1}, OMEGA))


def test_d_enumeration_examples():
    fam = Family.default()
    assert fam.d_terms(4) == (3, 5, 7, 11)
    assert fam.d_terms(0) == ()
    capped = Family(
        SupernaturalProfile({2: OMEGA, 3: 4}), SupernaturalProfile.all_omega()
    )
    assert capped.d_terms(3) == (3, 5, 7)
    # 65537 lies inside a chunk of the prime walk, not at its start
    skips = Family(SupernaturalProfile({2: OMEGA, 65537: OMEGA}), SupernaturalProfile.all_omega())
    expected = [p for p in sympy.primerange(0, 80_000) if p not in (2, 65537)][:7000]
    assert expected[-1] > 65537 and skips.d_terms(7000) == tuple(expected)


# p's 3 is a d-prime that base(P) holds, and 2 and 5 are no d-primes
_BASE_HOLDS_D = Family(SupernaturalProfile({2: OMEGA, 3: 1, 5: OMEGA}), SupernaturalProfile({7: 2}, OMEGA))


@pytest.mark.parametrize("family", [
    Family.default(),
    _BASE_HOLDS_D,
    # 65537 lies inside the second chunk of the prime table, so that run is cut
    Family(SupernaturalProfile({2: OMEGA, 65537: OMEGA}), SupernaturalProfile.all_omega()),
])
@pytest.mark.parametrize("offset", [0, 1])
def test_d_layers_are_every_third_d_prime(family, offset):
    # 8,000 entries of a layer pass 24,000 d-primes and the first three chunk boundaries
    n = 8000
    expected = list(itertools.islice(family._d_walk(), offset, 3 * n, 3))
    assert list(itertools.islice(family._d_layer(offset), n)) == expected


@pytest.mark.parametrize("lo", [SIEVE_CAP - 300, 2**32 - 300])
@pytest.mark.parametrize("offset", [0, 1, 2])
def test_every_third_carries_its_offset_across_the_runs_of_the_prime_walk(lo, offset):
    # below the cap: a stored chunk's tail, then spans sieved past it; below
    # 2^32: the last sieved span's tail, then the endless run of isprime tests
    expected = itertools.islice(itertools.chain.from_iterable(farprimes._prime_chunks(lo)), offset, offset + 150, 3)
    assert list(itertools.islice(farprimes._every_third(farprimes._prime_chunks(lo), offset), 50)) == list(expected)


def test_d_enumeration_tests_no_prime(isprime_calls):
    assert len(Family.default().d_terms(1000)) == 1000
    assert isprime_calls == []


def test_concurrent_d_enumeration_agrees_with_a_serial_run_across_sieve_growths(fresh_sieve):
    serial = Family.default().d_terms(50_000)
    assert serial[:4] == (3, 5, 7, 11)
    # from a fresh sieve, the d_50000 near 612,000 lies in the tenth chunk of
    # the prime table, and mixed sizes contend for every chunk on the way
    fresh_sieve()
    sizes = [1, 50_000, 7, 4_097, 31_000, 200, 12_345, 49_999, 3, 20_000, 8_192, 40_000] * 3
    fam = Family.default()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fam.d_terms, sizes))
    finally:
        sys.setswitchinterval(switch)
    assert results == [serial[:k] for k in sizes]
    # every chunk of the prime table, each stored once by one of the threads,
    # holds exactly the primes of its range
    chunks = primes._SIEVE.chunks
    assert sorted(chunks) == [*range(0, serial[-1], 2**16)]
    for lo, chunk in chunks.items():
        assert list(chunk) == list(sympy.primerange(lo, lo + 2**16)), lo


def test_a_repeated_member_sequence_builds_no_new_chunk_of_the_prime_table(fresh_sieve):
    fresh_sieve()
    evens = MemberRef(Family.default(), UPSet.multiples_of(2))
    first = member_sequence(evens, 10_000)
    built = dict(primes._SIEVE.chunks)
    assert len(built) > 1  # past the first chunk
    assert member_sequence(evens, 10_000) == first
    assert primes._SIEVE.chunks.keys() == built.keys()
    assert all(primes._SIEVE.chunks[lo] is chunk for lo, chunk in built.items())


def test_member_sequence_of_a_sparse_complement_holds_no_d_prime_back():
    # A, the non-multiples of 100: A-layer entry k is d_{1+3c} for the k-th
    # multiple c of 100, so that layer runs far ahead of P_0'
    member = MemberRef(Family.default(), UPSet(100, frozenset(range(1, 100))))
    expected = member_sequence(member, 3000)  # builds the chunks of the prime table it reaches
    tracemalloc.start()
    try:
        assert member_sequence(member, 3000) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("a, first_outside", [(UPSet.multiples_of(2**40), 1), (UPSet.from_finite([10**30]), 0)])
def test_member_sequence_of_a_far_rule_or_flip_in_small_memory(a, first_outside):
    # up to 20,000 terms, the non-members of A are the naturals from
    # first_outside on: A-layer entry k is d_{1+3(first_outside+k)}
    n = 20_000
    d = list(sympy.primerange(3, 400_000))  # the default family's d-primes: every odd prime
    inner = [d[3 * (j // 2)] if j % 2 == 0 else 2 for j in range(n // 2)]
    expected = tuple(itertools.chain.from_iterable(
        (d[1 + 3 * (first_outside + k)], inner[k]) for k in range(n // 2)))
    member = MemberRef(Family.default(), a)
    Family.default().d_terms(3 * n)  # builds the chunks of the prime table the walk reaches
    tracemalloc.start()
    try:
        assert member_sequence(member, n) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("a, b", [
    (UPSet.from_finite([10**19]), UPSet()),  # a finite surplus
    (UPSet.multiples_of(2**70), UPSet.from_finite([0])),  # an infinite one, from 2^70 on
    (UPSet.from_finite([10**9]), UPSet()),  # d_{3*10^9+1}, far past 2^32
])
def test_crosscheck_refuses_a_surplus_element_past_sys_maxsize(a, b):
    fam = Family.default()
    with pytest.raises(DomainError, match=r"past the 203280220 d-primes below 2\^32"):
        member_crosscheck(MemberRef(fam, a), MemberRef(fam, b), 10)


def test_crosscheck_budget_counts_the_d_primes_below_2_32(monkeypatch):
    # pi(2^32) = 203,280,221, less the excluded primes below 2^32; 4294967311
    # is the least prime past 2^32 and costs the budget nothing
    assert posetlab._d_budget(Family.default()) == 203_280_220  # 2 is excluded
    far = Family(SupernaturalProfile({2: OMEGA}), SupernaturalProfile({13: 0, 4294967311: 0}, OMEGA))
    assert far._not_d() == {2, 13, 4294967311} and posetlab._d_budget(far) == 203_280_219

    class Walked(Exception):
        pass

    def no_walk(items, positions):
        raise Walked(positions)

    monkeypatch.setattr(posetlab, "_at_positions", no_walk)
    fam, c = Family.default(), (203_280_220 - 1) // 3  # d-index 1 + 3c = 203,280,220, the budget
    with pytest.raises(DomainError, match=f"holds {c}: d-index 203280220 is past"):
        member_crosscheck(MemberRef(fam, UPSet.from_finite([2, c])), MemberRef(fam, UPSet()), 10)
    with pytest.raises(Walked):  # d-index 203,280,217 is inside the budget, so the walk starts
        member_crosscheck(MemberRef(fam, UPSet.from_finite([2, c - 1])), MemberRef(fam, UPSet()), 10)


@pytest.mark.parametrize("bad", [-1, True, False, 2.0, "3", None])
def test_d_enumeration_rejects_an_index_that_is_no_natural(bad):
    fresh, used = Family.default(), Family.default()
    used.d_terms(5)
    for fam in (fresh, used):
        with pytest.raises(DomainError):
            fam.d_terms(bad)


def test_member_terms_need_no_nextprime_call_below_the_sieve_cap(monkeypatch):
    def walk(fam):
        evens = MemberRef(fam, UPSet.multiples_of(2))
        mult4 = MemberRef(fam, UPSet.multiples_of(4))
        return member_sequence(evens, 10_000), member_crosscheck(evens, mult4, 1000)

    expected = walk(Family.default())

    def no_call(n):
        raise AssertionError(f"nextprime({n}) called")

    monkeypatch.setattr(farprimes, "nextprime", no_call)
    monkeypatch.setattr(posetlab, "nextprime", no_call)
    assert walk(Family.default()) == expected


# -- member sequences -------------------------------------------------------------

def test_member_sequence_cofinite_against_sieve_oracle():
    fam = Family.default()
    cofinite = UPSet.from_cofinite([0, 5])
    got = member_sequence(MemberRef(fam, cofinite), 4)
    assert list(got) == _oracle_member_prefix(lambda n: n not in (0, 5), 4, [2] * 4, {2})
    assert got == (3, 2, 11, 2)


def test_member_sequence_longer_prefixes_match_oracle():
    default = (Family.default(), [2] * 60, {2})
    # the family-new golden family: base 5, 5, 3, 3, ...; 3 is no d-prime
    other = (
        Family(SupernaturalProfile({3: OMEGA, 5: 2}), SupernaturalProfile({2: 4}, OMEGA)),
        [5, 5] + [3] * 58,
        {3},
    )
    cases = [
        (default, UPSet.multiples_of(2), lambda n: n % 2 == 0),
        (default, UPSet.multiples_of(4), lambda n: n % 4 == 0),
        (default, sparse_from_bits((), 2, (False, True)), lambda n: n % 2 == 1),
        (default, UPSet.from_cofinite([]), lambda n: True),
        (other, UPSet.multiples_of(3), lambda n: n % 3 == 0),
    ]
    for (fam, base, skipped), ups, membership in cases:
        got = member_sequence(MemberRef(fam, ups), 60)
        assert list(got) == _oracle_member_prefix(membership, 60, base, skipped)


def test_member_sequence_edges():
    fam = Family.default()
    member = MemberRef(fam, UPSet.multiples_of(2))
    assert member_sequence(member, 0) == ()
    with pytest.raises(DomainError):
        member_sequence(member, -1)
    with pytest.raises(DomainError):
        MemberRef(fam, UPSet.multiples_of(2), power=0)


def test_member_sequence_terms_prime_and_star_layer_exact():
    from sympy import isprime

    fam = Family.default()
    evens = UPSet.multiples_of(2)
    terms = member_sequence(MemberRef(fam, evens), 120)
    assert all(isprime(t) for t in terms)
    d = fam.d_terms(1 + 3 * 119 + 1)
    expected_star = tuple(d[1 + 3 * c] for c in range(1, 120, 2))
    assert terms[0::2] == expected_star
    cof = UPSet.from_cofinite([1])
    inner_terms = member_sequence(MemberRef(fam, cof), 120)
    assert inner_terms[0::2] == d[0:180:3]


def _layer_corpus() -> list:
    """80 seeded finite, cofinite and ``ups{...}`` sets with flips."""
    rng = random.Random(20261020)

    def upset():
        roll = rng.random()
        if roll < 0.2:
            return UPSet.from_cofinite(rng.sample(range(12), rng.randrange(4)))
        if roll < 0.4:
            return UPSet.from_finite(rng.sample(range(60), rng.randrange(6)))
        period = rng.randrange(1, 7)
        word = "".join(rng.choice("01") for _ in range(period))
        start = rng.randrange(25)
        flips = ",".join(map(str, sorted(rng.sample(range(start), min(start, rng.randrange(4))))))
        listed = f"except={flips}; " if flips else ""
        return parse_upset(f"ups{{{listed}from={start}; period={period}; word={word}}}")

    return [upset() for _ in range(80)]


@pytest.mark.parametrize("family", [
    Family.default(),
    # base(P) is 3, 3, 5, 5, 5, ...: two primes, and 3 is a d-prime too
    Family(SupernaturalProfile({3: 2, 5: OMEGA}), SupernaturalProfile.all_omega()),
])
def test_layer_windows_equal_the_zip_interleave(family):
    rng, corpus = random.Random(7), _layer_corpus()
    assert all(any(map(kind, corpus)) for kind in (
        UPSet.is_finite.fget, UPSet.is_cofinite.fget, lambda a: a.flips and not (a.is_finite or a.is_cofinite)))
    for a in corpus:
        m = MemberRef(family, a)
        n = rng.randrange(1, 160)
        assert member_sequence(m, n) == tuple(itertools.islice(reference.member_terms(m), n)), a
        ends = (0, 1, 2, 3, n, n + 1)
        windows = {(drop, end) for end in ends for drop in (0, end, end // 2, max(end - 5, 0)) if drop <= end}
        assert {drop % 2 for drop, end in windows if drop < end} == {0, 1}
        for (drop, end), tagged in itertools.product(windows, (False, True)):
            assert posetlab._layer_window(m, drop, end, tagged) == reference.layer_window(m, drop, end, tagged), (
                a, drop, end, tagged)


def test_a_finite_total_base_refuses_a_layer_window_as_the_zip_interleave_does():
    m = MemberRef(Family(SupernaturalProfile({2: 3}), SupernaturalProfile.all_omega()), UPSet.multiples_of(2))
    with pytest.raises(DomainError) as expected:
        list(itertools.islice(reference.member_terms(m), 4))
    for call in (lambda: member_sequence(m, 4), lambda: posetlab._layer_window(m, 0, 4)):
        with pytest.raises(DomainError) as refused:
            call()
        assert str(refused.value) == str(expected.value)
    assert member_sequence(m, 0) == ()


# -- member order ------------------------------------------------------------------

def test_member_reduces_examples():
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    odds = MemberRef(fam, sparse_from_bits((), 2, (False, True)))
    mult4 = MemberRef(fam, UPSet.multiples_of(4))
    padded = MemberRef(fam, sparse_from_bits((False, True, True, True, False, True), 2, (True, False)))
    assert member_reduces(mult4, evens)
    assert not member_reduces(evens, odds)
    assert not member_reduces(odds, evens)
    assert member_reduces(evens, padded)  # evens minus (evens plus {1,3,5}) is empty


def test_member_reduces_requires_matching_family_and_power():
    fam = Family.default()
    other = Family(
        SupernaturalProfile({2: OMEGA, 3: OMEGA}), SupernaturalProfile.all_omega()
    )
    a = MemberRef(fam, UPSet.multiples_of(2))
    with pytest.raises(DomainError):
        member_reduces(a, MemberRef(other, UPSet.multiples_of(2)))
    with pytest.raises(DomainError):
        member_reduces(a, MemberRef(fam, UPSet.multiples_of(2), power=2))


_EVENS = MemberRef(Family.default(), UPSet.multiples_of(2))

# each call with a count that is no natural number, or below the least the
# entry point allows, or a member built from no family or no set, and the
# message it raises
_BAD_COUNTS = [
    (lambda: member_sequence(_EVENS, 2.5), "term count must be nonnegative, got 2.5"),
    (lambda: member_sequence(_EVENS, -1), "term count must be nonnegative, got -1"),
    (lambda: member_crosscheck(_EVENS, _EVENS, 2.5), "window must be positive, got 2.5"),
    (lambda: member_crosscheck(_EVENS, _EVENS, window=True), "window must be positive, got True"),
    (lambda: member_crosscheck(_EVENS, _EVENS, 0), "window must be positive, got 0"),
    (lambda: chain_demo(Family.default(), 2.5), "chain depth must be >= 2, got 2.5"),
    (lambda: chain_demo(Family.default(), 1), "chain depth must be >= 2, got 1"),
    (lambda: MemberRef(Family.default(), UPSet(), power=True), "member power must be >= 1, got True"),
    (lambda: MemberRef(Family.default(), UPSet(), power=2.5), "member power must be >= 1, got 2.5"),
    (lambda: MemberRef(Family.default(), UPSet(), power=0), "member power must be >= 1, got 0"),
    (lambda: MemberRef(Family.default(), "x"), "member set must be a UPSet, got 'x'"),
    (lambda: MemberRef("f", UPSet()), "member family must be a Family, got 'f'"),
]


@pytest.mark.parametrize("call, message", _BAD_COUNTS, ids=[message for _, message in _BAD_COUNTS])
def test_entry_points_refuse_counts_that_are_no_natural_number(call, message):
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message


def test_member_strictness_transfers():
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    mult4 = MemberRef(fam, UPSet.multiples_of(4))
    assert member_reduces(mult4, evens) and not member_reduces(evens, mult4)


# -- crosscheck ---------------------------------------------------------------------

def test_crosscheck_antichain():
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    odds = MemberRef(fam, sparse_from_bits((), 2, (False, True)))
    report = member_crosscheck(evens, odds, 100)
    assert report.consistent
    assert not report.verdict
    assert not report.surplus_finite
    # the first surplus prime, d_1 = 5, opens the odds' sequence and the evens' never holds it
    assert report.replay == Replay(0, 1, None, 5, 1)
    assert len(report.surplus_primes) == 8  # a sample of the infinite surplus


def test_crosscheck_inclusion():
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    mult4 = MemberRef(fam, UPSet.multiples_of(4))
    report = member_crosscheck(mult4, evens, 100)
    assert report.consistent and report.verdict
    assert report.surplus_finite and report.surplus_primes == ()
    assert (report.replay.drop, report.replay.end) == (0, 100) and report.replay.prefix is not None


def test_crosscheck_identical_member():
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    report = member_crosscheck(evens, evens, 60)
    assert report.consistent and report.verdict
    # the same sequence on both sides: the window is its own shortest covering prefix
    assert report.replay == Replay(0, 60, 60)


def test_crosscheck_finite_nonzero_surplus_needs_a_drop():
    fam = Family.default()
    bigger = MemberRef(fam, sparse_from_bits((True, True), 2, (True, False)))  # evens plus {1}
    evens = MemberRef(fam, UPSet.multiples_of(2))
    report = member_crosscheck(bigger, evens, 80)
    assert report.verdict and report.surplus_primes == fam.d_terms(5)[4:]
    assert report.consistent
    # d_4 = d_{1+3*1} opens the evens' sequence (1 is their first non-member), so the drop is 1
    assert report.replay.drop == 1 and report.replay.prefix is not None


def test_crosscheck_fuzz_never_inconsistent(rng):
    fam = Family.default()
    for _ in range(25):
        def random_ups():
            threshold = rng.randrange(0, 6)
            period = rng.randrange(1, 7)
            word = tuple(rng.random() < 0.5 for _ in range(period))
            if not any(word):
                word = word[:-1] + (True,)  # keep the set infinite
            return sparse_from_bits(
                tuple(rng.random() < 0.5 for _ in range(threshold)),
                period,
                word,
            )

        m_a = MemberRef(fam, random_ups())
        m_b = MemberRef(fam, random_ups())
        report = member_crosscheck(m_a, m_b, 200)
        assert report.consistent, (m_a.a, m_b.a, report)



# the crosschecks that the drop ladder reported INCONSISTENT, with the window
# each needs: the first surplus-free window starts after the target's
# last surplus prime d_{1+3*499} at 2*499, and the first surplus prime of
# the second, d_{1+3*3000}, sits at twice 3000's rank among the
# non-multiples of 2999; the third has no surplus, but the source holds
# the target's primes d_{1+300k} only at 200k
_ONCE_INCONSISTENT = (
    (UPSet.from_finite(range(500)), UPSet(), 100, 1000),
    (UPSet.multiples_of(3000), UPSet.multiples_of(2999), 5000, 5997),
    (UPSet(), UPSet(100, frozenset(range(1, 100))), 100, None),
)


@pytest.mark.parametrize("a, b, window, needs", _ONCE_INCONSISTENT)
def test_crosschecks_the_drop_ladder_called_inconsistent(a, b, window, needs):
    fam = Family.default()
    m_a, m_b = MemberRef(fam, a), MemberRef(fam, b)
    report = member_crosscheck(m_a, m_b, window)
    assert report.consistent and report.replay.needs_window == needs
    if needs is not None:
        assert member_crosscheck(m_a, m_b, needs - 1).replay.needs_window == needs
        report = member_crosscheck(m_a, m_b, needs)
        assert report.consistent and report.replay.needs_window is None


@pytest.mark.parametrize("window", [1, 1000])
def test_a_verdict_the_symbols_contradict_is_inconsistent(monkeypatch, window):
    fam = Family.default()
    pairs = [(a, b) for a, b, _, _ in _ONCE_INCONSISTENT]
    pairs += [(UPSet.multiples_of(4), UPSet.multiples_of(2)), (UPSet.multiples_of(2), UPSet.multiples_of(4))]
    monkeypatch.setattr(posetlab, "member_reduces", lambda m_a, m_b, _reduces=member_reduces: not _reduces(m_a, m_b))
    start = time.perf_counter()
    for a, b in pairs:
        report = member_crosscheck(MemberRef(fam, a), MemberRef(fam, b), window)
        assert not report.consistent and report.verdict != subset_star(a, b)
        assert report.notes[0] == "symbolic surplus finiteness disagrees with the verdict"
        # a replay that ran contradicts the flipped verdict too
        assert len(report.notes) == (1 if report.replay.needs_window is not None else 2)
    assert time.perf_counter() - start < 2.0


@st.composite
def _families(draw):
    """A valid family over a small prime pool; base(P) holds d-primes when
    p's finite primes are below q's multiplicities there."""
    omega = draw(st.lists(st.sampled_from(PRIME_POOL), unique=True, min_size=1, max_size=2))
    rest = [g for g in PRIME_POOL if g not in omega]
    finite = draw(st.lists(st.sampled_from(rest), unique=True, max_size=2))
    capped = draw(st.lists(st.sampled_from(rest), unique=True, max_size=2))
    p = SupernaturalProfile({**dict.fromkeys(omega, OMEGA), **{g: draw(st.integers(1, 3)) for g in finite}})
    return Family(p, SupernaturalProfile({g: draw(st.integers(0, 4)) for g in capped}, OMEGA))


@st.composite
def _upsets(draw):
    """Finite, cofinite and periodic sets with a few flips."""
    period = draw(st.integers(1, 6))
    word = draw(st.lists(st.booleans(), min_size=period, max_size=period))
    return sparse_from_bits(draw(st.lists(st.booleans(), max_size=8)), period, word)


@given(_families(), _upsets())
@settings(max_examples=150, deadline=None)
def test_member_layout_locates_every_walked_term(family, a):
    member = MemberRef(family, a)
    terms = member_sequence(member, 300)
    primes = set(terms) | {g for g, _ in family.p.exceptions}
    layout = posetlab._MemberLayout(member, replay._ranks(family._d_walk(), primes))
    for gamma in primes:
        walked = reference.occurrences(terms, gamma)
        assert [layout.position(gamma, k) for k in range(1, len(walked) + 1)] == walked
        beyond = layout.position(gamma, len(walked) + 1)
        assert beyond is None or beyond >= len(terms)


@given(_families(), _upsets(), _upsets(), st.integers(1, 120))
@settings(max_examples=80, deadline=None)
def test_crosscheck_replay_agrees_with_the_walked_sequences(family, a, b, window):
    m_a, m_b = MemberRef(family, a), MemberRef(family, b)
    report = member_crosscheck(m_a, m_b, window)
    assert report.consistent, report
    replay, target = report.replay, member_sequence(m_b, 2000)
    source = member_sequence(m_a, 6000)
    if report.surplus_finite:
        carried = {s: 1 for s in report.surplus_primes if s in target}
        assert replay.drop == reference.covering_prefix_length(target, carried)
        if replay.needs_window is not None:
            assert replay.needs_window == replay.drop + 1 > window
            return
        assert replay.end == window
        walked = reference.member_replay_prefix(source, target, replay.drop, replay.end, len(source))
        assert replay.prefix == walked or (walked is None and replay.prefix > len(source))
    else:
        witness, needed = replay.witness, replay.needed
        assert witness == report.surplus_primes[0] and source.count(witness) == needed - 1
        end = reference.covering_prefix_length(target, {witness: needed})
        assert (replay.end, replay.needs_window) == (end, end if window < end else None)
        if replay.needs_window is None:
            assert replay.prefix is None


def _crosscheck_corpus() -> list:
    """300 seeded (family, A, B, window) cases: sets with flips, finite and
    cofinite ones on either side, windows from 1 term, and two families
    whose base(P) holds d-primes."""
    rng = random.Random(20261019)
    families = [
        Family.default(),
        _BASE_HOLDS_D,
        Family(SupernaturalProfile({2: OMEGA, 3: 2, 11: 1}), SupernaturalProfile({13: 0}, OMEGA)),
    ]

    def upset():
        roll = rng.random()
        if roll < 0.15:
            return UPSet.from_cofinite(rng.sample(range(10), rng.randrange(4)))
        if roll < 0.25:
            return UPSet.from_finite(rng.sample(range(40), rng.randrange(6)))
        period = rng.randrange(1, 7)
        word = tuple(rng.random() < 0.5 for _ in range(period))
        return sparse_from_bits(tuple(rng.random() < 0.5 for _ in range(rng.randrange(9))), period, word)

    return [(rng.choice(families), upset(), upset(), rng.choice((1, 2, 3, 7, 40, 150))) for _ in range(300)]


def test_crosscheck_reports_equal_the_walked_oracle():
    seen = Counter()
    for family, a, b, window in _crosscheck_corpus():
        m_a, m_b = MemberRef(family, a), MemberRef(family, b)
        report = member_crosscheck(m_a, m_b, window)
        assert report == reference.member_crosscheck(m_a, m_b, window, 4000), (family, a, b, window)
        seen["cofinite target"] += b.is_cofinite
        seen["flips"] += bool(a.flips and b.flips)
        seen["window shorter than the drop"] += report.surplus_finite and report.replay.needs_window is not None
        seen["base(P) holds d-primes"] += bool({g for g, _ in family.p.exceptions} - family._not_d())
        seen["refuted"] += not report.verdict and report.replay.needs_window is None
    assert len(seen) == 5 and all(seen.values()), seen


def test_crosscheck_counts_the_source_at_a_few_positions(monkeypatch):
    calls = []

    def position(layout, gamma, k, _position=posetlab._MemberLayout.position):
        calls.append(gamma)
        return _position(layout, gamma, k)

    monkeypatch.setattr(posetlab._MemberLayout, "position", position)
    fam = Family.default()
    report = member_crosscheck(MemberRef(fam, UPSet.multiples_of(4)), MemberRef(fam, UPSet.multiples_of(2)), 10**5)
    assert report.consistent and report.replay == Replay(0, 10**5, 149_999)
    # base(P)'s one prime, 2, and the last prime of each d-layer in the
    # window, not one call per distinct prime of the window
    assert len(calls) <= 3, len(calls)


def _terms_made(monkeypatch, run):
    """``run()`` and the number of items it drew from the streams member
    sequences are made of: d-primes picked at positions (the surplus
    primes), bits of a set's mask (which pick the P_A' layer) and
    base-sequence terms."""
    made = [0]

    def at_positions(items, positions, _at_positions=posetlab._at_positions):
        for term in _at_positions(items, positions):
            made[0] += 1
            yield term

    def outside_mask(upset, _outside_mask=UPSet._outside_mask):
        for bit in _outside_mask(upset):
            made[0] += 1
            yield bit

    def canonical_terms(p, start=0, _canonical_terms=posetlab.canonical_terms):
        for term in _canonical_terms(p, start):
            made[0] += 1
            yield term

    with monkeypatch.context() as patch:
        patch.setattr(posetlab, "_at_positions", at_positions)
        patch.setattr(UPSet, "_outside_mask", outside_mask)
        patch.setattr(posetlab, "canonical_terms", canonical_terms)
        result = run()
    return result, made[0]


def test_crosscheck_makes_each_member_sequence_once(monkeypatch):
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    odds = MemberRef(fam, sparse_from_bits((), 2, (False, True)))
    report, made = _terms_made(monkeypatch, lambda: member_crosscheck(evens, odds, 1000))
    assert report.consistent and report.replay.prefix is None
    # the target's prefix up to its first surplus prime, and the surplus primes
    # shown; the source's sequence is counted, not made
    _, needed = _terms_made(monkeypatch, lambda: member_sequence(odds, report.replay.end))
    assert made == needed + len(report.surplus_primes)


def test_crosscheck_succeeding_at_drop_zero_walks_only_the_target_window(monkeypatch):
    fam = Family.default()
    evens = MemberRef(fam, UPSet.multiples_of(2))
    mult4 = MemberRef(fam, UPSet.multiples_of(4))
    report, made = _terms_made(monkeypatch, lambda: member_crosscheck(mult4, evens, 100))
    assert report.replay.drop == 0 and report.surplus_primes == ()
    _, needed = _terms_made(monkeypatch, lambda: member_sequence(evens, 100))
    assert made == needed


# -- sandwich property ------------------------------------------------------------------

def test_member_sandwich_between_q_and_p():
    """Each member sits strictly between the family's endpoints, witnessed at
    the surplus/deficit-set level."""
    fam = Family.default()
    member = MemberRef(fam, UPSet.multiples_of(2))
    prefix = member_sequence(member, 400)

    # below P strictly: the member carries infinitely many primes P lacks;
    # its star layer is injective, and none of those primes occur in P at all
    star = prefix[0::2]
    assert len(set(star)) == len(star)
    assert all(fam.p.multiplicity(gamma) == 0 for gamma in set(star))
    # above Q strictly: Q has full multiplicity at primes the member never
    # uses (d-indices congruent to 2 mod 3 are reserved and never selected)
    unused = fam.d_terms(3)[2]
    assert fam.q.multiplicity(unused) is OMEGA
    assert unused not in prefix
    # the reductions themselves: Q's base embeds into the member sequence
    # (2s recur forever) and the member's terms are all in Q's support
    assert prefix.count(2) >= 90
    assert all(fam.q.multiplicity(gamma) is OMEGA for gamma in set(prefix))
    assert oracle_injection([2] * 50, prefix)
