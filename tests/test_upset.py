"""Sparse ultimately periodic sets against the dense reference, and the
poset lab at the scale of its caps."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest

from borelcmp.cli import EXIT_OK, main
from borelcmp.errors import DomainError
from borelcmp.literals import parse_upset, render_upset
from borelcmp.posetlab import UPSet, set_difference, subset_star

import upset_reference as reference


def _random_spec(rng: random.Random):
    """(except list, threshold, period, word) of an ``ups{...}`` literal."""
    threshold = rng.randrange(0, 13)
    period = 2 ** rng.randrange(0, 13) if rng.random() < 0.15 else rng.randrange(1, 25)
    roll = rng.random()
    if roll < 0.15:
        word = (False,) * period
    elif roll < 0.3:
        word = (True,) * period
    elif roll < 0.5:  # a repeated shorter word, so the period shrinks
        d = rng.choice([d for d in range(1, period + 1) if period % d == 0])
        word = tuple(rng.random() < 0.5 for _ in range(d)) * (period // d)
    else:
        density = rng.random()
        word = tuple(rng.random() < density for _ in range(period))
    members = sorted(rng.sample(range(threshold), rng.randrange(0, threshold + 1)))
    return members, threshold, period, word


def _related_spec(rng: random.Random, spec):
    """A spec whose periodic rule has a multiple of ``spec``'s period (the
    same one past 24) and contains its rule, then loses one residue half of
    the time, so that almost inclusion between the two goes either way."""
    _, _, period, word = spec
    longer = period * rng.choice((1, 2, 3)) if period <= 24 else period
    grown = [word[r % period] or rng.random() < 0.3 for r in range(longer)]
    if rng.random() < 0.5:
        grown[rng.randrange(longer)] = False
    threshold = rng.randrange(0, 13)
    members = sorted(rng.sample(range(threshold), rng.randrange(0, threshold + 1)))
    return members, threshold, longer, tuple(grown)


def _literal(members, threshold, period, word) -> str:
    listed = "except=" + ",".join(map(str, members)) + "; " if members else ""
    bits = "".join("1" if bit else "0" for bit in word)
    return f"ups{{{listed}from={threshold}; period={period}; word={bits}}}"


def _specs() -> list:
    """2,500 random specs, each followed by a related one."""
    rng = random.Random(20261018)
    specs = []
    for _ in range(2500):
        spec = _random_spec(rng)
        specs += [spec, _related_spec(rng, spec)]
    return specs


def test_sparse_upset_matches_dense_reference():
    sets = []
    for spec in _specs():
        members, threshold, period, word = spec
        bits = tuple(n in members for n in range(threshold))
        dense = reference.DenseUPSet(bits, period, word, threshold)
        sparse = UPSet.from_membership(bits, period, word)
        assert parse_upset(_literal(*spec)) == sparse
        # the same set with twice the period and a longer threshold
        ruled = tuple(word[n % period] for n in range(threshold, threshold + 2 * period))
        twin = UPSet.from_membership(bits + ruled, 2 * period, word * 2)
        assert twin == sparse and hash(twin) == hash(sparse)
        assert (sparse.period, sparse.threshold) == (dense.period, dense.threshold)
        assert (sparse.exceptional, sparse.word) == (dense.exceptional, dense.word)
        prefix = range(3 * (dense.threshold + dense.period))
        assert [n in sparse for n in prefix] == [n in dense for n in prefix]
        assert (sparse.is_finite, sparse.is_cofinite) == (dense.is_finite, dense.is_cofinite)
        if not dense.is_cofinite:
            outside = itertools.compress(itertools.count(), sparse._outside_mask())
            assert tuple(itertools.islice(outside, 60)) == dense.complement_members(60)
        assert sparse.members_below(40) == dense.members_below(40)
        span = min(3 * (dense.threshold + dense.period), 200)
        below = list(itertools.accumulate(map(dense.__contains__, range(span)), initial=0))
        assert [sparse.count_below(n) for n in range(span + 1)] == below
        assert sparse.members_below(span) == dense.members_below(span)
        assert render_upset(sparse) == reference.render_upset(dense)
        sets.append((sparse, dense))
    for (a, dense_a), (b, dense_b) in zip(sets, sets[1:] + sets[:1]):
        assert (a == b) == (dense_a == dense_b)
        if a == b:
            assert hash(a) == hash(b)
        assert subset_star(a, b) == reference.subset_star(dense_a, dense_b)
        assert subset_star(b, a) == reference.subset_star(dense_b, dense_a)
        assert set_difference(a, b) == reference.set_difference(dense_a, dense_b)



@pytest.mark.parametrize("a, b, expected", [
    # b's non-members, one residue mod 10^5, are the sparser side
    (UPSet.from_cofinite(()), UPSet(10**5, range(10**5 - 1)), [k * 10**5 + 10**5 - 1 for k in range(8)]),
    # a's members are
    (UPSet.multiples_of(10**5), UPSet(2, frozenset({1})), [k * 10**5 for k in range(8)]),
])
def test_set_difference_draws_from_the_sparser_side(monkeypatch, a, b, expected):
    calls = []

    def contains(upset, n, _contains=UPSet.__contains__):
        calls.append(n)
        return _contains(upset, n)

    monkeypatch.setattr(UPSet, "__contains__", contains)
    assert set_difference(a, b) == (False, tuple(expected))
    assert calls == expected  # one membership test per element drawn


@pytest.mark.parametrize(
    "upset",
    [
        UPSet.multiples_of(1000),
        UPSet(300, frozenset(range(100, 250)), frozenset({5, 120, 640, 1999})),
        UPSet(7, frozenset({1, 2, 3, 5}), frozenset({2, 4, 9, 30})),
    ],
)
def test_ascending_matches_membership(upset):
    expected = [n for n in range(5000) if n in upset]
    assert list(itertools.takewhile((5000).__gt__, upset.ascending())) == expected
    assert upset.members_below(5000) == tuple(expected)
    assert upset.count_below(-5) == 0  # no member lies below a negative bound


@pytest.mark.parametrize(
    "upset, first",
    [
        (UPSet.multiples_of(2**40), [k * 2**40 for k in range(5)]),
        (UPSet.from_finite([10**30]), [10**30]),
        (UPSet.from_cofinite([3, 10**30]), [0, 1, 2, 4, 5]),
    ],
)
def test_ascending_of_a_far_rule_or_flip_takes_one_step_per_member(upset, first):
    # a period of 2^40 and flips past sys.maxsize: the walk passes no
    # natural between two members and stores nothing per position
    tracemalloc.start()
    try:
        assert list(itertools.islice(upset.ascending(), 5)) == first
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_mask_matches_membership():
    # the random specs, then spans of 999, 150 and 150 residues (one repeat each)
    sets = [UPSet.from_membership([n in members for n in range(threshold)], period, word)
            for members, threshold, period, word in _specs()]
    sets += [UPSet.multiples_of(1000), UPSet(300, frozenset(range(100, 250)), frozenset({5, 120, 640, 1999}))]
    for upset in sets:
        span = range(upset.threshold + 2 * upset.period)
        expected = [n not in upset for n in span]
        assert list(itertools.islice(upset._outside_mask(), len(span))) == expected, upset


@pytest.mark.parametrize("upset, members_below", [(UPSet.multiples_of(2**40), [0]), (UPSet.from_finite([10**30]), [])])
def test_mask_of_a_far_rule_or_flip_holds_no_bit_per_position(upset, members_below):
    # a period of 2^40 and a threshold past sys.maxsize: the mask neither
    # stores a bit per position nor passes itertools a count it refuses
    tracemalloc.start()
    try:
        bits = itertools.islice(upset._outside_mask(), 20_000)
        assert [n for n, bit in enumerate(bits) if not bit] == members_below
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_sparse_form_is_canonical():
    assert UPSet(12, frozenset({1, 5, 9})) == UPSet(4, frozenset({1}))
    assert UPSet(6, frozenset(range(6)), frozenset({3})) == UPSet.from_cofinite([3])
    assert UPSet(6, frozenset(), frozenset({3})) == UPSet.from_finite([3])
    assert UPSet.from_finite([7]).threshold == 8
    big = UPSet.multiples_of(2**40)  # one residue, not a word of 2^40 bits
    assert big.residues == frozenset({0}) and 2**41 in big and 2**41 + 1 not in big
    assert big.count_below(2**41 + 1) == 3


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((True, False), 2, (True, False)), {"threshold": 2}),  # the dense positional form
        (((), 2, (False, True)), {}),
        ((2, (True, False)), {}),
        ((2, frozenset({0}), frozenset({True})), {}),
        ((0,), {}),
        ((2, frozenset({2})), {}),
        ((1, frozenset(), frozenset({-1})), {}),
    ],
)
def test_upset_rejects_malformed_parts(args, kwargs):
    with pytest.raises((DomainError, TypeError)):
        UPSet(*args, **kwargs)


# -- scale: each of these took from seconds to hours with dense words ----------

def test_parse_long_threshold_without_flips():
    start = time.perf_counter()
    assert parse_upset("ups{from=1000000; period=1; word=0}") == UPSet.from_finite([])
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError, match="from 10000000 is over its cap of 1000000"):
        parse_upset("ups{from=10000000; period=1; word=0}")


@pytest.mark.parametrize(
    "upset, message",
    [
        (UPSet.multiples_of(2**40), "period 1099511627776 is over its cap of 1000000"),
        (UPSet(2, frozenset({0}), frozenset({10**12})), "from 1000000000001 is over its cap of 1000000"),
    ],
)
def test_render_refuses_a_set_no_literal_within_the_caps_writes(upset, message):
    # a word of 2^40 bits, or the 5 * 10^11 members below the threshold
    start = time.perf_counter()
    with pytest.raises(DomainError) as refused:
        str(upset)
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == message


@pytest.mark.parametrize("a, verdict", [("fin{100000000}", "REDUCIBLE"), ("cofin{100000000}", "NOT REDUCIBLE")])
def test_family_compare_far_members_in_small_memory(a, verdict, capsys):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["family-compare", "--a", a, "--b", "fin{1}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert (code, capsys.readouterr().out) == (EXIT_OK, f"{verdict}\n")
    assert peak < 50 * 2**20


def _chain_oracle(depth: int) -> list:
    """The demo's verdict matrix from its sets as residue classes r mod m:
    one class lies almost inside another iff they are nested, i.e. the
    second modulus divides the first and the residues agree modulo it."""
    classes = [(0, 2**i) for i in range(depth)] + [(0, 2), (1, 2)]
    return [[m_a % m_b == 0 and (r_a - r_b) % m_b == 0 for r_b, m_b in classes] for r_a, m_a in classes]


def test_family_demo_at_the_depth_cap(capsys):
    start = time.perf_counter()
    assert main(["family-demo", "--depth", "22"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "OK" and lines[-1] == "rows reduce to columns; power 1"
    cells = [[cell == "yes" for cell in line.split()[1:]] for line in lines[2:-1]]
    assert cells == _chain_oracle(22)
