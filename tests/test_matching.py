"""Matching layer: the class flow against brute force, the iterative search
against the recursive reference, and run-based rule-table rows against
per-factor ones."""

from __future__ import annotations

import itertools
import random

import pytest

from borelcmp import matching, reducibility
from borelcmp.groups import REAL, TORUS, group, solenoid
from borelcmp.literals import parse_group
from borelcmp.matching import class_flow, run_rows, saturating_matching_or_violator
from borelcmp.selftest import brute_force_reducible
from borelcmp.supernatural import OMEGA

import kuhn_reference
from kuhn_reference import rule_rows


def _random_graph(rng: random.Random):
    """A bipartite graph whose left vertices draw their rows from a small
    pool, so that many rows are one shared list object; each row lists its
    right vertices in shuffled order."""
    num_left, num_right = rng.randrange(0, 9), rng.randrange(0, 9)
    pool = []
    for _ in range(rng.randrange(1, 4)):
        row = [v for v in range(num_right) if rng.random() < 0.4]
        rng.shuffle(row)
        pool.append(row)
    adjacency = [rng.choice(pool) if rng.random() < 0.8 else list(rng.choice(pool))
                 for _ in range(num_left)]
    return num_left, num_right, adjacency


def test_search_equals_recursive_reference():
    rng = random.Random(20240601)
    outcomes = {True: 0, False: 0}
    for _ in range(12000):
        num_left, num_right, adjacency = _random_graph(rng)
        expected = kuhn_reference.saturating_matching_or_violator(num_left, num_right, adjacency)
        assert saturating_matching_or_violator(num_left, num_right, adjacency) == expected
        outcomes[expected[0] is not None] += 1
    assert min(outcomes.values()) > 1000


def test_search_leaves_its_input_alone():
    row = [2, 0, 1]
    adjacency = [row, row, [1]]
    assert saturating_matching_or_violator(3, 3, adjacency) == ([0, 2, 1], None)
    assert adjacency == [[2, 0, 1], [2, 0, 1], [1]] and adjacency[0] is adjacency[1]


def test_rule_rows_shares_one_row_per_distinct_left_item():
    calls = []

    def related(a, b):
        calls.append((a, b))
        return a <= b

    rows = rule_rows([2, 1, 2, 2], [3, 1, 2], related)
    assert rows == [[0, 2], [0, 1, 2], [0, 2], [0, 2]]
    assert rows[0] is rows[2] is rows[3] and rows[0] is not rows[1]
    assert len(calls) == 6


def _expanded(runs):
    return [item for item, count in runs for _ in range(count)]


def test_run_rows_equal_per_factor_rows_and_share_them_alike():
    rng = random.Random(20261018)
    for _ in range(2000):
        lefts, rights = ([(rng.randrange(3), rng.randrange(1, 4)) for _ in range(rng.randrange(0, 5))]
                         for _ in range(2))
        calls = []

        def related(a, b):
            calls.append((a, b))
            return a <= b

        rows = run_rows(lefts, rights, related)
        expected = rule_rows(_expanded(lefts), _expanded(rights), lambda a, b: a <= b)
        assert rows == expected
        first_alike = [[next(k for k, other in enumerate(adjacency) if other is row) for row in adjacency]
                       for adjacency in (rows, expected)]
        assert first_alike[0] == first_alike[1]
        assert len(calls) == len({item for item, _ in lefts}) * len(rights)


def test_reduces_evaluates_the_rule_table_once_per_distinct_source_atom(monkeypatch):
    calls = []

    def counted(a, b, _atom_reduces=reducibility.atom_reduces):
        calls.append((a, b))
        return _atom_reduces(a, b)

    monkeypatch.setattr(reducibility, "atom_reduces", counted)
    g = parse_group("Sol{2:w,3:5,5:7,7:w}^300")
    h = parse_group("Sol{2:w,7:w,5:3}^300")
    assert reducibility.reduces(g, h).reducible
    assert len(calls) == 1  # one distinct source atom, one target run


def _hall_holds(caps, room, rows):
    """Hall's condition for multisets, by brute force over every set of
    source classes."""
    for size in range(1, len(caps) + 1):
        for chosen in itertools.combinations(range(len(caps)), size):
            reach = {t for s in chosen for t in rows[s]}
            if sum(caps[s] for s in chosen) > sum(room[t] for t in reach):
                return False
    return True


def test_class_flow_routes_exactly_when_hall_holds():
    rng = random.Random(20261019)
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        caps = [rng.randrange(1, 6) for _ in range(rng.randrange(0, 5))]
        room = [rng.randrange(1, 6) for _ in range(rng.randrange(0, 5))]
        rows = [[t for t in range(len(room)) if rng.random() < 0.5] for _ in caps]
        for row in rows:
            rng.shuffle(row)
        flow, violator = class_flow(caps, room, rows)
        assert (flow is None) != (violator is None)
        assert (flow is not None) == _hall_holds(caps, room, rows)
        if flow is not None:
            for s, out in enumerate(flow):
                assert sum(out.values()) == caps[s]
                assert all(t in rows[s] and amount > 0 for t, amount in out.items())
            for t, limit in enumerate(room):
                assert sum(out.get(t, 0) for out in flow) <= limit
        else:
            C, NC = violator
            assert C == tuple(sorted(set(C))) and NC == tuple(sorted({t for s in C for t in rows[s]}))
            assert sum(room[t] for t in NC) < sum(caps[s] for s in C)
        outcomes[flow is not None] += 1
    assert min(outcomes.values()) > 1000


def test_class_flow_rounds_do_not_grow_with_the_counts():
    # R^n x T^n into T^n x R^n: the greedy fill sends R into T, and one
    # augmenting path of n units moves it over to R
    n = 10**12
    flow, violator = class_flow([n, n], [n, n], [[0, 1], [0]])
    assert violator is None and flow == [{1: n}, {0: n}]
    assert class_flow([n + 1], [n], [[0]]) == (None, ((0,), (0,)))


@pytest.fixture
def no_per_factor_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-factor search called")

    for module in (matching, reducibility):
        monkeypatch.setattr(module, "saturating_matching_or_violator", refuse)


def test_reduces_needs_no_per_factor_search(no_per_factor_search):
    atoms = (REAL, TORUS, solenoid({2: OMEGA}), solenoid({2: OMEGA, 3: OMEGA}))
    products = [group(*factors) for size in range(4) for factors in itertools.product(atoms, repeat=size)]
    for g, h in itertools.product(products, repeat=2):
        verdict = reducibility.reduces(g, h)
        assert verdict.reducible == brute_force_reducible(g, h)
        assert reducibility.verify_certificate(g, h, verdict)
    g = parse_group("T^100000")
    assert reducibility.reduces(g, g).reducible


def test_reduces_on_a_power_of_one_atom_evaluates_the_rule_table_once(monkeypatch):
    calls = []

    def counted(a, b, _atom_reduces=reducibility.atom_reduces):
        calls.append((a, b))
        return _atom_reduces(a, b)

    monkeypatch.setattr(reducibility, "atom_reduces", counted)
    g = parse_group("T^1000")
    verdict = reducibility.reduces(g, g)
    assert verdict.reducible and len(verdict.certificate) == 1000
    assert len(calls) <= 1
