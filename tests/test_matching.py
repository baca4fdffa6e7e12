"""Matching layer: the iterative search against the recursive reference,
and run-based rule-table rows against per-factor ones."""

from __future__ import annotations

import random

from borelcmp import reducibility
from borelcmp.literals import parse_group
from borelcmp.matching import run_rows, saturating_matching_or_violator

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
