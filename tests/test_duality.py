"""Dual route: component duals, the rank-1 hom criterion, primal agreement."""

from __future__ import annotations

import itertools
import sys
import time
import tracemalloc

import pytest

from borelcmp import duality
from borelcmp.duality import (
    INTEGERS,
    MAX_DUAL_COMPONENTS,
    RationalType,
    dual,
    dual_reduces,
    hom_nonzero_exists,
    rank,
)
from borelcmp.errors import DomainError
from borelcmp.groups import REAL, TORUS, TRIVIAL_GROUP, group, solenoid
from borelcmp.literals import parse_group
from borelcmp.reducibility import reduces
from borelcmp.supernatural import OMEGA, SupernaturalProfile

from borelcmp.selftest import random_expr, random_profile

PROBE_PRIMES = (2, 3, 5, 7, 11, 13)


# -- dual ----------------------------------------------------------------------

def test_dual_instances():
    assert tuple(dual(group(TORUS)).components) == (INTEGERS,)
    sol = solenoid({2: 6, 3: OMEGA})
    assert tuple(dual(group(sol)).components) == (RationalType(sol.profile),)
    (rationals,) = dual(parse_group("Sol{default=w}")).components
    assert rationals == RationalType(SupernaturalProfile.all_omega())
    (real,) = dual(group(REAL)).components
    assert real is REAL


def test_zero_profile_is_the_integers():
    zero = RationalType(SupernaturalProfile({}))
    assert zero == INTEGERS
    assert hash(zero) == hash(INTEGERS)
    assert str(zero) == "Z"


def test_dual_componentwise_length(rng):
    for _ in range(30):
        g = random_expr(rng)
        assert len(dual(g).components) == len(g.factors)


@pytest.mark.parametrize("build", [
    lambda: parse_group("(T x Sol{2:w})^50000"),  # one pair of run objects, repeated
    lambda: group(*[TORUS, solenoid({2: OMEGA})] * 50000),  # 10^5 run objects of count 1
], ids=["power", "written_out"])
def test_dual_shares_repeated_runs(build):
    """The dual keeps one dual run per distinct atom and count, so its memory
    is the run tuple's, not a pair per run.  The CLI's scale guard runs the
    same power at 10^6 runs."""
    g = build()
    tracemalloc.start()
    try:
        d = dual(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a new (component, count) pair for each of the 10^5 runs would add 6.4 MB
    assert peak < 3 * sys.getsizeof(d.runs)
    # atom by atom, each factor dualized on its own
    by_kind = {REAL: REAL, TORUS: INTEGERS}
    reference = tuple(by_kind.get(atom) or RationalType(atom.profile) for atom in g.factors)
    assert tuple(d.components) == reference and len(reference) == 10**5
    assert d.runs == tuple((component, 1) for component in reference)


def test_double_dual_at_type_level(rng):
    # reconstructing the primal atom from a rank-1 type and dualizing again
    # recovers the type: Z <-> circle, profile type <-> solenoid
    (circle,) = dual(group(TORUS)).components
    assert circle.is_integers
    for _ in range(20):
        p = random_profile(rng)
        (t,) = dual(group(solenoid(p))).components
        assert t.profile == p
        assert tuple(dual(group(solenoid(t.profile))).components) == (t,)


# -- rank ------------------------------------------------------------------------

def test_rank_examples():
    assert rank(dual(parse_group("T^3"))) == 3
    assert rank(dual(parse_group("Sol{2:w} x T"))) == 2
    assert rank(dual(TRIVIAL_GROUP)) == 0
    with pytest.raises(DomainError):
        rank(dual(parse_group("R x T")))


# -- rank-1 hom criterion ---------------------------------------------------------

def test_hom_examples():
    two_adic = RationalType(SupernaturalProfile({2: OMEGA}))
    assert hom_nonzero_exists(INTEGERS, two_adic)
    assert not hom_nonzero_exists(two_adic, INTEGERS)
    assert hom_nonzero_exists(
        RationalType(SupernaturalProfile({2: 7, 3: OMEGA})),
        RationalType(SupernaturalProfile({2: 5, 3: OMEGA})),
    )


def test_hom_transitive(rng):
    types = [INTEGERS] + [RationalType(random_profile(rng)) for _ in range(25)]
    hits = 0
    for a, b, c in itertools.product(types, repeat=3):
        if hom_nonzero_exists(a, b) and hom_nonzero_exists(b, c):
            hits += 1
            assert hom_nonzero_exists(a, c)
    assert hits > 0


def _truncated_required_exponent(a: RationalType, b: RationalType, gamma: int, level: int):
    """Exponent of gamma a numerator must carry so that multiplication maps
    the level-truncated type a into type b."""
    ta = a.profile.multiplicity(gamma)
    tb = b.profile.multiplicity(gamma)
    if tb is OMEGA:
        return 0
    ta_cut = level if ta is OMEGA else min(ta, level)
    return max(0, ta_cut - tb)


def _brute_force_multiplier(a: RationalType, b: RationalType, level: int):
    """Smallest u <= 10**4 with u * (truncated a) inside b, by exhaustion.

    Searching denominators as well gains nothing: a denominator only adds
    prime content that b must absorb on top, so u/1 is found iff any u/v is.
    """
    for u in range(1, 10_001):
        ok = True
        for gamma in PROBE_PRIMES:
            needed = _truncated_required_exponent(a, b, gamma, level)
            if needed == 0:
                continue
            value = u
            exponent = 0
            while value % gamma == 0:
                value //= gamma
                exponent += 1
            if exponent < needed:
                ok = False
                break
        if ok:
            return u
    return None


def test_hom_criterion_against_brute_force_multipliers(rng):
    # hand-picked pairs covering all shapes, plus random ones
    pairs = [
        (INTEGERS, INTEGERS),
        (INTEGERS, RationalType(SupernaturalProfile({2: OMEGA}))),
        (RationalType(SupernaturalProfile({2: OMEGA})), INTEGERS),
        (
            RationalType(SupernaturalProfile({2: 7, 3: OMEGA})),
            RationalType(SupernaturalProfile({2: 5, 3: OMEGA})),
        ),
        (
            RationalType(SupernaturalProfile.all_omega()),
            RationalType(SupernaturalProfile({2: OMEGA})),
        ),
    ]
    pairs += [(RationalType(random_profile(rng)), RationalType(random_profile(rng))) for _ in range(8)]
    for a, b in pairs:
        claimed = hom_nonzero_exists(a, b)
        if claimed:
            # one numerator must work at every truncation level
            for level in (1, 4, 25):
                assert _brute_force_multiplier(a, b, level) is not None, (a, b, level)
        else:
            # deep truncations outgrow every numerator up to the bound
            assert _brute_force_multiplier(a, b, 25) is None, (a, b)


# -- dual_reduces -----------------------------------------------------------------

def test_dual_reduces_instances():
    assert not dual_reduces(parse_group("T"), parse_group("Sol{2:w}"))
    assert dual_reduces(parse_group("Sol{2:w}"), parse_group("T"))
    assert dual_reduces(parse_group("Sol{default=w}"), parse_group("Sol{default=w}"))


def test_dual_reduces_rejects_real_factors():
    with pytest.raises(DomainError):
        dual_reduces(parse_group("R"), parse_group("T"))
    with pytest.raises(DomainError):
        dual_reduces(parse_group("T"), parse_group("R x T"))


def test_dual_reduces_refuses_a_side_past_the_component_cap():
    cap, half = MAX_DUAL_COMPONENTS, MAX_DUAL_COMPONENTS // 2
    past = (
        (f"T^{cap + 1}", "T"),
        ("T", f"T^{cap + 1}"),
        (f"Sol{{2:w}}^{half + 1} x T^{half}", f"T^{half} x Sol{{2:w}}^{half}"),
        (f"T^{cap}", f"T^{cap} x Sol{{2:w}}"),
    )
    start = time.perf_counter()
    for g, h in past:
        with pytest.raises(DomainError, match="components a side"):
            dual_reduces(parse_group(g), parse_group(h))
    assert time.perf_counter() - start < 1.0  # refused before any dual is built


def test_dual_reduces_answers_at_the_component_cap(monkeypatch):
    monkeypatch.setattr(duality, "MAX_DUAL_COMPONENTS", 4)
    assert dual_reduces(parse_group("Sol{2:w}^2 x T^2"), parse_group("T^4"))
    assert not dual_reduces(parse_group("T^4"), parse_group("Sol{2:w}^2 x T^2"))
    with pytest.raises(DomainError, match="at most 4 components a side, got 5 and 4"):
        dual_reduces(parse_group("T^5"), parse_group("T^4"))


def test_dual_agrees_with_primal_on_corner_cases(rng):
    corner = [
        (parse_group("T"), parse_group("Sol{2:w}")),
        (parse_group("Sol{2:w}"), parse_group("T")),
        (parse_group("Sol{2:5,3:w}"), parse_group("Sol{2:9,3:w}")),
        (parse_group("Sol{2:9,3:w}"), parse_group("Sol{2:5,3:w}")),
        (parse_group("Sol{2:w} x Sol{3:w}"), parse_group("Sol{2:w,3:w} x T")),
        (TRIVIAL_GROUP, parse_group("T")),
        (parse_group("T"), TRIVIAL_GROUP),
        (TRIVIAL_GROUP, TRIVIAL_GROUP),
    ]
    for g, h in corner:
        assert dual_reduces(g, h) == reduces(g, h).reducible
