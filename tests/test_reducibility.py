"""Reducibility engine: rule table, matching vs brute force, certificates."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from itertools import chain

import pytest

from borelcmp import reducibility
from borelcmp.duality import dual, dual_reduces, rank
from borelcmp.errors import DomainError
from borelcmp.groups import (
    REAL,
    TORUS,
    TRIVIAL_GROUP,
    GroupExpr,
    dimension,
    group,
    solenoid,
)
from borelcmp.literals import parse_group, render_dual, render_group
from borelcmp.reducibility import (
    Certificate,
    ComparisonOutcome,
    EdgeBlock,
    EdgeReason,
    EdgeWitness,
    HallViolator,
    IndexRanges,
    Verdict,
    atom_reduces,
    class_flow,
    compare,
    edge_reason,
    reduces,
)
from borelcmp.supernatural import OMEGA, SupernaturalProfile, preceq
from borelcmp.verify import rt_closed_form, verify_certificate

from borelcmp.selftest import brute_force_reducible, random_atom, random_expr, random_profile
import kuhn_reference
from kuhn_reference import rule_rows


# -- atom rules ----------------------------------------------------------------

def test_atom_rule_examples():
    sol = solenoid({2: OMEGA})
    assert not atom_reduces(TORUS, sol)
    assert atom_reduces(REAL, sol)
    assert atom_reduces(solenoid({2: 7, 3: OMEGA}), solenoid({2: 5, 3: OMEGA}))


def test_atom_rule_table_full(rng):
    """``edge_reason`` names the rule on the table and is None off it, exactly
    where ``atom_reduces`` is false."""
    R_ANY, T_T = EdgeReason.RULE_R_ANY, EdgeReason.RULE_T_T
    SOL_T, SOL_SOL = EdgeReason.RULE_SOL_T, EdgeReason.RULE_SOL_SOL
    for _ in range(25):
        s, t = solenoid(random_profile(rng)), solenoid(random_profile(rng))
        table = [
            (REAL, REAL, R_ANY), (REAL, TORUS, R_ANY), (REAL, s, R_ANY),
            (TORUS, REAL, None), (TORUS, TORUS, T_T), (TORUS, s, None),
            (s, REAL, None), (s, TORUS, SOL_T), (s, s, SOL_SOL),
            (s, t, SOL_SOL if preceq(t.profile, s.profile) else None),
        ]
        for a, b, reason in table:
            assert edge_reason(a, b) is reason, (a, b)
            assert atom_reduces(a, b) is (reason is not None), (a, b)


def test_solenoid_direction_regression():
    """The single most bug-prone direction: the asymmetric profile pair."""
    rich = solenoid({2: OMEGA, 3: OMEGA})
    poor = solenoid({2: OMEGA})
    assert atom_reduces(rich, poor)       # edge from richer source to poorer target
    assert not atom_reduces(poor, rich)   # swapped: no edge


# -- reduces -------------------------------------------------------------------

def _indices(violator):
    """K and N(K) of a violator as tuples of indices; None for no violator."""
    return None if violator is None else (tuple(violator.K), tuple(violator.NK))


def test_reduces_violator_example():
    g = parse_group("Sol{2:w} x Sol{3:w}")
    h = parse_group("Sol{2:w,3:w} x T")
    verdict = reduces(g, h)
    assert not verdict.reducible
    assert _indices(verdict.violator) == ((1, 2), (2,))
    assert verify_certificate(g, h, verdict)
    assert brute_force_reducible(g, h) is False


def test_reduces_identity(rng):
    for _ in range(40):
        g = random_expr(rng)
        verdict = reduces(g, g)
        assert verdict.reducible
        assert verify_certificate(g, g, verdict)


def test_reduces_closed_form_instance():
    verdict = reduces(parse_group("R^2 x T"), parse_group("T^3"))
    assert verdict.reducible
    reasons = sorted(w.reason.value for w in verdict.certificate)
    assert reasons == ["RULE_R_ANY", "RULE_R_ANY", "RULE_T_T"]


@pytest.mark.parametrize(
    "g_text, h_text, expected",
    [
        # one source class split over two target classes: the last factor takes the lower one
        ("R^3", "T x R^2", ((1, 3), (2, 2), (3, 1))),
        # an augmenting path moves R out of the T class (R^2 x T^2 -> T^2 x R^2),
        # or part of it (R^3 x T -> T^2 x R^2)
        ("R^2 x T^2", "T^2 x R^2", ((1, 4), (2, 3), (3, 2), (4, 1))),
        ("R^3 x T", "T^2 x R^2", ((1, 4), (2, 3), (3, 2), (4, 1))),
        # two source classes into one target class, taken from the last factor on
        ("R x T x R", "T^3", ((1, 3), (2, 2), (3, 1))),
        # K holds |N(C)| + 1 factors of both classes in C, not only the factor without edges
        ("T x R^2", "R", ((1, 2), (1,))),
    ],
)
def test_verdicts_follow_the_canonical_rule(g_text, h_text, expected):
    g, h = parse_group(g_text), parse_group(h_text)
    verdict = reduces(g, h)
    if verdict.reducible:
        assert tuple((w.left_index, w.right_index) for w in verdict.certificate) == expected
    else:
        assert _indices(verdict.violator) == expected
    assert verify_certificate(g, h, verdict)


def test_trivial_group_rules():
    assert reduces(TRIVIAL_GROUP, parse_group("R x T")).reducible
    assert reduces(TRIVIAL_GROUP, TRIVIAL_GROUP).reducible
    verdict = reduces(parse_group("T"), TRIVIAL_GROUP)
    assert not verdict.reducible
    assert _indices(verdict.violator) == ((1,), ())
    assert verify_certificate(parse_group("T"), TRIVIAL_GROUP, verdict)


def test_rt_closed_form_examples():
    assert rt_closed_form(2, 1, 0, 3)
    assert not rt_closed_form(1, 1, 2, 0)
    for c, e in itertools.product(range(4), repeat=2):
        assert rt_closed_form(0, 0, c, e)
    with pytest.raises(DomainError):
        rt_closed_form(-1, 0, 0, 0)


@pytest.mark.parametrize(
    "g_text, h_text",
    [
        ("T^1000", "T^1000"),
        ("R^500 x T^500", "T^500 x R^500"),
        ("R^1000 x T", "T^1000"),
        ("T^100000", "T^100000"),
        ("R^50000 x T^50000", "T^50000 x R^50000"),
        ("T^10000000", "T^10000000"),
        ("R^5000000 x T^5000000", "T^5000000 x R^5000000"),
        ("T^10000000", "T^9999999"),  # T^10000001 is past the factor cap
    ],
)
def test_large_products_need_no_recursion(g_text, h_text):
    g, h = parse_group(g_text), parse_group(h_text)
    tracemalloc.start()
    try:
        verdict = reduces(g, h)
        verified = verify_certificate(g, h, verdict)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.reducible == (dimension(g) <= dimension(h))  # no source has more T factors than its target
    assert verified
    # run form: neither the certificate nor the violator holds one entry per factor
    assert peak < 2**20
    if verdict.reducible:
        assert len(verdict.certificate) == dimension(g)
    else:
        assert len(verdict.violator.K) == dimension(h) + 1


def test_negative_verification_evaluates_one_row_per_distinct_source_atom(monkeypatch):
    g, h = parse_group("R^1000 x T"), parse_group("T^1000")
    verdict = reduces(g, h)
    assert len(verdict.violator.K) == 1001
    calls = []

    def counted(a, b, _atom_reduces=reducibility.atom_reduces):
        calls.append((a, b))
        return _atom_reduces(a, b)

    monkeypatch.setattr(reducibility, "atom_reduces", counted)
    assert verify_certificate(g, h, verdict)
    # two distinct atoms in K, each checked against 1,000 targets
    assert len(calls) <= 2000


@pytest.mark.parametrize(
    "g_text, h_text",
    [("R^1000 x T", "T^1000"), ("Sol{2:w}^3 x T", "Sol{2:w} x T x R")],
)
def test_tampered_violators_are_rejected(g_text, h_text):
    g, h = parse_group(g_text), parse_group(h_text)
    verdict = reduces(g, h)
    assert verify_certificate(g, h, verdict)
    K, NK = tuple(verdict.violator.K), tuple(verdict.violator.NK)
    # the forgeries are in the form reduces emits, which the untampered indices pass in
    assert verify_certificate(g, h, Verdict(False, violator=HallViolator(_ranges(K), _ranges(NK))))
    outside = next(j for j in range(1, len(h.factors) + 2) if j not in NK)
    for K_bad, NK_bad in (
        (K, NK + (outside,)),  # one index added to N(K)
        (K[1:], NK),  # one member of K dropped
        (K, NK[:-1]),  # N(K) shrunk
    ):
        bad = HallViolator(_ranges(K_bad), _ranges(NK_bad))
        assert not verify_certificate(g, h, Verdict(False, violator=bad)), bad


def test_fractional_violator_indices_are_rejected():
    g, h = parse_group("R^2"), parse_group("T")
    verdict = reduces(g, h)
    assert verdict.violator == HallViolator(IndexRanges((range(1, 3),)), IndexRanges((range(1, 2),)))
    assert verify_certificate(g, h, verdict)
    NK = verdict.violator.NK
    # factor 1.5 beside a range; factor 1 alone, as a range of step 5 that
    # spans 1..2; a pair that is no range
    for K in (IndexRanges((range(1, 2), 1.5)), IndexRanges((range(1, 3, 5),)), IndexRanges(((1, 3),))):
        assert not verify_certificate(g, h, Verdict(False, violator=HallViolator(K, NK))), K


def test_fractional_certificate_indices_are_rejected():
    g, h = parse_group("T^3"), parse_group("T^2")
    assert not reduces(g, h).reducible
    (block,) = reduces(h, h).certificate.blocks
    for pairs in (
        ((1, 1), (2, 1.5), (3, 2)),  # distinct in-range right indices, all in the T run
        ((1, 1), (1.5, 2), (3, 2.5)),
    ):
        forged = Certificate(tuple(block._replace(left=i, right=j, count=1) for i, j in pairs))
        assert not verify_certificate(g, h, Verdict(True, certificate=forged)), pairs


def test_dimension_monotone(rng):
    for _ in range(150):
        g, h = random_expr(rng), random_expr(rng)
        if reduces(g, h).reducible:
            assert dimension(g) <= dimension(h)


def test_monotone_growth(rng):
    for _ in range(120):
        g, h = random_expr(rng, 4), random_expr(rng, 4)
        extra = random_atom(rng)
        if reduces(g * group(extra), h).reducible:
            assert reduces(g, h).reducible
        if reduces(g, h).reducible:
            assert reduces(g, h * group(extra)).reducible


# -- compare -------------------------------------------------------------------

def test_compare_examples():
    assert compare(parse_group("R"), parse_group("Sol{2:w}")) is ComparisonOutcome.LEFT_STRICT
    assert compare(parse_group("Sol{2:w}"), parse_group("Sol{3:w}")) is ComparisonOutcome.INCOMPARABLE
    assert compare(parse_group("Sol{2:5,3:w}"), parse_group("Sol{2:9,3:w}")) is ComparisonOutcome.EQUIVALENT
    assert compare(parse_group("T"), parse_group("R")) is ComparisonOutcome.RIGHT_STRICT


def test_strictness_chain_between_real_and_torus(rng):
    for _ in range(10):
        sol = group(solenoid(random_profile(rng)))
        assert compare(group(REAL), sol) is ComparisonOutcome.LEFT_STRICT
        assert compare(sol, group(TORUS)) is ComparisonOutcome.LEFT_STRICT


# Atoms of the differential corpus: R, T, solenoids with default-0 and
# default-w profiles, and one whose key is the product of two 90-bit primes,
# which stays unsplit.
_SEMIPRIME = 618970019668049015295030157 * 928455029464802529184826323
_COMPARE_ATOMS = ("R", "T", "Sol{2:w}", "Sol{3:w}", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "Sol{2:w,3:w}",
                  "Sol{default=w}", "Sol{2:3; default=w}", "Sol{2:0,5:1; default=w}", f"S[{_SEMIPRIME}|3]")
_OUTCOMES = {(True, True): ComparisonOutcome.EQUIVALENT, (True, False): ComparisonOutcome.LEFT_STRICT,
             (False, True): ComparisonOutcome.RIGHT_STRICT, (False, False): ComparisonOutcome.INCOMPARABLE}


def _compare_corpus(rng):
    """Seeded products of up to four atoms of ``_COMPARE_ATOMS`` with
    powers, the trivial group among them."""
    corpus = [TRIVIAL_GROUP]
    for _ in range(120):
        atoms = rng.choices(_COMPARE_ATOMS, k=rng.randrange(1, 5))
        corpus.append(parse_group(" x ".join(f"{atom}^{rng.choice((1, 1, 2, 3))}" for atom in atoms)))
    return corpus


def test_compare_equals_the_two_verdicts_of_reduces():
    rng = random.Random(20261020)
    corpus = _compare_corpus(rng)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(3000)]
    pairs += [(g, GroupExpr(g.runs[::-1])) for g in corpus]  # equivalent, in another order
    pairs += [(parse_group("T^10000000"), parse_group("T^9999999"))]
    seen = dict.fromkeys(ComparisonOutcome, 0)
    for g, h in pairs:
        outcome = compare(g, h)
        assert outcome is _OUTCOMES[reduces(g, h).reducible, reduces(h, g).reducible], (g, h)
        seen[outcome] += 1
    assert min(seen.values()) > 150
    assert compare(parse_group("T^10000000"), parse_group("T^9999999")) is ComparisonOutcome.RIGHT_STRICT


def test_compare_builds_no_certificate_or_violator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare built a verdict")

    for name in ("reduces", "_edge", "Certificate", "HallViolator"):
        monkeypatch.setattr(reducibility, name, refuse)
    rng = random.Random(20261021)
    corpus = _compare_corpus(rng)
    for g, h in itertools.product(corpus[:40], repeat=2):
        assert isinstance(compare(g, h), ComparisonOutcome)
    g, h = parse_group("R^5000000 x T^5000000"), parse_group("T^5000000 x R^5000000")
    assert compare(g, h) is ComparisonOutcome.EQUIVALENT


# -- certificates --------------------------------------------------------------

def _neighborhood(g, h, K):
    sources, targets = tuple(g.factors), tuple(h.factors)
    return tuple(sorted({
        j
        for i in K
        for j in range(1, len(targets) + 1)
        if atom_reduces(sources[i - 1], targets[j - 1])
    }))


def _ranges(indices) -> IndexRanges:
    """Distinct indices as ``reduces`` emits them: one range per stretch of
    consecutive indices, ascending."""
    ranges: list = []
    for i in sorted(indices):
        if ranges and ranges[-1].stop == i:
            ranges[-1] = range(ranges[-1].start, i + 1)
        else:
            ranges.append(range(i, i + 1))
    return IndexRanges(tuple(ranges))


def _blocks(witnesses) -> Certificate:
    """A certificate of one ``EdgeBlock`` of count 1 per witness."""
    return Certificate(tuple(EdgeBlock(w.left_index, w.right_index, 1, w.reason, w.deficit) for w in witnesses))


def _tampered_variants(g, h, verdict: Verdict):
    if verdict.reducible and verdict.certificate:
        witnesses = list(verdict.certificate)
        first = witnesses[0]
        if len(witnesses) > 1:
            # map two source factors to one target
            second = witnesses[1]
            clash = EdgeWitness(second.left_index, first.right_index, second.reason, second.deficit)
            yield Verdict(True, certificate=_blocks([first, clash] + witnesses[2:]))
        # out-of-range target
        yield Verdict(True, certificate=_blocks(
            [EdgeWitness(first.left_index, 10_000, first.reason, first.deficit)] + witnesses[1:]
        ))
        # drop coverage of a source factor
        yield Verdict(True, certificate=_blocks(witnesses[1:]))
        # lie about the reason
        wrong = EdgeReason.RULE_T_T if first.reason is not EdgeReason.RULE_T_T else EdgeReason.RULE_SOL_T
        yield Verdict(True, certificate=_blocks(
            [EdgeWitness(first.left_index, first.right_index, wrong, first.deficit)] + witnesses[1:]
        ))
        if first.reason is EdgeReason.RULE_SOL_SOL:
            # corrupt the surplus table
            forged = EdgeWitness(first.left_index, first.right_index, first.reason, first.deficit + ((2, 1),))
            yield Verdict(True, certificate=_blocks([forged] + witnesses[1:]))
        # the emitted blocks, with the last one a factor short or a factor long
        *kept, last = verdict.certificate.blocks
        for count in (last.count - 1, last.count + 1):
            blocks = (*kept, last._replace(count=count)) if count else tuple(kept)
            yield Verdict(True, certificate=Certificate(blocks))
    if not verdict.reducible and verdict.violator is not None:
        K, NK = tuple(verdict.violator.K), tuple(verdict.violator.NK)
        # shrink the neighborhood claim
        if NK:
            yield Verdict(False, violator=HallViolator(_ranges(K), _ranges(NK[:-1])))
        # pad the neighborhood until it is not deficient
        yield Verdict(False, violator=HallViolator(_ranges(K), _ranges(NK + tuple(range(900, 900 + len(K))))))
        # empty violator
        yield Verdict(False, violator=HallViolator(IndexRanges(()), IndexRanges(())))
        if len(K) > 1:
            shrunk = K[:-1]
            # dropping a member can leave a smaller but still-valid violator;
            # only yield it when it genuinely stops being one
            still_valid = (
                _neighborhood(g, h, shrunk) == tuple(sorted(NK))
                and len(NK) < len(shrunk)
            )
            if not still_valid:
                yield Verdict(False, violator=HallViolator(_ranges(shrunk), _ranges(NK)))


def test_certificate_tampering_detected(rng):
    tampered_total = 0
    for _ in range(200):
        g = random_expr(rng, 5)
        h = random_expr(rng, 5)
        verdict = reduces(g, h)
        assert verify_certificate(g, h, verdict)
        # the untampered claim, rebuilt the way the forgeries are, passes
        if verdict.reducible:
            rebuilt = Verdict(True, certificate=_blocks(verdict.certificate))
        else:
            rebuilt = Verdict(False, violator=HallViolator(_ranges(verdict.violator.K), _ranges(verdict.violator.NK)))
        assert verify_certificate(g, h, rebuilt)
        for bad in _tampered_variants(g, h, verdict):
            tampered_total += 1
            assert not verify_certificate(g, h, bad), (g, h, bad)
    assert tampered_total > 200


def test_certificate_cross_claims_rejected():
    g, h = parse_group("T"), parse_group("T")
    verdict = reduces(g, h)
    # a positive claim without edges, or with a violator attached
    assert not verify_certificate(g, h, Verdict(True))
    assert not verify_certificate(g, h, Verdict(False))
    refutation = reduces(g, parse_group("R")).violator
    assert not verify_certificate(g, h, Verdict(True, certificate=verdict.certificate, violator=refutation))
    # True == 1, but a bool is no factor index
    (block,) = verdict.certificate.blocks
    for forged in (block._replace(left=True), block._replace(right=True)):
        assert not verify_certificate(g, h, Verdict(True, certificate=Certificate((forged,)))), forged
    # a range turns a bool bound into an int, so an IndexRanges holds no bool index
    K = IndexRanges((range(True, 2),))
    assert type(K.ranges[0].start) is int
    for target in ("R", "1"):
        assert _indices(reduces(g, parse_group(target)).violator) == ((1,), ())
        assert verify_certificate(g, parse_group(target), Verdict(False, violator=HallViolator(K, IndexRanges(()))))
    # forged blocks of R x T -> T^2, whose certificate is the first two blocks
    R_ANY, T_T = EdgeReason.RULE_R_ANY, EdgeReason.RULE_T_T
    assert reduces(parse_group("R x T"), parse_group("T^2")).certificate.blocks == (
        (1, 2, 1, R_ANY, ()), (2, 1, 1, T_T, ()))
    for g_text, h_text, blocks in (
        ("R x T", "T^2", ((1, 2, 1, R_ANY), (2, 1, 1, T_T), (2, 1, 1, T_T))),  # overlapping
        # counts: a block of 0 that covers nothing on either side, a negative one,
        # and a float and a bool that equal the valid count 1
        ("R x T", "T^2", ((1, 2, 1, R_ANY), (2, 1, 1, T_T), (3, 2, 0, T_T))),
        ("R x T", "T^2", ((1, 2, -1, R_ANY), (2, 1, 1, T_T))),
        ("R x T", "T^2", ((1, 2, 1.0, R_ANY), (2, 1, 1, T_T))),
        ("R x T", "T^2", ((1, 2, True, R_ANY), (2, 1, 1, T_T))),
        # a block past m on the left, and below 1 or past n on the right
        ("T", "T^2", ((1, 2, 2, T_T),)),
        ("T^2", "T^2", ((1, 1, 2, T_T),)),
        ("T^2", "T^2", ((1, 3, 2, T_T),)),
        # one block across the R and the T run, with R's reason for both
        ("R x T", "T^2", ((1, 2, 2, R_ANY),)),
        # off the rule table: T into R, under the circle's rule
        ("T", "R", ((1, 1, 1, T_T),)),
    ):
        forged = Verdict(True, certificate=Certificate(tuple(EdgeBlock(*block) for block in blocks)))
        assert not verify_certificate(parse_group(g_text), parse_group(h_text), forged), blocks


_T_T = EdgeBlock(1, 1, 1, EdgeReason.RULE_T_T)


@pytest.mark.parametrize(
    "h_text, claim",
    [
        # positive claims on T -> T, whose certificate is Certificate((_T_T,))
        ("T", Verdict(True, certificate=Certificate(((1, 1, 1),)))),
        ("T", Verdict(True, certificate=Certificate(((1, 1, 1, EdgeReason.RULE_T_T, ()),)))),
        ("T", Verdict(True, certificate=Certificate((EdgeWitness(1, 1, EdgeReason.RULE_T_T),)))),
        ("T", Verdict(True, certificate=Certificate([_T_T]))),
        ("T", Verdict(True, certificate=Certificate(5))),
        ("T", Verdict(True, certificate=(EdgeWitness(1, 1, EdgeReason.RULE_T_T),))),
        ("T", Verdict(True, certificate=(_T_T,))),
        ("T", Verdict(True, certificate=[1, 2])),
        # negative claims on T -> R, whose violator is K = {1}, N(K) = {}
        ("R", Verdict(False, violator=HallViolator(None, (1,)))),
        ("R", Verdict(False, violator=HallViolator((1,), ()))),
        ("R", Verdict(False, violator=HallViolator(IndexRanges((range(1, 2),)), ()))),
        ("R", Verdict(False, violator=HallViolator(IndexRanges(5), IndexRanges(())))),
        ("R", Verdict(False, violator=HallViolator(IndexRanges([range(1, 2)]), IndexRanges(())))),
        ("R", Verdict(False, violator=(IndexRanges((range(1, 2),)), IndexRanges(())))),
    ],
)
def test_malformed_claims_are_invalid_without_raising(h_text, claim):
    """``verify_certificate`` reads only the form that ``reduces`` emits: a
    ``Certificate`` of ``EdgeBlock``s, or a ``HallViolator`` of
    ``IndexRanges``.  Every other shape is invalid, and none raises."""
    g, h = parse_group("T"), parse_group(h_text)
    verdict = reduces(g, h)
    assert verdict.certificate == (Certificate((_T_T,)) if verdict.reducible else None)
    assert verify_certificate(g, h, verdict)
    assert verify_certificate(g, h, claim) is False



# -- classes against the per-factor engine ------------------------------------

def _per_factor_certificate(g, h):
    """The canonical rule of ``reduces``, one witness per source factor: the
    source factors are taken from last to first, and each takes the lowest
    unused target factor of the next target class that the class flow of
    its class still routes to."""
    sources, caps, source_of = reducibility._classes(g.runs)
    targets, room, target_of = reducibility._classes(h.runs)
    rows = [[t for t, b in enumerate(targets) if atom_reduces(a, b)] for a in sources]
    flow, _ = class_flow(caps, room, rows)
    spans: list = [[] for _ in targets]  # the 1-based target factors of each class, run by run
    start = 1
    for (_, count), t in zip(h.runs, target_of):
        spans[t].append(range(start, start + count))
        start += count
    free = [chain.from_iterable(ranges) for ranges in spans]  # lowest unused first
    # per source class, its routes from the last target class back, so pop() takes the next one
    routes = [[[t, amount, reducibility._edge(a, targets[t])] for t, amount in sorted(out.items(), reverse=True)]
              for a, out in zip(sources, flow)]
    witnesses: list = []
    end = sum(caps)
    for (_, count), s in zip(reversed(g.runs), reversed(source_of)):
        route = routes[s]
        for i in range(end, end - count, -1):
            t, amount, edge = route[-1]
            witnesses.append(EdgeWitness(i, next(free[t]), *edge))
            if amount == 1:
                route.pop()
            else:
                route[-1][1] = amount - 1
        end -= count
    witnesses.reverse()
    return tuple(witnesses)


def _per_factor_outcome(g, h):
    """The verdict and violator rule of ``reduces``, computed one factor at a
    time: a maximum matching from the recursive Kuhn reference on per-factor
    rule-table rows; on failure, the source factors that alternating paths
    from every unmatched one reach, the first |N| + 1 of them as K, and K's
    exact neighborhood as N(K)."""
    adjacency = rule_rows(g.factors, h.factors, atom_reduces)
    match_left, match_right = kuhn_reference.maximum_matching(len(g.factors), len(h.factors), adjacency)
    if None not in match_left:
        return True, None
    lefts, rights = kuhn_reference.alternating_reach(adjacency, match_left, match_right)
    K = lefts[: len(rights) + 1]
    NK = sorted({j for i in K for j in adjacency[i]})
    return False, (tuple(i + 1 for i in K), tuple(j + 1 for j in NK))


def _powered_expr(rng, compact):
    """A random product with random powers on its factors and on the whole;
    checks that its runs are canonical and expand to the right factors."""
    base = random_expr(rng, max_factors=4, compact=compact)
    runs = tuple((atom, rng.choice((0, 1, 1, 2, 3))) for atom in base.factors)
    exponent = rng.choice((1, 1, 2, 3))
    g = parse_group(f"({GroupExpr(runs)})^{exponent}")
    assert tuple(g.factors) == tuple(atom for atom, count in runs for _ in range(count)) * exponent
    assert all(count >= 1 for _, count in g.runs)
    assert all(a != b for (a, _), (b, _) in zip(g.runs, g.runs[1:]))
    return g


def test_runs_give_the_per_factor_verdict():
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(5000):
        compact = rng.random() < 0.5
        g, h = _powered_expr(rng, compact), _powered_expr(rng, compact)
        verdict = reduces(g, h)
        assert (verdict.reducible, _indices(verdict.violator)) == _per_factor_outcome(g, h)
        assert verify_certificate(g, h, verdict)
        if verdict.reducible:
            witnesses = tuple(verdict.certificate)
            assert witnesses == _per_factor_certificate(g, h)
            assert len(verdict.certificate) == len(witnesses)
            # a block ends only where a source run, a target run or a flow route does
            targets = tuple(h.factors)
            routes = len({(a, b) for a, b in zip(g.factors, (targets[w.right_index - 1] for w in witnesses))})
            assert len(verdict.certificate.blocks) <= len(g.runs) + len(h.runs) + routes
        if compact:
            assert dual_reduces(g, h) == verdict.reducible
        outcomes[verdict.reducible] += 1
    assert min(outcomes.values()) > 1000


def _traced_peak(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_products_at_the_factor_cap_build_no_per_factor_tuple():
    reals, torus, tori = parse_group("R^10000000"), parse_group("T"), parse_group("T^10000000")
    fewer = parse_group("T^9999999")

    def work():
        for g in (reals, tori):
            verdict = reduces(g, torus)
            assert _indices(verdict.violator) == ((1, 2), (1,))
            assert verify_certificate(g, torus, verdict)
            assert dimension(g) == len(g.factors) == 10**7
            assert render_group(g) == str(g.runs[0][0]) + "^10000000"
        duals = dual(reals), dual(tori)
        assert [render_dual(d) for d in duals] == ["R^10000000", "Z^10000000"]
        assert rank(duals[1]) == len(duals[1].components) == 10**7
        with pytest.raises(DomainError):
            rank(duals[0])
        # two violators at the cap compare and hash by their ranges
        first, second = reduces(tori, fewer), reduces(tori, fewer)
        assert first == second and hash(first) == hash(second)

    # one atom per factor would be 80 MB for each side and each dual
    assert _traced_peak(work) < 2**20
    # the bound can fail: a per-factor tuple of 200,000 atoms passes it
    assert _traced_peak(lambda: tuple(parse_group("T^200000").factors)) > 2**20


def test_solenoid_witness_deficit_is_recomputable():
    g = parse_group("Sol{2:9,3:w}")
    h = parse_group("Sol{2:5,3:w}")
    verdict = reduces(g, h)
    assert verdict.reducible
    (witness,) = verdict.certificate
    assert witness.reason is EdgeReason.RULE_SOL_SOL
    assert witness.deficit == ()  # target {2:5} never exceeds source {2:9}
    (back,) = reduces(h, g).certificate
    assert back.deficit == ((2, 4),)
    assert back.total_deficit == 4
