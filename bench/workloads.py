"""The four workloads, each a fixed list of operations (one *pass*).

An operation runs program code and returns a small summary; its check
compares that summary with an answer from ``oracles`` and returns ``None``
or a ``Problem``.  Every workload is a closed loop with one client: one
operation at a time, in one thread, and for ``cli_mix`` one child process at
a time.

Why each workload exists:

* ``cli_mix`` -- the one-shot verdict a user gets from the command line.
  Interpreter start and ``import borelcmp`` dominate; engine speed barely
  shows.
* ``products_ladder`` -- few distinct atoms and huge factor counts, so the
  time goes to factor materialization, edge building, prime re-validation
  and matching.  Sizes that fail today stay in the ladder as failures.
* ``random_mix`` -- small random instances that share little, so parsing
  and per-call overhead dominate.  It uses the same layers as
  ``products_ladder`` the opposite way: a class-collapsing or caching gain
  there must not cost anything here.
* ``poset_lab`` -- the poset laboratory: crosschecks, member sequences,
  chain demos and almost inclusion on large finite sets.

Inputs left out of every workload because they can exhaust the memory of a
shared machine: ``R^100000000``, ``family-demo --depth 40`` and
``fin{100000000}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from oracles import REAL, TORUS, W, atom_class, sol
import oracles


@dataclass(frozen=True)
class Problem:
    kind: str        # e.g. "WrongVerdict"; becomes ops.failed.<kind>
    detail: str
    wrong: bool      # the program gave a wrong answer, not merely none


@dataclass(frozen=True)
class Op:
    label: str       # family of the operation, e.g. "T^n"
    size: object     # its size, or the command line in cli_mix; for failure records
    run: Callable[[], object]
    check: Callable[[object], "Problem | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    budget_s: float          # per-operation time budget
    child_processes: bool    # True when operations run as child processes


def _wrong(kind, detail):
    return Problem(kind, detail, True)


def _expect(actual, expected, kind="WrongVerdict"):
    if actual != expected:
        return _wrong(kind, f"got {actual!r}, expected {expected!r}")
    return None


def _profile_literal(profile) -> str:
    exceptions, default = profile
    entries = ", ".join(f"{g}:{m}" for g, m in exceptions.items())
    if default == W:
        return "{" + (entries + "; " if entries else "") + "default=w}"
    return "{" + entries + "}"


def _atom_literal(atom) -> str:
    return "Sol" + _profile_literal(atom[1]) if atom[0] == "Sol" else atom[0]


def _reduce_op(pkg, label, size, g_text, h_text, expected, source=None, target=None):
    """parse, reduces and verify_certificate; with ``source``/``target``
    (oracle atoms) the witness is also checked against the rule table."""
    L, R = pkg.literals, pkg.reducibility

    def run():
        g, h = L.parse_group(g_text), L.parse_group(h_text)
        verdict = R.reduces(g, h)
        verified = R.verify_certificate(g, h, verdict)
        edges = violator = None
        if source is not None:
            if verdict.reducible:
                edges = [(w.left_index, w.right_index) for w in verdict.certificate]
            else:
                violator = (verdict.violator.K, verdict.violator.NK)
        return len(g.factors), len(h.factors), verdict.reducible, verified, edges, violator

    def check(out):
        m, n, reducible, verified, edges, violator = out
        if not verified:
            return _wrong("BadCertificate", "verify_certificate rejected the verdict")
        if source is not None and not oracles.certificate_ok(source, target, reducible, edges, violator):
            return _wrong("BadCertificate", "witness breaks the atom rule table")
        return _expect((m, n, reducible), expected)

    return Op(label, size, run, check)


# -- products_ladder ---------------------------------------------------------

_SOL_SOURCE = sol({2: W, 3: 5, 5: 7, 7: W})
_SOL_TARGET = sol({2: W, 7: W, 5: 3})

# (label, source as (atom, k) runs, target likewise, sizes n); a run is the
# power atom^(k*n), or a single atom when k is 0.  T^1000 and RT^500 end in
# RecursionError at the baseline and stay in the ladder.
LADDERS = (
    ("T^n", ((TORUS, 1),), ((TORUS, 1),), (1, 10, 100, 200, 400, 1000)),
    ("Sol^n", ((_SOL_SOURCE, 1),), ((_SOL_TARGET, 1),), (1, 10, 30, 100, 300)),
    ("RT^n", ((REAL, 1), (TORUS, 1)), ((TORUS, 1), (REAL, 1)), (1, 10, 50, 100, 200, 500)),
    ("R^n->T", ((REAL, 1),), ((TORUS, 0),), (10, 100, 10_000, 100_000, 1_000_000)),
)


def _ladder_side(runs, n):
    """Literal and per-class factor counts of one side of a rung."""
    parts, counts = [], {}
    for atom, k in runs:
        power = k * n if k else 1
        parts.append(f"{_atom_literal(atom)}^{power}")
        cls = atom_class(atom)
        counts[cls] = counts.get(cls, 0) + power
    return " x ".join(parts), counts


def products_ladder(pkg, seed, root, in_process=True):
    ops = []
    for label, source, target, sizes in LADDERS:
        for n in sizes:
            g_text, g_counts = _ladder_side(source, n)
            h_text, h_counts = _ladder_side(target, n)
            expected = (sum(g_counts.values()), sum(h_counts.values()),
                        oracles.hall_reduces(g_counts, h_counts))
            ops.append(_reduce_op(pkg, label, n, g_text, h_text, expected))
    return Workload("products_ladder", tuple(ops), budget_s=30.0, child_processes=False)


# -- random_mix ----------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)
RANDOM_OPS = 1000


def _random_profile(rng):
    default = W if rng.random() < 0.2 else 0
    keys = rng.sample(_PRIMES, rng.randint(1, 3))
    exceptions = {g: rng.choice((0, 1, 2, 3, 5, W, W)) for g in keys}
    if default == 0 and W not in exceptions.values():
        exceptions[keys[0]] = W
    return exceptions, default


def _random_product(rng, compact):
    """Up to six factors, written with powers for repeated atoms."""
    atoms, parts = [], []
    size = rng.randint(1, 6)
    while len(atoms) < size:
        pick = rng.random()
        if pick < 0.2 and not compact:
            atom = REAL
        elif pick < 0.45:
            atom = TORUS
        else:
            atom = ("Sol", _random_profile(rng))
        power = min(rng.choice((1, 1, 1, 2, 3)), size - len(atoms))
        atoms.extend([atom] * power)
        parts.append(_atom_literal(atom) + (f"^{power}" if power > 1 else ""))
    return atoms, " x ".join(parts)


def random_mix(pkg, seed, root, in_process=True):
    rng = random.Random(seed)
    L, R, D, S = pkg.literals, pkg.reducibility, pkg.duality, pkg.supernatural
    ops = []
    for _ in range(RANDOM_OPS):
        kind = rng.random()
        if kind < 0.2:
            q, p = _random_profile(rng), _random_profile(rng)
            q_text, p_text = _profile_literal(q), _profile_literal(p)
            expected = oracles.preceq(q, p)
            ops.append(Op("preceq", 1, lambda q_text=q_text, p_text=p_text:
                          S.preceq(L.parse_profile(q_text), L.parse_profile(p_text)),
                          lambda out, e=expected: _expect(out, e)))
            continue
        compact = kind < 0.4
        source, g_text = _random_product(rng, compact)
        target, h_text = _random_product(rng, compact)
        if compact:
            expected = oracles.brute_force_reduces(source, target)
            ops.append(Op("dual_reduces", len(source), lambda g=g_text, h=h_text:
                          D.dual_reduces(L.parse_group(g), L.parse_group(h)),
                          lambda out, e=expected: _expect(out, e)))
        elif kind < 0.6:
            expected = oracles.compare_outcome(source, target)
            ops.append(Op("compare", len(source), lambda g=g_text, h=h_text:
                          R.compare(L.parse_group(g), L.parse_group(h)).value,
                          lambda out, e=expected: _expect(out, e)))
        else:
            expected = (len(source), len(target), oracles.brute_force_reduces(source, target))
            ops.append(_reduce_op(pkg, "reduces", len(source), g_text, h_text, expected,
                                  source, target))
    return Workload("random_mix", tuple(ops), budget_s=30.0, child_processes=False)


# -- poset_lab ------------------------------------------------------------------

# (literal, membership test, cofinite?)
_SETS = (
    ("ups{from=0; period=2; word=10}", lambda n: n % 2 == 0, False),
    ("ups{except=1; from=3; period=3; word=011}", lambda n: n == 1 or (n >= 3 and n % 3 != 0), False),
    ("cofin{0,2}", lambda n: n not in (0, 2), True),
)


def poset_lab(pkg, seed, root, in_process=True):
    L, P = pkg.literals, pkg.posetlab
    ops = []
    for window in (10, 100, 300, 1000):
        for a, b in ((4, 2), (2, 4)):
            def run(a=a, b=b, window=window):
                family = P.Family.default()
                report = P.member_crosscheck(P.MemberRef(family, P.UPSet.multiples_of(a)),
                                             P.MemberRef(family, P.UPSet.multiples_of(b)), window)
                return report.verdict, report.consistent
            # multiples of a lie almost inside multiples of b iff b divides a
            ops.append(Op("crosscheck", window, run, lambda out, e=(a % b == 0, True): _expect(out, e)))
    for text, is_member, cofinite in _SETS:
        for n in (100, 1000, 10_000):
            def run(text=text, n=n):
                return list(P.member_sequence(P.MemberRef(P.Family.default(), L.parse_upset(text)), n))
            expected = oracles.member_sequence(is_member, cofinite, n)
            ops.append(Op("member_sequence", n, run,
                          lambda out, e=expected: _expect(out, e, "WrongSequence")))
    for depth in (4, 8, 12, 16, 18, 20):
        def run(depth=depth):
            demo = P.chain_demo(P.Family.default(), depth)
            return [list(row) for row in demo.matrix]
        ops.append(Op("chain_demo", depth, run,
                      lambda out, e=oracles.chain_matrix(depth): _expect(out, e)))
    for n in (10_000, 100_000, 1_000_000):
        def run(n=n):
            finite, cofinite = L.parse_upset(f"fin{{{n}}}"), L.parse_upset("cofin{0}")
            return P.subset_star(finite, cofinite), P.subset_star(cofinite, finite)
        # a finite set lies almost inside anything; an infinite one never
        # inside a finite one
        ops.append(Op("subset_star_fin", n, run, lambda out: _expect(out, (True, False))))
    return Workload("poset_lab", tuple(ops), budget_s=30.0, child_processes=False)


# -- cli_mix -------------------------------------------------------------------

# A semiprime of two 90-bit primes: factoring it during normalization does
# not finish at the baseline, so this command ends at the time budget.
_P90 = 618970019668049015295030157
_Q90 = 928455029464802529184826323

# Expected stdout of the README examples.
_README = {
    ("reduce", "R^2 x T", "T^3"): "REDUCIBLE\n1 -> 3 (R_ANY)\n2 -> 2 (R_ANY)\n3 -> 1 (T_T)",
    ("reduce", "Sol{2:w} x Sol{3:w}", "Sol{2:w,3:w} x T"): "NOT REDUCIBLE\nviolator K={1, 2} N(K)={2}",
    ("compare", "Sol{2:5,3:w}", "Sol{2:9,3:w}"): "EQUIVALENT",
    ("preceq", "{2:7,3:w}", "{2:5,3:w}", "--oracle-window", "100"):
        "PRECEQ\ndeficit = 2\noracle: window of 100 terms after drop 2 embeds in a prefix of 100 terms: True",
    ("family-expand", "--a", "ups{from=0; period=2; word=10}", "--len", "4"): "13,3,37,2",
    ("normalize", "S[4,6,8|9]"): "Sol{2:6, 3:w}",
}

# argv of each golden report, as the CLI tests produce them.
_GOLDEN = {
    "reduce_true.json": ("reduce", "R^2 x T", "T^3", "--json", "--certificate"),
    "reduce_false.json": ("reduce", "Sol{2:w} x Sol{3:w}", "Sol{2:w,3:w} x T", "--json"),
    "compare.json": ("compare", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--json"),
    "dual.json": ("dual", "T^2 x Sol{2:6,3:w}", "--json"),
}


def _surplus_line():
    q, p = ({2: 9, 3: W}, 0), ({2: 5, 3: W}, 0)
    table = oracles.surplus_table(q, p)
    pairs = ", ".join(f"{g}^{d}" for g, d in table) or "none"
    total = sum(d for _, d in table)
    return f"REDUCIBLE\n1 -> 1 (SOL_SOL) [surplus: {pairs}; total {total}]"


def _json_certificate(stdout, source, target):
    """A ``reduce --json`` report: right verdict, and a witness that obeys
    the atom rule table."""
    report = json.loads(stdout)
    expected = oracles.brute_force_reduces(source, target)
    certificate = report["certificate"]
    edges = [(e["left"], e["right"]) for e in certificate.get("edges", ())] or None
    violator = certificate.get("violator")
    violator = violator and (violator["K"], violator["NK"])
    if not oracles.certificate_ok(source, target, report["verdict"], edges, violator):
        return _wrong("BadCertificate", "witness breaks the atom rule table")
    return _expect(report["verdict"], expected)


def _demo_matrix(stdout):
    rows = stdout.splitlines()[2:-1]  # below the verdict and the header, above the footer
    return [[cell == "yes" for cell in row.split()[1:]] for row in rows]


def cli_commands(golden_dir):
    """(argv, expected exit code, check of stdout and stderr)."""
    def exact(text):
        return lambda out, err: _expect(out.rstrip("\n"), text, "WrongOutput")

    commands = [(list(argv), 0, exact(text)) for argv, text in _README.items()]
    for name, argv in _GOLDEN.items():
        golden = (golden_dir / name).read_text()
        commands.append((list(argv), 0, lambda out, err, g=golden: _expect(out, g, "WrongOutput")))
    d_preview = ", ".join(map(str, oracles.odd_primes(8)))
    commands += [
        (["reduce", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--certificate"], 0, exact(_surplus_line())),
        (["dim", "R^2 x T x Sol{2:w}^3"], 0, exact("6")),
        (["family-new"], 0, exact(f"OK\np = {{2:w}}\nq = {{default=w}}\nd-enumeration starts {d_preview}")),
        (["family-compare", "--a", "ups{from=0; period=4; word=1000}",
          "--b", "ups{from=0; period=2; word=10}", "--crosscheck", "50"], 0,
         lambda out, err: _expect(tuple(out.splitlines()[:2]), ("REDUCIBLE", "crosscheck: CONSISTENT"),
                                  "WrongOutput")),
        (["family-demo", "--depth", "4"], 0,
         lambda out, err: _expect(_demo_matrix(out), oracles.chain_matrix(4))),
        (["compare", "Sol{2:w}", "Sol{3:w}"], 0,
         exact(oracles.compare_outcome([sol({2: W})], [sol({3: W})]))),
        (["reduce", "Sol{2:9,3:w} x T x R", "R x Sol{2:5,3:w} x T^2", "--json", "--certificate"], 0,
         lambda out, err: _json_certificate(out, [sol({2: 9, 3: W}), TORUS, REAL],
                                            [REAL, sol({2: 5, 3: W}), TORUS, TORUS])),
        (["reduce", "T", "R", "--exit-verdict"], 3, exact("NOT REDUCIBLE\nviolator K={1} N(K)={}")),
        (["reduce", "T^", "T"], 1,
         lambda out, err: _expect((out, err.startswith("usage error:")), ("", True), "WrongOutput")),
        (["family-new", "--p", "{default=w}"], 2,
         lambda out, err: _expect(out.splitlines()[:1], ["ERROR"], "WrongOutput")),
        (["reduce", f"S[{_P90 * _Q90}|3]", "T"], 0, exact("REDUCIBLE\n1 -> 1 (SOL_T)")),
    ]
    return commands


def _cli_check(expected_code, check):
    def checker(out):
        code, stdout, stderr = out
        if code != expected_code:
            last = stderr.strip().splitlines()[-1:] or [""]
            return Problem(f"Exit{code}", f"expected exit {expected_code}: {last[0][:200]}", False)
        return check(stdout, stderr)
    return checker


def cli_mix(pkg, seed, root, in_process=False):
    """Each command runs in a fresh child process; with ``in_process`` it
    calls ``borelcmp.cli.main`` instead, which is how the traced run sees
    inside it."""
    ops = []
    budget = 3.0
    for argv, code, check in cli_commands(root / "tests" / "golden"):
        if in_process:
            run = lambda argv=argv: _call_main(pkg.cli, argv)
        else:
            run = lambda argv=argv: _spawn(root, argv, budget)
        ops.append(Op(argv[0], " ".join(argv)[:80], run, _cli_check(code, check)))
    return Workload("cli_mix", tuple(ops), budget_s=budget, child_processes=not in_process)


def _spawn(root, argv, budget):
    done = subprocess.run([sys.executable, "-m", "borelcmp.cli", *argv], cwd=root,
                          capture_output=True, text=True, timeout=budget)
    return done.returncode, done.stdout, done.stderr


def _call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {
    "cli_mix": cli_mix,
    "products_ladder": products_ladder,
    "random_mix": random_mix,
    "poset_lab": poset_lab,
}
