"""The handlers of ``preceq``, the ``family-*`` verbs and ``selftest``,
which ``cli`` loads on first use; each takes a ``cli.Command`` and returns
(report fields, exit code).
"""

from __future__ import annotations

from . import supernatural  # read at call time, where bench/tracing.py patches its bindings
from .errors import EXIT_OK, EXIT_USAGE
from .replay import deficit, oracle_replay, refutation_witness


def _preceq(command: Command):
    q, p = command.q_profile, command.p_profile
    holds = supernatural.preceq(q, p)
    diagnostics = [f"deficit = {deficit(q, p)}"]
    if not holds:
        witness = refutation_witness(q, p)
        supply = p.multiplicity(witness)
        diagnostics.append(f"witness prime {witness}: multiplicity w in q exceeds {supply} in p")
    if command.oracle_window is not None:
        diagnostics.append(_oracle_line(oracle_replay(q, p, command.oracle_window)))
    return {"verdict": holds, "diagnostics": tuple(diagnostics)}, EXIT_OK


def _oracle_line(replay) -> str:
    """The report line of a replay, for ``preceq`` and ``family-compare``."""
    if replay.needs_window is not None:
        return f"oracle: INCONCLUSIVE (needs window {replay.needs_window})"
    if replay.witness is not None:
        return (
            f"oracle: window with {replay.needed} occurrences of {replay.witness} "
            f"fails to embed: {replay.prefix is None}"
        )
    into = "no prefix" if replay.prefix is None else f"a prefix of {replay.prefix} terms"
    return (
        f"oracle: window of {replay.end - replay.drop} terms after drop {replay.drop} "
        f"embeds in {into}: {replay.prefix is not None}"
    )


def _family_new(command: Command):
    from .posetlab import Family

    default = Family.default()
    family = Family(
        default.p if command.p is None else command.p,
        default.q if command.q is None else command.q,
    )
    diagnostics = (
        f"p = {family.p}",
        f"q = {family.q}",
        "d-enumeration starts " + ", ".join(map(str, family.d_terms(8))),
    )
    return {"verdict": "OK", "diagnostics": diagnostics}, EXIT_OK


def _family_compare(command: Command):
    from .posetlab import Family, MemberRef, member_crosscheck, member_reduces

    family = Family.default()
    m_a = MemberRef(family, command.a, command.power)
    m_b = MemberRef(family, command.b, command.power)
    verdict = member_reduces(m_a, m_b)
    if command.crosscheck is None:
        return {"verdict": verdict}, EXIT_OK
    report = member_crosscheck(m_a, m_b, command.crosscheck)
    surplus = ", ".join(map(str, report.surplus_primes)) or "none"
    if not report.consistent:
        status = "INCONSISTENT: " + "; ".join(report.notes)
    elif report.replay.needs_window is not None:
        status = f"INCONCLUSIVE (needs window {report.replay.needs_window})"
    else:
        status = "CONSISTENT"
    diagnostics = (
        "crosscheck: " + status,
        f"surplus primes ({'all' if report.surplus_finite else 'first shown'}): {surplus}",
        _oracle_line(report.replay),
    )
    return {"verdict": verdict, "diagnostics": diagnostics}, EXIT_OK


def _family_expand(command: Command):
    from .posetlab import Family, MemberRef, member_sequence

    member = MemberRef(Family.default(), command.a, 1)
    terms = member_sequence(member, command.length)
    return {"verdict": ",".join(map(str, terms))}, EXIT_OK


def _family_demo(command: Command):
    from .posetlab import Family, chain_demo

    demo = chain_demo(Family.default(), command.depth, command.power)
    width = max(len(label) for label in demo.labels)
    lines = [" " * (width + 2) + "  ".join(f"{label:>{width}}" for label in demo.labels)]
    for label, row in zip(demo.labels, demo.matrix):
        cells = "  ".join(f"{'yes' if cell else 'no':>{width}}" for cell in row)
        lines.append(f"{label:>{width}}  {cells}")
    lines.append("rows reduce to columns; power " + str(command.power))
    return {"verdict": "OK", "diagnostics": tuple(lines)}, EXIT_OK


def _selftest(command: Command):
    from .selftest import run_selftest

    results = run_selftest()
    diagnostics = tuple(
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
        for name, ok, detail in results
    )
    all_ok = all(ok for _, ok, _ in results)
    code = EXIT_OK if all_ok else EXIT_USAGE
    return {"verdict": "PASS" if all_ok else "FAIL", "diagnostics": diagnostics}, code
