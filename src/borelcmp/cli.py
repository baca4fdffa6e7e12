"""Command-line surface.

Verbs:

    reduce <G> <H> [--json] [--certificate] [--exit-verdict]
    compare <G> <H> [--json]
    dual <G> [--json]
    dim <G>
    normalize <G>
    preceq <profile> <profile> [--oracle-window N]
    family-new [--p <profile>] [--q <profile>]
    family-compare --a <ups> --b <ups> [--power n] [--crosscheck N]
    family-expand --a <ups> --len N
    family-demo [--depth k] [--power n]
    selftest

Exit codes: 0 for a completed computation (whatever the verdict), 1 for a
usage or parse error, 2 for a domain error, 3 for a false verdict when
``--exit-verdict`` asks for it, and 4 for an internal error.  Verdicts are
data, not failures, and a reader that closes stdout early changes no exit
code.

The ``family-*`` verbs operate on the default family (p = {2:w},
q = {default=w}); ``family-new`` validates and describes an arbitrary one.

A process loads only what its verb runs.  Every verb loads the product
engine.  ``dual`` adds the dual route (``duality``) and the ``family-*``
verbs the poset laboratory (``posetlab``); ``selftest`` loads both and the
``selftest`` module.  ``--json`` adds the standard ``json`` module.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BorelcmpError, DomainError, ParseError
from .groups import dimension, is_compact
from .literals import (
    parse_group,
    parse_profile,
    parse_upset,
    render_dual,
    render_group,
)
from .reducibility import EdgeReason, compare, reduces
from .report import Report, certificate_payload
from .supernatural import deficit, oracle_replay, preceq, refutation_witness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_FALSE_VERDICT = 3
EXIT_INTERNAL = 4

# Size options: flag -> (dest, largest accepted value).  Their work grows
# with the value (``--depth`` doubles the period of the demo's sets), so a
# larger value is a domain error, refused before any work starts.
SIZE_CAPS = {
    "--depth": ("depth", 22),
    "--len": ("length", 10**5),
    "--oracle-window": ("oracle_window", 10**6),
    "--crosscheck": ("crosscheck", 10**4),
}

# A parsed command: the argparse namespace, with every literal argument
# already turned into its engine value and its text kept in ``inputs``.
Command = argparse.Namespace


# bench/tracing.py patches these bindings; they resolve to the poset lab's
# functions, which the handlers look up on ``posetlab`` at call time.  Kept
# only for the tracer, like the tracer imports in ``reducibility`` and
# ``posetlab`` (ROADMAP items 1/4).
_TRACED_POSETLAB = ("member_crosscheck", "member_sequence", "chain_demo")


def __getattr__(name):
    if name not in _TRACED_POSETLAB:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import posetlab

    return getattr(posetlab, name)


class UsageError(BorelcmpError):
    """Bad command line: unknown verb or flag, or a malformed literal."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="borelcmp", description=__doc__.strip().splitlines()[0])
    parser.set_defaults(json_output=False)
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def verb(name, handler, help):
        subparser = verbs.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)
        return subparser

    reduce_p = verb("reduce", _reduce, "decide E(G) <= E(H)")
    reduce_p.add_argument("g")
    reduce_p.add_argument("h")
    reduce_p.add_argument("--json", action="store_true", dest="json_output")
    reduce_p.add_argument("--certificate", action="store_true", dest="show_certificate")
    reduce_p.add_argument("--exit-verdict", action="store_true")

    compare_p = verb("compare", _compare, "compare both directions")
    compare_p.add_argument("g")
    compare_p.add_argument("h")
    compare_p.add_argument("--json", action="store_true", dest="json_output")

    dual_p = verb("dual", _dual, "dual group of an expression")
    dual_p.add_argument("g")
    dual_p.add_argument("--json", action="store_true", dest="json_output")

    verb("dim", _dim, "covering dimension").add_argument("g")
    verb("normalize", _normalize, "normalize an expression").add_argument("g")

    preceq_p = verb("preceq", _preceq, "profile embedding order")
    preceq_p.add_argument("q_profile", metavar="q")
    preceq_p.add_argument("p_profile", metavar="p")
    preceq_p.add_argument("--oracle-window", type=int, metavar="N")

    family_new = verb("family-new", _family_new, "validate and describe a family")
    family_new.add_argument("--p", dest="p")
    family_new.add_argument("--q", dest="q")

    family_compare = verb("family-compare", _family_compare, "order two members of the default family")
    family_compare.add_argument("--a", required=True)
    family_compare.add_argument("--b", required=True)
    family_compare.add_argument("--power", type=int, default=1)
    family_compare.add_argument("--crosscheck", type=int, metavar="N")

    family_expand = verb("family-expand", _family_expand, "concrete member sequence prefix")
    family_expand.add_argument("--a", required=True)
    family_expand.add_argument("--len", type=int, required=True, dest="length")

    family_demo = verb("family-demo", _family_demo, "chain and antichain demo")
    family_demo.add_argument("--depth", type=int, default=3)
    family_demo.add_argument("--power", type=int, default=1)

    verb("selftest", _selftest, "run all eleven acceptance criteria at full scale")
    return parser


def parse_command(argv) -> Command:
    """Parse and validate a full command line; no partial execution."""
    command = build_parser().parse_args(list(argv))
    for flag in ("oracle_window", "crosscheck"):
        value = getattr(command, flag, None)
        if value is not None and value < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be positive")
    for flag, (dest, cap) in SIZE_CAPS.items():
        value = getattr(command, dest, None)
        if value is not None and value > cap:
            command.handler = _refusal(DomainError(f"{flag} {value} is over its cap of {cap}"))
    # every literal argument of every verb, by dest, in the order of a report's
    # inputs; built per call, so the parser names are looked up at call time
    literals = (
        ("g", parse_group), ("h", parse_group),
        ("q_profile", parse_profile), ("p_profile", parse_profile),
        ("p", parse_profile), ("q", parse_profile),
        ("a", parse_upset), ("b", parse_upset),
    )
    given = [(dest, parse) for dest, parse in literals if getattr(command, dest, None) is not None]
    command.inputs = tuple(getattr(command, dest) for dest, _ in given)
    try:
        for dest, parse in given:
            setattr(command, dest, parse(getattr(command, dest)))
    except ParseError as exc:
        raise UsageError(str(exc)) from exc
    except DomainError as exc:  # a well-formed literal out of the domain, e.g. over the factor cap
        command.handler = _refusal(exc)
    return command


def _refusal(error: DomainError):
    """A handler that raises ``error``, which ``run`` reports as exit code 2."""
    def refuse(command: Command):
        raise error

    return refuse


def run(command: Command):
    """Run a parsed command's handler and build its report; domain errors
    become exit code 2."""
    try:
        fields, code = command.handler(command)
    except DomainError as exc:
        fields, code = {"verdict": "ERROR", "diagnostics": (str(exc),)}, EXIT_DOMAIN
    report = Report(
        verb=command.verb,
        inputs=command.inputs,
        format="json" if command.json_output else "text",
        **fields,
    )
    return report, code


# -- one handler per verb: each returns (report fields, exit code) ---------------

def _reduce(command: Command):
    verdict = reduces(command.g, command.h)
    diagnostics = []
    if verdict.reducible:
        # one line per edge, rendered from the blocks without a witness per edge
        for left, right, count, reason, deficit in verdict.certificate.blocks:
            tail = f" ({reason.value.removeprefix('RULE_')})"
            if command.show_certificate and reason is EdgeReason.RULE_SOL_SOL:
                pairs = ", ".join(f"{g}^{d}" for g, d in deficit) or "none"
                tail += f" [surplus: {pairs}; total {sum(d for _, d in deficit)}]"
            diagnostics += [f"{left + j} -> {right - j}{tail}" for j in range(count)]
    else:
        diagnostics.append(
            f"violator K={{{', '.join(map(str, verdict.violator.K))}}} "
            f"N(K)={{{', '.join(map(str, verdict.violator.NK))}}}"
        )
    code = EXIT_FALSE_VERDICT if command.exit_verdict and not verdict.reducible else EXIT_OK
    fields = {
        "verdict": verdict.reducible,
        # only the JSON form prints the certificate
        "certificate": certificate_payload(verdict) if command.json_output else None,
        "diagnostics": tuple(diagnostics),
    }
    return fields, code


def _compare(command: Command):
    return {"verdict": compare(command.g, command.h).value}, EXIT_OK


def _dual(command: Command):
    from .duality import dual, rank

    d = dual(command.g)
    if is_compact(command.g):
        note = f"rank {rank(d)} = dimension of the primal"
    else:
        note = "real factors are self-dual; rank applies to compact expressions only"
    return {"verdict": render_dual(d), "diagnostics": (note,)}, EXIT_OK


def _dim(command: Command):
    return {"verdict": str(dimension(command.g))}, EXIT_OK


def _normalize(command: Command):
    return {"verdict": render_group(command.g)}, EXIT_OK


def _preceq(command: Command):
    q, p = command.q_profile, command.p_profile
    holds = preceq(q, p)
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
    from . import posetlab

    family = posetlab.Family.default()
    m_a = posetlab.MemberRef(family, command.a, command.power)
    m_b = posetlab.MemberRef(family, command.b, command.power)
    verdict = posetlab.member_reduces(m_a, m_b)
    if command.crosscheck is None:
        return {"verdict": verdict}, EXIT_OK
    report = posetlab.member_crosscheck(m_a, m_b, command.crosscheck)
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
    from . import posetlab

    member = posetlab.MemberRef(posetlab.Family.default(), command.a, 1)
    terms = posetlab.member_sequence(member, command.length)
    return {"verdict": ",".join(map(str, terms))}, EXIT_OK


def _family_demo(command: Command):
    from . import posetlab

    demo = posetlab.chain_demo(posetlab.Family.default(), command.depth, command.power)
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


def render_text(report: Report) -> str:
    verdict = report.verdict
    if verdict is True:
        head = "PRECEQ" if report.verb == "preceq" else "REDUCIBLE"
    elif verdict is False:
        head = "NOT PRECEQ" if report.verb == "preceq" else "NOT REDUCIBLE"
    else:
        head = str(verdict)
    return "\n".join([head, *report.diagnostics])


def render(report: Report) -> str:
    return report.to_json() if report.format == "json" else render_text(report)


def main(argv=None) -> int:
    try:
        report, code = run(parse_command(sys.argv[1:] if argv is None else argv))
        try:
            print(render(report), flush=True)
        except BrokenPipeError:  # the reader of stdout went away; the report stands
            # what is left in the buffer goes to devnull, so the flush at exit stays silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the process boundary: any other fault is exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
